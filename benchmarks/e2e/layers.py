"""Which public functions are layer boundaries, and what the spans say.

:func:`instrument` wraps every boundary with the benchmark's tracer;
:func:`span_metrics` turns the recorded spans into the per-layer metrics
that have a span behind them.  Metrics that need a dedicated probe (the
observability ladder, bulk provisioning) are computed by the workload
that owns the probe; every per-layer metric a workload does not exercise
is reported as 0.
"""

from __future__ import annotations

from statistics import median
from typing import Dict, List

from benchmarks.e2e.trace import END, ITERATION, NAME, PARENT, START, Tracer

#: Spans whose direct ``compute_service_targets`` children are the cold
#: per-service Eq. 5 computations (the §6.5.2 decision-time number).
COLD_TARGET_PARENTS = ("experiments.run_trace_simulation", "bench.feasibility")

SCALE_SPANS = (
    "core.scaling.erms.scale",
    "core.scaling.erms-fcfs.scale",
    "baselines.grandslam.scale",
    "baselines.rhythm.scale",
    "baselines.firm.scale",
)


def instrument(tracer: Tracer) -> None:
    """Wrap every layer's public entry points (call once, before set-up)."""
    from repro.baselines import Firm, GrandSLAm, Rhythm
    from repro.core import controller, latency_targets, merge, multiplexing
    from repro.core.provisioning import InterferenceAwareProvisioner, Provisioner
    from repro.core.scaling import ErmsScaler
    from repro.deployment import DeploymentController, NetworkPriorityConfigurator
    from repro.experiments import harness, reporting, static, trace_sim
    from repro.profiling import piecewise
    from repro.simulator.simulation import ClusterSimulator
    from repro.telemetry import export
    from repro.telemetry.analysis import blame, critical_path, report
    from repro.workloads import alibaba

    method = tracer.instrument_method
    function = tracer.instrument_function

    method(ClusterSimulator, "__init__", "simulator.construct")
    method(
        ClusterSimulator,
        "run",
        "simulator.replay",
        after=lambda result, *_: {
            "simulator.events": result.events_processed,
            "simulator.requests": sum(result.completed.values()),
        },
    )
    function(report.analyze_run, "telemetry.analysis.analyze_run")
    function(
        critical_path.extract_critical_path,
        "telemetry.analysis.extract_critical_path",
    )
    function(blame.attribute_blame, "telemetry.analysis.attribute_blame")
    function(export.build_run_report, "telemetry.export.build_run_report")
    function(alibaba.generate_taobao, "workloads.generate_taobao")
    function(merge.merge_graph, "core.merge.merge_graph")
    function(
        latency_targets.compute_service_targets,
        "core.latency_targets.compute_service_targets",
    )
    function(
        multiplexing.scale_with_priorities,
        "core.multiplexing.scale_with_priorities",
    )
    method(
        ErmsScaler, "scale",
        name_of=lambda scaler, *_: f"core.scaling.{scaler.name}.scale",
    )
    for scheme in (GrandSLAm, Rhythm, Firm):
        method(scheme, "scale", f"baselines.{scheme.name}.scale")
    method(
        InterferenceAwareProvisioner, "choose_placement_host",
        "core.provisioning.choose_placement_host",
    )
    method(
        InterferenceAwareProvisioner, "choose_release_host",
        "core.provisioning.choose_release_host",
    )
    method(Provisioner, "apply", "core.provisioning.apply")
    method(DeploymentController, "apply_allocation", "deployment.apply_allocation")
    method(DeploymentController, "reconcile", "deployment.reconcile")
    method(DeploymentController, "tick", "deployment.tick")
    method(NetworkPriorityConfigurator, "install", "deployment.netprio_install")
    method(controller.ErmsController, "reconcile", "core.controller.reconcile")
    function(harness.fit_profiles_from_simulation, "profiling.fit_profiles")
    function(piecewise.fit_piecewise, "profiling.fit_piecewise")
    function(static.run_static_sweep, "experiments.run_static_sweep")
    function(trace_sim.run_trace_simulation, "experiments.run_trace_simulation")
    function(harness.evaluate_allocation, "experiments.evaluate_allocation")
    function(reporting.format_table, "experiments.format_table")


def _median(values: List[float]) -> float:
    return float(median(values)) if values else 0.0


def span_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-layer metrics derived from spans and boundary counters.

    ``*_s`` metrics are the layer's summed span time within one
    iteration, median over the traced iterations; ``*_ms_p50`` metrics
    are the median duration of the individual calls.
    """
    iterations = tracer.iterations()
    spans = tracer.spans

    def per_iteration(name: str) -> float:
        return _median([tracer.total(name, it) for it in iterations])

    def call_ms_p50(name: str) -> float:
        durations = [d for it in iterations for d in tracer.durations(name, it)]
        return _median(durations) * 1e3

    def counter(name: str) -> float:
        return _median([tracer.counter(name, it) for it in iterations])

    def under(parent_name: str, names) -> float:
        """Per-iteration time of ``names`` spans directly under a parent."""
        return _median([
            sum(
                s[END] - s[START]
                for name in names
                for s in tracer.children_of(name, parent_name, it)
            )
            for it in iterations
        ])

    metrics: Dict[str, float] = {}

    # simulator
    metrics["simulator.construct_s"] = per_iteration("simulator.construct")
    metrics["simulator.replay_s"] = per_iteration("simulator.replay")
    metrics["simulator.events"] = counter("simulator.events")
    metrics["simulator.requests"] = counter("simulator.requests")
    metrics["simulator.events_per_s"] = _median([
        tracer.counter("simulator.events", it) / replay
        for it in iterations
        if (replay := tracer.total("simulator.replay", it)) > 0
    ])

    # telemetry.analysis / telemetry.export
    analyze = per_iteration("telemetry.analysis.analyze_run")
    traces = _median([
        len(tracer.durations("telemetry.analysis.extract_critical_path", it))
        for it in iterations
    ])
    metrics["telemetry.analysis.analyze_s"] = analyze
    metrics["telemetry.analysis.critical_path_s"] = per_iteration(
        "telemetry.analysis.extract_critical_path"
    )
    metrics["telemetry.analysis.blame_s"] = per_iteration(
        "telemetry.analysis.attribute_blame"
    )
    metrics["telemetry.analysis.traces"] = traces
    metrics["telemetry.analysis.traces_per_s"] = traces / analyze if analyze else 0.0
    metrics["telemetry.export.report_s"] = per_iteration(
        "telemetry.export.build_run_report"
    ) + per_iteration("telemetry.export.json_dumps")
    metrics["telemetry.export.report_bytes"] = counter("telemetry.export.report_bytes")

    # workloads: every generation counts, set-up ones included
    metrics["workloads.generate_s"] = _median(
        tracer.durations("workloads.generate_taobao")
    )

    # core
    metrics["core.merge.merge_graph_s"] = per_iteration("core.merge.merge_graph")
    for name in (
        "core.merge.cache_hits",
        "core.merge.cache_misses",
        "core.latency_targets.memo_hits",
        "core.latency_targets.memo_misses",
    ):
        metrics[name] = counter(name)
    cold: Dict[int, List[float]] = {}
    for span in tracer.select("core.latency_targets.compute_service_targets"):
        parent = span[PARENT]
        if parent >= 0 and spans[parent][NAME] in COLD_TARGET_PARENTS:
            cold.setdefault(span[ITERATION], []).append(span[END] - span[START])
    pooled = sorted(d for group in cold.values() for d in group)
    metrics["core.latency_targets.feasibility_s"] = _median(
        [sum(group) for group in cold.values()]
    )
    metrics["core.latency_targets.ltc_ms_p50"] = _median(pooled) * 1e3
    metrics["core.latency_targets.ltc_ms_p98"] = (
        pooled[min(len(pooled) - 1, int(0.98 * len(pooled)))] * 1e3 if pooled else 0.0
    )
    metrics["core.latency_targets.infeasible"] = counter("core.latency_targets.infeasible")
    metrics["core.multiplexing.shared_microservices"] = counter(
        "core.multiplexing.shared_microservices"
    )
    metrics["core.multiplexing.scale_with_priorities_s"] = per_iteration(
        "core.multiplexing.scale_with_priorities"
    )
    metrics["core.scaling.erms_scale_s"] = per_iteration("core.scaling.erms.scale")
    metrics["core.scaling.erms_fcfs_scale_s"] = per_iteration(
        "core.scaling.erms-fcfs.scale"
    )
    metrics["core.scaling.period_scale_ms_p50"] = call_ms_p50("core.scaling.erms.scale")
    metrics["baselines.grandslam_scale_s"] = per_iteration("baselines.grandslam.scale")
    metrics["baselines.rhythm_scale_s"] = per_iteration("baselines.rhythm.scale")
    metrics["baselines.firm_scale_s"] = per_iteration("baselines.firm.scale")

    # core.provisioning (per pod) / deployment
    metrics["core.provisioning.choose_host_ms_p50"] = call_ms_p50(
        "core.provisioning.choose_placement_host"
    )
    metrics["deployment.apply_s"] = per_iteration("deployment.apply_allocation")
    metrics["deployment.reconcile_ms_p50"] = call_ms_p50("deployment.reconcile")
    metrics["deployment.netprio_install_ms_p50"] = call_ms_p50(
        "deployment.netprio_install"
    )
    metrics["deployment.tick_ms_p50"] = call_ms_p50("deployment.tick")
    metrics["deployment.pods_created"] = counter("deployment.pods_created")
    metrics["deployment.pods_deleted"] = counter("deployment.pods_deleted")

    # profiling / experiments
    metrics["profiling.fit_s"] = per_iteration("profiling.fit_profiles")
    metrics["profiling.fit_piecewise_s"] = per_iteration("profiling.fit_piecewise")
    metrics["profiling.probe_runs"] = counter("profiling.probe_runs")
    metrics["experiments.sweep_alloc_s"] = under(
        "experiments.run_static_sweep", SCALE_SPANS
    )
    metrics["experiments.sweep_sim_s"] = under(
        "experiments.run_static_sweep", ("experiments.evaluate_allocation",)
    )
    metrics["experiments.cells"] = _median([
        len(tracer.children_of(
            "experiments.evaluate_allocation", "experiments.run_static_sweep", it
        ))
        for it in iterations
    ])
    metrics["experiments.aggregate_s"] = per_iteration("experiments.aggregate")

    # how much of an iteration the stage spans account for
    coverage = []
    for it in iterations:
        roots = list(tracer.select("iteration", it))
        if roots:
            wall = roots[0][END] - roots[0][START]
            own = tracer.self_times(it).get("iteration", 0.0)
            coverage.append(100.0 * (1.0 - own / wall) if wall > 0 else 0.0)
    metrics["driver.traced_coverage_pct"] = _median(coverage)
    return metrics

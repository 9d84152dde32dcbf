"""The columnar span store is observably identical to the object path.

``tests/fixtures/span_equivalence.json`` was generated on the commit
before the span table existed (``PYTHONPATH=src python -m tests.pinned
span_equivalence`` rewrites it), so these tests pin:

* materialised ``sink.traces`` — ids, parent ids, microservice, kind,
  start, end, timings, order — hash-identical to the old tuple→object
  path, for full sampling, tail sampling, a ``max_traces`` cap, an
  attached coordinator, and a tight timeout whose abandoned attempts
  orphan and drop spans;
* ``analyze_run(...).to_dict()`` and ``json.dumps(build_run_report(...))``
  byte-identical, the report with its engine-throughput fields masked
  (``tests.helpers.mask_throughput``: an engine that reaches the same
  spans in fewer events may move them) and keys added to the report
  since projected away (``tests.helpers.pinned_report``);
* the Eq. 1 decomposition still exact and the live ``MetricsStore`` still
  the post-hoc ``to_metrics_store`` sample for sample.

The scenario is the ``des_observed`` benchmark's: Social Network under an
Erms allocation, an error window and a latency spike on the busiest
microservice, default resilience policies, TSDB attached.
"""

import json

import pytest

from repro.core import ErmsScaler
from repro.resilience import (
    ChaosSchedule,
    ErrorWindow,
    LatencySpike,
    ResiliencePolicies,
    RetryPolicy,
    TimeoutPolicy,
)
from repro.simulator import ClusterSimulator, SimulationConfig
from repro.telemetry import (
    TelemetryConfig,
    TelemetrySink,
    TimeSeriesConfig,
    TimeSeriesStore,
    build_run_report,
)
from repro.telemetry.analysis import AnalysisOptions, analyze_run
from repro.tracing import TracingCoordinator
from repro.workloads import social_network
from tests.helpers import mask_throughput, pinned_report
from tests.pinned import expected, sha_lines

WINDOW_MIN = 0.05

#: name -> (seed, duration_min, TelemetryConfig extras, coordinator?, tight timeout?)
CASES = {
    "seed0": (0, 0.2, {}, False, False),
    "seed1": (1, 0.2, {}, False, False),
    "seed2": (2, 0.2, {}, False, False),
    "tail": (0, 0.1, {"tail_threshold_ms": 90.0, "tail_floor": 0.05}, False, False),
    "capped": (1, 0.1, {"max_traces": 300}, False, False),
    "coordinator": (2, 0.1, {"max_traces": 200}, True, False),
    "tight_timeout": (0, 0.1, {}, False, True),
}

_SCENARIO = {}


def _scenario():
    if not _SCENARIO:
        app = social_network()
        specs = app.with_workloads({s.name: 10_000.0 for s in app.services}, sla=200.0)
        profiles = app.analytic_profiles()
        demand = {}
        for spec in specs:
            for name, load in spec.microservice_workloads().items():
                demand[name] = demand.get(name, 0.0) + load
        _SCENARIO.update(
            app=app,
            specs=specs,
            profiles=profiles,
            allocation=ErmsScaler().scale(specs, profiles),
            busiest=max(sorted(demand), key=demand.get),
        )
    return _SCENARIO


def observe(case: str):
    """One instrumented run + analysis + report of a named case."""
    seed, duration, extras, with_coordinator, tight = CASES[case]
    sc = _scenario()
    coordinator = TracingCoordinator(sampling_rate=0.5, seed=1) if with_coordinator else None
    sink = TelemetrySink(
        config=TelemetryConfig(window_min=WINDOW_MIN, seed=seed, **extras),
        coordinator=coordinator,
        timeseries=TimeSeriesStore(TimeSeriesConfig(scrape_interval_min=WINDOW_MIN)),
    )
    policies = ResiliencePolicies.default(seed=seed)
    if tight:
        # Abandon the slowest root attempts: their stragglers outlive the
        # retry that closes the trace (late spans, orphaned children).
        overrides = {spec.graph.root.microservice: 110.0 for spec in sc["specs"]}
        policies = ResiliencePolicies(
            retry=RetryPolicy(max_attempts=2),
            timeout=TimeoutPolicy(call_timeout_ms=10_000.0, overrides=overrides),
            seed=seed,
        )
    allocation = sc["allocation"]
    # evaluate_allocation's run, plus own-latency recording so the live
    # MetricsStore can be held against the post-hoc one
    result = ClusterSimulator(
        sc["specs"], sc["app"].simulated,
        containers=allocation.containers,
        rates={spec.name: spec.workload for spec in sc["specs"]},
        config=SimulationConfig(
            duration_min=duration, warmup_min=duration / 4, seed=seed,
            scheduling="priority" if allocation.priorities else "fcfs",
        ),
        priorities=allocation.priorities,
        telemetry=sink,
        chaos=ChaosSchedule(
            error_windows=[ErrorWindow(sc["busiest"], 0.4 * duration, 0.6 * duration, 0.05)],
            latency_spikes=[LatencySpike(sc["busiest"], 0.7 * duration, 0.85 * duration, 1.5)],
            seed=seed,
        ),
        resilience=policies,
    ).run()
    analysis = analyze_run(
        sink=sink,
        targets=sc["allocation"].targets,
        priorities=sc["allocation"].priorities or None,
        profiles={name: p.model for name, p in sc["profiles"].items()},
        options=AnalysisOptions(window_min=WINDOW_MIN),
    )
    report = build_run_report(sink, result, sc["specs"], analysis=analysis)
    return sink, result, analysis, report


def trace_lines(traces):
    """Every field of every span and timing, in order, floats by repr."""
    for trace in traces:
        yield f"T {trace.trace_id} {trace.service} {len(trace.spans)}"
        for s in trace.spans:
            yield (
                f"S {s.span_id} {s.parent_id} {s.microservice} {s.kind.value} "
                f"{s.start!r} {s.end!r}"
            )
        for span_id, t in (trace.timings or {}).items():
            yield f"M {span_id} {t.queue_ms!r} {t.service_ms!r} {t.inflation_ms!r}"


def _graph_lines(node, depth=0):
    yield f"{depth} {node.microservice}"
    for index, stage in enumerate(node.stages):
        for child in stage:
            yield f"{depth} stage {index}"
            yield from _graph_lines(child, depth + 1)


def record(case: str) -> dict:
    sink, result, analysis, report = observe(case)
    out = {
        "traces": len(sink.traces),
        "spans": sum(len(t.spans) for t in sink.traces),
        "kept": sink.kept_traces,
        "traces_sha": sha_lines(trace_lines(sink.traces)),
        "analysis_sha": sha_lines([json.dumps(analysis.to_dict())]),
    }
    if not CASES[case][4]:
        # a run that drops late spans says so in its report (new field)
        pinned = mask_throughput(pinned_report(report))
        out["report_sha"] = sha_lines([json.dumps(pinned)])
    coordinator = sink.coordinator
    if coordinator is not None:
        lines = []
        for service in sorted(coordinator.traces):
            lines.append(f"{service} {coordinator.trace_count(service)}")
            lines.extend(_graph_lines(coordinator.extract_graph(service).root))
            for name, values in sorted(coordinator.latency_samples(service).items()):
                lines.append(f"{name} {values!r}")
            lines.extend(trace_lines(coordinator.traces[service]))
        out["coordinator_sha"] = sha_lines(lines)
    return out


@pytest.mark.parametrize("case", sorted(CASES))
def test_identical_to_object_path(case):
    assert record(case) == expected(__name__)[case]


def test_decomposition_exact_and_live_metrics_match_posthoc():
    sink, result, analysis, _ = observe("seed0")
    assert analysis.n_traces == sink.kept_traces > 0
    assert analysis.decomposition_max_abs_error_ms < 1e-6
    posthoc = result.to_metrics_store()
    key = lambda obs: (obs.microservice, obs.timestamp, obs.latency)
    assert sorted(sink.metrics.latencies, key=key) == sorted(posthoc.latencies, key=key)
    key = lambda s: (s.microservice, s.timestamp)
    assert sorted(sink.metrics.call_counts, key=key) == sorted(posthoc.call_counts, key=key)
    assert sink.metrics.utilization == posthoc.utilization


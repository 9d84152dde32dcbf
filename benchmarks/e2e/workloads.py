"""The five workloads: pinned shapes, timed iterations, output checks.

Every workload is a closed loop with one caller: iterations run back to
back in one process and one thread (``workers=1`` everywhere).  Iteration
*i* takes its inputs from ``seed + i``.  The number of timed iterations is
a pinned function of ``--seconds`` (``ITERATIONS_PER_SECOND``, sized on a
2-core box so the timed section lasts about ``--seconds``), not of how
fast the host happens to be, so simulated statistics and counts repeat
exactly for a seed.

A workload's life: ``setup()`` (inputs + warm-up; counted in ``setup_s``),
then per iteration ``prepare(i)`` (untimed input generation),
``iteration(i)`` (timed; returns the work done), ``check(i)`` (untimed
output checks), and finally ``finish()`` (whole-run checks) and, on a
traced run, ``probes()`` (per-layer measurements that need their own
runs).  Checks return failure strings; an empty list is a pass.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import json
import math
import zlib
from pathlib import Path
from time import perf_counter
from typing import Dict, List

from repro.baselines import Firm, GrandSLAm, Rhythm
from repro.core import (
    Cluster,
    ErmsController,
    ErmsScaler,
    InfeasibleSLAError,
    InterferenceAwareProvisioner,
    clear_merge_cache,
    clear_targets_memo,
    compute_service_targets,
    predicted_end_to_end,
    shared_microservices,
)
from repro.experiments import (
    evaluate_allocation,
    fit_profiles_from_simulation,
    format_table,
    run_static_sweep,
    run_trace_simulation,
)
from repro.resilience import ChaosSchedule, ErrorWindow, LatencySpike, ResiliencePolicies
from repro.simulator.simulation import ClusterSimulator
from repro.telemetry import (
    TelemetryConfig,
    TelemetrySink,
    TimeSeriesConfig,
    TimeSeriesStore,
    build_run_report,
)
from repro.telemetry.analysis import AnalysisOptions, analyze_run
from repro.workloads import generate_taobao, hotel_reservation, social_network
from repro.workloads.alibaba import TaobaoWorkload

#: Infeasible-service sets recorded for the default seeds (see README).
PINNED = json.loads((Path(__file__).parent / "pinned.json").read_text())

_NO_SPAN = contextlib.nullcontext()


def _crc(names) -> int:
    return zlib.crc32("\n".join(sorted(names)).encode())


#: ``best_effort_containers`` bounds over-provisioning at 20x the number
#: of containers that would run a microservice at its cut-off load.
OPERATOR_CAP = 20


def _sla_failures(label: str, specs, profiles, allocation) -> List[str]:
    """Eq. 5 and its consequence, per service.

    The latency targets fold through the graph to exactly the SLA, and the
    model-predicted end-to-end latency under the allocated containers is
    within the SLA.  The second is not required of a service with a
    microservice at the operator cap: a target close to the idle latency
    asks for more containers than the cap allows, and the allocation is
    then best effort by design (about one generated service in a thousand).
    """
    failures = []
    for spec in specs:
        targets = allocation.targets[spec.name]
        folded = spec.graph.end_to_end_latency(targets)
        if abs(folded - spec.sla) > 1e-6 * spec.sla:
            failures.append(
                f"{label}: {spec.name} targets fold to {folded:.6f} ms, SLA {spec.sla:.6f} ms"
            )
        workloads = allocation.modified_workloads[spec.name]
        if any(
            allocation.containers[name]
            >= OPERATOR_CAP * max(1, math.ceil(load / profiles[name].model.cutoff))
            for name, load in workloads.items()
        ):
            continue
        predicted = predicted_end_to_end(spec, profiles, allocation.containers, workloads)
        if not predicted <= spec.sla * (1.0 + 1e-9):
            failures.append(
                f"{label}: {spec.name} predicted {predicted:.3f} ms > SLA {spec.sla:.3f} ms"
            )
    return failures


def _split_feasible(specs, profiles):
    feasible, infeasible = [], []
    for spec in specs:
        try:
            compute_service_targets(spec, profiles)
            feasible.append(spec)
        except InfeasibleSLAError:
            infeasible.append(spec.name)
    return feasible, infeasible


def _pinned_failures(workload: str, seed: int, infeasible: List[str]) -> List[str]:
    pinned = PINNED.get(workload, {}).get(str(seed))
    if pinned is None:
        return []
    got = [len(infeasible), _crc(infeasible)]
    if got != pinned:
        return [f"{workload}: infeasible set for seed {seed} is {got}, pinned {pinned}"]
    return []


def _mean_violation_pct(result, specs) -> float:
    rates = [
        result.sla_violation_rate(spec.name, spec.sla)
        for spec in specs
        if result.completed.get(spec.name, 0)
    ]
    return 100.0 * sum(rates) / len(rates) if rates else 0.0


def _replay_fingerprint(result) -> tuple:
    """Completed counts and latency sums: equal iff two replays agree."""
    return tuple(
        (name, count, float(result.latencies(name, include_warmup=True).sum()))
        for name, count in sorted(result.completed.items())
    )


class Workload:
    name = ""
    #: What ``work_per_s`` counts on this workload.
    work_unit = ""
    #: Timed iterations per second of ``--seconds``.
    ITERATIONS_PER_SECOND = 1.0
    #: ``sim.containers`` is Erms' container total summed over the
    #: iterations (each a different population or period) or, where every
    #: iteration allocates for the same demand, their mean.
    CONTAINERS_SUMMED = False
    #: Runs of the calibration kernel (~20 ms each) after set-up and after
    #: every iteration: about a tenth of an iteration.
    CALIBRATION_REPEATS = 9

    def __init__(self, seed: int, tracer=None) -> None:
        self.seed = seed
        self.tracer = tracer
        #: Layer metrics the workload measures itself (counts, probes).
        self.layer: Dict[str, float] = {}
        self._containers: List[int] = []
        self._violation_pct: List[float] = []

    def iterations(self, seconds: float) -> int:
        return max(1, round(seconds * self.ITERATIONS_PER_SECOND))

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else _NO_SPAN

    def count(self, name: str, value: float) -> None:
        if self.tracer:
            self.tracer.count(name, value)

    def setup(self) -> List[str]:
        raise NotImplementedError

    def prepare(self, i: int) -> None:
        pass

    def iteration(self, i: int) -> float:
        raise NotImplementedError

    def check(self, i: int) -> List[str]:
        return []

    def finish(self) -> List[str]:
        return []

    def probes(self) -> List[str]:
        return []

    def sim_stats(self) -> Dict[str, float]:
        """Simulated (host-speed independent) statistics of the run."""
        violation = self._violation_pct
        containers = float(sum(self._containers))
        if not self.CONTAINERS_SUMMED and self._containers:
            containers /= len(self._containers)
        return {
            "sim.containers": containers,
            "sim.sla_violation_pct": sum(violation) / len(violation) if violation else 0.0,
        }


# ----------------------------------------------------------------------
class _SocialNetworkReplay(Workload):
    """Shared by the two DES workloads: Social Network under Erms."""

    RATE = 0.0
    SLA = 200.0

    def _allocate(self) -> List[str]:
        self.app = social_network()
        self.specs = self.app.with_workloads(
            {s.name: self.RATE for s in self.app.services}, sla=self.SLA
        )
        self.profiles = self.app.analytic_profiles()
        self.allocation = ErmsScaler().scale(self.specs, self.profiles)
        return _sla_failures(self.name, self.specs, self.profiles, self.allocation)

    def _record(self, result) -> float:
        self._containers.append(self.allocation.total_containers())
        self._violation_pct.append(_mean_violation_pct(result, self.specs))
        return float(sum(result.completed.values()))


class DesReplay(_SocialNetworkReplay):
    name = "des_replay"
    work_unit = "simulated requests completed"
    ITERATIONS_PER_SECOND = 0.42  # one iteration ~2.4 s, ~1.0 M events
    RATE = 20_000.0
    DURATION_MIN, WARMUP_MIN = 1.0, 0.3
    #: The warm-up replay, repeated in ``finish`` for the determinism check.
    SHORT = dict(duration_min=0.25, warmup_min=0.075)

    def _replay(self, seed: int, **window):
        return evaluate_allocation(
            self.specs, self.app.simulated, self.allocation, seed=seed, **window
        )

    def setup(self) -> List[str]:
        failures = self._allocate()
        self._warm = _replay_fingerprint(self._replay(self.seed, **self.SHORT))
        return failures

    def iteration(self, i: int) -> float:
        self._result = self._replay(
            self.seed + i, duration_min=self.DURATION_MIN, warmup_min=self.WARMUP_MIN
        )
        # what `repro simulate` prints: per-service tail and violation rate
        self._p95 = [self._result.tail_latency(s.name) for s in self.specs]
        return self._record(self._result)

    def check(self, i: int) -> List[str]:
        if not all(math.isfinite(v) and v > 0 for v in self._p95):
            return [f"{self.name}[{i}]: non-finite tail latency {self._p95}"]
        if self._result.resilience is not None:
            return [f"{self.name}[{i}]: resilience layer active on the bare path"]
        return []

    def finish(self) -> List[str]:
        again = _replay_fingerprint(self._replay(self.seed, **self.SHORT))
        if again != self._warm:
            return [f"{self.name}: same seed, different replay: {self._warm} vs {again}"]
        return []


class DesObserved(_SocialNetworkReplay):
    name = "des_observed"
    work_unit = "simulated requests completed"
    ITERATIONS_PER_SECOND = 0.27  # one iteration ~3.7 s
    RATE = 10_000.0
    DURATION_MIN, WARMUP_MIN = 0.2, 0.05
    WINDOW_MIN = 0.05

    def _chaos(self, seed: int, duration: float) -> ChaosSchedule:
        return ChaosSchedule(
            error_windows=[
                ErrorWindow(self.busiest, 0.4 * duration, 0.6 * duration, 0.05)
            ],
            latency_spikes=[
                LatencySpike(self.busiest, 0.7 * duration, 0.85 * duration, 1.5)
            ],
            seed=seed,
        )

    def _sink(self, seed: int, spans: bool = True, tsdb: bool = True) -> TelemetrySink:
        return TelemetrySink(
            config=TelemetryConfig(
                window_min=self.WINDOW_MIN,
                seed=seed,
                spans=spans,
                max_traces=None if spans else 0,
            ),
            timeseries=TimeSeriesStore(
                TimeSeriesConfig(scrape_interval_min=self.WINDOW_MIN)
            )
            if tsdb
            else None,
        )

    def _replay(self, seed, duration, warmup, sink=None, faults=False):
        return evaluate_allocation(
            self.specs, self.app.simulated, self.allocation,
            duration_min=duration, warmup_min=warmup, seed=seed,
            telemetry=sink,
            chaos=self._chaos(seed, duration) if faults else None,
            resilience=ResiliencePolicies.default(seed=seed) if faults else None,
        )

    def _observe(self, seed: int, duration: float, warmup: float):
        sink = self._sink(seed)
        result = self._replay(seed, duration, warmup, sink, faults=True)
        analysis = analyze_run(
            sink=sink,
            targets=self.allocation.targets,
            priorities=self.allocation.priorities or None,
            profiles={name: p.model for name, p in self.profiles.items()},
            options=AnalysisOptions(window_min=self.WINDOW_MIN),
        )
        report = build_run_report(sink, result, self.specs, analysis=analysis)
        with self.span("telemetry.export.json_dumps"):
            text = json.dumps(report)
        self.count("telemetry.export.report_bytes", len(text))
        return sink, result, analysis, text

    def setup(self) -> List[str]:
        failures = self._allocate()
        demand: Dict[str, float] = {}
        for spec in self.specs:
            for name, load in spec.microservice_workloads().items():
                demand[name] = demand.get(name, 0.0) + load
        self.busiest = max(sorted(demand), key=demand.get)
        self._observe(self.seed, 0.02, 0.005)
        return failures

    def prepare(self, i: int) -> None:
        # the previous iteration's sink holds every span of the run
        self._out = None
        gc.collect()

    def iteration(self, i: int) -> float:
        self._out = self._observe(self.seed + i, self.DURATION_MIN, self.WARMUP_MIN)
        return self._record(self._out[1])

    def check(self, i: int) -> List[str]:
        sink, result, analysis, text = self._out
        failures = []
        if analysis.n_traces != sink.kept_traces or analysis.n_traces == 0:
            failures.append(
                f"{self.name}[{i}]: analysed {analysis.n_traces} traces, "
                f"sink kept {sink.kept_traces}"
            )
        if not analysis.decomposition_max_abs_error_ms < 1e-6:
            failures.append(
                f"{self.name}[{i}]: critical-path decomposition off by "
                f"{analysis.decomposition_max_abs_error_ms} ms"
            )
        stats = result.resilience or {}
        if stats.get("requests", -1) != sum(
            stats.get(key, 0) for key in ("succeeded", "failed", "shed")
        ):
            failures.append(f"{self.name}[{i}]: resilience counters do not add up: {stats}")
        if not stats.get("errors_injected"):
            failures.append(f"{self.name}[{i}]: the chaos schedule injected nothing")
        if "analysis" not in json.loads(text):
            failures.append(f"{self.name}[{i}]: run report has no analysis section")
        return failures

    def finish(self) -> List[str]:
        if self.tracer:
            return []  # the ladder in probes() makes the same check at full length
        bare = self._replay(self.seed, 0.05, 0.0125)
        observed = self._replay(self.seed, 0.05, 0.0125, self._sink(self.seed, spans=False, tsdb=False))
        if _replay_fingerprint(bare) != _replay_fingerprint(observed):
            return [f"{self.name}: attaching a sink changed the replay's latencies"]
        return []

    def probes(self) -> List[str]:
        """The incremental ladder: one replay per rung, same seed."""
        seed, duration, warmup = self.seed, self.DURATION_MIN, self.WARMUP_MIN
        rungs = [
            ("bare", dict()),
            ("resilience", dict(faults=True)),
            ("sink", dict(faults=True, sink=self._sink(seed, spans=False, tsdb=False))),
            ("spans", dict(faults=True, sink=self._sink(seed, tsdb=False))),
            ("tsdb", dict(faults=True, sink=self._sink(seed))),
        ]
        wall, results = {}, {}
        for rung, options in rungs:
            gc.collect()
            with self.span(f"ladder.{rung}") as record:
                results[rung] = self._replay(seed, duration, warmup, **options)
            wall[rung] = record[2] - record[1]
        stats = results["tsdb"].resilience
        spans_sink, tsdb_sink = rungs[3][1]["sink"], rungs[4][1]["sink"]
        self.layer.update({
            "resilience.marginal_s": wall["resilience"] - wall["bare"],
            "resilience.retries": stats["retries"],
            "resilience.errors_injected": stats["errors_injected"],
            "resilience.events_added": results["resilience"].events_processed
            - results["bare"].events_processed,
            "telemetry.sink_marginal_s": wall["sink"] - wall["resilience"],
            "telemetry.spans_marginal_s": wall["spans"] - wall["sink"],
            "telemetry.spans": sum(len(t.spans) for t in spans_sink.traces),
            "telemetry.traces_kept": spans_sink.kept_traces,
            "telemetry.timeseries.marginal_s": wall["tsdb"] - wall["spans"],
            "telemetry.timeseries.scrapes": tsdb_sink.timeseries.scrapes,
            "telemetry.timeseries.samples": tsdb_sink.timeseries.total_samples,
        })
        if _replay_fingerprint(results["sink"]) != _replay_fingerprint(results["resilience"]):
            return [f"{self.name}: the sink-only rung changed the replay's latencies"]
        return []


# ----------------------------------------------------------------------
class _Keep:
    """Delegating autoscaler that remembers its last allocation, so the
    SLA check can see what ``run_trace_simulation`` does not return."""

    def __init__(self, inner) -> None:
        self.inner, self.name, self.last = inner, inner.name, None

    def scale(self, specs, profiles):
        self.last = (specs, self.inner.scale(specs, profiles))
        return self.last[1]


class ScalePopulation(Workload):
    name = "scale_population"
    work_unit = "feasible services x schemes allocated"
    ITERATIONS_PER_SECOND = 0.29  # one iteration ~3.4 s
    CONTAINERS_SUMMED = True
    SHAPE = dict(n_services=300, mean_graph_size=40, shared_pool=250)

    def _generate(self, i: int) -> None:
        self.population = generate_taobao(seed=self.seed + i, **self.SHAPE)

    def setup(self) -> List[str]:
        self._generate(0)
        self.layer["workloads.services"] = len(self.population.services)
        self.layer["workloads.microservices"] = self.population.microservice_count()
        head = TaobaoWorkload(self.population.services[:20], self.population.profiles)
        run_trace_simulation(head, [ErmsScaler(), GrandSLAm(), Rhythm()])
        return []

    def prepare(self, i: int) -> None:
        if i:
            self._generate(i)
        self.schemes = [
            _Keep(ErmsScaler()), ErmsScaler(use_priority=False), GrandSLAm(), Rhythm()
        ]
        # every iteration starts cold; cleared here rather than in the timed
        # region so the cache counters read from zero at its start
        clear_merge_cache()
        clear_targets_memo()

    def iteration(self, i: int) -> float:
        self._result = run_trace_simulation(self.population, self.schemes)
        feasible = len(self.population.services) - self._result.skipped_services
        return float(feasible * len(self.schemes))

    def check(self, i: int) -> List[str]:
        result, population = self._result, self.population
        self._containers.append(result.totals["erms"])
        feasible, infeasible = _split_feasible(population.services, population.profiles)
        failures = _pinned_failures(self.name, self.seed + i, infeasible)
        if len(infeasible) != result.skipped_services:
            failures.append(
                f"{self.name}[{i}]: {result.skipped_services} services skipped, "
                f"{len(infeasible)} infeasible"
            )
        specs, allocation = self.schemes[0].last
        failures += _sla_failures(f"{self.name}[{i}]", specs, population.profiles, allocation)
        if not all(total > 0 for total in result.totals.values()):
            failures.append(f"{self.name}[{i}]: a scheme allocated nothing: {result.totals}")
        self.count("core.latency_targets.infeasible", len(infeasible))
        self.count("core.multiplexing.shared_microservices", len(shared_microservices(feasible)))
        return failures


# ----------------------------------------------------------------------
class ControlLoop(Workload):
    name = "control_loop"
    work_unit = "service decisions (services re-decided per period)"
    ITERATIONS_PER_SECOND = 2.5  # one period ~0.4 s
    CALIBRATION_REPEATS = 3
    CONTAINERS_SUMMED = True
    SHAPE = dict(
        n_services=60, mean_graph_size=30, shared_pool=120,
        workload_range=(100, 2000), with_rates=True,
    )
    #: The population is part of the pinned shape, like the applications of
    #: the other workloads: period cost follows the number of pods, which
    #: differs by a fifth between generated populations.  ``--seed`` drives
    #: the per-minute workload noise the controller follows.
    POPULATION_SEED = 0
    HOSTS = 100
    PERIOD_MIN = 1.0

    def _rates(self, period: int) -> Dict[str, float]:
        minute = period * self.PERIOD_MIN
        return {name: float(rate(minute)) for name, rate in self.rates.items()}

    def _period(self, period: int):
        report = self.controller.reconcile(self._workloads)
        self.controller.tick(self.PERIOD_MIN * 60.0)
        self._report = report
        created = sum(d for d in report.pod_deltas.values() if d > 0)
        self.count("deployment.pods_created", created)
        self.count("deployment.pods_deleted", created - sum(report.pod_deltas.values()))

    def setup(self) -> List[str]:
        self.population = generate_taobao(seed=self.POPULATION_SEED, **self.SHAPE)
        self.layer["workloads.services"] = len(self.population.services)
        self.layer["workloads.microservices"] = self.population.microservice_count()
        with self.span("bench.feasibility"):
            self.specs, infeasible = _split_feasible(
                self.population.services, self.population.profiles
            )
        self.layer["core.latency_targets.infeasible"] = len(infeasible)
        self.layer["core.multiplexing.shared_microservices"] = len(
            shared_microservices(self.specs)
        )
        self.rates = {
            spec.name: dataclasses.replace(
                self.population.rates[spec.name], seed=1000 * self.seed + index
            )
            for index, spec in enumerate(self.specs)
        }
        self.cluster = Cluster.homogeneous(self.HOSTS)
        self.controller = ErmsController(self.specs, self.cluster, self.population.profiles)
        # period 0: cold placement of the whole population
        self._workloads = self._rates(0)
        start = perf_counter()
        self._period(0)
        self.layer["deployment.initial_place_s"] = perf_counter() - start
        self._initial = dict(self._report.allocation.containers)
        return (
            _pinned_failures(self.name, self.POPULATION_SEED, infeasible)
            + self._period_failures(0)
        )

    def prepare(self, i: int) -> None:
        self._workloads = self._rates(i + 1)

    def iteration(self, i: int) -> float:
        self._period(i + 1)
        return float(len(self.specs))

    def _period_failures(self, period: int) -> List[str]:
        allocation = self._report.allocation
        self._containers.append(allocation.total_containers())
        failures = []
        if self.controller.total_pods() != allocation.total_containers():
            failures.append(
                f"{self.name}[{period}]: {self.controller.total_pods()} pods for "
                f"{allocation.total_containers()} allocated containers"
            )
        sizes = self.cluster.sizes
        for host in self.cluster.hosts:
            if (
                host.cpu_used(sizes) > host.cpu_capacity
                or host.memory_used(sizes) > host.memory_capacity_mb
            ):
                failures.append(f"{self.name}[{period}]: {host.host_id} over capacity")
        planned = self.controller.scaler.with_workloads(self.specs, self._workloads)
        return failures + _sla_failures(
            f"{self.name}[{period}]", planned, self.population.profiles, allocation
        )

    def check(self, i: int) -> List[str]:
        return self._period_failures(i + 1)

    def probes(self) -> List[str]:
        """Bulk provisioning: period 0's allocation onto a fresh cluster
        through one ClusterIndex, then halved (the per-pod path is the loop)."""
        cluster = Cluster.homogeneous(self.HOSTS)
        cluster.register(self.population.profiles)
        provisioner = InterferenceAwareProvisioner()
        start = perf_counter()
        up = provisioner.apply(cluster, self._initial)
        down = provisioner.apply(
            cluster, {name: count // 2 for name, count in self._initial.items()}
        )
        wall = perf_counter() - start
        actions = len(up.actions) + len(down.actions)
        self.layer.update({
            "core.provisioning.bulk_apply_s": wall,
            "core.provisioning.actions": actions,
            "core.provisioning.actions_per_s": actions / wall,
        })
        placed = sum(cluster.placement().values())
        expected = sum(count // 2 for count in self._initial.values())
        if placed != expected:
            return [f"{self.name}: bulk apply left {placed} containers, expected {expected}"]
        return []


# ----------------------------------------------------------------------
class ComparePipeline(Workload):
    name = "compare_pipeline"
    work_unit = "simulated requests completed"
    ITERATIONS_PER_SECOND = 0.15  # one iteration ~7 s
    # 10 load levels: with 6 the 3+3-point piecewise fit is discontinuous
    # enough on one seed in eight that GrandSLAm's statistics go negative
    # and its scale() raises; probe time is the same (150 x 0.25 sim-min)
    FIT = dict(sweep_points=10, duration_min=0.25)
    GRID = dict(workloads=[5_000.0, 20_000.0], slas=[150.0, 300.0])
    DURATION_MIN = 0.4

    def _pipeline(self, seed: int, fit: dict, grid: dict, duration: float):
        profiles = fit_profiles_from_simulation(self.app.simulated, seed=seed, **fit)
        self.count("profiling.probe_runs", self._runs)
        schemes = [
            ErmsScaler(), ErmsScaler(use_priority=False), GrandSLAm(), Rhythm(), Firm()
        ]
        sweep = run_static_sweep(
            self.app, schemes, profiles=profiles, simulate=True,
            duration_min=duration, warmup_min=min(0.5, duration / 3), seed=seed, **grid,
        )
        with self.span("experiments.aggregate"):
            rows = [
                {
                    "scheme": scheme,
                    "avg_containers": sweep.average_containers(scheme),
                    "avg_violation": sweep.average_violation(scheme),
                    "avg_p95_ms": sweep.average_p95(scheme),
                }
                for scheme in sweep.schemes()
            ]
            table = format_table(rows, f"Static sweep on {self.app.name}")
        return rows, table

    def setup(self) -> List[str]:
        self.app = hotel_reservation()
        # count the requests the short DES runs complete without touching
        # their results: the sweep returns rates, not counts
        self._requests = self._runs = 0
        run = ClusterSimulator.run

        def counted(simulator):
            result = run(simulator)
            self._requests += sum(result.completed.values())
            self._runs += 1
            return result

        ClusterSimulator.run = counted
        self._pipeline(
            self.seed, dict(sweep_points=2, duration_min=0.05),
            dict(workloads=[5_000.0], slas=[300.0]), 0.05,
        )
        return []

    def iteration(self, i: int) -> float:
        self._requests = self._runs = 0
        self._rows, self._table = self._pipeline(
            self.seed + i, self.FIT, self.GRID, self.DURATION_MIN
        )
        return float(self._requests)

    def check(self, i: int) -> List[str]:
        by_scheme = {row["scheme"]: row for row in self._rows}
        self._containers.append(by_scheme["erms"]["avg_containers"])
        self._violation_pct.append(100.0 * by_scheme["erms"]["avg_violation"])
        failures = []
        if len(by_scheme) != 5:
            failures.append(f"{self.name}[{i}]: {len(by_scheme)} schemes in the table")
        for row in self._rows:
            values = [row["avg_containers"], row["avg_violation"], row["avg_p95_ms"]]
            if not all(math.isfinite(v) for v in values) or row["avg_containers"] <= 0:
                failures.append(f"{self.name}[{i}]: bad row {row}")
        if self._table.count("\n") < len(self._rows) + 2:
            failures.append(f"{self.name}[{i}]: truncated table")
        return failures


def pinned_sets(seeds) -> dict:
    """What ``pinned.json`` records: the infeasible services per seed of
    the two generated populations, as [count, crc32 of the sorted names]."""
    table: Dict[str, dict] = {}
    for cls, cls_seeds in (
        (ScalePopulation, seeds), (ControlLoop, [ControlLoop.POPULATION_SEED])
    ):
        table[cls.name] = {}
        for seed in cls_seeds:
            population = generate_taobao(seed=seed, **cls.SHAPE)
            _, infeasible = _split_feasible(population.services, population.profiles)
            table[cls.name][str(seed)] = [len(infeasible), _crc(infeasible)]
    return table


WORKLOADS = {
    cls.name: cls
    for cls in (DesReplay, DesObserved, ScalePopulation, ControlLoop, ComparePipeline)
}

"""Perf benchmark runner: times canonical simulator/experiment configurations.

Three single-process benchmarks plus one parallel-grid benchmark:

* ``saturation`` — one microservice near its capacity knee: the pure
  engine hot path (arrival events, dispatch, completion events, result
  recording).  Reported as events/sec, the headline engine metric.
* ``priority_replay`` — Social Network under a full Erms allocation
  (priority scheduling at its nine shared microservices), bare engine:
  the §5.3.2 data plane the paper's results run through, as events/sec
  with trials, median and IQR; ``fingerprint_stable`` says the same-seed
  trials produced one latency stream.
* ``static_cell`` — one DeathStarBench static-grid cell with
  ``simulate=True``: the experiment layer end to end (scale + replay).
* ``trace_slice`` — an Alibaba-scale population slice allocated
  analytically: the allocation layer at fan-out.
* ``parallel_grid`` — a simulated static grid (8 cells) at ``workers=1``
  versus a warm 4-worker :class:`~repro.experiments.parallel.WorkerPool`,
  reporting the grid speedup plus the pool's per-cell dispatch overhead
  and payload size (the shared-context design ships the application once
  per worker; payloads are index-plus-scalar dicts).
* ``allocation_throughput`` — the Eq. 5 / §5.3.1 hot path over a
  (workload × SLA) grid two ways: scalar (caches off, the pre-PR cost)
  and memoized (`compute_service_targets` with the cross-cell memo);
  plus interference-aware provisioner placements/sec through the
  incremental ``ClusterIndex``.  Both paths are verified cell-for-cell
  identical.
* ``telemetry_overhead`` — the saturation scenario with no telemetry
  versus a fully-enabled :class:`~repro.telemetry.TelemetrySink` (spans,
  windows, live MetricsStore), reporting the enabled-path overhead and
  pinning that the disabled path stays a single null-check branch.
* ``tail_sampling`` — the same scenario with full trace retention versus
  tail-based sampling at the run's P95, reporting both overheads and the
  tail keep fraction.
* ``analysis_throughput`` — ``analyze_run`` (critical paths + SLA blame)
  over the collected traces, handed the span table and handed the same
  traces materialised, in traces/sec and as their same-session ratio.
* ``resilience_overhead`` — the saturation scenario with no resilience
  layer versus a full chaos schedule + retry/timeout/breaker/admission
  policy stack, reporting the enabled-path overhead and pinning that the
  disabled path stays a single null-check branch (the resilience
  counterpart of ``telemetry_overhead``).
* ``baseline_stats`` — the GrandSLAm/Rhythm statistics sweep
  (``stats_from_profiles``) over a 300-service Taobao-scale population
  in services/sec, with the two schemes' container maps checked against
  a scalar reference loop kept in this file.

``priority_replay``, ``allocation_throughput``, ``telemetry_overhead``,
``tail_sampling``, ``analysis_throughput``, ``deploy_reconcile`` and
``baseline_stats`` report each rate as best-of-N
(the gated headline) with the trials, their median and interquartile range
alongside (``*_trials``).

Results are written to ``BENCH_des.json`` at the repo root so the perf
trajectory is tracked across PRs.  ``baseline_seed.json`` (checked in,
measured on the pre-fast-path seed engine) rides along in the output so
every report carries the reference numbers.

``--quick`` shrinks every benchmark (shorter simulations, fewer trials,
smaller grids) for CI smoke runs; rate metrics (events/sec, cells/sec)
stay comparable to full-mode numbers, wall-clock fields do not.
``benchmarks/perf/compare.py`` diffs a fresh (quick) run against the
tracked report and fails on regressions in those rate metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
BASELINE_PATH = pathlib.Path(__file__).resolve().parent / "baseline_seed.json"

if str(REPO_ROOT / "src") not in sys.path:  # script-mode convenience
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core import ErmsScaler, ServiceSpec  # noqa: E402
from repro.graphs import DependencyGraph, call  # noqa: E402
from repro.simulator import (  # noqa: E402
    ClusterSimulator,
    SimulatedMicroservice,
    SimulationConfig,
)
from repro.workloads import generate_taobao, social_network  # noqa: E402


def _rate(rates) -> dict:
    """Best-of-N plus dispersion of one rate metric's per-trial values.

    The headline stays the *fastest* trial (deterministic work: the
    minimum wall time is the least-noisy estimate on a shared machine);
    the median, interquartile range and every trial ride along so a
    reader can tell a real shift from a noisy box.
    """
    import numpy as np

    q1, median, q3 = np.percentile(rates, [25.0, 50.0, 75.0])
    return {
        "best": round(max(rates), 1),
        "median": round(float(median), 1),
        "iqr": round(float(q3 - q1), 1),
        "trials": [round(rate, 1) for rate in rates],
    }


def bench_saturation(
    duration_min: float = 2.0, seed: int = 7, trials: int = 3,
    quick: bool = False,
) -> dict:
    """Single-microservice run near the capacity knee (engine hot path).

    Runs ``trials`` identical simulations and reports the *fastest*
    (best-of-N): DES throughput is deterministic work, so the minimum
    wall time is the least-noisy estimate on a shared/1-CPU machine;
    the per-trial numbers ride along for inspection.
    """
    warmup_min = 0.5
    if quick:
        duration_min, warmup_min, trials = 0.5, 0.1, 2
    graph = DependencyGraph("svc", call("B"))
    spec = ServiceSpec("svc", graph, workload=0.0, sla=100.0)
    runs = []
    for _ in range(max(1, trials)):
        simulator = ClusterSimulator(
            [spec],
            {"B": SimulatedMicroservice("B", base_service_ms=5.0, threads=4)},
            containers={"B": 1},
            rates={"svc": 45_000.0},  # capacity: 48k req/min
            config=SimulationConfig(
                duration_min=duration_min, warmup_min=warmup_min, seed=seed
            ),
        )
        start = time.perf_counter()
        result = simulator.run()
        wall = time.perf_counter() - start
        runs.append((wall, result))
    wall, result = min(runs, key=lambda pair: pair[0])
    events = result.events_processed
    return {
        "wall_s": round(wall, 4),
        "events": events,
        "events_per_sec": round(events / wall, 1),
        "requests": result.completed["svc"],
        "trials_events_per_sec": [
            round(r.events_processed / w, 1) for w, r in runs
        ],
    }


def bench_priority_replay(
    seed: int = 0, trials: int = 3, quick: bool = False
) -> dict:
    """Social Network replayed under Erms' priorities (bare engine).

    The ``des_replay`` end-to-end workload as an engine rate: 20 000
    req/min per service, SLA 200 ms, the ``ErmsScaler`` allocation with
    δ-priority queues at every shared microservice, telemetry / chaos /
    resilience off, own-latency recording off.  Every trial replays the
    same seed, so besides the rate the trials must agree on the latency
    stream (``fingerprint_stable``); at least two are always run.
    """
    from repro.experiments import evaluate_allocation

    duration_min, warmup_min = 1.0, 0.3
    if quick:
        duration_min, warmup_min, trials = 0.25, 0.075, 2
    app = social_network()
    specs = app.with_workloads(
        {spec.name: 20_000.0 for spec in app.services}, sla=200.0
    )
    allocation = ErmsScaler().scale(specs, app.analytic_profiles())
    rates, fingerprints = [], set()
    for _ in range(max(2, trials)):
        start = time.perf_counter()
        result = evaluate_allocation(
            specs, app.simulated, allocation,
            duration_min=duration_min, warmup_min=warmup_min, seed=seed,
        )
        rates.append(result.events_processed / (time.perf_counter() - start))
        fingerprints.add(
            tuple(
                result.latencies(spec.name, include_warmup=True).tobytes()
                for spec in specs
            )
        )
    stats = _rate(rates)
    return {
        "containers": allocation.total_containers(),
        "priority_microservices": len(allocation.priorities),
        "events": result.events_processed,
        "requests": sum(result.completed.values()),
        "events_per_sec": stats["best"],
        "events_trials": stats,
        "fingerprint_stable": len(fingerprints) == 1,
    }


def bench_static_cell(seed: int = 0, quick: bool = False) -> dict:
    """One (workload, SLA, scheme) DSB grid cell with simulation replay."""
    from repro.experiments import run_static_sweep

    app = social_network()
    start = time.perf_counter()
    sweep = run_static_sweep(
        app,
        [ErmsScaler()],
        workloads=[20_000.0],
        slas=[200.0],
        simulate=True,
        duration_min=0.3 if quick else 1.0,
        warmup_min=0.1 if quick else 0.3,
        seed=seed,
    )
    wall = time.perf_counter() - start
    return {
        "wall_s": round(wall, 4),
        "rows": len(sweep.rows),
        "containers": sweep.rows[0]["containers"] if sweep.rows else 0,
    }


def bench_trace_slice(seed: int = 42, quick: bool = False) -> dict:
    """Alibaba-scale slice: analytic allocation over a shared population."""
    from repro.experiments import run_trace_simulation

    workload = generate_taobao(
        n_services=15 if quick else 40,
        mean_graph_size=30,
        shared_pool=120,
        seed=seed,
    )
    scaler = ErmsScaler()
    start = time.perf_counter()
    result = run_trace_simulation(workload, [scaler])
    wall = time.perf_counter() - start
    return {
        "wall_s": round(wall, 4),
        "services": len(workload.services),
        "total_containers": result.totals.get(scaler.name, 0),
    }


def _noop_cell(cell: dict) -> int:
    """Pool round-trip probe: isolates dispatch cost from cell work."""
    return cell.get("i", 0)


def bench_parallel_grid(
    workers: int = 0, seed: int = 0, quick: bool = False
) -> dict:
    """Simulated static grid, serial vs. a warm worker pool (same seeds).

    8 cells (4 workloads × 2 SLAs) through one persistent
    :class:`~repro.experiments.parallel.WorkerPool`.  The pool is warmed
    (workers forked, dispatch path exercised) before the timed sweep, and
    the pool's measure mode records what actually crosses the process
    boundary per cell — with the application in the shared context the
    payloads are index-plus-scalar dicts, not the app object.  On a
    machine with fewer CPUs than workers the speedup is honestly ~1x or
    below; the ``cpus`` field rides along so the number can be read in
    context.
    """
    from repro.experiments import run_static_sweep
    from repro.experiments.parallel import WorkerPool

    if workers <= 0:
        workers = 4  # the tracked configuration (ISSUE: >= 4 workers)
    app = social_network()
    grid = dict(
        workloads=[5_000.0, 10_000.0, 20_000.0, 40_000.0],
        slas=[150.0, 300.0],
        simulate=True,
        duration_min=0.2 if quick else 0.5,
        warmup_min=0.1,
        seed=seed,
    )

    start = time.perf_counter()
    serial = run_static_sweep(app, [ErmsScaler()], workers=1, **grid)
    serial_wall = time.perf_counter() - start

    with WorkerPool(workers, measure=True) as pool:
        # Warm the pool: fork the workers and push one map through, so the
        # timed sweep pays steady-state dispatch, not first-fork costs.
        pool.set_context({"warmup": True})
        pool.map(_noop_cell, [{"i": i} for i in range(workers * 4)])

        probes = [{"i": i} for i in range(64)]
        start = time.perf_counter()
        pool.map(_noop_cell, probes)
        dispatch_wall = time.perf_counter() - start

        start = time.perf_counter()
        parallel = run_static_sweep(
            app, [ErmsScaler()], workers=workers, pool=pool, **grid
        )
        parallel_wall = time.perf_counter() - start
        # Stats of the sweep's own map: the real per-cell payload size.
        stats = pool.last_map_stats or {}

    identical = serial.rows == parallel.rows
    payload_bytes = stats.get("payload_bytes", 0)
    mapped_cells = stats.get("cells", 0)
    return {
        "workers": workers,
        "cpus": os.cpu_count() or 1,
        "cells": len(serial.rows),
        "serial_wall_s": round(serial_wall, 4),
        "parallel_wall_s": round(parallel_wall, 4),
        "speedup": round(serial_wall / parallel_wall, 2)
        if parallel_wall > 0
        else None,
        "rows_identical": identical,
        "dispatch_ms_per_cell": round(dispatch_wall / len(probes) * 1e3, 4),
        "payload_bytes_per_cell": round(payload_bytes / mapped_cells)
        if payload_bytes > 0 and mapped_cells
        else None,
        "chunksize": stats.get("chunksize"),
    }


def _skewed_cluster(hosts: int):
    """A homogeneous cluster whose hosts carry uneven background load."""
    from repro.core.provisioning import Cluster

    cluster = Cluster.homogeneous(hosts)
    for i, host in enumerate(cluster.hosts):
        host.background_cpu = (i % 7) * 2.0
        host.background_memory_mb = (i % 5) * 2_000.0
    return cluster


def bench_allocation_throughput(seed: int = 0, quick: bool = False) -> dict:
    """Eq. 5 / §5.3.1 grid throughput: scalar vs memoized.

    Times the allocation hot path over a (workload × SLA) grid of the
    Social Network application (36 microservices, 3 services) two ways:

    * ``scalar`` — memo off, merge-tree cache cleared before every call:
      the pre-optimization cost of one ``compute_service_targets`` per
      (service, cell).
    * ``memoized`` — the production path: cross-cell targets memo plus
      the merge-tree cache, warmed over the sweep.

    Both produce bit-identical per-cell results (asserted, reported as
    ``identical``).  A third section times interference-aware
    provisioner placements/releases through the incremental
    ``ClusterIndex`` in actions/sec.
    """
    from repro.core import (
        InfeasibleSLAError,
        InterferenceAwareProvisioner,
        clear_merge_cache,
        clear_targets_memo,
        compute_service_targets,
        set_targets_memo,
    )

    app = social_network()
    profiles = app.analytic_profiles()
    # Quick mode keeps the full grid: cells/sec amortizes memo misses
    # over the grid, so shrinking it would change the metric itself and
    # break the CI comparison against the tracked full-mode report.
    # The whole bench is sub-second; only the trial count drops (a sweep
    # is a few milliseconds, so one trial alone is at the mercy of a blip).
    workloads = [2_500.0, 5_000.0, 10_000.0, 20_000.0, 40_000.0, 80_000.0]
    slas = [120.0, 160.0, 200.0, 250.0, 300.0, 400.0]
    trials = 3 if quick else 5
    # Specs are built outside the timed region: spec construction is not
    # part of the allocation path.
    cell_specs = [
        app.with_workloads(
            {service.name: w for service in app.services}, sla=sla
        )
        for w in workloads
        for sla in slas
    ]
    n_services = len(app.services)
    calls = len(cell_specs) * n_services

    def cell(spec):
        # A cell is targets *and* container counts; the counts are derived
        # on first read, so read them inside the timed region.
        try:
            result = compute_service_targets(spec, profiles)
        except InfeasibleSLAError:
            return None
        result.containers
        return result

    def run_scalar() -> list:
        set_targets_memo(False)
        results = []
        for specs in cell_specs:
            for spec in specs:
                clear_merge_cache()  # pre-PR: every call built trees fresh
                results.append(cell(spec))
        return results

    def run_memoized() -> list:
        set_targets_memo(True)
        clear_targets_memo()
        clear_merge_cache()
        return [cell(spec) for specs in cell_specs for spec in specs]

    def timed(fn):
        walls, last = [], None
        for _ in range(max(1, trials)):
            start = time.perf_counter()
            last = fn()
            walls.append(time.perf_counter() - start)
        return walls, last

    try:
        scalar_walls, scalar_rows = timed(run_scalar)
        memo_walls, memo_rows = timed(run_memoized)
    finally:
        set_targets_memo(True)  # restore the production default
        clear_targets_memo()
        clear_merge_cache()

    def rows_equal(a, b) -> bool:
        if len(a) != len(b):
            return False
        for left, right in zip(a, b):
            if (left is None) != (right is None):
                return False
            if left is None:
                continue
            if (
                left.targets != right.targets
                or left.containers != right.containers
                or left.workloads != right.workloads
                or left.merged_intercept != right.merged_intercept
                or left.passes != right.passes
            ):
                return False
        return True

    identical = rows_equal(scalar_rows, memo_rows)
    scalar_wall, memo_wall = min(scalar_walls), min(memo_walls)

    # Provisioner throughput: place a full allocation onto a cluster with
    # skewed background load, then halve it (releases), through the
    # incremental ClusterIndex.
    cluster = _skewed_cluster(24)
    cluster.register(profiles)
    desired = {}
    for row in memo_rows:
        if row is None:
            continue
        for name, count in row.containers.items():
            desired[name] = max(desired.get(name, 0), count)
    provisioner = InterferenceAwareProvisioner()
    start = time.perf_counter()
    plan_up = provisioner.apply(cluster, desired)
    plan_down = provisioner.apply(
        cluster, {name: count // 2 for name, count in desired.items()}
    )
    provisioner_wall = time.perf_counter() - start
    actions = len(plan_up.actions) + len(plan_down.actions)

    return {
        "grid_workloads": len(workloads),
        "grid_slas": len(slas),
        "services": n_services,
        "calls": calls,
        "scalar_wall_s": round(scalar_wall, 4),
        "memoized_wall_s": round(memo_wall, 4),
        "scalar_cells_per_sec": round(calls / scalar_wall, 1),
        "memoized_cells_per_sec": round(calls / memo_wall, 1),
        "scalar_trials": _rate([calls / wall for wall in scalar_walls]),
        "memoized_trials": _rate([calls / wall for wall in memo_walls]),
        "memoized_speedup": round(scalar_wall / memo_wall, 2),
        "identical": identical,
        "provisioner_hosts": len(cluster.hosts),
        "provisioner_actions": actions,
        "provisioner_wall_s": round(provisioner_wall, 4),
        "provisioner_actions_per_sec": round(actions / provisioner_wall, 1)
        if provisioner_wall > 0
        else None,
    }


def bench_deploy_reconcile(trials: int = 5, quick: bool = False) -> dict:
    """Per-pod reconcile throughput of the deploy stage (paper §5.4/§5.5).

    Declares 300 deployments (1–7 replicas each, three container sizes)
    against a fresh 200-host cluster with skewed background load, times
    one ``DeploymentController.reconcile`` that creates and places every
    pod, ticks past start-up, halves every deployment and times the
    reconcile that releases the surplus.  The rate is pod actions
    (creations + deletions) per second over the two timed passes —
    the path ``ErmsController`` runs every control period, as opposed to
    the bulk ``Provisioner.apply`` timed by ``allocation_throughput``.
    Quick mode keeps the shape (the rate depends on it) and drops trials.
    """
    from repro.core import ContainerSpec, InterferenceAwareProvisioner
    from repro.deployment import DeploymentController, MockKubeApi

    if quick:
        trials = 2
    hosts = 200
    sizes = [
        ContainerSpec(cpu=0.1, memory_mb=200.0),
        ContainerSpec(cpu=0.2, memory_mb=300.0),
        ContainerSpec(cpu=0.4, memory_mb=800.0),
    ]
    desired = {f"ms-{i:03d}": 1 + i % 7 for i in range(300)}
    specs = {name: sizes[i % 3] for i, name in enumerate(desired)}
    halved = {name: count // 2 for name, count in desired.items()}
    actions = 2 * sum(desired.values()) - sum(halved.values())

    rates, consistent = [], True
    for _ in range(max(1, trials)):
        api = MockKubeApi()
        cluster = _skewed_cluster(hosts)
        controller = DeploymentController(
            api=api, cluster=cluster, provisioner=InterferenceAwareProvisioner()
        )
        controller.apply_allocation(desired, specs)
        start = time.perf_counter()
        controller.reconcile()
        wall = time.perf_counter() - start
        controller.tick(10.0)
        controller.apply_allocation(halved)
        start = time.perf_counter()
        controller.reconcile()
        wall += time.perf_counter() - start
        rates.append(actions / wall)
        placed = cluster.placement()
        consistent = consistent and all(
            api.active_replicas(name) == count == placed.get(name, 0)
            for name, count in halved.items()
        )
    stats = _rate(rates)
    return {
        "hosts": hosts,
        "deployments": len(desired),
        "pod_actions": actions,
        "reconcile_actions_per_sec": stats["best"],
        "reconcile_trials": stats,
        "pods_match_cluster": consistent,
    }


def _reference_baseline_containers(specs, profiles, rule, sweep_points=40):
    """GrandSLAm/Rhythm container map by a straightforward scalar loop.

    What ``bench_baseline_stats`` compares the schemes with: every model
    evaluated once per sweep point, the graph folded once per sweep
    point, ``np.corrcoef`` per microservice, then the proportional SLA
    split, best-effort containers max-merged over services and FCFS
    min-target scaling at shared microservices.  ``rule`` is
    ``"grandslam"`` (weight = mean) or ``"rhythm"`` (mean × variance ×
    |correlation|, normalised to its maximum and floored at 0.1).
    """
    import numpy as np

    from repro.core.model import Allocation, best_effort_containers
    from repro.core.scaling import apply_fcfs_shared_scaling

    fractions = np.linspace(0.05, 1.3, sweep_points)
    allocation = Allocation()
    for spec in specs:
        graph = spec.graph
        names = graph.microservices()
        series = {
            name: np.array([
                profiles[name].model.latency(load)
                for load in fractions * profiles[name].model.cutoff
            ])
            for name in names
        }
        e2e = np.array([
            graph.end_to_end_latency(
                {name: float(series[name][index]) for name in names}
            )
            for index in range(sweep_points)
        ])
        weights = {}
        for name in names:
            values = series[name]
            weights[name] = float(np.mean(values))
            if rule == "rhythm":
                correlated = np.std(values) > 0 and np.std(e2e) > 0
                weights[name] *= float(np.var(values)) * (
                    abs(float(np.corrcoef(values, e2e)[0, 1])) if correlated else 0.0
                )
        if rule == "rhythm":
            top = max(weights.values())
            weights = {
                name: max(value / top, 0.1) if top > 0 else 1.0
                for name, value in weights.items()
            }
        fold = graph.end_to_end_latency(weights)
        allocation.targets[spec.name] = targets = {
            name: spec.sla * weights[name] / fold for name in names
        }
        workloads = spec.microservice_workloads()
        for name in names:
            allocation.containers[name] = max(
                allocation.containers.get(name, 0),
                best_effort_containers(
                    profiles[name].model, workloads[name], targets[name]
                ),
            )
    apply_fcfs_shared_scaling(specs, profiles, allocation.targets, allocation)
    return allocation.containers


def bench_baseline_stats(
    seed: int = 0, trials: int = 5, quick: bool = False
) -> dict:
    """Statistics sweep of the GrandSLAm/Rhythm comparators (paper §6.1).

    Times ``stats_from_profiles`` over every service of the 300-service
    ``generate_taobao`` population the ``scale_population`` end-to-end
    workload allocates (≈ 40 microservices per service, 40 sweep points)
    and reports services/sec.  ``allocations_identical`` compares
    ``GrandSLAm().scale`` and ``Rhythm().scale`` container maps with
    :func:`_reference_baseline_containers` over the population's head
    (60 services; 20 in quick mode — the reference loop is the slow
    side).  Quick mode keeps the timed shape and drops trials.
    """
    from repro.baselines import GrandSLAm, Rhythm, stats_from_profiles

    if quick:
        trials = 2
    population = generate_taobao(
        n_services=300, mean_graph_size=40, shared_pool=250, seed=seed
    )
    services, profiles = population.services, population.profiles
    rates = []
    for _ in range(max(1, trials)):
        start = time.perf_counter()
        pairs = sum(len(stats_from_profiles(spec, profiles)) for spec in services)
        rates.append(len(services) / (time.perf_counter() - start))

    head = services[: 20 if quick else 60]
    identical = all(
        scheme.scale(head, profiles).containers
        == _reference_baseline_containers(head, profiles, scheme.name)
        for scheme in (GrandSLAm(), Rhythm())
    )
    stats = _rate(rates)
    return {
        "services": len(services),
        "service_microservice_pairs": pairs,
        "stats_services_per_sec": stats["best"],
        "stats_trials": stats,
        "reference_services": len(head),
        "allocations_identical": identical,
    }


def bench_telemetry_overhead(
    duration_min: float = 1.0, seed: int = 7, trials: int = 5,
    quick: bool = False,
) -> dict:
    """Saturation scenario, telemetry disabled vs fully enabled.

    The disabled run is the plain engine (one ``is None`` branch per hot
    loop); the enabled run attaches a sink with span emission at 100 %
    sampling, the live MetricsStore, and window ticks — the most
    expensive configuration.  Best-of-N on both sides, like
    ``bench_saturation``, with median/IQR over the trials alongside.
    """
    from repro.telemetry import TelemetryConfig, TelemetrySink

    if quick:
        duration_min, trials = 0.5, 2
    graph = DependencyGraph("svc", call("B"))
    spec = ServiceSpec("svc", graph, workload=0.0, sla=100.0)

    def run_once(sink):
        simulator = ClusterSimulator(
            [spec],
            {"B": SimulatedMicroservice("B", base_service_ms=5.0, threads=4)},
            containers={"B": 1},
            rates={"svc": 45_000.0},
            config=SimulationConfig(
                duration_min=duration_min, warmup_min=0.25, seed=seed
            ),
            telemetry=sink,
        )
        start = time.perf_counter()
        result = simulator.run()
        return time.perf_counter() - start, result

    disabled_runs = [run_once(None) for _ in range(max(1, trials))]
    enabled_runs = [
        # A sink serves exactly one run; max_traces=0 measures the full
        # span-emission cost without unbounded retention.
        run_once(
            TelemetrySink(
                config=TelemetryConfig(window_min=0.25, max_traces=0)
            )
        )
        for _ in range(max(1, trials))
    ]
    disabled = _rate([r.events_processed / w for w, r in disabled_runs])
    enabled = _rate([r.events_processed / w for w, r in enabled_runs])
    return {
        "disabled_events_per_sec": disabled["best"],
        "enabled_events_per_sec": enabled["best"],
        "overhead_pct": round((1.0 - enabled["best"] / disabled["best"]) * 100.0, 2),
        "disabled_wall_s": round(min(w for w, _ in disabled_runs), 4),
        "enabled_wall_s": round(min(w for w, _ in enabled_runs), 4),
        "disabled_trials": disabled,
        "enabled_trials": enabled,
    }


def bench_tail_sampling(
    duration_min: float = 1.0, seed: int = 7, trials: int = 5,
    quick: bool = False,
) -> dict:
    """Tail-based sampling versus full trace retention.

    Three saturation runs: telemetry disabled (reference, and the source
    of the P95 threshold), full sampling (every trace retained), and
    tail-based sampling at the disabled run's P95.  Reports both
    overhead percentages and the tail run's keep fraction — the headline
    claim is that tail sampling keeps the span pipeline well below the
    full-retention cost while still catching every slow trace.
    """
    import numpy as np

    from repro.telemetry import TelemetryConfig, TelemetrySink

    if quick:
        duration_min, trials = 0.5, 2
    graph = DependencyGraph("svc", call("B"))
    spec = ServiceSpec("svc", graph, workload=0.0, sla=100.0)

    def run_once(sink):
        simulator = ClusterSimulator(
            [spec],
            {"B": SimulatedMicroservice("B", base_service_ms=5.0, threads=4)},
            containers={"B": 1},
            rates={"svc": 45_000.0},
            config=SimulationConfig(
                duration_min=duration_min, warmup_min=0.25, seed=seed
            ),
            telemetry=sink,
        )
        start = time.perf_counter()
        result = simulator.run()
        return time.perf_counter() - start, result, sink

    disabled_runs = [run_once(None) for _ in range(max(1, trials))]
    threshold = float(
        np.percentile(disabled_runs[0][1].latencies("svc"), 95.0)
    )

    full_runs = [
        run_once(TelemetrySink(config=TelemetryConfig(window_min=0.25)))
        for _ in range(max(1, trials))
    ]
    tail_runs = [
        run_once(
            TelemetrySink(
                config=TelemetryConfig(
                    window_min=0.25, tail_threshold_ms=threshold, seed=seed
                )
            )
        )
        for _ in range(max(1, trials))
    ]
    tail_sink = tail_runs[0][2]  # same seed: every tail run keeps the same traces
    disabled = _rate([r.events_processed / w for w, r, _ in disabled_runs])
    full = _rate([r.events_processed / w for w, r, _ in full_runs])
    tail = _rate([r.events_processed / w for w, r, _ in tail_runs])
    disabled_eps, full_eps, tail_eps = disabled["best"], full["best"], tail["best"]
    keep_fraction = (
        tail_sink.kept_traces / tail_sink.sampled_traces
        if tail_sink.sampled_traces
        else 0.0
    )
    return {
        "tail_threshold_ms": round(threshold, 3),
        "disabled_events_per_sec": disabled_eps,
        "full_events_per_sec": full_eps,
        "tail_events_per_sec": tail_eps,
        "full_overhead_pct": round((1.0 - full_eps / disabled_eps) * 100.0, 2),
        "tail_overhead_pct": round((1.0 - tail_eps / disabled_eps) * 100.0, 2),
        "keep_fraction": round(keep_fraction, 4),
        "traces_kept": tail_sink.kept_traces,
        "traces_sampled": tail_sink.sampled_traces,
        "disabled_trials": disabled,
        "full_trials": full,
        "tail_trials": tail,
    }


def bench_analysis_throughput(
    seed: int = 7, trials: int = 5, quick: bool = False
) -> dict:
    """Post-run analysis speed: the span table as one forest vs trace by trace.

    Collects the saturation scenario's traces once, then times
    ``analyze_run`` (critical paths + blame) ``trials`` times two ways in
    the same session: handed the sink's ``SpanTable`` (aggregated off its
    forest, which each trial rebuilds on a fresh copy of the table), and
    handed the same traces materialised to ``TraceRecord`` objects (one
    ``CallTree.from_spans`` per trace, rebuilt each trial).  The gated
    number is ``table_speedup``, the ratio of the two median rates — a
    same-session ratio holds on a box whose absolute speed does not;
    ``identical`` says both produced the same ``to_dict()``.
    """
    import copy

    from repro.telemetry import TelemetryConfig, TelemetrySink
    from repro.telemetry.analysis import analyze_run
    from repro.tracing import TraceRecord

    if quick:
        trials = 2
    graph = DependencyGraph("svc", call("B"))
    spec = ServiceSpec("svc", graph, workload=0.0, sla=100.0)
    sink = TelemetrySink(config=TelemetryConfig(window_min=0.25))
    ClusterSimulator(
        [spec],
        {"B": SimulatedMicroservice("B", base_service_ms=5.0, threads=4)},
        containers={"B": 1},
        rates={"svc": 45_000.0},
        config=SimulationConfig(
            duration_min=0.5 if quick else 1.0, warmup_min=0.25, seed=seed
        ),
        telemetry=sink,
    ).run()
    pristine = sink.traces  # never analysed here: its copies carry no forest
    n = len(pristine)
    materialised = [(v.trace_id, v.service, v.spans, v.timings) for v in pristine]
    inputs = dict(targets={"svc": {"B": 10.0}}, slas={"svc": 40.0})
    table_rates, record_rates, outputs = [], [], set()
    for _ in range(max(1, trials)):
        for rates, traces in (
            (table_rates, copy.deepcopy(pristine)),
            (record_rates, [TraceRecord(*fields) for fields in materialised]),
        ):
            start = time.perf_counter()
            analysis = analyze_run(traces=traces, **inputs)
            rates.append(n / (time.perf_counter() - start))
            outputs.add(json.dumps(analysis.to_dict()))
    table, records = _rate(table_rates), _rate(record_rates)
    return {
        "traces": n,
        "table_traces_per_sec": table["best"],
        "materialised_traces_per_sec": records["best"],
        "table_speedup": round(table["median"] / records["median"], 2),
        "identical": len(outputs) == 1,
        "blame_entries": len(analysis.blame.entries),
        "violating_windows": len(analysis.blame.violating_windows),
        "table_trials": table,
        "materialised_trials": records,
    }


def bench_resilience_overhead(
    duration_min: float = 1.0, seed: int = 7, trials: int = 3,
    quick: bool = False,
) -> dict:
    """Saturation scenario, resilience absent vs full policy stack.

    The disabled run is the plain engine — when no chaos schedule or
    policy bundle is attached, the resilience layer adds exactly one
    ``is not None`` branch per arrival and per fan-out, so its
    events/sec must track ``bench_saturation``.  The enabled run
    attaches a chaos schedule (an error window plus a latency spike on
    the single microservice; a crash would be skipped on a one-container
    rotation) and the default retry/timeout/breaker/admission bundle, so
    every request crosses the policy machinery and a fault actually
    exercises retries.  Best-of-N on both sides, like
    ``bench_saturation``.
    """
    from repro.resilience import (
        ChaosSchedule,
        ErrorWindow,
        LatencySpike,
        ResiliencePolicies,
    )

    if quick:
        duration_min, trials = 0.5, 2
    graph = DependencyGraph("svc", call("B"))
    spec = ServiceSpec("svc", graph, workload=0.0, sla=100.0)
    mid = duration_min / 2.0
    chaos = ChaosSchedule(
        error_windows=[ErrorWindow("B", mid, mid + 0.1, 0.05)],
        latency_spikes=[LatencySpike("B", mid + 0.15, mid + 0.25, 1.5)],
        seed=seed,
    )

    def run_once(enabled):
        simulator = ClusterSimulator(
            [spec],
            {"B": SimulatedMicroservice("B", base_service_ms=5.0, threads=4)},
            containers={"B": 1},
            rates={"svc": 45_000.0},
            config=SimulationConfig(
                duration_min=duration_min, warmup_min=0.25, seed=seed
            ),
            chaos=chaos if enabled else None,
            resilience=ResiliencePolicies.default(seed=seed)
            if enabled
            else None,
        )
        start = time.perf_counter()
        result = simulator.run()
        return time.perf_counter() - start, result

    disabled_runs = [run_once(False) for _ in range(max(1, trials))]
    enabled_runs = [run_once(True) for _ in range(max(1, trials))]
    disabled_wall, disabled_result = min(disabled_runs, key=lambda p: p[0])
    enabled_wall, enabled_result = min(enabled_runs, key=lambda p: p[0])
    disabled_eps = disabled_result.events_processed / disabled_wall
    enabled_eps = enabled_result.events_processed / enabled_wall
    stats = enabled_result.resilience or {}
    return {
        "disabled_events_per_sec": round(disabled_eps, 1),
        "enabled_events_per_sec": round(enabled_eps, 1),
        "overhead_pct": round((1.0 - enabled_eps / disabled_eps) * 100.0, 2),
        "disabled_wall_s": round(disabled_wall, 4),
        "enabled_wall_s": round(enabled_wall, 4),
        "enabled_retries": stats.get("retries", 0),
        "enabled_chaos_errors": stats.get("errors_injected", 0),
    }


def bench_tsdb_overhead(
    duration_min: float = 1.0, seed: int = 7, trials: int = 3,
    quick: bool = False,
) -> dict:
    """Saturation scenario, embedded TSDB absent vs scraping aggressively.

    The disabled run attaches no telemetry sink at all — the engine's
    telemetry guard is a single ``is not None`` branch, so its
    events/sec must track ``bench_saturation`` (gated within 5 % in
    ``test_perf_bench`` and ``compare.py``).  The enabled run attaches a
    full sink plus a :class:`TimeSeriesStore` scraping every 0.05
    simulated minutes with a small rules file evaluated at every scrape,
    measuring the worst-case cost of the monitoring loop.  Best-of-N on
    both sides, like ``bench_saturation``.
    """
    from repro.telemetry import (
        TelemetryConfig,
        TelemetrySink,
        TimeSeriesConfig,
        TimeSeriesStore,
    )

    if quick:
        duration_min, trials = 0.5, 2
    graph = DependencyGraph("svc", call("B"))
    spec = ServiceSpec("svc", graph, workload=0.0, sla=100.0)
    rules = {
        "rules": [
            {"record": "p95_smoothed",
             "expr": 'avg_over_time(e2e_latency_ms{stat="p95"}[0.25m])'},
            {"alert": "HighP95",
             "expr": 'e2e_latency_ms{stat="p95"}',
             "op": ">", "threshold": 60.0, "for": 0.1},
        ]
    }

    def run_once(enabled):
        sink = None
        if enabled:
            sink = TelemetrySink(
                config=TelemetryConfig(
                    window_min=0.25, spans=False, max_traces=0
                ),
                timeseries=TimeSeriesStore(
                    TimeSeriesConfig(scrape_interval_min=0.05), rules=rules
                ),
            )
        simulator = ClusterSimulator(
            [spec],
            {"B": SimulatedMicroservice("B", base_service_ms=5.0, threads=4)},
            containers={"B": 1},
            rates={"svc": 45_000.0},
            config=SimulationConfig(
                duration_min=duration_min, warmup_min=0.25, seed=seed
            ),
            telemetry=sink,
        )
        start = time.perf_counter()
        result = simulator.run()
        return time.perf_counter() - start, result, sink

    disabled_runs = [run_once(False) for _ in range(max(1, trials))]
    enabled_runs = [run_once(True) for _ in range(max(1, trials))]
    disabled_wall, disabled_result, _ = min(disabled_runs, key=lambda p: p[0])
    enabled_wall, enabled_result, sink = min(enabled_runs, key=lambda p: p[0])
    disabled_eps = disabled_result.events_processed / disabled_wall
    enabled_eps = enabled_result.events_processed / enabled_wall
    store = sink.timeseries
    return {
        "disabled_events_per_sec": round(disabled_eps, 1),
        "enabled_events_per_sec": round(enabled_eps, 1),
        "overhead_pct": round((1.0 - enabled_eps / disabled_eps) * 100.0, 2),
        "disabled_wall_s": round(disabled_wall, 4),
        "enabled_wall_s": round(enabled_wall, 4),
        "scrapes": store.scrapes,
        "series": len(store.series),
        "samples": store.total_samples,
    }


def bench_serve_overhead(
    duration_min: float = 1.0, seed: int = 7, trials: int = 3,
    quick: bool = False,
) -> dict:
    """Saturation scenario, observability server absent vs being polled.

    The disabled run is the bare engine — no sink, no server — so its
    events/sec must track ``bench_saturation`` (gated within 5 % in
    ``test_perf_bench`` and ``compare.py``): a run that never opts in
    pays nothing for the serving layer existing.  The enabled run
    attaches a sink + TSDB, starts an :class:`ObservabilityServer`, and
    hammers it from a client thread (``/metrics`` and ``/api/query``
    alternating, ~100 req/s) for the whole run — the cost of being
    scraped aggressively while simulating.  Best-of-N on both sides.
    """
    import threading
    import urllib.request

    from repro.telemetry import (
        TelemetryConfig,
        TelemetrySink,
        TimeSeriesConfig,
        TimeSeriesStore,
    )
    from repro.telemetry.serve import ObservabilityServer, RunSource

    if quick:
        duration_min, trials = 0.5, 2
    graph = DependencyGraph("svc", call("B"))
    spec = ServiceSpec("svc", graph, workload=0.0, sla=100.0)

    def run_once(enabled):
        sink = None
        if enabled:
            sink = TelemetrySink(
                config=TelemetryConfig(
                    window_min=0.25, spans=False, max_traces=0
                ),
                timeseries=TimeSeriesStore(
                    TimeSeriesConfig(scrape_interval_min=0.05)
                ),
            )
        simulator = ClusterSimulator(
            [spec],
            {"B": SimulatedMicroservice("B", base_service_ms=5.0, threads=4)},
            containers={"B": 1},
            rates={"svc": 45_000.0},
            config=SimulationConfig(
                duration_min=duration_min, warmup_min=0.25, seed=seed
            ),
            telemetry=sink,
        )
        server = client = stop = None
        served = [0]
        if enabled:
            source = RunSource(sink, simulator=simulator, specs=[spec])
            server = ObservabilityServer(source).start()
            stop = threading.Event()
            urls = [
                server.url + "/metrics",
                server.url + "/api/query?expr=queue_depth",
            ]

            def hammer():
                i = 0
                while not stop.is_set():
                    try:
                        with urllib.request.urlopen(
                            urls[i % len(urls)], timeout=5
                        ) as response:
                            response.read()
                        served[0] += 1
                    except OSError:
                        pass
                    i += 1
                    stop.wait(0.01)

            client = threading.Thread(target=hammer, daemon=True)
            client.start()
        start = time.perf_counter()
        result = simulator.run()
        wall = time.perf_counter() - start
        if enabled:
            stop.set()
            client.join(timeout=10)
            server.stop()
        return wall, result, served[0]

    disabled_runs = [run_once(False) for _ in range(max(1, trials))]
    enabled_runs = [run_once(True) for _ in range(max(1, trials))]
    disabled_wall, disabled_result, _ = min(disabled_runs, key=lambda p: p[0])
    enabled_wall, enabled_result, served = min(
        enabled_runs, key=lambda p: p[0]
    )
    disabled_eps = disabled_result.events_processed / disabled_wall
    enabled_eps = enabled_result.events_processed / enabled_wall
    return {
        "disabled_events_per_sec": round(disabled_eps, 1),
        "enabled_events_per_sec": round(enabled_eps, 1),
        "overhead_pct": round((1.0 - enabled_eps / disabled_eps) * 100.0, 2),
        "disabled_wall_s": round(disabled_wall, 4),
        "enabled_wall_s": round(enabled_wall, 4),
        "requests_served": served,
    }


BENCHMARKS = {
    "saturation": bench_saturation,
    "priority_replay": bench_priority_replay,
    "static_cell": bench_static_cell,
    "trace_slice": bench_trace_slice,
    "allocation_throughput": bench_allocation_throughput,
    "deploy_reconcile": bench_deploy_reconcile,
    "baseline_stats": bench_baseline_stats,
    "parallel_grid": bench_parallel_grid,
    "telemetry_overhead": bench_telemetry_overhead,
    "tail_sampling": bench_tail_sampling,
    "analysis_throughput": bench_analysis_throughput,
    "resilience_overhead": bench_resilience_overhead,
    "tsdb_overhead": bench_tsdb_overhead,
    "serve_overhead": bench_serve_overhead,
}


def run_suite(
    only=None, output: pathlib.Path = None, quick: bool = False
) -> dict:
    """Run the suite and write ``BENCH_des.json``; returns the report."""
    report = {"schema": 1, "mode": "quick" if quick else "full", "benchmarks": {}}
    for name, fn in BENCHMARKS.items():
        if only and name not in only:
            continue
        print(f"[perf] {name} ...", flush=True)
        report["benchmarks"][name] = fn(quick=quick)
        print(f"[perf]   {report['benchmarks'][name]}", flush=True)

    if BASELINE_PATH.exists():
        baseline = json.loads(BASELINE_PATH.read_text())
        report["baseline"] = baseline
        base_sat = baseline.get("benchmarks", {}).get("saturation", {})
        cur_sat = report["benchmarks"].get("saturation", {})
        if base_sat.get("events_per_sec") and cur_sat.get("events_per_sec"):
            report["saturation_speedup_vs_seed"] = round(
                cur_sat["events_per_sec"] / base_sat["events_per_sec"], 2
            )

    out = output or (REPO_ROOT / "BENCH_des.json")
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"[perf] wrote {out}")
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--only",
        nargs="*",
        choices=sorted(BENCHMARKS),
        help="run a subset of benchmarks",
    )
    parser.add_argument(
        "--output", type=pathlib.Path, help="output path (default BENCH_des.json)"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: shorter runs, smaller grids; rate metrics "
        "stay comparable to full mode, wall-clock fields do not",
    )
    args = parser.parse_args(argv)
    run_suite(only=args.only, output=args.output, quick=args.quick)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

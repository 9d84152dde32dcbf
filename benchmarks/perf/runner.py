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
* ``disabled_path`` — the saturation scenario bare versus with the
  cheapest sink attached (no spans, nothing retained), as a same-session
  ratio: the one guard on what observability costs a run that did not
  ask for it.  What each enabled layer costs is the ``des_replay`` →
  ``des_observed`` ladder of ``benchmarks/e2e``.
* ``analysis_throughput`` — ``analyze_run`` (critical paths + SLA blame)
  over the collected traces, handed the span table and handed the same
  traces materialised, in traces/sec and as their same-session ratio.
* ``baseline_stats`` — the GrandSLAm/Rhythm statistics sweep
  (``stats_from_profiles``) over a 300-service Taobao-scale population
  in services/sec, with the two schemes' container maps checked against
  a scalar reference loop kept in this file.

``priority_replay``, ``allocation_throughput``, ``disabled_path``,
``analysis_throughput``, ``deploy_reconcile`` and
``baseline_stats`` report each rate as best-of-N
(the gated headline) with the trials, their median and interquartile range
alongside (``*_trials``).

Results are written to ``BENCH_des.json`` at the repo root so the perf
trajectory is tracked across PRs.  ``baseline_seed.json`` (checked in,
measured on the pre-fast-path seed engine) rides along in the output so
every report carries the reference numbers.

``--quick`` shrinks every benchmark (shorter simulations, fewer trials,
smaller grids) for CI smoke runs.  ``benchmarks/perf/compare.py`` gates a
fresh (quick) run on its correctness flags and same-session ratios only:
absolute rates recorded on another day, on another box, gate nothing.
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
    machine with fewer CPUs than workers a speedup is noise, not signal,
    so the benchmark reports ``skipped`` instead of a number.
    """
    from repro.experiments import run_static_sweep
    from repro.experiments.parallel import WorkerPool

    if workers <= 0:
        workers = 4  # the tracked configuration (ISSUE: >= 4 workers)
    cpus = os.cpu_count() or 1
    if cpus < workers:
        return {"skipped": True, "workers": workers, "cpus": cpus}
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
        "cpus": cpus,
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


def bench_disabled_path(
    duration_min: float = 1.0, seed: int = 7, trials: int = 5,
    quick: bool = False,
) -> dict:
    """Saturation scenario, bare engine vs a sink attached but switched off.

    The one guard on what observability costs a run that does not ask
    for it: the bare engine (no sink — one ``is None`` branch per hook)
    against the same run with the cheapest sink there is (no spans, no
    retained traces: windows, the SLA monitor and the per-call metric
    columns only).  Trials alternate within one session and the gated
    number is ``attached_off_ratio``, the ratio of the two median rates —
    it holds on a box whose absolute speed does not.  What each enabled
    layer costs on top (spans, TSDB, resilience, analysis) is measured
    rung by rung on the ``des_replay`` → ``des_observed`` ladder of
    ``benchmarks/e2e``, not here.
    """
    from repro.telemetry import TelemetryConfig, TelemetrySink

    if quick:
        duration_min, trials = 0.5, 3
    graph = DependencyGraph("svc", call("B"))
    spec = ServiceSpec("svc", graph, workload=0.0, sla=100.0)

    def run_once(sink) -> float:
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
        return result.events_processed / (time.perf_counter() - start)

    bare_rates, off_rates = [], []
    for _ in range(max(1, trials)):
        bare_rates.append(run_once(None))
        off_rates.append(
            run_once(
                TelemetrySink(
                    config=TelemetryConfig(
                        window_min=0.25, spans=False, max_traces=0
                    )
                )
            )
        )
    bare, off = _rate(bare_rates), _rate(off_rates)
    return {
        "bare_events_per_sec": bare["best"],
        "attached_off_events_per_sec": off["best"],
        "attached_off_ratio": round(off["median"] / bare["median"], 3),
        "bare_trials": bare,
        "attached_off_trials": off,
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


BENCHMARKS = {
    "saturation": bench_saturation,
    "priority_replay": bench_priority_replay,
    "static_cell": bench_static_cell,
    "trace_slice": bench_trace_slice,
    "allocation_throughput": bench_allocation_throughput,
    "deploy_reconcile": bench_deploy_reconcile,
    "baseline_stats": bench_baseline_stats,
    "parallel_grid": bench_parallel_grid,
    "disabled_path": bench_disabled_path,
    "analysis_throughput": bench_analysis_throughput,
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
        help="CI smoke mode: shorter runs, smaller grids",
    )
    args = parser.parse_args(argv)
    run_suite(only=args.only, output=args.output, quick=args.quick)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

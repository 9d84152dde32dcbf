"""Shared experiment plumbing.

Connects the pieces the way Erms' deployment does (paper §3): the cluster
simulator is the testbed, its traces are profiled into piecewise models,
scalers consume the models, and their allocations are evaluated back on
the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.model import Allocation, MicroserviceProfile, ServiceSpec
from repro.experiments.parallel import WorkerPool, get_context, run_cells
from repro.graphs import DependencyGraph, call
from repro.profiling.piecewise import fit_piecewise
from repro.simulator.simulation import (
    ClusterSimulator,
    RateSpec,
    SimulatedMicroservice,
    SimulationConfig,
    SimulationResult,
)


def evaluate_allocation(
    specs: Sequence[ServiceSpec],
    simulated: Mapping[str, SimulatedMicroservice],
    allocation: Allocation,
    rates: Optional[Mapping[str, RateSpec]] = None,
    duration_min: float = 2.0,
    warmup_min: float = 0.5,
    seed: int = 0,
    delta: float = 0.05,
    container_multipliers: Optional[Mapping[str, Sequence[float]]] = None,
    telemetry=None,
    chaos=None,
    resilience=None,
    on_simulator=None,
) -> SimulationResult:
    """Run one allocation on the simulator and return the measurements.

    Priority scheduling is enabled automatically when the allocation
    carries priorities (i.e. was produced by full Erms).  Pass a
    :class:`~repro.telemetry.TelemetrySink` as ``telemetry`` to collect
    live spans, windowed metrics, and SLA alerts from the evaluation run;
    pass a :class:`~repro.resilience.ChaosSchedule` /
    :class:`~repro.resilience.ResiliencePolicies` as ``chaos`` /
    ``resilience`` to evaluate the allocation under faults.
    ``on_simulator`` is called with the constructed simulator before
    ``run()`` — the observability server attaches here.
    """
    scheduling = "priority" if allocation.priorities else "fcfs"
    config = SimulationConfig(
        duration_min=duration_min,
        warmup_min=warmup_min,
        seed=seed,
        delta=delta,
        scheduling=scheduling,
        record_own_latency=False,
    )
    if rates is None:
        rates = {spec.name: spec.workload for spec in specs}
    simulator = ClusterSimulator(
        specs,
        simulated,
        containers=allocation.containers,
        rates=rates,
        config=config,
        priorities=allocation.priorities,
        container_multipliers=container_multipliers,
        telemetry=telemetry,
        chaos=chaos,
        resilience=resilience,
    )
    if on_simulator is not None:
        on_simulator(simulator)
    return simulator.run()


def _probe_cell(cell: Dict) -> float:
    """Drive one container at one load level; returns the tail latency.

    Top-level so it pickles into pool workers.  The probed microservice
    and the sweep settings are shared context (shipped once per worker);
    the payload carries only the load level and the cell's own seed,
    making the result identical in-process or not.
    """
    context = get_context()
    microservice: SimulatedMicroservice = context["microservice"]
    graph = DependencyGraph("probe", call(microservice.name))
    spec = ServiceSpec("probe", graph, workload=0.0, sla=1.0e9)
    simulator = ClusterSimulator(
        [spec],
        {microservice.name: microservice},
        containers={microservice.name: 1},
        rates={"probe": float(cell["load"])},
        config=SimulationConfig(
            duration_min=context["duration_min"],
            warmup_min=context["warmup_min"],
            seed=cell["seed"],
            record_own_latency=False,  # only the end-to-end tail is read
        ),
        container_multipliers={
            microservice.name: [context["interference_multiplier"]]
        },
    )
    result = simulator.run()
    return result.tail_latency("probe", context["percentile"])


def simulate_profiling_sweep(
    microservice: SimulatedMicroservice,
    loads: Sequence[float],
    interference_multiplier: float = 1.0,
    duration_min: float = 1.5,
    warmup_min: float = 0.5,
    seed: int = 0,
    percentile: float = 95.0,
    workers: int = 1,
    pool: Optional[WorkerPool] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Measure one microservice's P95 latency across per-container loads.

    This is the offline-profiling data collection of §5.2 against the
    simulator: a single container is driven at each load level and its
    tail latency recorded.  Load levels are independent runs seeded
    ``seed + index``, so with ``workers > 1`` they fan out across
    processes and still return exactly the serial result.

    Returns:
        (loads, p95_latencies) arrays.
    """
    context = {
        "microservice": microservice,
        "interference_multiplier": interference_multiplier,
        "duration_min": duration_min,
        "warmup_min": warmup_min,
        "percentile": percentile,
    }
    cells = [
        {"load": load, "seed": seed + index}
        for index, load in enumerate(loads)
    ]
    latencies = run_cells(_probe_cell, cells, workers, context=context, pool=pool)
    return np.asarray(loads, dtype=float), np.asarray(latencies)


def fit_profiles_from_simulation(
    simulated: Mapping[str, SimulatedMicroservice],
    resource_demands: Optional[Mapping[str, float]] = None,
    sweep_points: int = 10,
    max_load_fraction: float = 0.95,
    interference_multiplier: float = 1.0,
    duration_min: float = 1.0,
    warmup_min: Optional[float] = None,
    seed: int = 0,
    workers: int = 1,
    pool: Optional[WorkerPool] = None,
) -> Dict[str, MicroserviceProfile]:
    """Profile every microservice by sweeping the simulator (§5.2).

    The per-container load sweep spans up to ``max_load_fraction`` of each
    microservice's theoretical capacity ``threads / base_service_ms``; the
    measured P95 curve is fitted piecewise.  This produces *measured*
    profiles — the controller's belief is then genuinely learned from the
    substrate it controls, as in the real system.  ``workers`` fans the
    per-load probe runs out across processes (see
    :func:`simulate_profiling_sweep`).
    """
    # Resolve the default once, before iterating: every microservice
    # profiles with the same warmup, and the parameter is never mutated
    # mid-loop.
    if warmup_min is None:
        warmup_min = duration_min / 3.0
    profiles: Dict[str, MicroserviceProfile] = {}
    for name, sim in simulated.items():
        capacity = sim.threads / (
            sim.base_service_ms * interference_multiplier
        ) * 60_000.0
        loads = np.linspace(
            0.1 * capacity, max_load_fraction * capacity, sweep_points
        )
        xs, ys = simulate_profiling_sweep(
            sim,
            loads,
            interference_multiplier=interference_multiplier,
            duration_min=duration_min,
            warmup_min=warmup_min,
            seed=seed,
            workers=workers,
            pool=pool,
        )
        fit = fit_piecewise(xs, ys)
        demand = 1.0
        if resource_demands and name in resource_demands:
            demand = resource_demands[name]
        profiles[name] = MicroserviceProfile(
            name=name, model=fit.model, resource_demand=demand
        )
    return profiles


@dataclass(frozen=True)
class SchemeOutcome:
    """One scheme's results in a comparison experiment."""

    scheme: str
    containers: int
    violation_rate: Optional[float] = None
    p95_latency: Optional[float] = None

"""Shared experiment plumbing.

Connects the pieces the way Erms' deployment does (paper §3): the cluster
simulator is the testbed, its traces are profiled into piecewise models,
scalers consume the models, and their allocations are evaluated back on
the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

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
from repro.workloads.deathstarbench import (
    Application,
    hotel_reservation,
    media_service,
    social_network,
)

Profiles = Mapping[str, MicroserviceProfile]

APPLICATIONS = {
    "social-network": social_network,
    "media-service": media_service,
    "hotel-reservation": hotel_reservation,
}


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


def uniform_specs(
    app: Application, workload: float, sla: float
) -> List[ServiceSpec]:
    """Every service of ``app`` at one request rate and one SLA."""
    return app.with_workloads(
        {service.name: workload for service in app.services}, sla=sla
    )


def planning_profiles(
    app: Application, interference: float, profiles: Optional[Profiles] = None
) -> Tuple[Profiles, Profiles]:
    """``(live, historic)`` profiles for a run at one colocation level.

    ``live`` — ``profiles``, or the application's analytic profiles at
    ``interference`` — is what an ``interference_aware`` scheme plans
    against.  ``historic`` is what the rest see: statistics fitted when
    colocation was lighter, halfway between idle and the current level
    (the paper's §2.2 critique that fixed statistics do not track
    interference); the same object as ``live`` on an idle cluster.
    """
    if profiles is None:
        profiles = app.analytic_profiles(interference)
    if interference == 1.0:
        return profiles, profiles
    return profiles, app.analytic_profiles(1.0 + (interference - 1.0) / 2.0)


def uniform_multipliers(
    allocation: Allocation, interference: float
) -> Optional[Dict[str, List[float]]]:
    """Every container of ``allocation`` slowed by ``interference``."""
    if interference == 1.0:
        return None
    return {
        name: [interference] * count
        for name, count in allocation.containers.items()
    }


def replay_sink(
    sampling_rate: float = 1.0,
    tail_threshold_ms: Optional[float] = None,
    seed: int = 0,
    window_min: float = 1.0,
    max_traces: int = 0,
    timeseries=None,
    always: bool = False,
):
    """The telemetry one replay carries, or ``None`` when nothing reads it.

    A replay gets a sink when the sampling settings ask for retention
    accounting (a rate below 1.0 or a tail threshold), when a
    ``timeseries`` store scrapes it, or when the caller reads the sink
    whatever the settings (``always``).  ``max_traces=0`` keeps the
    accounting (sampled / kept / dropped) and materializes no trace.
    """
    if not (
        always
        or timeseries is not None
        or sampling_rate < 1.0
        or tail_threshold_ms is not None
    ):
        return None
    from repro.telemetry import TelemetryConfig, TelemetrySink

    return TelemetrySink(
        config=TelemetryConfig(
            window_min=window_min,
            sampling_rate=sampling_rate,
            tail_threshold_ms=tail_threshold_ms,
            seed=seed,
            max_traces=max_traces,
        ),
        timeseries=timeseries,
    )


@dataclass(frozen=True)
class RunSpec:
    """One setting of the pipeline and the one recipe that runs it.

    The fields are the values the ``repro`` flags carry — the tuple the
    artifact's Appendix B scripts all start from (application, scheme,
    workload, SLA, interference) plus the run, sampling, fault and
    observability settings.  Everything a run is built from is derived
    here, in pipeline order (paper Fig. 6): application → profiles →
    specs → allocation → telemetry sink → simulator, with two ways to
    run it: :meth:`replay` (the allocation held fixed, through
    :func:`evaluate_allocation`) and :meth:`autoscaled` (the scheme
    re-deciding inside one continuous simulation).  A value a
    constructor rejects raises ``ValueError`` from the step that builds
    it; an SLA below the latency floor raises
    :class:`~repro.core.model.InfeasibleSLAError` from ``allocation``.
    """

    app: str = "social-network"
    scheme: str = "erms"
    workload: float = 20_000.0
    sla: float = 200.0
    interference: float = 1.0
    duration: float = 1.5
    seed: int = 0
    sampling_rate: float = 1.0
    tail_threshold: Optional[float] = None
    chaos: bool = False
    resilience: bool = False
    chaos_seed: int = 0
    chaos_crashes: int = 1
    chaos_error_rate: float = 0.05
    chaos_spike: float = 3.0
    chaos_restart_ms: float = 5_000.0
    serve: Optional[int] = None
    interval: float = 1.0
    window: float = 1.0
    max_traces: int = 0
    scrape_interval: Optional[float] = None
    rules: Optional[str] = None

    @cached_property
    def application(self) -> Application:
        if self.app not in APPLICATIONS:
            raise ValueError(
                f"unknown application {self.app!r}; "
                f"choose from {sorted(APPLICATIONS)}"
            )
        return APPLICATIONS[self.app]()

    @cached_property
    def scaler(self):
        from repro.baselines import Firm, GrandSLAm, Rhythm
        from repro.core.scaling import ErmsScaler

        schemes = {
            "erms": ErmsScaler,
            "erms-fcfs": lambda: ErmsScaler(use_priority=False),
            "grandslam": GrandSLAm,
            "rhythm": Rhythm,
            "firm": Firm,
        }
        if self.scheme not in schemes:
            raise ValueError(
                f"unknown scheme {self.scheme!r}; choose from {sorted(schemes)}"
            )
        return schemes[self.scheme]()

    @cached_property
    def profiles(self) -> Profiles:
        return self.application.analytic_profiles(self.interference)

    @cached_property
    def specs(self) -> List[ServiceSpec]:
        return uniform_specs(self.application, self.workload, self.sla)

    @cached_property
    def allocation(self) -> Allocation:
        """What the scheme deploys for this setting — containers, Eq. 5
        targets and Eqs. 13–14 priorities — from a fresh episode."""
        self.scaler.reset()
        return self.scaler.scale(self.specs, self.profiles)

    @property
    def warmup(self) -> float:
        return min(0.5, self.duration / 3)

    @cached_property
    def chaos_schedule(self):
        """Seeded random fault schedule over the app, or ``None``."""
        if not self.chaos:
            return None
        from repro.resilience import ChaosSchedule

        return ChaosSchedule.random(
            sorted(self.application.simulated),
            duration_min=self.duration,
            seed=self.chaos_seed,
            crashes=self.chaos_crashes,
            restart_after_ms=self.chaos_restart_ms,
            error_rate=self.chaos_error_rate,
            spike_multiplier=self.chaos_spike,
        )

    @property
    def policies(self):
        """Default policy bundle under ``resilience``, else ``None``."""
        if not self.resilience:
            return None
        from repro.resilience import ResiliencePolicies

        return ResiliencePolicies.default(seed=self.seed)

    def meta(self, **extra) -> Dict:
        """What the serve plane and the dashboard show about the run."""
        return {
            "app": self.app,
            "scheme": self.scheme,
            "workload": self.workload,
            "sla": self.sla,
            "seed": self.seed,
            "duration_min": self.duration,
            **extra,
        }

    def sink(self, always: bool = False):
        """A fresh sink for one run of this spec (see :func:`replay_sink`).

        A served run is watched live, so it windows and scrapes at a
        live-view cadence whatever the flags say.
        """
        serving = self.serve is not None
        window, scrape = (
            (0.25, 0.1) if serving else (self.window, self.scrape_interval)
        )
        timeseries = None
        if scrape is not None:
            from repro.telemetry import (
                TimeSeriesConfig,
                TimeSeriesStore,
                load_rules,
            )

            timeseries = TimeSeriesStore(
                TimeSeriesConfig(scrape_interval_min=scrape),
                rules=load_rules(self.rules) if self.rules else None,
            )
        return replay_sink(
            self.sampling_rate,
            self.tail_threshold,
            self.seed,
            window_min=window,
            max_traces=self.max_traces,
            timeseries=timeseries,
            always=always,
        )

    def replay(
        self, telemetry=None, resilience=None, on_simulator=None
    ) -> SimulationResult:
        """Hold the allocation fixed and replay it on the simulator.

        ``resilience`` overrides the bundle the flags choose (the chaos
        comparison replays one spec under two bundles).
        """
        return evaluate_allocation(
            self.specs,
            self.application.simulated,
            self.allocation,
            duration_min=self.duration,
            warmup_min=self.warmup,
            seed=self.seed,
            container_multipliers=uniform_multipliers(
                self.allocation, self.interference
            ),
            telemetry=telemetry,
            chaos=self.chaos_schedule,
            resilience=resilience if resilience is not None else self.policies,
            on_simulator=on_simulator,
        )

    def autoscaled(self, telemetry=None):
        """The scheme's control loop inside one continuous simulation,
        built and ready to ``run()``.

        The scheme re-decides every ``interval`` minutes from a fresh
        episode; the cluster enforces the priorities it plans with
        (scheduling follows ``allocation``, as in :meth:`replay`).
        Containers run at the idle service time: the loop plans at
        ``interference`` but the simulated hosts are not slowed.
        """
        from repro.simulator.autoscaled import (
            AutoscaleConfig,
            AutoscaledSimulation,
        )

        config = SimulationConfig(
            duration_min=self.duration,
            warmup_min=self.warmup,
            seed=self.seed,
            scheduling="priority" if self.allocation.priorities else "fcfs",
        )
        self.scaler.reset()
        return AutoscaledSimulation(
            self.specs,
            self.application.simulated,
            self.scaler,
            self.profiles,
            rates={spec.name: self.workload for spec in self.specs},
            config=config,
            autoscale=AutoscaleConfig(interval_min=self.interval),
            telemetry=telemetry,
            chaos=self.chaos_schedule,
            resilience=self.policies,
        )


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

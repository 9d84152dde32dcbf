"""Static-workload comparison (paper §6.3.1, Figs. 11-12, and Fig. 14).

Sweeps (workload, SLA) settings over a benchmark application, scales with
every scheme, and (optionally) replays each distinct deployment on the
cluster simulator to measure end-to-end tail latency and SLA violation
rates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.model import Allocation, InfeasibleSLAError, MicroserviceProfile
from repro.core.scaling import Autoscaler
from repro.experiments.harness import (
    evaluate_allocation,
    planning_profiles,
    replay_sink,
    uniform_multipliers,
    uniform_specs,
)
from repro.experiments.parallel import WorkerPool, get_context, run_cells
from repro.workloads.deathstarbench import Application


@dataclass
class StaticSweepResult:
    """Rows of the static sweep: one per (workload, sla, scheme)."""

    rows: List[Dict] = field(default_factory=list)

    def schemes(self) -> List[str]:
        seen: Dict[str, None] = {}
        for row in self.rows:
            seen.setdefault(row["scheme"], None)
        return list(seen)

    def container_distribution(self, scheme: str) -> np.ndarray:
        """All container totals of one scheme (the Fig. 11a CDF input)."""
        return np.array(
            [row["containers"] for row in self.rows if row["scheme"] == scheme]
        )

    def average_containers(self, scheme: str) -> float:
        values = self.container_distribution(scheme)
        if len(values) == 0:
            raise ValueError(f"no rows for scheme {scheme!r}")
        return float(np.mean(values))

    def average_violation(self, scheme: str) -> float:
        values = [
            row["violation"]
            for row in self.rows
            if row["scheme"] == scheme and row.get("violation") is not None
        ]
        if not values:
            raise ValueError(f"no simulated rows for scheme {scheme!r}")
        return float(np.mean(values))

    def average_p95(self, scheme: str) -> float:
        values = [
            row["p95"]
            for row in self.rows
            if row["scheme"] == scheme and row.get("p95") is not None
        ]
        if not values:
            raise ValueError(f"no simulated rows for scheme {scheme!r}")
        return float(np.mean(values))

    def savings_vs(self, scheme: str, baseline: str) -> float:
        """Fractional container savings of ``scheme`` against ``baseline``."""
        ours = self.average_containers(scheme)
        theirs = self.average_containers(baseline)
        return 1.0 - ours / theirs


def _replay_key(workload: float, allocation: Allocation) -> Tuple:
    """Everything a replay reads that differs between cells of one sweep."""
    return (
        workload,
        tuple(sorted(allocation.containers.items())),
        tuple(
            (name, tuple(sorted(ranks.items())))
            for name, ranks in sorted(allocation.priorities.items())
        ),
    )


def _simulate_static_cell(cell: Dict) -> Dict[float, Dict]:
    """Replay one deployment; measure it per SLA (top-level so it pickles).

    The sweep-wide constants — the application, seed, simulation
    settings, sampling configuration, chaos and resilience — live in the
    shared context shipped to each worker once (:func:`get_context`); the
    payload carries only what a replay reads beyond that: the workload
    and the allocation (``containers``, ``priorities``), plus the SLAs of
    the grid cells that share them.  An SLA reaches the engine only as
    the :class:`~repro.telemetry.SLAMonitor` alert threshold of a
    counting sink, which no row reads (the group's first SLA is used), so
    one :class:`~repro.simulator.SimulationResult` serves every SLA: P95
    is read once, the violation rate once per SLA.  Specs are rebuilt
    in-worker from the coordinates, so the result remains a pure function
    of (context, payload) and identical whether it runs in-process or in
    a worker process.

    Returns:
        ``{sla: measured row fields}`` for every SLA in ``cell["slas"]``.
    """
    context = get_context()
    app = context["app"]
    specs = uniform_specs(app, cell["workload"], cell["slas"][0])
    allocation = cell["allocation"]
    sink = replay_sink(
        context["sampling_rate"], context["tail_threshold_ms"], context["seed"]
    )
    sim = evaluate_allocation(
        specs,
        app.simulated,
        allocation,
        duration_min=context["duration_min"],
        warmup_min=context["warmup_min"],
        seed=context["seed"],
        container_multipliers=uniform_multipliers(
            allocation, context["interference_multiplier"]
        ),
        telemetry=sink,
        chaos=context["chaos"],
        resilience=context["resilience"],
    )
    # A service whose requests all finished inside the warm-up has
    # nothing to measure and is left out of the averages.
    names = [spec.name for spec in specs if sim.has_samples(spec.name)]
    shared: Dict = {
        "p95": float(np.mean([sim.tail_latency(name) for name in names]))
        if names
        else None
    }
    if sink is not None:
        shared["traces_sampled"] = sink.sampled_traces
        shared["traces_kept"] = sink.kept_traces
        shared["tail_dropped"] = sink.tail_dropped
    return {
        sla: {
            "violation": float(
                np.mean([sim.sla_violation_rate(name, sla) for name in names])
            )
            if names
            else None,
            **shared,
        }
        for sla in cell["slas"]
    }


def run_static_sweep(
    app: Application,
    schemes: Sequence[Autoscaler],
    workloads: Sequence[float],
    slas: Sequence[float],
    profiles: Optional[Mapping[str, MicroserviceProfile]] = None,
    simulate: bool = False,
    duration_min: float = 1.5,
    warmup_min: float = 0.5,
    seed: int = 0,
    interference_multiplier: float = 1.0,
    workers: int = 1,
    sampling_rate: float = 1.0,
    tail_threshold_ms: Optional[float] = None,
    pool: Optional[WorkerPool] = None,
    chaos=None,
    resilience=None,
) -> StaticSweepResult:
    """Run the full (workload × SLA × scheme) grid.

    Args:
        app: Benchmark application.
        schemes: Autoscalers to compare.
        workloads: Per-service request rates (req/min) to sweep.
        slas: End-to-end SLAs (ms) to sweep.
        profiles: Latency profiles for the scalers; the application's
            analytic profiles by default.
        simulate: Also replay the allocations on the simulator to measure
            violation rate and P95 (slower).  A replay reads the workload
            and the allocation's ``containers`` and ``priorities`` (seed,
            durations, interference, sampling, chaos and resilience are
            the same for the whole sweep) and never the SLA, so cells
            that agree on those — schemes that return the same
            deployment, one scheme at two SLAs — share one replay, from
            which each row's violation rate is measured at its own SLA.
        duration_min / warmup_min / seed: Simulation settings.
        interference_multiplier: Actual host colocation level.  Schemes
            with ``interference_aware`` condition their profiles on it
            (Erms feeds measured utilization into Eq. 15); the rest scale
            against *historic* profiles fitted when colocation was lighter
            (halfway between idle and the current level, see
            :func:`~repro.experiments.harness.planning_profiles`).  The
            simulator replays everyone at the true level.
        workers: Process count for the simulation replays (``0`` = one per
            CPU).  Allocations always run serially — schemes are stateful
            (``reset()``/``scale()``) — then the independent replays, one
            per distinct deployment, fan out; results are identical to
            ``workers=1``.
        sampling_rate: Trace head-sampling rate for the replays.  Any
            value below 1.0 (or a tail threshold) attaches a counting-only
            telemetry sink per replay; rows then carry its
            ``traces_sampled`` / ``traces_kept`` / ``tail_dropped``.
        tail_threshold_ms: Tail-based sampling threshold for the replays
            (see :class:`~repro.telemetry.TelemetryConfig`).
        pool: Persistent :class:`WorkerPool` to reuse across sweeps; the
            sweep's shared context is installed on it (re-forking only if
            it changed) and ``workers`` is ignored.
        chaos / resilience: Optional
            :class:`~repro.resilience.ChaosSchedule` /
            :class:`~repro.resilience.ResiliencePolicies` applied to every
            simulated cell (both are picklable frozen dataclasses, so the
            parallel path is unaffected).

    Returns:
        A :class:`StaticSweepResult`; infeasible (SLA below latency floor)
        combinations are skipped for all schemes alike.
    """
    profiles, blind_profiles = planning_profiles(
        app, interference_multiplier, profiles
    )
    # Pass 1 (serial): allocations.  Schemes are stateful, so reset/scale
    # must run in grid order; this pass is cheap relative to simulation.
    result = StaticSweepResult()
    replays: Dict[Tuple, Dict] = {}  # one payload per distinct deployment
    simulated: List[Tuple[Dict, Tuple]] = []  # (row, its replay's key)
    for workload in workloads:
        for sla in slas:
            specs = uniform_specs(app, workload, sla)
            for scheme in schemes:
                scheme_profiles = (
                    profiles if scheme.interference_aware else blind_profiles
                )
                scheme.reset()  # each grid cell is a fresh deployment
                try:
                    allocation = scheme.scale(specs, scheme_profiles)
                except InfeasibleSLAError:
                    continue
                row = {
                    "workload": workload,
                    "sla": sla,
                    "scheme": scheme.name,
                    "containers": allocation.total_containers(),
                    "violation": None,
                    "p95": None,
                }
                result.rows.append(row)
                if simulate:
                    key = _replay_key(workload, allocation)
                    replay = replays.setdefault(
                        key,
                        {"workload": workload, "allocation": allocation, "slas": []},
                    )
                    if sla not in replay["slas"]:
                        replay["slas"].append(sla)
                    simulated.append((row, key))

    # Pass 2 (parallel-safe): independent simulation replays, one per
    # distinct (workload, containers, priorities) — schemes often agree,
    # and an SLA does not reach the engine — each fully determined by the
    # shared context + its payload.
    if simulated:
        context = {
            "app": app,
            "duration_min": duration_min,
            "warmup_min": warmup_min,
            "seed": seed,
            "interference_multiplier": interference_multiplier,
            "sampling_rate": sampling_rate,
            "tail_threshold_ms": tail_threshold_ms,
            "chaos": chaos,
            "resilience": resilience,
        }
        measured = dict(
            zip(
                replays,
                run_cells(
                    _simulate_static_cell,
                    list(replays.values()),
                    workers,
                    context=context,
                    pool=pool,
                ),
            )
        )
        for row, key in simulated:
            row.update(measured[key][row["sla"]])
    return result

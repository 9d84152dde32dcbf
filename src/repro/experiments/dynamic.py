"""Dynamic-workload experiment (paper §6.3.2, Fig. 13).

Replays an Alibaba-like diurnal workload against a benchmark application.
Every scaling window the current rate is observed, each scheme recomputes
its allocation, and the window is simulated at the true rate — yielding
the paper's two time series: containers deployed over time (Fig. 13a) and
tail latency over time with SLA violations at peaks (Fig. 13b).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.core.model import InfeasibleSLAError, MicroserviceProfile
from repro.core.scaling import Autoscaler
from repro.experiments.harness import (
    evaluate_allocation,
    planning_profiles,
    uniform_multipliers,
    uniform_specs,
)
from repro.experiments.parallel import WorkerPool, get_context, run_cells
from repro.workloads.deathstarbench import Application
from repro.workloads.prediction import WorkloadPredictor


@dataclass
class DynamicResult:
    """Per-window time series for every scheme."""

    windows: List[float] = field(default_factory=list)  # window start minutes
    rates: List[float] = field(default_factory=list)
    containers: Dict[str, List[int]] = field(default_factory=dict)
    p95: Dict[str, List[float]] = field(default_factory=dict)
    violations: Dict[str, List[float]] = field(default_factory=dict)

    def average_containers(self, scheme: str) -> float:
        return float(np.mean(self.containers[scheme]))

    def peak_violation(self, scheme: str) -> float:
        return float(np.max(self.violations[scheme]))

    def mean_violation(self, scheme: str) -> float:
        return float(np.mean(self.violations[scheme]))

    def tracks_workload(self, scheme: str) -> float:
        """Correlation between the rate series and container series."""
        if len(self.windows) < 3:
            raise ValueError("need at least 3 windows")
        return float(np.corrcoef(self.rates, self.containers[scheme])[0, 1])


def _dynamic_cell(cell: Dict) -> Dict:
    """Replay one (window, scheme) allocation (top-level so it pickles).

    The application, SLA and simulation settings are constant across the
    whole run and live in the shared context; the payload carries only
    the window's actual rate, the scheme's allocation and the seed.
    """
    context = get_context()
    app = context["app"]
    sla = context["sla"]
    sim_duration_min = context["sim_duration_min"]
    actual_specs = uniform_specs(app, cell["actual"], sla)
    allocation = cell["allocation"]
    sim = evaluate_allocation(
        actual_specs,
        app.simulated,
        allocation,
        duration_min=sim_duration_min,
        warmup_min=min(0.3, sim_duration_min / 3),
        seed=cell["seed"],
        container_multipliers=uniform_multipliers(
            allocation, context["interference_multiplier"]
        ),
    )
    p95s, violations = [], []
    for spec in actual_specs:
        if not sim.has_samples(spec.name):
            continue
        p95s.append(sim.tail_latency(spec.name))
        violations.append(sim.sla_violation_rate(spec.name, sla))
    return {
        "p95": float(np.mean(p95s)) if p95s else float("nan"),
        "violation": float(np.mean(violations)) if violations else 0.0,
    }


def run_dynamic_workload(
    app: Application,
    schemes: Sequence[Autoscaler],
    rate: Callable[[float], float],
    sla: float = 200.0,
    total_min: float = 30.0,
    window_min: float = 3.0,
    profiles: Optional[Mapping[str, MicroserviceProfile]] = None,
    sim_duration_min: float = 1.0,
    seed: int = 0,
    observation_lag_min: float = 0.0,
    interference_multiplier: float = 1.0,
    predictor: Optional["WorkloadPredictor"] = None,
    workers: int = 1,
    pool: Optional[WorkerPool] = None,
) -> DynamicResult:
    """Windowed scale-and-replay over a dynamic rate.

    All of the application's services follow the same ``rate`` curve (the
    paper replays one Alibaba workload trace against the Social Network
    application).  ``observation_lag_min`` models monitoring delay: the
    schemes scale for the rate observed that long ago, while the window is
    simulated at the *current* rate — under-provisioning on rising edges
    is how reactive schemes get caught out at workload peaks (Fig. 13b).
    ``interference_multiplier`` mirrors the static sweep:
    interference-aware schemes plan against the live colocation level,
    the rest against historic statistics.  When a ``predictor`` is
    given, schemes plan for its forecast of the *current* rate from the
    lagged observations (proactive scaling) instead of the raw lagged
    observation (reactive scaling).

    Allocations run serially in window order — schemes and the predictor
    are stateful — then every (window, scheme) replay fans out as one
    independent cell over ``workers`` processes (or the given ``pool``);
    results are identical to ``workers=1``.
    """
    profiles, blind_profiles = planning_profiles(
        app, interference_multiplier, profiles
    )
    result = DynamicResult()
    for scheme in schemes:
        result.containers[scheme.name] = []
        result.p95[scheme.name] = []
        result.violations[scheme.name] = []

    # Pass 1 (serial): observe, predict, allocate — in window order, since
    # schemes and the predictor carry state between windows.  Each
    # feasible (window, scheme) allocation becomes one pending replay;
    # infeasible windows record their sentinel row (0 containers, NaN
    # P95, violation 1.0) immediately.
    pending: List[Dict] = []  # payloads for _dynamic_cell
    slots: List[tuple] = []  # (scheme name, index into that scheme's rows)
    minute = 0.0
    while minute < total_min:
        actual = float(rate(minute))
        observed = float(rate(max(0.0, minute - observation_lag_min)))
        if predictor is not None:
            horizon = (
                observation_lag_min / window_min if window_min > 0 else 1.0
            )
            observed = predictor.observe_and_predict(observed, horizon)
        result.windows.append(minute)
        result.rates.append(actual)
        specs = uniform_specs(app, observed, sla)
        for scheme in schemes:
            scheme_profiles = (
                profiles if scheme.interference_aware else blind_profiles
            )
            try:
                allocation = scheme.scale(specs, scheme_profiles)
            except InfeasibleSLAError:
                result.containers[scheme.name].append(0)
                result.p95[scheme.name].append(float("nan"))
                result.violations[scheme.name].append(1.0)
                continue
            result.containers[scheme.name].append(
                allocation.total_containers()
            )
            result.p95[scheme.name].append(float("nan"))
            result.violations[scheme.name].append(0.0)
            slots.append(
                (scheme.name, len(result.p95[scheme.name]) - 1)
            )
            pending.append(
                {
                    "actual": actual,
                    "allocation": allocation,
                    "seed": seed + int(minute),
                }
            )
        minute += window_min

    # Pass 2 (parallel-safe): the independent window replays.
    if pending:
        context = {
            "app": app,
            "sla": sla,
            "sim_duration_min": sim_duration_min,
            "interference_multiplier": interference_multiplier,
        }
        measured = run_cells(
            _dynamic_cell, pending, workers, context=context, pool=pool
        )
        for (scheme_name, index), row in zip(slots, measured):
            result.p95[scheme_name][index] = row["p95"]
            result.violations[scheme_name][index] = row["violation"]
    return result

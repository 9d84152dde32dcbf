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

from repro.core.controller import ControlLoop
from repro.core.model import MicroserviceProfile
from repro.core.scaling import Autoscaler
from repro.experiments.harness import (
    Replay,
    ReplayContext,
    planning_profiles,
    replay_cells,
    uniform_multipliers,
    uniform_specs,
)
from repro.experiments.parallel import WorkerPool
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


def _window_row(result, sink, context: ReplayContext) -> Dict:
    """Mean P95 and SLA violation rate of one window's replay."""
    p95s, violations = [], []
    for spec in context.specs:
        if not result.has_samples(spec.name):
            continue
        p95s.append(result.tail_latency(spec.name))
        violations.append(result.sla_violation_rate(spec.name, spec.sla))
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
    are stateful — then the (window, scheme) replays fan out over
    ``workers`` processes (or the given ``pool``), schemes that agree in a
    window sharing one; results are identical to ``workers=1``.
    """
    profiles, blind_profiles = planning_profiles(
        app, interference_multiplier, profiles
    )
    specs = uniform_specs(app, 0.0, sla)
    loops = [
        ControlLoop(specs, s, profiles if s.interference_aware else blind_profiles)
        for s in schemes
    ]
    result = DynamicResult()
    for scheme in schemes:
        result.containers[scheme.name] = []
        result.p95[scheme.name] = []
        result.violations[scheme.name] = []

    # Pass 1 (serial): observe, predict, one control-loop step per scheme
    # — in window order, since schemes and the predictor carry state
    # between windows.  Each feasible (window, scheme) allocation becomes
    # one pending replay; infeasible windows record their sentinel row
    # (0 containers, NaN P95, violation 1.0) immediately.
    pending: List[Replay] = []
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
        workloads = {spec.name: observed for spec in specs}
        for loop in loops:
            name = loop.scaler.name
            report = loop.step(minute, workloads)
            feasible = report is not None
            result.containers[name].append(report.total_containers() if feasible else 0)
            result.p95[name].append(float("nan"))
            result.violations[name].append(0.0 if feasible else 1.0)
            if feasible:
                slots.append((name, len(result.p95[name]) - 1))
                allocation = report.allocation
                pending.append(
                    Replay(
                        rates={spec.name: actual for spec in specs},
                        containers=allocation.containers,
                        priorities=allocation.priorities,
                        multipliers=uniform_multipliers(
                            allocation, interference_multiplier
                        ),
                        seed=seed + int(minute),
                    )
                )
        minute += window_min

    # Pass 2 (parallel-safe): the window replays, one per distinct
    # (window, allocation) — schemes that agree in a window share one.
    if pending:
        context = ReplayContext(
            specs=specs,
            simulated=app.simulated,
            duration_min=sim_duration_min,
            warmup_min=min(0.3, sim_duration_min / 3),
        )
        measured = replay_cells(pending, _window_row, context, workers, pool)
        for (scheme_name, index), row in zip(slots, measured):
            result.p95[scheme_name][index] = row["p95"]
            result.violations[scheme_name][index] = row["violation"]
    return result

"""Profile-drift detection (tentpole part 3).

Erms' offline profiler fits each microservice a piecewise-linear latency
model (Eq. 15) once; every provisioning decision afterwards trusts it.
When the floor changes — a neighbour's interference grows, a code path
slows, a cache warms differently — the model silently under- or
over-provisions.  This module watches live profiling windows (the same
``(per-container load, tail latency)`` joins the offline profiler
trains on, via :class:`~repro.tracing.metrics.MetricsStore`), refits the
piecewise model, and compares:

* **prediction error** — the primary signal: median relative error of the
  offline model against the live windows.  Works at any load spread.
* **parameter drift** — effective slope, intercept, and cut-off point of
  the refit against the offline model, only consulted when the live
  windows span enough of the load axis for a refit to be identified.

Confirmed drift raises an :class:`~repro.telemetry.monitor.AlertEvent`
(service ``profile-drift:<microservice>``) through the run's existing
:class:`~repro.telemetry.monitor.SLAMonitor` alert stream and appends a
zero-delta audit record (actor ``drift-detector``) to the
:class:`~repro.telemetry.monitor.DecisionLog`, so drift shows up in the
same places operators already watch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.core.model import PiecewiseLatencyModel
from repro.profiling.piecewise import PiecewiseFit, fit_piecewise
from repro.telemetry.monitor import AlertEvent, DecisionLog, SLAMonitor
from repro.tracing.metrics import MetricsStore, ProfilingWindow

__all__ = [
    "DriftReport",
    "detect_profile_drift",
    "refit_profile",
]


# Tolerances for declaring a live profile drifted from the offline fit.

#: Median relative prediction error above which drift is declared
#: regardless of parameter comparison.
PREDICTION_REL = 0.35
#: Relative change of the effective slope (secant over the observed load
#: range) that counts as slope drift.
SLOPE_REL = 0.75
#: Absolute change (ms) of the predicted latency at the low end of the
#: observed range that counts as intercept drift.
INTERCEPT_ABS_MS = 10.0
#: Relative displacement of the cut-off point (σ) that counts as cut-off
#: drift; only checked when both the offline cut-off lies inside the
#: observed range and the refit is genuinely two-segment.
CUTOFF_REL = 0.5
#: Minimum live windows before any verdict is attempted.
MIN_WINDOWS = 4
#: Observed load range must span at least this fraction of the mean load
#: before parameter comparison (and the refit) is trusted; below it only
#: prediction error is used.
MIN_LOAD_SPREAD_REL = 0.3


@dataclass(frozen=True)
class DriftReport:
    """Verdict for one microservice's live windows vs its offline profile."""

    microservice: str
    drifted: bool
    reason: str
    n_windows: int
    median_rel_error: float
    observed_p95_ms: float  # median of live window tail latencies
    predicted_p95_ms: float  # median of offline-model predictions
    slope_rel_change: Optional[float] = None
    intercept_change_ms: Optional[float] = None
    cutoff_rel_change: Optional[float] = None
    refit: Optional[PiecewiseFit] = None

    def to_dict(self) -> Dict:
        entry: Dict = {
            "microservice": self.microservice,
            "drifted": self.drifted,
            "reason": self.reason,
            "n_windows": self.n_windows,
            "median_rel_error": round(self.median_rel_error, 4),
            "observed_p95_ms": round(self.observed_p95_ms, 4),
            "predicted_p95_ms": round(self.predicted_p95_ms, 4),
        }
        if self.slope_rel_change is not None:
            entry["slope_rel_change"] = round(self.slope_rel_change, 4)
        if self.intercept_change_ms is not None:
            entry["intercept_change_ms"] = round(self.intercept_change_ms, 4)
        if self.cutoff_rel_change is not None:
            entry["cutoff_rel_change"] = round(self.cutoff_rel_change, 4)
        return entry


def refit_profile(windows: Sequence[ProfilingWindow]) -> PiecewiseFit:
    """Refit the Eq. 15 piecewise model from live profiling windows."""
    if len(windows) < 2:
        raise ValueError(f"need at least 2 windows to refit, got {len(windows)}")
    loads = np.asarray([w.per_container_load for w in windows], dtype=float)
    latencies = np.asarray([w.tail_latency for w in windows], dtype=float)
    return fit_piecewise(loads, latencies, min_segment_points=2)


def _effective_slope(model: PiecewiseLatencyModel, lo: float, hi: float) -> float:
    """Secant slope of the model over [lo, hi] — comparable across fits
    whose breakpoints landed in different places."""
    if hi <= lo:
        return 0.0
    return (model.latency(hi) - model.latency(lo)) / (hi - lo)


def _detect_one(
    name: str,
    windows: Sequence[ProfilingWindow],
    model: PiecewiseLatencyModel,
) -> DriftReport:
    n = len(windows)
    if n < MIN_WINDOWS:
        return DriftReport(
            microservice=name,
            drifted=False,
            reason=f"insufficient windows ({n} < {MIN_WINDOWS})",
            n_windows=n,
            median_rel_error=0.0,
            observed_p95_ms=float(
                np.median([w.tail_latency for w in windows]) if n else 0.0
            ),
            predicted_p95_ms=0.0,
        )

    loads = np.asarray([w.per_container_load for w in windows], dtype=float)
    observed = np.asarray([w.tail_latency for w in windows], dtype=float)
    predicted = np.asarray([model.latency(load) for load in loads], dtype=float)
    rel_errors = np.abs(observed - predicted) / np.maximum(np.abs(predicted), 1e-9)
    median_rel = float(np.median(rel_errors))
    observed_med = float(np.median(observed))
    predicted_med = float(np.median(predicted))

    reasons: List[str] = []
    if median_rel > PREDICTION_REL:
        reasons.append(
            f"median prediction error {median_rel:.0%} > "
            f"{PREDICTION_REL:.0%}"
        )

    slope_rel_change: Optional[float] = None
    intercept_change: Optional[float] = None
    cutoff_rel_change: Optional[float] = None
    lo, hi = float(loads.min()), float(loads.max())
    mean_load = float(loads.mean())
    spread_ok = (
        mean_load > 0
        and (hi - lo) >= MIN_LOAD_SPREAD_REL * mean_load
    )
    if spread_ok:
        refit = refit_profile(windows)
        live = refit.model
        base_slope = _effective_slope(model, lo, hi)
        live_slope = _effective_slope(live, lo, hi)
        slope_rel_change = abs(live_slope - base_slope) / max(abs(base_slope), 1e-9)
        if slope_rel_change > SLOPE_REL:
            reasons.append(
                f"effective slope changed {slope_rel_change:.0%} over "
                f"load [{lo:.0f}, {hi:.0f}]"
            )
        intercept_change = live.latency(lo) - model.latency(lo)
        if abs(intercept_change) > INTERCEPT_ABS_MS:
            reasons.append(
                f"latency at load {lo:.0f} moved {intercept_change:+.1f} ms"
            )
        # The cut-off is only identified when the offline σ sits inside the
        # observed range and the refit actually found two segments.
        two_segment = (
            live.low.slope != live.high.slope
            or live.low.intercept != live.high.intercept
        )
        if two_segment and lo < model.cutoff < hi:
            cutoff_rel_change = abs(live.cutoff - model.cutoff) / model.cutoff
            if cutoff_rel_change > CUTOFF_REL:
                reasons.append(
                    f"cut-off moved {cutoff_rel_change:.0%} "
                    f"({model.cutoff:.0f} → {live.cutoff:.0f})"
                )
    else:
        refit = None

    return DriftReport(
        microservice=name,
        drifted=bool(reasons),
        reason="; ".join(reasons) if reasons else "within thresholds",
        n_windows=n,
        median_rel_error=median_rel,
        observed_p95_ms=observed_med,
        predicted_p95_ms=predicted_med,
        slope_rel_change=slope_rel_change,
        intercept_change_ms=intercept_change,
        cutoff_rel_change=cutoff_rel_change,
        refit=refit,
    )


def detect_profile_drift(
    store: MetricsStore,
    profiles: Mapping[str, PiecewiseLatencyModel],
    monitor: Optional[SLAMonitor] = None,
    decisions: Optional[DecisionLog] = None,
    minute: Optional[float] = None,
) -> List[DriftReport]:
    """Compare live profiling windows against offline profiles.

    Args:
        store: Live metrics (the sink's ``MetricsStore`` or a
            ``SimulationResult.to_metrics_store()`` conversion).
        profiles: Offline piecewise models per microservice, as handed to
            the resource allocator.
        monitor: When given, each drifted microservice appends an
            :class:`AlertEvent` with service ``profile-drift:<name>`` to
            ``monitor.alerts``.
        decisions: When given, each drifted microservice appends a
            zero-delta ``actor="drift-detector"`` audit record.
        minute: Timestamp for the emitted alert/audit records; defaults to
            the last live window's minute.

    Returns:
        One :class:`DriftReport` per profiled microservice, name-sorted.
    """
    reports: List[DriftReport] = []
    for name in sorted(profiles):
        windows = store.profiling_windows(name)
        report = _detect_one(name, windows, profiles[name])
        reports.append(report)
        if not report.drifted:
            continue
        stamp = minute if minute is not None else (
            float(windows[-1].minute) if windows else 0.0
        )
        if monitor is not None:
            monitor.alerts.append(
                AlertEvent(
                    service=f"profile-drift:{name}",
                    window=int(stamp),
                    start_min=stamp,
                    p95_ms=report.observed_p95_ms,
                    sla_ms=report.predicted_p95_ms,
                    violations=int(
                        np.count_nonzero(
                            [w.tail_latency for w in windows]
                            > np.asarray(
                                [profiles[name].latency(w.per_container_load) for w in windows]
                            )
                        )
                    ),
                    count=report.n_windows,
                )
            )
        if decisions is not None:
            decisions.record(
                minute=stamp,
                actor="drift-detector",
                microservice=name,
                before=0,
                after=0,
                reason=f"profile drift: {report.reason}",
            )
    return reports

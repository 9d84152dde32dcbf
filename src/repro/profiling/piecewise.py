"""Two-segment piecewise-linear fitting with breakpoint search.

The workload/latency relationship of a microservice has a *cut-off point*
(paper Fig. 3): latency grows slowly and almost linearly up to it and much
faster beyond, because container threads saturate and requests queue.  This
module fits that shape from (per-container load, tail latency) samples by
searching candidate breakpoints and solving a least-squares line on each
side (slopes constrained positive, as required by the Eq. 5 closed form;
intercepts may be negative, as the steep segment extrapolates below zero).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.core.model import LatencySegment, PiecewiseLatencyModel

#: Smallest slope admitted by a fit; keeps downstream formulas well-defined.
MIN_SLOPE = 1e-9


def require_finite(name: str, values: np.ndarray) -> None:
    """Raise ``ValueError`` naming the series ``name`` if it holds nan/inf."""
    finite = np.isfinite(values)
    if not finite.all():
        index = int(np.argmin(finite))
        raise ValueError(
            f"{name} must be finite, got {values[index]} at index {index}"
        )


def _fit_line(x: np.ndarray, y: np.ndarray) -> Tuple[float, float, float]:
    """Least-squares line with slope > 0 (intercepts may be negative).

    Returns (slope, intercept, sse).  Degenerate inputs (fewer than two
    points or zero variance) fall back to a flat line at the mean with the
    minimum slope.
    """
    if len(x) < 2 or float(np.ptp(x)) == 0.0:
        intercept = float(np.mean(y)) if len(y) else 0.0
        sse = float(np.sum((y - intercept) ** 2)) if len(y) else 0.0
        return MIN_SLOPE, intercept, sse

    x_mean, y_mean = float(np.mean(x)), float(np.mean(y))
    denom = float(np.sum((x - x_mean) ** 2))
    slope = float(np.sum((x - x_mean) * (y - y_mean)) / denom)
    intercept = y_mean - slope * x_mean

    if slope <= 0:
        slope = MIN_SLOPE
        intercept = y_mean

    residuals = y - (slope * x + intercept)
    return slope, intercept, float(np.sum(residuals**2))


@dataclass(frozen=True)
class PiecewiseFit:
    """Result of a piecewise fit: the model plus fit diagnostics."""

    model: PiecewiseLatencyModel
    sse: float
    r_squared: float
    n_samples: int

    def predict(self, loads: np.ndarray) -> np.ndarray:
        """Vectorized prediction over an array of per-container loads."""
        loads = np.asarray(loads, dtype=float)
        low = self.model.low.slope * loads + self.model.low.intercept
        high = self.model.high.slope * loads + self.model.high.intercept
        return np.where(loads <= self.model.cutoff, low, high)


def fit_piecewise(
    loads: np.ndarray,
    latencies: np.ndarray,
    candidate_breakpoints: Optional[np.ndarray] = None,
    min_segment_points: int = 3,
) -> PiecewiseFit:
    """Fit a two-segment piecewise linear latency model.

    Args:
        loads: Per-container workload values (req/min/container).
        latencies: Tail latency observations (ms), same length.
        candidate_breakpoints: Breakpoints to try; defaults to the interior
            quantiles of ``loads``.
        min_segment_points: Minimum samples required on each side of a
            candidate breakpoint.

    Returns:
        The best :class:`PiecewiseFit` by summed squared error.  When no
        breakpoint leaves enough points on both sides, a single line is
        fitted and duplicated across both segments (cutoff at the median).

    Raises:
        ValueError: mismatched shapes, fewer than 2 samples, or a nan/inf
            in ``loads`` or ``latencies`` (the message names the series).
    """
    loads = np.asarray(loads, dtype=float)
    latencies = np.asarray(latencies, dtype=float)
    if loads.shape != latencies.shape:
        raise ValueError(
            f"loads and latencies must have the same shape, got "
            f"{loads.shape} vs {latencies.shape}"
        )
    if len(loads) < 2:
        raise ValueError(f"need at least 2 samples, got {len(loads)}")
    require_finite("loads", loads)
    require_finite("latencies", latencies)

    order = np.argsort(loads)
    x, y = loads[order], latencies[order]

    if candidate_breakpoints is None:
        quantiles = np.linspace(0.15, 0.85, 25)
        candidate_breakpoints = np.unique(np.quantile(x, quantiles))

    best: Optional[Tuple[float, float, float, float, float, float]] = None
    for breakpoint in candidate_breakpoints:
        left = x <= breakpoint
        right = ~left
        if left.sum() < min_segment_points or right.sum() < min_segment_points:
            continue
        a1, b1, sse1 = _fit_line(x[left], y[left])
        a2, b2, sse2 = _fit_line(x[right], y[right])
        sse = sse1 + sse2
        if best is None or sse < best[0]:
            best = (sse, a1, b1, a2, b2, float(breakpoint))

    if best is None:
        slope, intercept, sse = _fit_line(x, y)
        cutoff = float(np.median(x)) or 1.0
        model = PiecewiseLatencyModel(
            low=LatencySegment(slope, intercept),
            high=LatencySegment(slope, intercept),
            cutoff=max(cutoff, MIN_SLOPE),
        )
        return PiecewiseFit(
            model=model,
            sse=sse,
            r_squared=_r2(y, sse),
            n_samples=len(x),
        )

    sse, a1, b1, a2, b2, cutoff = best
    model = PiecewiseLatencyModel(
        low=LatencySegment(a1, b1),
        high=LatencySegment(a2, b2),
        cutoff=max(cutoff, MIN_SLOPE),
    )
    return PiecewiseFit(
        model=model, sse=sse, r_squared=_r2(y, sse), n_samples=len(x)
    )


def _r2(y: np.ndarray, sse: float) -> float:
    total = float(np.sum((y - np.mean(y)) ** 2))
    if total == 0.0:
        return 1.0
    return 1.0 - sse / total

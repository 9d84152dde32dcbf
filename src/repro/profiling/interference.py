"""Interference-aware latency model: the Eq. 15 fit over shared resources.

For each interval l ∈ {low, high} the tail latency is

.. math:: L = \\Big(\\sum_r w_r^l\\, u_r + c^l\\Big)\\,\\gamma + b^l

with :math:`u` a *named resource vector* of host utilizations and
:math:`\\gamma` the per-container workload.  The paper's Eq. 15 is the case
``resources = {"cpu": C, "memory": M}`` (:math:`w = \\langle\\alpha,
\\beta\\rangle`); §5.2 notes the model "can be easily extended to include
various shared resources, including memory bandwidth, LLC, and network
bandwidth", which §9 leaves as future work — any further series passed in
``resources`` is that extension.  The interval boundary :math:`\\sigma(u)`
is learned by a decision tree over the same vector: interference pushes the
cut-off point forward, so latency starts rising earlier on busy hosts
(Fig. 3).

Fitting procedure:

1. Quantile-bucket the resource vector (:data:`BUCKET_QUANTILES` levels per
   resource); fit a 1-D piecewise model per bucket to get a local cut-off
   estimate.
2. Train the decision tree to predict the cut-off from the bucket centres.
3. Partition *all* samples by the tree's cut-off and solve one linear
   least-squares per interval on the design ``[u·γ, γ, 1]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.core.model import LatencySegment, PiecewiseLatencyModel
from repro.profiling.decision_tree import DecisionTreeRegressor
from repro.profiling.piecewise import MIN_SLOPE, fit_piecewise, require_finite

#: Levels each resource is quantized into for local cut-off estimation.
BUCKET_QUANTILES = 4
#: Buckets with fewer samples give no local cut-off estimate.
MIN_BUCKET_SAMPLES = 12
#: Depth of the σ(u) decision tree.
TREE_DEPTH = 4


@dataclass(frozen=True)
class InterferenceSegment:
    """One interval: named resource weights, base slope c, intercept b."""

    weights: Tuple[Tuple[str, float], ...]
    c: float
    b: float

    def slope(self, utilization: Mapping[str, float]) -> float:
        """Interference-conditioned slope, clamped positive."""
        value = self.c + sum(
            weight * utilization.get(name, 0.0) for name, weight in self.weights
        )
        return max(value, MIN_SLOPE)


@dataclass
class InterferenceModel:
    """The fitted Eq. 15 model of one microservice.

    Utilization mappings are keyed by resource name; a resource missing
    from one counts as idle (0).
    """

    resource_names: Tuple[str, ...]
    low: InterferenceSegment
    high: InterferenceSegment
    cutoff_tree: DecisionTreeRegressor
    default_cutoff: float

    def _vector(self, utilization: Mapping[str, float]) -> np.ndarray:
        return np.array(
            [[utilization.get(name, 0.0) for name in self.resource_names]]
        )

    def cutoff(self, utilization: Mapping[str, float]) -> float:
        """σ(u): the load beyond which the steep interval applies."""
        value = float(self.cutoff_tree.predict(self._vector(utilization))[0])
        if not np.isfinite(value) or value <= 0:
            return self.default_cutoff
        return value

    def model_at(self, utilization: Mapping[str, float]) -> PiecewiseLatencyModel:
        """Condition on interference: a concrete piecewise model.

        This is what *Online Scaling* does each round — it feeds the
        cluster-average utilization into the profile and obtains plain
        ⟨slope, intercept⟩ pairs for the optimization (paper §5.3.1).
        """
        return PiecewiseLatencyModel(
            low=LatencySegment(self.low.slope(utilization), self.low.b),
            high=LatencySegment(self.high.slope(utilization), self.high.b),
            cutoff=self.cutoff(utilization),
        )

    def predict(
        self, loads: np.ndarray, resources: Mapping[str, np.ndarray]
    ) -> np.ndarray:
        """Vectorized latency prediction; ``resources`` as in the fit, a
        fitted resource left out idle (0), as in :meth:`cutoff`."""
        loads = np.asarray(loads, dtype=float)
        idle = np.zeros(len(loads))
        matrix = np.column_stack([
            np.asarray(resources.get(name, idle), dtype=float)
            for name in self.resource_names
        ])
        cutoffs = self.cutoff_tree.predict(matrix)
        cutoffs = np.where(
            np.isfinite(cutoffs) & (cutoffs > 0), cutoffs, self.default_cutoff
        )

        def _slopes(segment: InterferenceSegment) -> np.ndarray:
            weights = np.array([w for _, w in segment.weights])
            return np.maximum(matrix @ weights + segment.c, MIN_SLOPE)

        low = _slopes(self.low) * loads + self.low.b
        high = _slopes(self.high) * loads + self.high.b
        return np.where(loads <= cutoffs, low, high)


def _fit_side(
    loads: np.ndarray, matrix: np.ndarray, latencies: np.ndarray, names
) -> InterferenceSegment:
    """Least squares on ``[u·γ, γ, 1]`` for one interval."""
    if len(loads) < matrix.shape[1] + 2:
        # Too few points for the unknowns: fall back to a plain line in γ.
        slope = MIN_SLOPE
        intercept = float(np.mean(latencies)) if len(latencies) else 0.0
        if len(loads) >= 2 and float(np.ptp(loads)) > 0:
            slope = max(
                float(
                    np.sum((loads - loads.mean()) * (latencies - latencies.mean()))
                    / np.sum((loads - loads.mean()) ** 2)
                ),
                MIN_SLOPE,
            )
            intercept = float(latencies.mean() - slope * loads.mean())
        return InterferenceSegment(
            weights=tuple((name, 0.0) for name in names), c=slope, b=intercept
        )
    design = np.column_stack(
        [matrix * loads[:, None], loads, np.ones_like(loads)]
    )
    solution, *_ = np.linalg.lstsq(design, latencies, rcond=None)
    *weights, c, b = (float(v) for v in solution)
    return InterferenceSegment(
        weights=tuple(zip(names, weights)), c=c, b=b
    )


def fit_interference_model(
    loads: np.ndarray,
    resources: Mapping[str, Sequence[float]],
    latencies: np.ndarray,
) -> InterferenceModel:
    """Fit the interference-aware profile of one microservice.

    Args:
        loads: Per-container workloads γ.
        resources: Named host utilization series (fractions), all the same
            length as ``loads``; ``{"cpu": C, "memory": M}`` is Eq. 15.
        latencies: Tail latency observations L (ms).

    Returns:
        The fitted :class:`InterferenceModel`.

    Raises:
        ValueError: no resource series, series of different lengths, fewer
            than 8 samples, or a non-finite value (the message names the
            series).
    """
    loads = np.asarray(loads, dtype=float)
    latencies = np.asarray(latencies, dtype=float)
    names = tuple(sorted(resources))
    if not names:
        raise ValueError("need at least one resource series")
    series = [np.asarray(resources[name], dtype=float) for name in names]
    if any(len(s) != len(loads) for s in series) or len(latencies) != len(loads):
        raise ValueError("all series must have the same length")
    if len(loads) < 8:
        raise ValueError(f"need at least 8 samples, got {len(loads)}")
    require_finite("loads", loads)
    for name, values in zip(names, series):
        require_finite(f"resource {name!r}", values)
    require_finite("latencies", latencies)
    matrix = np.column_stack(series)

    # Quantile-bucket the resource vector for local cut-off estimates.
    keys: List[Tuple[int, ...]] = []
    edges = [
        np.quantile(matrix[:, j], np.linspace(0, 1, BUCKET_QUANTILES + 1)[1:-1])
        for j in range(matrix.shape[1])
    ]
    for row in matrix:
        keys.append(
            tuple(int(np.searchsorted(edges[j], row[j])) for j in range(len(row)))
        )
    buckets: Dict[Tuple[int, ...], List[int]] = {}
    for index, key in enumerate(keys):
        buckets.setdefault(key, []).append(index)

    centers, cutoffs = [], []
    for indices in buckets.values():
        if len(indices) < MIN_BUCKET_SAMPLES:
            continue
        idx = np.array(indices)
        try:
            fit = fit_piecewise(loads[idx], latencies[idx])
        except ValueError:
            continue
        centers.append(matrix[idx].mean(axis=0))
        cutoffs.append(fit.model.cutoff)

    if centers:
        tree = DecisionTreeRegressor(max_depth=TREE_DEPTH, min_samples_leaf=1)
        tree.fit(np.array(centers), np.array(cutoffs))
        default_cutoff = float(np.median(cutoffs))
    else:
        # No bucket was dense enough: use one global cut-off.
        fit = fit_piecewise(loads, latencies)
        tree = DecisionTreeRegressor(max_depth=0)
        tree.fit(np.zeros((1, matrix.shape[1])), np.array([fit.model.cutoff]))
        default_cutoff = fit.model.cutoff
    if default_cutoff <= 0:
        default_cutoff = float(np.median(loads)) or 1.0

    # One linear solve per interval.  If a side is empty, both share one fit
    # (a single-segment microservice).
    predicted = tree.predict(matrix)
    predicted = np.where(
        np.isfinite(predicted) & (predicted > 0), predicted, default_cutoff
    )
    low_mask = loads <= predicted
    if low_mask.any() and (~low_mask).any():
        low = _fit_side(loads[low_mask], matrix[low_mask], latencies[low_mask], names)
        high = _fit_side(loads[~low_mask], matrix[~low_mask], latencies[~low_mask], names)
    else:
        shared = _fit_side(loads, matrix, latencies, names)
        low = high = shared

    return InterferenceModel(
        resource_names=names,
        low=low,
        high=high,
        cutoff_tree=tree,
        default_cutoff=default_cutoff,
    )

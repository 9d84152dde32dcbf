"""Shared machinery for the baseline autoscalers.

GrandSLAm and Rhythm allocate latency targets from *statistics* of
microservice latency observed across workloads (mean, variance, and the
correlation with end-to-end latency).  The paper's §2.2 critique is exactly
that these statistics are fixed — they do not change with the operating
point — so the baselines misallocate under load.  We compute them from the
same profiled latency models Erms uses, sweeping the admissible load range,
which is both faithful and deterministic.

The sweep is one array program per service.  Every microservice's load runs
over the same fractions of its own cut-off, so a service is one
``(microservices × sweep_points)`` latency matrix from a single piecewise
expression; the graph is folded *once* over its rows
(:meth:`DependencyGraph.end_to_end_series`), and means, variances and
correlations are row reductions.  Element-wise arithmetic and per-row sums
repeat a scalar evaluation's operations, so means and variances are
reproducible bit for bit.  Correlations come from one centred matrix–vector
product; a per-pair ``np.corrcoef`` sums its 2×N BLAS product in another
order, so against that they agree to 1e-12 (≈ 1e-15 seen), not to the bit.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence

import numpy as np

from repro.core.model import (
    Allocation,
    MicroserviceProfile,
    ServiceSpec,
    best_effort_containers,
)
from repro.core.scaling import Autoscaler, apply_fcfs_shared_scaling


@dataclass(frozen=True)
class MicroserviceStats:
    """Workload-independent latency statistics of one microservice."""

    mean: float
    variance: float
    correlation: float

    def __post_init__(self) -> None:
        if self.mean < 0 or self.variance < 0:
            raise ValueError("mean and variance must be non-negative")


class ProfileStatisticsError(ValueError):
    """A profile's latency over the statistics sweep is negative on average."""


def stats_from_profiles(
    spec: ServiceSpec,
    profiles: Mapping[str, MicroserviceProfile],
    sweep_points: int = 40,
) -> Dict[str, MicroserviceStats]:
    """Latency statistics per microservice of one service.

    Sweeps each microservice's per-container load from near zero to 30 %
    past its cut-off (the observable operating range), evaluates the
    profiled latency, and computes mean, variance, and the Pearson
    correlation with the end-to-end latency folded through the graph at
    the same sweep index — mimicking how the baselines would fit these
    statistics from historic traces.
    """
    names = spec.graph.microservices()
    models = [profiles[name].model for name in names]
    cutoff, low_slope, low_intercept, high_slope, high_intercept = np.array([
        (m.cutoff, m.low.slope, m.low.intercept, m.high.slope, m.high.intercept)
        for m in models
    ]).T[:, :, None]
    loads = np.linspace(0.05, 1.3, sweep_points) * cutoff
    latency = np.where(
        loads <= cutoff,
        low_slope * loads + low_intercept,
        high_slope * loads + high_intercept,
    )
    e2e = spec.graph.end_to_end_series(dict(zip(names, latency)))

    means = latency.mean(axis=1)
    variances = latency.var(axis=1)
    if means.min() < 0:
        worst = int(np.argmax(means < 0))
        model = models[worst]
        raise ProfileStatisticsError(
            f"service {spec.name!r}: the profile of {names[worst]!r} averages "
            f"{means[worst]:.1f} ms over the statistics sweep; its segments "
            f"do not meet at the cut-off ({model.cutoff:.1f} req/min per "
            f"container: low {model.low.latency(model.cutoff):.1f} ms, high "
            f"{model.latency_at_cutoff():.1f} ms) — refit the profile"
        )
    # Pearson r with the end-to-end series, clipped as np.corrcoef; 0 if constant
    spread = sweep_points * np.sqrt(variances) * e2e.std()
    covariance = (latency - means[:, None]) @ (e2e - e2e.mean())
    correlations = np.abs(np.clip(
        np.divide(covariance, spread, out=np.zeros_like(spread), where=spread > 0),
        -1.0, 1.0,
    ))
    rows = zip(means.tolist(), variances.tolist(), correlations.tolist())
    return {name: MicroserviceStats(*row) for name, row in zip(names, rows)}


def targets_from_weights(
    spec: ServiceSpec, weights: Mapping[str, float]
) -> Dict[str, float]:
    """Proportional SLA split: T_i = SLA · w_i / structural_fold(w).

    The denominator folds the weights through the graph (sum sequential,
    max parallel), so every critical path's target sum stays within the
    SLA: each path's weight sum is at most the folded total.  Zero or
    degenerate weights fall back to a uniform split.
    """
    return _targets(spec, spec.graph.microservices(), weights)


def _targets(
    spec: ServiceSpec, names: List[str], weights: Mapping[str, float]
) -> Dict[str, float]:
    """:func:`targets_from_weights` with the graph's names already walked."""
    safe = {name: max(weights.get(name, 0.0), 0.0) for name in names}
    if all(value == 0.0 for value in safe.values()):
        safe = {name: 1.0 for name in names}
    # non-negative and not all zero, so the fold is positive
    denominator = spec.graph.end_to_end_latency(safe)
    return {name: spec.sla * safe[name] / denominator for name in names}


class StatisticsAutoscaler(Autoscaler):
    """Scaling loop GrandSLAm and Rhythm share; a scheme is its weights rule.

    Per service: statistics → :meth:`weights` → proportional targets →
    containers through the profiled models (max-merged across services);
    then FCFS min-target scaling at shared microservices and, with
    ``use_priority``, ranks by target.  Subclasses are dataclasses that
    carry ``sweep_points`` and ``use_priority``.
    """

    @abc.abstractmethod
    def weights(self, stats: Mapping[str, MicroserviceStats]) -> Dict[str, float]:
        """The scheme's SLA-splitting weight of every microservice."""

    def scale(
        self,
        specs: Sequence[ServiceSpec],
        profiles: Mapping[str, MicroserviceProfile],
    ) -> Allocation:
        allocation = Allocation()
        containers = allocation.containers
        for spec in specs:
            stats = stats_from_profiles(spec, profiles, self.sweep_points)
            # keyed by the graph's microservices: no second walk for the names
            targets = _targets(spec, list(stats), self.weights(stats))
            allocation.targets[spec.name] = targets
            workloads = spec.microservice_workloads()
            for name, target in targets.items():
                needed = best_effort_containers(
                    profiles[name].model, workloads[name], target
                )
                containers[name] = max(containers.get(name, 0), needed)

        apply_fcfs_shared_scaling(specs, profiles, allocation.targets, allocation)
        if self.use_priority:
            allocation.priorities = _priorities_from_targets(allocation.targets)
        return allocation


def _priorities_from_targets(
    per_service_targets: Mapping[str, Mapping[str, float]],
) -> Dict[str, Dict[str, int]]:
    """Rank services at shared microservices by their targets (low first)."""
    ranked: Dict[str, list] = {}
    for service, targets in per_service_targets.items():
        for name, target in targets.items():
            ranked.setdefault(name, []).append((target, service))
    return {
        name: {service: rank for rank, (_, service) in enumerate(sorted(users))}
        for name, users in ranked.items()
        if len(users) > 1
    }

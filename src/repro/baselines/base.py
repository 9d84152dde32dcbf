"""Shared machinery for the baseline autoscalers.

GrandSLAm and Rhythm allocate latency targets from *statistics* of
microservice latency observed across workloads (mean, variance, and the
correlation with end-to-end latency).  The paper's §2.2 critique is exactly
that these statistics are fixed — they do not change with the operating
point — so the baselines misallocate under load.  We compute them from the
same profiled latency models Erms uses, sweeping the admissible load range,
which is both faithful and deterministic.

The sweep is one array program per microservice.  Every microservice's
load runs over the same fractions of its own cut-off, so its swept latency
is one row of a ``(microservices × sweep_points)`` matrix from a single
piecewise expression, and its mean and variance are row reductions.
:class:`StatisticsAutoscaler` sweeps each distinct microservice of a
population once, in chunks of at most :data:`CHUNK_ROWS` rows, and keeps
the means and variances, not the matrix.  A correlation with end-to-end latency
belongs to a (service, microservice) pair: the first time a scheme's rule
reads a service's correlations, that service's rows are evaluated again,
the graph is folded *once* over them
(:meth:`DependencyGraph.end_to_end_series`), and one centred matrix–vector
product gives them all.  Element-wise arithmetic and per-row sums repeat a
scalar evaluation's operations, and a row's reductions do not depend on
the rows beside it, so means and variances are reproducible bit for bit.
Against a per-pair ``np.corrcoef``, which sums its 2×N BLAS product in
another order, correlations agree to 1e-12 (≈ 1e-15 seen), not to the bit.
:func:`stats_from_profiles` is the per-service view of the same kernel.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Dict, List, Mapping, Sequence

import numpy as np

from repro.core.model import (
    Allocation,
    MicroserviceProfile,
    ServiceSpec,
    best_effort_containers,
)
from repro.core.scaling import Autoscaler, apply_fcfs_shared_scaling

#: Rows of one latency matrix of the population sweep: its temporaries
#: stay under 100 kB however large the population.
CHUNK_ROWS = 256


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


def _latency(params: np.ndarray, sweep_points: int) -> np.ndarray:
    """Swept latency, one row per column of ``params``.

    ``params`` holds cut-off, low slope, low intercept, high slope and high
    intercept as rows; each microservice's load runs from 5 % to 130 % of
    its cut-off (the observable operating range).
    """
    cutoff, low_slope, low_intercept, high_slope, high_intercept = params[:, :, None]
    loads = np.linspace(0.05, 1.3, sweep_points) * cutoff
    return np.where(
        loads <= cutoff,
        low_slope * loads + low_intercept,
        high_slope * loads + high_intercept,
    )


class PopulationSweep:
    """Mean and variance of the swept latency of every distinct microservice
    of ``specs``, each swept once.

    ``row`` maps a microservice to its index in ``params`` (the model
    parameters, one column per microservice), ``means`` and ``variances``.
    """

    def __init__(
        self,
        specs: Sequence[ServiceSpec],
        profiles: Mapping[str, MicroserviceProfile],
        sweep_points: int,
    ):
        self.sweep_points = sweep_points
        self.row: Dict[str, int] = {}
        for spec in specs:
            for name in spec.graph.plan().names:
                self.row.setdefault(name, len(self.row))
        models = [profiles[name].model for name in self.row]
        self.params = np.fromiter(chain.from_iterable(
            (m.cutoff, m.low.slope, m.low.intercept, m.high.slope, m.high.intercept)
            for m in models
        ), dtype=float, count=5 * len(models)).reshape(-1, 5).T
        self.means = np.empty(len(models))
        self.variances = np.empty(len(models))
        for start in range(0, len(models), CHUNK_ROWS):
            chunk = slice(start, start + CHUNK_ROWS)
            latency = _latency(self.params[:, chunk], sweep_points)
            self.means[chunk] = latency.mean(axis=1)
            self.variances[chunk] = latency.var(axis=1)
        if (self.means < 0).any():
            raise self._negative_mean(specs, models)

    def _negative_mean(self, specs, models) -> ProfileStatisticsError:
        """The error naming the first service, in ``specs`` order, and its
        first microservice whose swept latency averages negative."""
        for spec in specs:
            for name in spec.graph.plan().names:
                row = self.row[name]
                if self.means[row] < 0:
                    model = models[row]
                    return ProfileStatisticsError(
                        f"service {spec.name!r}: the profile of {name!r} averages "
                        f"{self.means[row]:.1f} ms over the statistics sweep; its "
                        f"segments do not meet at the cut-off ({model.cutoff:.1f} "
                        f"req/min per container: low "
                        f"{model.low.latency(model.cutoff):.1f} ms, high "
                        f"{model.latency_at_cutoff:.1f} ms) — refit the profile"
                    )


class ServiceStatistics:
    """One service's view of a :class:`PopulationSweep`, in graph order.

    Each statistic is an array aligned with ``names``: ``means`` and
    ``variances`` are rows of the population's; ``correlations`` (|Pearson
    r| with the end-to-end latency folded through the graph at the same
    sweep index) evaluates the service's rows and folds the graph once,
    the first time a rule reads it.
    """

    def __init__(self, sweep: PopulationSweep, spec: ServiceSpec):
        self.sweep = sweep
        self.spec = spec
        self.names = spec.graph.plan().names
        self.rows = [sweep.row[name] for name in self.names]
        self.means = sweep.means[self.rows]
        self.variances = sweep.variances[self.rows]

    @cached_property
    def correlations(self) -> np.ndarray:
        sweep_points = self.sweep.sweep_points
        latency = _latency(self.sweep.params[:, self.rows], sweep_points)
        e2e = self.spec.graph.end_to_end_series(dict(zip(self.names, latency)))
        # Pearson r, clipped as np.corrcoef; 0 if either side is constant
        spread = sweep_points * np.sqrt(self.variances) * e2e.std()
        covariance = (latency - self.means[:, None]) @ (e2e - e2e.mean())
        return np.abs(np.clip(
            np.divide(covariance, spread, out=np.zeros_like(spread), where=spread > 0),
            -1.0, 1.0,
        ))


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
    stats = ServiceStatistics(PopulationSweep([spec], profiles, sweep_points), spec)
    rows = zip(
        stats.means.tolist(), stats.variances.tolist(), stats.correlations.tolist()
    )
    return {name: MicroserviceStats(*row) for name, row in zip(stats.names, rows)}


def targets_from_weights(
    spec: ServiceSpec, weights: Mapping[str, float]
) -> Dict[str, float]:
    """Proportional SLA split: T_i = SLA · w_i / structural_fold(w).

    The denominator folds the weights through the graph (sum sequential,
    max parallel), so every critical path's target sum stays within the
    SLA: each path's weight sum is at most the folded total.  Zero or
    degenerate weights fall back to a uniform split.
    """
    names = spec.graph.plan().names
    return _targets(spec, [weights.get(name, 0.0) for name in names])


def _targets(spec: ServiceSpec, weights: List[float]) -> Dict[str, float]:
    """:func:`targets_from_weights` with the weights in graph order."""
    plan = spec.graph.plan()
    safe = [max(weight, 0.0) for weight in weights]
    if all(value == 0.0 for value in safe):
        safe = [1.0] * len(safe)
    # non-negative and not all zero, so the fold is positive
    denominator = plan.fold(safe)
    sla = spec.sla
    return {name: sla * weight / denominator for name, weight in zip(plan.names, safe)}


class StatisticsAutoscaler(Autoscaler):
    """Scaling loop GrandSLAm and Rhythm share; a scheme is its weights rule.

    One :class:`PopulationSweep` of the services; per service its
    :class:`ServiceStatistics` → :meth:`weights` → proportional targets →
    containers through the profiled models (max-merged across services);
    then FCFS min-target scaling at shared microservices and, with
    ``use_priority``, ranks by target.  A rule pays only for the
    statistics it reads.  Subclasses are dataclasses that carry
    ``sweep_points`` and ``use_priority``.
    """

    @abc.abstractmethod
    def weights(self, stats: ServiceStatistics) -> np.ndarray:
        """The scheme's SLA-splitting weights, aligned with ``stats.names``."""

    def scale(
        self,
        specs: Sequence[ServiceSpec],
        profiles: Mapping[str, MicroserviceProfile],
    ) -> Allocation:
        allocation = Allocation()
        containers = allocation.containers
        sweep = PopulationSweep(specs, profiles, self.sweep_points)
        for spec in specs:
            stats = ServiceStatistics(sweep, spec)
            targets = _targets(spec, self.weights(stats).tolist())
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

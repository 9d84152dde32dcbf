"""Core latency and resource model types.

Erms characterizes the tail latency of a microservice as a *piece-wise
linear* function of its per-container workload (paper §2.2, Eq. 15): below a
cut-off point :math:`\\sigma` latency grows slowly and almost linearly; above
it, queueing makes latency grow linearly but much faster.  Both segments'
slopes depend on host interference; the interference-conditioned parameters
are produced by :mod:`repro.profiling` and consumed here as plain numbers.

Resource demand follows the dominant-resource rule of paper Eq. 3:
:math:`R_i = \\max(R^C_i / C,\\; R^M_i / M)`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Optional

from repro.graphs import DependencyGraph


class InfeasibleSLAError(ValueError):
    """The SLA cannot be met at any resource level (SLA below intercept sum)."""


@dataclass(frozen=True)
class LatencySegment:
    """One linear segment: latency = slope * per_container_load + intercept.

    Units: latency in milliseconds; per-container load in requests/minute
    per container.
    """

    slope: float
    intercept: float

    def __post_init__(self) -> None:
        if not 0 < self.slope < math.inf:
            raise ValueError(
                f"slope must be positive and finite, got {self.slope}"
            )
        if not math.isfinite(self.intercept):
            raise ValueError(f"intercept must be finite, got {self.intercept}")
        # Note: the intercept may be negative.  The steep post-cutoff
        # segment extrapolates below zero at low loads in practice, and all
        # of the Eq. 5 machinery (budget = SLA − Σb, headroom = T − b)
        # remains well-defined for negative intercepts.

    def latency(self, per_container_load: float) -> float:
        """Predicted tail latency at ``per_container_load`` req/min/container."""
        return self.slope * per_container_load + self.intercept


@dataclass(frozen=True)
class PiecewiseLatencyModel:
    """Two-segment tail latency model with cut-off point ``cutoff`` (σ).

    ``low`` applies for per-container load ≤ ``cutoff``; ``high`` applies
    above it.  Paper Fig. 3 / Eq. 15.

    ``max_load`` optionally records the largest per-container load the
    profile was observed at (close to the container's saturation point).
    Linear fits say nothing beyond the observed range, so provisioning
    never schedules a per-container load above it.
    """

    low: LatencySegment
    high: LatencySegment
    cutoff: float
    max_load: Optional[float] = None

    def __post_init__(self) -> None:
        if not 0 < self.cutoff < math.inf:
            raise ValueError(
                f"cutoff must be positive and finite, got {self.cutoff}"
            )
        if self.max_load is not None and not (
            self.cutoff <= self.max_load < math.inf
        ):
            raise ValueError(
                f"max_load {self.max_load} must be finite and >= cutoff "
                f"{self.cutoff}"
            )

    def latency(self, per_container_load: float) -> float:
        """Tail latency at the given per-container load."""
        if per_container_load <= self.cutoff:
            return self.low.latency(per_container_load)
        return self.high.latency(per_container_load)

    @cached_property
    def latency_at_cutoff(self) -> float:
        """Latency at the cut-off point, evaluated on the high segment.

        This is the threshold of §5.3.1: a latency target below this value
        means the microservice must operate in the low-load interval.
        Computed once per model, at first read.
        """
        return self.high.latency(self.cutoff)


@dataclass(frozen=True)
class ContainerSpec:
    """Per-container resource configuration of one microservice."""

    cpu: float = 0.1
    memory_mb: float = 200.0

    def __post_init__(self) -> None:
        for name in ("cpu", "memory_mb"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")

    def dominant_share(self, cluster_cpu: float, cluster_memory_mb: float) -> float:
        """Dominant resource demand R_i of paper Eq. 3."""
        return max(self.cpu / cluster_cpu, self.memory_mb / cluster_memory_mb)


@dataclass(frozen=True)
class MicroserviceProfile:
    """Everything the scaling models need to know about one microservice.

    Attributes:
        name: Microservice identifier.
        model: Interference-conditioned piecewise latency model.
        resource_demand: Dominant resource demand R_i (paper Eq. 3).  For
            single-resource reasoning this can simply be CPU cores per
            container.
        container: Raw container sizing, kept for provisioning.
    """

    name: str
    model: PiecewiseLatencyModel
    resource_demand: float = 1.0
    container: ContainerSpec = field(default_factory=ContainerSpec)

    def __post_init__(self) -> None:
        if self.resource_demand <= 0:
            raise ValueError(
                f"resource_demand of {self.name!r} must be positive, "
                f"got {self.resource_demand}"
            )


@dataclass(frozen=True)
class ServiceSpec:
    """One online service: its graph, workload, and SLA requirement.

    Attributes:
        name: Service identifier.
        graph: Dependency graph rooted at the entering microservice.
        workload: Request arrival rate in requests/minute.
        sla: End-to-end tail-latency SLA in milliseconds.
    """

    name: str
    graph: DependencyGraph
    workload: float
    sla: float

    def __post_init__(self) -> None:
        if not 0 <= self.workload < math.inf:
            raise ValueError(
                f"workload must be non-negative and finite, got {self.workload}"
            )
        if not 0 < self.sla < math.inf:
            raise ValueError(f"sla must be positive and finite, got {self.sla}")

    def microservice_workloads(self) -> Dict[str, float]:
        """Total workload (req/min) each microservice receives from this service."""
        plan = self.graph.plan()
        workload = self.workload
        return {
            name: multiplier * workload
            for name, multiplier in zip(plan.names, plan.multipliers)
        }


def containers_for_target(
    segment: LatencySegment, workload: float, target: float
) -> int:
    """Containers needed so predicted latency ≤ target (rounded up, ≥1).

    Solves ``slope * workload / n + intercept <= target`` for integer n.
    Raises :class:`InfeasibleSLAError` when the target is at or below the
    intercept — no finite number of containers can achieve it.
    """
    if workload <= 0:
        return 1
    headroom = target - segment.intercept
    if headroom <= 0:
        raise InfeasibleSLAError(
            f"latency target {target:.3f}ms is not above the intercept "
            f"{segment.intercept:.3f}ms; no container count can meet it"
        )
    return max(1, math.ceil(segment.slope * workload / headroom))


def best_effort_containers(
    model: PiecewiseLatencyModel, workload: float, target: float
) -> int:
    """Containers for an *externally imposed* latency target; never raises.

    Erms' own targets are consistent with the segment they were computed
    from, so the strict :func:`containers_for_target` applies.  Targets
    produced by other rules (the FCFS min-target at shared microservices,
    GrandSLAm/Rhythm proportional splits) can fall anywhere, including the
    discontinuity gap between the two fitted segments or below the idle-
    latency floor.  This helper resolves each regime conservatively:

    * ``target ≥ latency_at_cutoff`` — the high segment applies directly;
    * ``low.intercept < target < latency_at_cutoff`` — scale on the low
      segment: the tighter the target, the more containers.  Within the
      discontinuity gap (above the low segment's value at the cut-off) the
      per-container load is additionally kept at or below the cut-off,
      where the low segment is valid;
    * ``target ≤ low.intercept`` — unachievable at any scale: latency
      approaches the idle floor only asymptotically, so a real system
      overprovisions hard.  We bound the waste at 5 % knee utilization
      (20× the knee container count), mirroring an operator cap.

    When the model carries a ``max_load``, per-container load never
    exceeds it — the fit is not extrapolated past the observed range.
    """
    if workload <= 0:
        return 1
    if target >= model.latency_at_cutoff:
        count = containers_for_target(model.high, workload, target)
        if model.max_load is not None:
            count = max(count, math.ceil(workload / model.max_load))
        return count
    at_cutoff = max(1, math.ceil(workload / model.cutoff))
    headroom = target - model.low.intercept
    if headroom <= 0:
        return 20 * at_cutoff
    count = max(containers_for_target(model.low, workload, target), at_cutoff)
    return min(count, 20 * at_cutoff)


@dataclass
class Allocation:
    """Result of one scaling decision across all services.

    Attributes:
        containers: Final container count per microservice.
        targets: Final latency target (ms) per (service, microservice).
        priorities: Priority rank per (shared microservice, service); lower
            rank = scheduled first.  Empty when no microservice is shared.
        modified_workloads: Per (service, microservice) workload after the
            priority adjustment of §5.3.2 (only for shared microservices).
    """

    containers: Dict[str, int] = field(default_factory=dict)
    targets: Dict[str, Dict[str, float]] = field(default_factory=dict)
    priorities: Dict[str, Dict[str, int]] = field(default_factory=dict)
    modified_workloads: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def total_containers(self) -> int:
        """Total number of deployed containers."""
        return sum(self.containers.values())

    def total_resource_usage(
        self, profiles: Dict[str, MicroserviceProfile]
    ) -> float:
        """Objective of paper Eq. 2: Σ n_i · R_i."""
        return sum(
            count * profiles[name].resource_demand
            for name, count in self.containers.items()
        )

"""The Online Scaling pipeline (paper §3, §5.3).

``ErmsScaler`` is the top-level controller: given the current workload of
every service and the profiled latency models, it produces an
:class:`~repro.core.model.Allocation` — container counts, latency targets,
and scheduling priorities.  It chains the three Online Scaling components of
Fig. 6: graph merge, latency-target computation, and priority scheduling.

The module also defines the :class:`Autoscaler` interface shared with the
baseline schemes (GrandSLAm, Rhythm, Firm) so experiments can treat all
schemes uniformly.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, replace
from typing import Dict, Mapping, Sequence

from repro.core.model import (
    Allocation,
    MicroserviceProfile,
    ServiceSpec,
    best_effort_containers,
)
from repro.core.multiplexing import independent_targets, scale_with_priorities


class Autoscaler(abc.ABC):
    """Common interface of all scaling schemes under evaluation.

    Implementations receive the full set of services (with their *current*
    workloads already filled in) and the microservice profiles, and return a
    complete allocation.  They are stateless between calls unless a scheme
    explicitly keeps history (Firm does).
    """

    #: Human-readable scheme name used in experiment reports.
    name: str = "autoscaler"

    #: Whether the scheme conditions its latency models on measured host
    #: interference.  Erms does (paper §5.2-5.3); GrandSLAm and Rhythm use
    #: fixed statistics regardless of interference (§2.2's critique);
    #: Firm observes real latency through its RL feedback loop, so it
    #: counts as aware.  Experiment harnesses hand non-aware schemes the
    #: idle-host profiles even when the cluster is colocated.
    interference_aware: bool = True

    @abc.abstractmethod
    def scale(
        self,
        specs: Sequence[ServiceSpec],
        profiles: Mapping[str, MicroserviceProfile],
    ) -> Allocation:
        """Compute container counts and latency targets for all services."""

    def reset(self) -> None:
        """Forget any cross-round state (a fresh deployment episode).

        Stateless schemes need not override this; Firm does.
        """

    def with_workloads(
        self, specs: Sequence[ServiceSpec], workloads: Mapping[str, float]
    ) -> Sequence[ServiceSpec]:
        """Helper: rebuild specs with updated per-service workloads."""
        return [
            replace(spec, workload=workloads.get(spec.name, spec.workload))
            for spec in specs
        ]


@dataclass
class ErmsScaler(Autoscaler):
    """Erms' Online Scaling module.

    Attributes:
        use_priority: When False, priority scheduling is disabled and every
            service keeps its phase-1 (FCFS) allocation — the "Latency
            Target Computation only" ablation of §6.4.1.  The shared
            microservice is then scaled to the *minimum* latency target
            across services, exactly the FCFS strategy of §2.3.
    """

    use_priority: bool = True
    name: str = "erms"

    def __post_init__(self) -> None:
        if not self.use_priority:
            self.name = "erms-fcfs"

    def scale(
        self,
        specs: Sequence[ServiceSpec],
        profiles: Mapping[str, MicroserviceProfile],
    ) -> Allocation:
        """Run the full (or priority-ablated) Erms scaling pipeline."""
        if self.use_priority:
            multiplexed = scale_with_priorities(specs, profiles)
            per_service = multiplexed.final
            priorities = multiplexed.priorities
        else:
            per_service = independent_targets(specs, profiles)
            priorities = {}

        allocation = Allocation(priorities=priorities)
        for service, targets in per_service.items():
            allocation.targets[service] = dict(targets.targets)
            allocation.modified_workloads[service] = dict(targets.workloads)
            for name, count in targets.containers.items():
                current = allocation.containers.get(name, 0)
                allocation.containers[name] = max(current, count)

        if not self.use_priority:
            apply_fcfs_shared_scaling(specs, profiles, allocation.targets, allocation)
        return allocation


def combined_shared_workloads(specs: Sequence[ServiceSpec]) -> Dict[str, float]:
    """Total workload per microservice summed over all services.

    Under FCFS every request class mixes in one queue, so a shared
    microservice effectively processes the combined demand.
    """
    combined: Dict[str, float] = {}
    for spec in specs:
        for name, demand in spec.microservice_workloads().items():
            combined[name] = combined.get(name, 0.0) + demand
    return combined


def apply_fcfs_shared_scaling(
    specs: Sequence[ServiceSpec],
    profiles: Mapping[str, MicroserviceProfile],
    per_service_targets: Mapping[str, Mapping[str, float]],
    allocation: Allocation,
) -> None:
    """FCFS at shared microservices (§2.3 strategy ①).

    Without prioritization a shared microservice must process the
    *combined* workload while meeting the *minimum* latency target any
    service assigned to it: ``T_P = min(T_1^P, T_2^P)``.  Updates
    ``allocation.containers`` in place.
    """
    combined = combined_shared_workloads(specs)
    min_target: Dict[str, float] = {}
    count_users: Dict[str, int] = {}
    for spec in specs:
        targets = per_service_targets[spec.name]
        for name in spec.graph.microservices():
            count_users[name] = count_users.get(name, 0) + 1
            target = targets[name]
            if name not in min_target or target < min_target[name]:
                min_target[name] = target

    for name, users in count_users.items():
        if users < 2:
            continue
        needed = best_effort_containers(
            profiles[name].model, combined[name], min_target[name]
        )
        allocation.containers[name] = max(
            allocation.containers.get(name, 0), needed
        )


def delta_schedule_probabilities(
    ranks: Mapping[str, int], delta: float = 0.05
) -> Dict[str, float]:
    """Thread-assignment probabilities of §5.3.2.

    The service with the highest priority (rank 0) is picked with
    probability ``1 − δ``, rank l with ``δ^l · (1 − δ)``, and the lowest
    rank with the remaining ``δ^(n−1)`` so probabilities sum to one.
    """
    if not 0 <= delta < 1:
        raise ValueError(f"delta must be in [0, 1), got {delta}")
    n = len(ranks)
    probabilities: Dict[str, float] = {}
    for service, rank in ranks.items():
        if rank == n - 1:
            probabilities[service] = delta ** (n - 1)
        else:
            probabilities[service] = (delta**rank) * (1 - delta)
    return probabilities


@dataclass
class ScalingReport:
    """Summary of one scaling decision for logging and experiments."""

    scheme: str
    total_containers: int
    total_resource: float
    per_microservice: Dict[str, int]
    priorities: Dict[str, Dict[str, int]]

    @classmethod
    def from_allocation(
        cls,
        scheme: str,
        allocation: Allocation,
        profiles: Mapping[str, MicroserviceProfile],
    ) -> "ScalingReport":
        return cls(
            scheme=scheme,
            total_containers=allocation.total_containers(),
            total_resource=allocation.total_resource_usage(dict(profiles)),
            per_microservice=dict(allocation.containers),
            priorities={k: dict(v) for k, v in allocation.priorities.items()},
        )

"""tc-style network priority configuration (paper §5.5).

Erms enforces its scheduling priorities in each container's network layer:
a ``pfifo_fast``-like multi-band queueing discipline is bound to a virtual
interface attached to the container, and each incoming flow (one per
calling service) is tagged with a band.  Lower band = dequeued first.

This module models that plumbing: given an
:class:`~repro.core.model.Allocation` carrying the per-shared-microservice
service ranks, it computes the per-pod band assignments and "installs"
them on the pods of a :class:`~repro.deployment.api.MockKubeApi`.  The
cluster simulator's :class:`~repro.simulator.scheduler.PriorityQueuePolicy`
is the behavioural counterpart; this layer is the control-plane side.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Set

from repro.core.model import Allocation
from repro.deployment.api import MockKubeApi


@dataclass
class NetworkPriorityConfigurator:
    """Computes and installs per-pod traffic bands.

    A flow's classification lives in one place, ``Pod.traffic_bands``
    (service -> band); the configurator keeps no copy of it.  Its only
    state is the names of the microservices it planned last time, so the
    next :meth:`install` can clear those that stopped being shared.

    Attributes:
        bands: Number of hardware-ish priority bands available
            (pfifo_fast has 3); ranks beyond the last band share it.
    """

    bands: int = 3
    _planned: Set[str] = field(default_factory=set, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.bands < 1:
            raise ValueError(f"bands must be >= 1, got {self.bands}")

    def plan(self, allocation: Allocation) -> Dict[str, Dict[str, int]]:
        """Band per (shared microservice, service) from priority ranks.

        Ranks map to bands directly, clamped to the band count; services
        not present at a microservice are untagged (default band applies).
        """
        plan: Dict[str, Dict[str, int]] = {}
        for microservice, ranks in allocation.priorities.items():
            plan[microservice] = {
                service: min(rank, self.bands - 1)
                for service, rank in ranks.items()
            }
        return plan

    def install(self, api: MockKubeApi, allocation: Allocation) -> int:
        """Bring every active pod's bands to the plan; returns the number of
        (pod, service) classifications in force.

        Idempotent.  Every active pod of a planned microservice is compared
        with the assignment; one that already matches keeps its dict, one
        that differs (new, or re-ranked) gets its own copy, and the pods of
        a microservice planned last time but absent now are cleared — a
        microservice no longer shared must not keep classifying flows into
        its old bands.
        """
        plan = self.plan(allocation)
        for microservice in self._planned.difference(plan):
            for pod in api.pods_of(microservice):
                pod.traffic_bands = {}
        installed = 0
        for microservice, assignment in plan.items():
            pods = api.pods_of(microservice)
            for pod in pods:
                if pod.traffic_bands != assignment:
                    pod.traffic_bands = dict(assignment)
            installed += len(pods) * len(assignment)
        self._planned = set(plan)
        return installed

    def bands_for(self, api: MockKubeApi, microservice: str) -> Mapping[str, int]:
        """The (consistent) band assignment across a microservice's pods.

        Raises if pods disagree — a misconfiguration the real system
        would surface as unexplainable latency differences.
        """
        assignments = [
            pod.traffic_bands for pod in api.pods_of(microservice)
        ]
        if not assignments:
            return {}
        first = assignments[0]
        for other in assignments[1:]:
            if other != first:
                raise RuntimeError(
                    f"inconsistent traffic bands across pods of "
                    f"{microservice!r}"
                )
        return first

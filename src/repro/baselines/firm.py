"""Firm baseline (Qiu et al., OSDI'20; paper §6.1).

Firm localizes, on each critical path, the *critical microservice* with the
heaviest impact on end-to-end latency, and tunes resources for those
microservices only (using reinforcement learning in the original system).
We model the trained tuner's observable policy as a greedy loop: starting
from a conservative baseline allocation, repeatedly add a container to the
critical microservice with the highest predicted own latency until the
predicted end-to-end latency meets the SLA or the iteration budget runs
out.  This reproduces the behaviours the paper attributes to Firm:

* non-critical microservices keep a static allocation, so when one of them
  becomes the bottleneck the tuner wastes resources on critical ones and
  can violate the SLA (Fig. 12-13, "late detection of bottlenecks");
* under high workloads the per-critical-microservice tuning over-allocates
  (Fig. 11's long tail — "more than 3× resources compared to Erms").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Sequence, Set

from repro.core.latency_targets import predicted_end_to_end
from repro.core.model import (
    Allocation,
    MicroserviceProfile,
    ServiceSpec,
)
from repro.core.scaling import Autoscaler, combined_shared_workloads

#: Non-critical microservices are statically provisioned to run at this
#: fraction of their cut-off load.
BASELINE_LOAD_FRACTION = 0.9
#: Cap on enumerated critical paths per graph.
MAX_PATHS = 200
#: Fraction of a critical microservice's previous allocation retained at
#: the start of the next round.  The RL agent reclaims resources when
#: utilization drops, so capacity decays toward the baseline and must be
#: re-earned step by step when load returns — the late detection the
#: paper observes at workload peaks.
SCALE_DOWN_RATE = 0.8


@dataclass
class Firm(Autoscaler):
    """Critical-path localization + greedy critical-microservice tuning.

    Attributes:
        max_iterations: Tuning steps per scaling round (the RL agent's
            action budget).
    """

    max_iterations: int = 100
    name: str = "firm"

    def __post_init__(self) -> None:
        # Firm's RL agent adjusts the *current* deployment step by step, so
        # consecutive scale() calls start from the previous allocation —
        # and only the *critical* microservices are ever tuned; the rest
        # keep the replica counts they were first deployed with.  Both are
        # the source of Firm's "late detection of bottlenecks" under
        # dynamic workloads (paper §6.3.2).  Call reset() to forget
        # history (a fresh deployment episode).
        self._last_critical_containers: Dict[str, int] = {}
        self._static_baseline: Dict[str, int] = {}

    def reset(self) -> None:
        """Forget the previous deployment (fresh RL episode)."""
        self._last_critical_containers = {}
        self._static_baseline = {}

    def scale(
        self,
        specs: Sequence[ServiceSpec],
        profiles: Mapping[str, MicroserviceProfile],
    ) -> Allocation:
        allocation = Allocation()
        combined = combined_shared_workloads(specs)

        for spec in specs:
            workloads = spec.microservice_workloads()
            # Firm observes actual per-microservice load; at a shared
            # microservice (single FCFS queue) that is the combined demand.
            observed = {
                name: combined.get(name, workloads[name])
                for name in workloads
            }
            critical = self._critical_microservices(spec, profiles, observed)
            containers = self._baseline_allocation(spec, profiles, observed)
            # Non-critical microservices are not autoscaled: they keep the
            # replica counts of their first deployment.
            for name in list(containers):
                if name in self._static_baseline:
                    if name not in critical:
                        containers[name] = self._static_baseline[name]
                else:
                    self._static_baseline[name] = containers[name]
            for name in critical:
                previous = self._last_critical_containers.get(name)
                if previous is not None:
                    decayed = int(previous * SCALE_DOWN_RATE)
                    containers[name] = max(containers[name], decayed)
            containers = self._tune(
                spec, profiles, observed, critical, containers
            )
            for name in critical:
                self._last_critical_containers[name] = containers[name]
            allocation.targets[spec.name] = {}
            for name, count in containers.items():
                allocation.containers[name] = max(
                    allocation.containers.get(name, 0), count
                )
        return allocation

    # ------------------------------------------------------------------
    def _critical_microservices(
        self,
        spec: ServiceSpec,
        profiles: Mapping[str, MicroserviceProfile],
        observed: Mapping[str, float],
    ) -> Set[str]:
        """One critical microservice per critical path: max slope·load."""
        critical: Set[str] = set()
        for path in spec.graph.critical_paths(limit=MAX_PATHS):
            best_name, best_impact = None, -1.0
            for name in path:
                impact = profiles[name].model.high.slope * observed[name]
                if impact > best_impact:
                    best_name, best_impact = name, impact
            if best_name is not None:
                critical.add(best_name)
        return critical

    def _baseline_allocation(
        self,
        spec: ServiceSpec,
        profiles: Mapping[str, MicroserviceProfile],
        observed: Mapping[str, float],
    ) -> Dict[str, int]:
        """Static provisioning at ``BASELINE_LOAD_FRACTION`` of the cut-off."""
        containers: Dict[str, int] = {}
        for name in spec.graph.microservices():
            cutoff = profiles[name].model.cutoff
            per_container = cutoff * BASELINE_LOAD_FRACTION
            containers[name] = max(
                1, -(-int(observed[name]) // max(int(per_container), 1))
            )
        return containers

    def _tune(
        self,
        spec: ServiceSpec,
        profiles: Mapping[str, MicroserviceProfile],
        observed: Mapping[str, float],
        critical: Set[str],
        containers: Dict[str, int],
    ) -> Dict[str, int]:
        """Greedy RL-like loop: grow the worst critical microservice."""
        overrides = dict(observed)
        for _ in range(self.max_iterations):
            predicted = predicted_end_to_end(
                spec, profiles, containers, workload_overrides=overrides
            )
            if predicted <= spec.sla:
                break
            worst, worst_latency = None, -1.0
            for name in critical:
                load = observed[name] / containers[name]
                latency = profiles[name].model.latency(load)
                if latency > worst_latency:
                    worst, worst_latency = name, latency
            if worst is None:
                break
            # No reward gradient: the worst critical microservice is
            # already at its latency floor, so the bottleneck must be a
            # non-critical microservice Firm never tunes — the blind spot
            # the paper attributes to it.  Stop burning resources.
            floor = profiles[worst].model.low.intercept
            if worst_latency <= max(floor, 0.0) * 1.05 + 1e-9:
                break
            # The RL agent scales aggressively when far from the SLO.
            step = max(1, containers[worst] // 5)
            containers[worst] += step
        return containers

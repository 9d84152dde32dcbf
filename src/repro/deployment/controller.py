"""Deployment reconciliation: desired replicas -> pod operations.

The controller closes the gap between each Deployment's declared replica
count and the pods that exist, exactly as a Kubernetes ReplicaSet
controller would — except host selection is delegated to an Erms
:class:`~repro.core.provisioning.Provisioner`, so placement stays
interference-aware (paper §5.4's module feeds §5.5's deployment).

Pods boot asynchronously: a scheduled pod is STARTING until
``startup_seconds`` have passed on the controller's clock (``tick``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

from repro.core.provisioning import Cluster, ClusterIndex, Provisioner
from repro.deployment.api import ApiEvent, MockKubeApi
from repro.deployment.objects import Pod, PodPhase


@dataclass
class DeploymentController:
    """Reconciles the mock API against a provisioned cluster.

    The actuator of :class:`~repro.core.controller.ErmsController`, whose
    control loop records the decisions behind each pass.

    Attributes:
        api: The mock Kubernetes API.
        cluster: Host inventory (capacities + background load).
        provisioner: Chooses hosts for placements and releases.
        startup_seconds: Container cold-start time (paper: seconds).
    """

    api: MockKubeApi
    cluster: Cluster
    provisioner: Provisioner
    startup_seconds: float = 3.0
    _clock: float = field(default=0.0, repr=False)

    # ------------------------------------------------------------------
    def apply_allocation(
        self, containers: Mapping[str, int], specs: Optional[Mapping] = None
    ) -> None:
        """Declare desired replica counts for many microservices at once."""
        for microservice, count in containers.items():
            spec = specs.get(microservice) if specs else None
            self.api.apply(microservice, count, spec)

    def reconcile(self) -> Dict[str, int]:
        """One reconciliation pass; returns per-microservice pod deltas.

        Every host choice, placement and release of the pass goes through
        one :class:`ClusterIndex`, built when the first deployment with a
        non-zero delta is met (never, if there is none) and dropped at the
        end: hosts' background load may be reassigned between passes.
        """
        deltas: Dict[str, int] = {}
        index: Optional[ClusterIndex] = None
        for microservice, deployment in self.api.deployments.items():
            if microservice not in self.cluster.sizes:
                self.cluster.sizes[microservice] = deployment.spec
            delta = deployment.replicas - self.api.active_replicas(microservice)
            if not delta:
                continue
            if index is None:
                index = ClusterIndex(self.cluster)
            for _ in range(delta):
                self._create_and_schedule(microservice, index)
            for _ in range(-delta):
                self._scale_down_one(microservice, index)
            deltas[microservice] = delta
        return deltas

    def tick(self, seconds: float) -> int:
        """Advance the clock; STARTING pods whose boot completed go RUNNING.

        Returns the number of pods that became RUNNING.
        """
        if seconds < 0:
            raise ValueError(f"seconds must be non-negative, got {seconds}")
        self._clock += seconds
        started = 0
        for pod in self.api.pods.values():
            if pod.phase is PodPhase.STARTING and pod.ready_at <= self._clock:
                pod.phase = PodPhase.RUNNING
                started += 1
                self.api.events.append(ApiEvent("pod-running", pod.name))
        self.api.reap_terminated()
        return started

    @property
    def clock(self) -> float:
        return self._clock

    # ------------------------------------------------------------------
    def _create_and_schedule(self, microservice: str, index: ClusterIndex) -> Pod:
        pod = self.api.create_pod(microservice)
        host = self.provisioner.choose_placement_host(
            self.cluster, microservice, index=index
        )
        index.place(host, microservice)
        pod.node = host.host_id
        pod.phase = PodPhase.STARTING
        pod.ready_at = self._clock + self.startup_seconds
        self.api.events.append(
            ApiEvent("pod-scheduled", pod.name, f"node={host.host_id}")
        )
        return pod

    def _scale_down_one(self, microservice: str, index: ClusterIndex) -> None:
        host = self.provisioner.choose_release_host(
            self.cluster, microservice, index=index
        )
        index.release(host, microservice)
        victims = [
            pod
            for pod in self.api.pods_of(microservice)
            if pod.node == host.host_id
        ]
        if not victims:
            raise RuntimeError(
                f"cluster and API out of sync: no pod of {microservice!r} "
                f"on {host.host_id}"
            )
        # Prefer terminating pods that never started serving.
        victim = min(victims, key=lambda p: (p.is_serving(), p.ready_at))
        self.api.delete_pod(victim.name)

"""The mock Kubernetes API server.

Holds the declarative state (Deployments) and the observed state (Pods),
and records every mutation as an :class:`ApiEvent` so tests and the
experiment harness can audit exactly what the controller did — the
in-process equivalent of ``kubectl get events``.  An apply that changes
nothing is no mutation and records nothing, as in Kubernetes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.model import ContainerSpec
from repro.deployment.objects import Deployment, Pod, PodPhase


@dataclass(frozen=True)
class ApiEvent:
    """One recorded API mutation."""

    kind: str  # "apply" | "pod-created" | "pod-scheduled" | "pod-running" | "pod-deleted"
    subject: str
    detail: str = ""


@dataclass
class MockKubeApi:
    """In-process stand-in for the Kubernetes API.

    ``pods`` is the store (name -> pod, creation order).  The same pods
    are also kept per microservice, in the same order, so the
    per-deployment queries read one deployment's pods rather than the
    store; pods enter and leave both only through :meth:`create_pod` and
    :meth:`reap_terminated`.  Each microservice's count of active pods is
    kept beside them: a pod becomes active only in :meth:`create_pod` and
    stops being active only in :meth:`delete_pod`, so
    :meth:`active_replicas` reads a number instead of counting pods.
    """

    deployments: Dict[str, Deployment] = field(default_factory=dict)
    pods: Dict[str, Pod] = field(default_factory=dict)
    events: List[ApiEvent] = field(default_factory=list)
    _by_microservice: Dict[str, Dict[str, Pod]] = field(
        default_factory=dict, init=False, repr=False
    )
    _active: Dict[str, int] = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        for pod in self.pods.values():
            self._by_microservice.setdefault(pod.microservice, {})[pod.name] = pod
        for name, pods in self._by_microservice.items():
            self._active[name] = sum(1 for pod in pods.values() if pod.is_active())

    # ------------------------------------------------------------------
    # Declarative state
    # ------------------------------------------------------------------
    def apply(
        self,
        microservice: str,
        replicas: int,
        spec: Optional[ContainerSpec] = None,
    ) -> Deployment:
        """Create or update a Deployment (idempotent, like kubectl apply).

        An ``"apply"`` event is recorded only when the Deployment is created
        or its replicas or spec change; otherwise it is returned as it is.
        """
        if replicas < 0:
            raise ValueError(
                f"replicas of {microservice!r} must be non-negative, got {replicas}"
            )
        deployment = self.deployments.get(microservice)
        if deployment is None:
            deployment = Deployment(
                microservice=microservice,
                replicas=replicas,
                spec=spec if spec is not None else ContainerSpec(),
            )
            self.deployments[microservice] = deployment
        else:
            spec = deployment.spec if spec is None else spec
            if replicas == deployment.replicas and spec == deployment.spec:
                return deployment
            deployment.replicas = replicas
            deployment.spec = spec
        self.events.append(
            ApiEvent("apply", microservice, f"replicas={replicas}")
        )
        return deployment

    # ------------------------------------------------------------------
    # Pods
    # ------------------------------------------------------------------
    def create_pod(self, microservice: str) -> Pod:
        deployment = self.deployments.get(microservice)
        if deployment is None:
            raise KeyError(f"no deployment for {microservice!r}")
        pod = Pod.fresh(microservice, deployment.spec)
        self.pods[pod.name] = pod
        self._by_microservice.setdefault(microservice, {})[pod.name] = pod
        self._active[microservice] = self.active_replicas(microservice) + 1
        self.events.append(ApiEvent("pod-created", pod.name))
        return pod

    def delete_pod(self, pod_name: str) -> None:
        pod = self.pods.get(pod_name)
        if pod is None:
            raise KeyError(f"no pod {pod_name!r}")
        if pod.is_active():
            self._active[pod.microservice] -= 1
        pod.phase = PodPhase.TERMINATING
        self.events.append(ApiEvent("pod-deleted", pod_name))

    def reap_terminated(self) -> int:
        """Remove TERMINATING pods from the store; returns the count."""
        doomed = [
            pod for pod in self.pods.values() if pod.phase is PodPhase.TERMINATING
        ]
        for pod in doomed:
            del self.pods[pod.name]
            del self._by_microservice[pod.microservice][pod.name]
        return len(doomed)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def pods_of(self, microservice: str, active_only: bool = True) -> List[Pod]:
        pods = self._by_microservice.get(microservice, {}).values()
        if not active_only:
            return list(pods)
        return [pod for pod in pods if pod.is_active()]

    def active_replicas(self, microservice: str) -> int:
        return self._active.get(microservice, 0)

    def serving_replicas(self, microservice: str) -> int:
        return sum(1 for p in self.pods_of(microservice) if p.is_serving())


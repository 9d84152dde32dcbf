"""The Erms control loop (paper Fig. 6): observe → plan → act.

Each :meth:`ControlLoop.step` is one control period: condition the
latency profiles on the measured (cpu, mem) utilization (§5.3.1), run
Online Scaling (merge → targets → priorities) for the observed workloads,
hand the allocation to the driver's actuator, and record one decision per
microservice it moved.  A period whose SLA is infeasible keeps the
current deployment: one ``autoscaler`` record, and ``step`` returns
``None``.  The drivers differ only in their actuator:

* :class:`ErmsController` — the (mock) Kubernetes API: pods reconciled
  and placed interference-aware (§5.4), tc-style priority bands installed
  on shared microservices (§5.5); :meth:`~ErmsController.tick` advances
  pod startups between periods;
* :class:`~repro.simulator.autoscaled.AutoscaledSimulation` — the running
  simulator, resized through ``scale_container_count``;
* :func:`~repro.experiments.dynamic.run_dynamic_workload` — none: each
  window's allocation is replayed on its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple, Union

from repro.core.model import (
    Allocation,
    InfeasibleSLAError,
    MicroserviceProfile,
    ServiceSpec,
)
from repro.core.provisioning import Cluster, InterferenceAwareProvisioner, Provisioner
from repro.core.scaling import Autoscaler, ErmsScaler

Profiles = Mapping[str, MicroserviceProfile]
#: Profiles may be a fixed mapping or a function of measured (cpu, mem)
#: utilization — the latter is how interference awareness enters the loop.
ProfileSource = Union[Profiles, Callable[[float, float], Profiles]]


@dataclass
class ControllerReport:
    """What one control period observed, decided and did."""

    allocation: Allocation
    minute: float = 0.0
    workloads: Dict[str, float] = field(default_factory=dict)
    pod_deltas: Dict[str, int] = field(default_factory=dict)
    traffic_classes_installed: int = 0
    cluster_imbalance: float = 0.0

    def total_containers(self) -> int:
        return self.allocation.total_containers()


class ControlLoop:
    """Observe → plan → act, one control period per :meth:`step`.

    Args:
        specs: The managed services (graphs + SLAs; workloads are supplied
            per step).
        scaler: The scheme planning each period.
        profile_source: Fixed profiles, or a ``(cpu, mem) -> profiles``
            callable re-conditioned each period.
        decisions: Optional :class:`~repro.telemetry.monitor.DecisionLog`
            the loop records its decisions in.
    """

    #: Actor of the records of what the actuator moved.
    actor = "autoscaler"

    def __init__(
        self,
        specs: Sequence[ServiceSpec],
        scaler: Autoscaler,
        profile_source: ProfileSource,
        decisions=None,
    ):
        self.specs = list(specs)
        self.scaler = scaler
        self.profile_source = profile_source
        self.decisions = decisions

    def plan(self, workloads: Mapping[str, float], profiles: Profiles) -> Allocation:
        """Online Scaling at per-service ``workloads`` (req/min); raises
        :class:`~repro.core.model.InfeasibleSLAError` if an SLA cannot be met."""
        planning_specs = self.scaler.with_workloads(self.specs, workloads)
        return self.scaler.scale(planning_specs, profiles)

    def act(self, report: ControllerReport, profiles: Profiles) -> None:
        """Enforce ``report.allocation``, filling ``report.pod_deltas`` with
        the containers each allocated microservice gained or lost.  The
        base loop enforces nothing."""

    def step(
        self,
        minute: float,
        workloads: Mapping[str, float],
        utilization: Optional[Tuple[float, float]] = None,
    ) -> Optional[ControllerReport]:
        """One control period at ``minute`` for the observed per-service
        ``workloads`` (req/min); ``utilization`` (cpu, mem) is read only by
        a callable profile source.  ``None`` means the SLA was infeasible
        and the current deployment was kept."""
        source = self.profile_source
        profiles = source(*utilization) if callable(source) else source
        try:
            allocation = self.plan(workloads, profiles)
        except InfeasibleSLAError:
            if self.decisions is not None:
                self.decisions.record(
                    minute=minute, actor="autoscaler", microservice="*",
                    before=0, after=0, workload=sum(workloads.values()),
                    reason=f"{self.scaler.name}: SLA infeasible for observed "
                    "workload; kept current allocation",
                )
            return None
        report = ControllerReport(allocation, minute, dict(workloads))
        self.act(report, profiles)
        if self.decisions is not None and report.pod_deltas:
            self._record(report)
        return report

    def _record(self, report: ControllerReport) -> None:
        total = sum(report.workloads.values())
        reason = (
            f"{self.scaler.name} reconcile @ {report.minute:g} min "
            f"(observed {total:.0f} req/min)"
        )
        # The tightest target any service imposes on each microservice.
        targets: Dict[str, float] = {}
        for per_ms in report.allocation.targets.values():
            for name, value in per_ms.items():
                targets[name] = min(value, targets.get(name, value))
        containers = report.allocation.containers
        for name, delta in report.pod_deltas.items():
            self.decisions.record(
                minute=report.minute, actor=self.actor, microservice=name,
                before=containers[name] - delta, after=containers[name],
                reason=reason, workload=total, latency_target_ms=targets.get(name),
            )


class ErmsController(ControlLoop):
    """Periodic cluster-wide resource manager (the whole paper system).

    A period keeps nothing but the deployment it leaves in :attr:`api` and
    on :attr:`cluster`: each :meth:`reconcile` returns its report, and a
    caller that wants a history keeps the reports.

    Args:
        specs, profile_source: As for :class:`ControlLoop`.
        cluster: Host inventory.
        scaler: Scaling scheme; full Erms by default.
        provisioner: Placement policy; interference-aware by default.
        startup_seconds: Pod cold-start time.
    """

    actor = "controller"

    def __init__(
        self,
        specs: Sequence[ServiceSpec],
        cluster: Cluster,
        profile_source: ProfileSource,
        scaler: Optional[Autoscaler] = None,
        provisioner: Optional[Provisioner] = None,
        startup_seconds: float = 3.0,
    ):
        from repro.deployment import (
            DeploymentController,
            MockKubeApi,
            NetworkPriorityConfigurator,
        )

        super().__init__(
            specs, scaler if scaler is not None else ErmsScaler(), profile_source
        )
        self.cluster = cluster
        self.provisioner = (
            provisioner if provisioner is not None else InterferenceAwareProvisioner()
        )
        self.api = MockKubeApi()
        self.deployer = DeploymentController(
            api=self.api,
            cluster=self.cluster,
            provisioner=self.provisioner,
            startup_seconds=startup_seconds,
        )
        self.configurator = NetworkPriorityConfigurator()

    # ------------------------------------------------------------------
    def reconcile(
        self,
        workloads: Mapping[str, float],
        utilization: Optional[Tuple[float, float]] = None,
    ) -> Optional[ControllerReport]:
        """One control period on the deployer's clock (:meth:`step`);
        ``utilization`` defaults to the cluster's own current mean, measured
        only when the profile source is callable (the one reader of it)."""
        if utilization is None and callable(self.profile_source):
            utilization = self.cluster.mean_utilization()
        return self.step(self.deployer.clock / 60.0, workloads, utilization)

    def act(self, report: ControllerReport, profiles: Profiles) -> None:
        """Deploy the allocation, then configure its priority bands."""
        allocation = report.allocation
        container_specs = {
            name: profile.container for name, profile in profiles.items()
        }
        self.deployer.apply_allocation(allocation.containers, container_specs)
        report.pod_deltas = self.deployer.reconcile()
        report.traffic_classes_installed = self.configurator.install(
            self.api, allocation
        )
        report.cluster_imbalance = self.cluster.imbalance()

    def tick(self, seconds: float) -> int:
        """Advance time between control periods; returns pods started."""
        return self.deployer.tick(seconds)

    # ------------------------------------------------------------------
    def serving_containers(self) -> Dict[str, int]:
        """RUNNING pods per microservice (what actually serves traffic)."""
        return {
            name: self.api.serving_replicas(name)
            for name in self.api.deployments
        }

    def total_pods(self) -> int:
        return sum(
            self.api.active_replicas(name) for name in self.api.deployments
        )

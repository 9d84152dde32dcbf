"""Integration tests for ErmsController: the Fig. 6 loop end to end."""

import pytest

from repro.core import Cluster, ErmsScaler
from repro.core.controller import ErmsController
from repro.deployment import PodPhase
from repro.workloads import hotel_reservation


@pytest.fixture()
def controller():
    app = hotel_reservation()
    cluster = Cluster.homogeneous(6)
    return (
        app,
        ErmsController(
            specs=app.services,
            cluster=cluster,
            profile_source=lambda cpu, mem: app.analytic_profiles(
                1.0 + cpu + mem
            ),
            startup_seconds=2.0,
        ),
    )


class TestErmsController:
    def test_first_period_deploys_everything(self, controller):
        app, ctl = controller
        report = ctl.reconcile(
            {spec.name: 4_000.0 for spec in app.services}
        )
        assert report.total_containers() == ctl.total_pods()
        assert set(ctl.api.deployments) == set(app.microservices())
        # Shared microservices got priority bands on their pods.
        assert report.traffic_classes_installed > 0

    def test_pods_serve_after_tick(self, controller):
        app, ctl = controller
        ctl.reconcile({spec.name: 4_000.0 for spec in app.services})
        assert sum(ctl.serving_containers().values()) == 0
        ctl.tick(2.5)
        assert sum(ctl.serving_containers().values()) == ctl.total_pods()

    def test_scale_up_on_workload_growth(self, controller):
        app, ctl = controller
        low = ctl.reconcile({spec.name: 2_000.0 for spec in app.services})
        ctl.tick(5.0)
        high = ctl.reconcile({spec.name: 40_000.0 for spec in app.services})
        assert high.total_containers() > low.total_containers()
        assert ctl.total_pods() == high.total_containers()

    def test_scale_down_releases_pods(self, controller):
        app, ctl = controller
        ctl.reconcile({spec.name: 40_000.0 for spec in app.services})
        ctl.tick(5.0)
        peak_pods = ctl.total_pods()
        ctl.reconcile({spec.name: 2_000.0 for spec in app.services})
        ctl.tick(0.0)
        assert ctl.total_pods() < peak_pods

    def test_interference_feeds_back_into_profiles(self, controller):
        """Busier clusters mean weaker profiles mean more containers."""
        app, ctl = controller
        calm = ctl.reconcile(
            {spec.name: 20_000.0 for spec in app.services},
            utilization=(0.0, 0.0),
        )
        busy = ctl.reconcile(
            {spec.name: 20_000.0 for spec in app.services},
            utilization=(0.4, 0.4),
        )
        assert busy.total_containers() > calm.total_containers()

    def test_static_profile_source_accepted(self):
        app = hotel_reservation()
        ctl = ErmsController(
            specs=app.services,
            cluster=Cluster.homogeneous(4),
            profile_source=app.analytic_profiles(),
        )
        report = ctl.reconcile({spec.name: 3_000.0 for spec in app.services})
        assert report.total_containers() > 0

    def test_history_accumulates(self, controller):
        app, ctl = controller
        for rate in (2_000.0, 4_000.0, 8_000.0):
            ctl.reconcile({spec.name: rate for spec in app.services})
            ctl.tick(3.0)
        assert len(ctl.history) == 3

    def test_infeasible_period_keeps_deployment(self, controller):
        """An infeasible period keeps the current pods, returns None and
        records one ``autoscaler`` decision, as the in-simulation loop does."""
        from repro.core import ServiceSpec
        from repro.telemetry import DecisionLog

        app, ctl = controller
        workloads = {spec.name: 4_000.0 for spec in app.services}
        ctl.reconcile(workloads)
        ctl.tick(3.0)

        def pods():
            return {name: (p.node, p.phase) for name, p in ctl.api.pods.items()}

        before = pods()
        history = list(ctl.history)
        ctl.decisions = DecisionLog()
        # Sabotage: no allocation meets a 5 ms SLA.
        ctl.specs = [
            ServiceSpec(spec.name, spec.graph, workload=0.0, sla=5.0)
            for spec in app.services
        ]
        for period in range(2):
            assert ctl.reconcile(workloads) is None
            assert len(ctl.decisions) == period + 1
        assert pods() == before
        assert ctl.history == history
        for record in ctl.decisions.records:
            assert record.actor == "autoscaler"
            assert (record.microservice, record.delta) == ("*", 0)
            assert record.workload == sum(workloads.values())

    def test_cluster_and_api_stay_consistent(self, controller):
        """Pod counts on hosts always match the cluster bookkeeping."""
        app, ctl = controller
        for rate in (3_000.0, 30_000.0, 1_000.0, 15_000.0):
            ctl.reconcile({spec.name: rate for spec in app.services})
            ctl.tick(3.0)
        placement = ctl.cluster.placement()
        for name in ctl.api.deployments:
            assert placement.get(name, 0) == ctl.api.active_replicas(name)

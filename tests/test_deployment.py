"""Tests for repro.deployment: mock K8s API, reconciliation, tc bands."""

import pytest

from repro.core import (
    Allocation,
    Cluster,
    ContainerSpec,
    InterferenceAwareProvisioner,
)
from repro.deployment import (
    DeploymentController,
    MockKubeApi,
    NetworkPriorityConfigurator,
    PodPhase,
)


def make_controller(hosts=4, startup_seconds=3.0):
    api = MockKubeApi()
    cluster = Cluster.homogeneous(hosts)
    controller = DeploymentController(
        api=api,
        cluster=cluster,
        provisioner=InterferenceAwareProvisioner(),
        startup_seconds=startup_seconds,
    )
    return api, cluster, controller


class TestMockKubeApi:
    def test_apply_is_idempotent(self):
        api = MockKubeApi()
        api.apply("ms", 3)
        deployment = api.apply("ms", 5)
        assert api.deployments["ms"].replicas == 5
        assert [event.kind for event in api.events] == ["apply", "apply"]
        # a repeated identical apply changes nothing and logs nothing
        assert api.apply("ms", 5) is deployment
        assert api.apply("ms", 5, ContainerSpec()) is deployment
        assert len(api.events) == 2
        api.apply("ms", 5, ContainerSpec(cpu=0.2))
        assert deployment.spec == ContainerSpec(cpu=0.2)
        details = [event.detail for event in api.events]
        assert details == ["replicas=3", "replicas=5", "replicas=5"]

    def test_create_pod_requires_deployment(self):
        api = MockKubeApi()
        with pytest.raises(KeyError, match="no deployment"):
            api.create_pod("ghost")

    def test_delete_unknown_pod(self):
        api = MockKubeApi()
        with pytest.raises(KeyError, match="no pod"):
            api.delete_pod("nope")

    def test_negative_replicas_rejected(self):
        api = MockKubeApi()
        with pytest.raises(ValueError, match="replicas"):
            api.apply("ms", -1)

    def test_reap_removes_terminating(self):
        api = MockKubeApi()
        api.apply("ms", 1)
        pod = api.create_pod("ms")
        api.delete_pod(pod.name)
        assert api.reap_terminated() == 1
        assert pod.name not in api.pods


class TestDeploymentController:
    def test_scale_up_creates_and_schedules_pods(self):
        api, cluster, controller = make_controller()
        controller.apply_allocation({"ms": 6})
        deltas = controller.reconcile()
        assert deltas == {"ms": 6}
        assert api.active_replicas("ms") == 6
        assert all(pod.node is not None for pod in api.pods_of("ms"))
        assert cluster.placement() == {"ms": 6}

    def test_pods_start_after_delay(self):
        api, _, controller = make_controller(startup_seconds=5.0)
        controller.apply_allocation({"ms": 2})
        controller.reconcile()
        assert api.serving_replicas("ms") == 0
        assert controller.tick(4.0) == 0
        assert controller.tick(2.0) == 2
        assert api.serving_replicas("ms") == 2

    def test_scale_down_terminates_and_releases(self):
        api, cluster, controller = make_controller()
        controller.apply_allocation({"ms": 5})
        controller.reconcile()
        controller.tick(10.0)
        controller.apply_allocation({"ms": 2})
        controller.reconcile()
        assert api.active_replicas("ms") == 2
        controller.tick(0.0)  # reap
        assert cluster.placement() == {"ms": 2}

    def test_reconcile_is_idempotent(self):
        api, _, controller = make_controller()
        controller.apply_allocation({"ms": 3})
        controller.reconcile()
        assert controller.reconcile() == {}
        assert api.active_replicas("ms") == 3

    def test_interference_aware_placement(self):
        api, cluster, controller = make_controller(hosts=4)
        cluster.hosts[0].background_cpu = 28.0
        cluster.hosts[0].background_memory_mb = 56_000.0
        controller.apply_allocation({"ms": 6})
        controller.reconcile()
        assert all(pod.node != "host-000" for pod in api.pods.values())

    def test_multiple_microservices(self):
        api, cluster, controller = make_controller()
        controller.apply_allocation(
            {"a": 2, "b": 3},
            specs={"a": ContainerSpec(cpu=0.2), "b": ContainerSpec(cpu=0.1)},
        )
        controller.reconcile()
        assert api.active_replicas("a") == 2
        assert api.active_replicas("b") == 3

    def test_negative_tick_rejected(self):
        _, _, controller = make_controller()
        with pytest.raises(ValueError, match="non-negative"):
            controller.tick(-1.0)


class TestNetworkPriorityConfigurator:
    def _allocation(self):
        return Allocation(
            containers={"P": 2},
            priorities={"P": {"svc-hot": 0, "svc-warm": 1, "svc-cold": 2}},
        )

    def test_plan_maps_ranks_to_bands(self):
        configurator = NetworkPriorityConfigurator(bands=3)
        plan = configurator.plan(self._allocation())
        assert plan["P"] == {"svc-hot": 0, "svc-warm": 1, "svc-cold": 2}

    def test_ranks_clamped_to_band_count(self):
        configurator = NetworkPriorityConfigurator(bands=2)
        plan = configurator.plan(self._allocation())
        assert plan["P"]["svc-cold"] == 1  # shares the lowest band

    def test_install_tags_every_pod(self):
        api, _, controller = make_controller()
        controller.apply_allocation({"P": 2})
        controller.reconcile()
        configurator = NetworkPriorityConfigurator()
        count = configurator.install(api, self._allocation())
        assert count == 2 * 3  # 2 pods x 3 services
        assert api.pods_of("P")[0].traffic_bands["svc-hot"] == 0

    def test_microservice_that_left_the_plan_is_cleared(self):
        api, _, controller = make_controller()
        controller.apply_allocation({"P": 2, "Q": 1})
        controller.reconcile()
        configurator = NetworkPriorityConfigurator()
        ranks = {"svc-hot": 0, "svc-cold": 1}
        both = Allocation(priorities={"P": ranks, "Q": ranks})
        assert configurator.install(api, both) == 3 * 2
        # P stops being shared: its pods must stop classifying flows.
        only_q = Allocation(priorities={"Q": ranks})
        assert configurator.install(api, only_q) == 1 * 2
        assert configurator.bands_for(api, "P") == {}
        assert configurator.bands_for(api, "Q") == ranks
        assert configurator.install(api, Allocation()) == 0
        assert all(pod.traffic_bands == {} for pod in api.pods.values())
        # ... and coming back re-tags them.
        assert configurator.install(api, both) == 3 * 2
        assert configurator.bands_for(api, "P") == ranks

    def test_install_rewrites_only_pods_that_differ(self):
        api, _, controller = make_controller()
        controller.apply_allocation({"P": 3})
        controller.reconcile()
        configurator = NetworkPriorityConfigurator()
        assert configurator.install(api, self._allocation()) == 3 * 3
        old, drifted, _ = pods = api.pods_of("P")
        before = [pod.traffic_bands for pod in pods]
        assert len({id(bands) for bands in before}) == 3  # a copy per pod
        drifted.traffic_bands["svc-cold"] = 0
        assert configurator.install(api, self._allocation()) == 3 * 3
        assert old.traffic_bands is before[0]
        assert drifted.traffic_bands is not before[1]
        assert configurator.bands_for(api, "P")["svc-cold"] == 2

    def test_bands_for_consistency_check(self):
        api, _, controller = make_controller()
        controller.apply_allocation({"P": 2})
        controller.reconcile()
        configurator = NetworkPriorityConfigurator()
        configurator.install(api, self._allocation())
        assert configurator.bands_for(api, "P")["svc-cold"] == 2
        # Corrupt one pod; the check must catch it.
        api.pods_of("P")[0].traffic_bands["svc-cold"] = 0
        with pytest.raises(RuntimeError, match="inconsistent"):
            configurator.bands_for(api, "P")

    def test_no_pods_empty_bands(self):
        api = MockKubeApi()
        configurator = NetworkPriorityConfigurator()
        assert configurator.bands_for(api, "P") == {}

    def test_invalid_bands(self):
        with pytest.raises(ValueError, match="bands"):
            NetworkPriorityConfigurator(bands=0)

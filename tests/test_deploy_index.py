"""Shape and consistency of the deploy stage's two indexes.

* A reconcile pass builds at most one ``ClusterIndex`` however many pods
  it creates or deletes, none when nothing changes, and a fresh one per
  pass — so background load reassigned between passes is seen.
* ``MockKubeApi``'s per-microservice pod index answers every query the
  way a scan of the store would, after any sequence of mutations, and
  the per-deployment queries look only at that deployment's pods.
* After a pass that places every pod and one that releases half of them,
  on hosts with uneven background load, each deployment's active pods,
  its desired count and its containers on the cluster agree.
* A control period's deploy stage follows what the period ships: pods
  whose bands already match keep their dict, and a host's container dict
  is walked once per question asked about it (index build, mean
  utilization, imbalance, pod operation), not once per resource.

Counts, not timings: these pin the cost *shape* deterministically.
"""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Cluster,
    ContainerSpec,
    InterferenceAwareProvisioner,
    KubernetesDefaultProvisioner,
)
from repro.core.controller import ErmsController
from repro.core.provisioning import ClusterIndex
from repro.deployment import DeploymentController, MockKubeApi, PodPhase
from repro.deployment.objects import Pod
from repro.workloads import hotel_reservation
from tests.helpers import count_calls


class CountingStore(dict):
    """A pod store that counts how often it is iterated."""

    scans = 0

    def __iter__(self):
        self.scans += 1
        return super().__iter__()

    def values(self):
        self.scans += 1
        return super().values()

    def items(self):
        self.scans += 1
        return super().items()


def make_controller(hosts=6, provisioner=None):
    api = MockKubeApi(pods=CountingStore())
    cluster = Cluster.homogeneous(hosts)
    controller = DeploymentController(
        api=api,
        cluster=cluster,
        provisioner=provisioner or InterferenceAwareProvisioner(),
    )
    return api, cluster, controller


@pytest.fixture()
def index_builds(monkeypatch):
    """Counts ``ClusterIndex`` constructions, wherever they happen."""
    builds = {"ClusterIndex": 0}
    count_calls(monkeypatch, ClusterIndex, "__init__", builds, "ClusterIndex")
    return builds


@pytest.fixture()
def is_active_calls(monkeypatch):
    """Records the microservice of every pod ``Pod.is_active`` is asked about."""
    calls = []
    original = Pod.is_active

    def recording(self):
        calls.append(self.microservice)
        return original(self)

    monkeypatch.setattr(Pod, "is_active", recording)
    return calls


class TestOneIndexPerPass:
    @pytest.mark.parametrize(
        "provisioner",
        [InterferenceAwareProvisioner, KubernetesDefaultProvisioner],
    )
    def test_one_build_however_many_pods_change(self, index_builds, provisioner):
        api, _, controller = make_controller(provisioner=provisioner())
        controller.apply_allocation({"a": 40, "b": 25, "c": 3})
        assert sum(controller.reconcile().values()) == 68
        assert index_builds["ClusterIndex"] == 1

        controller.tick(10.0)
        controller.apply_allocation({"a": 5, "b": 60, "c": 3})
        assert controller.reconcile() == {"a": -35, "b": 35}
        assert index_builds["ClusterIndex"] == 2
        assert api.active_replicas("a") == 5 and api.active_replicas("b") == 60

    def test_no_build_when_every_delta_is_zero(self, index_builds):
        _, _, controller = make_controller()
        assert controller.reconcile() == {}
        controller.apply_allocation({"a": 4, "b": 0})
        controller.reconcile()
        index_builds["ClusterIndex"] = 0
        assert controller.reconcile() == {}
        controller.apply_allocation({"a": 4, "b": 0})
        assert controller.reconcile() == {}
        assert index_builds["ClusterIndex"] == 0

    def test_background_change_between_passes_is_seen(self):
        api, cluster, controller = make_controller(hosts=5)
        spec = ContainerSpec(cpu=1.0, memory_mb=2_000.0)
        controller.apply_allocation({"a": 10, "b": 5}, specs={"a": spec, "b": spec})
        controller.reconcile()
        controller.tick(10.0)

        # Out of band, as experiments/interference.py does between periods.
        cluster.hosts[0].background_cpu = 30.0
        cluster.hosts[0].background_memory_mb = 60_000.0
        cluster.hosts[3].background_cpu = 12.0

        # Index-free reference on a copy: one fresh index per decision.
        reference = copy.deepcopy(cluster)
        provisioner = InterferenceAwareProvisioner()
        expected = []
        for name, count in (("a", 7), ("b", 4)):
            for _ in range(count):
                host = provisioner.choose_placement_host(reference, name)
                host.place(name)
                expected.append((name, host.host_id))

        scheduled_before = len(api.events_of_kind("pod-scheduled"))
        controller.apply_allocation({"a": 17, "b": 9})
        controller.reconcile()
        scheduled = api.events_of_kind("pod-scheduled")[scheduled_before:]
        got = [
            (api.pods[event.subject].microservice, event.detail.split("=", 1)[1])
            for event in scheduled
        ]
        assert got == expected
        assert "host-000" not in {node for _, node in got}


class TestPodsMatchTheCluster:
    @pytest.mark.parametrize(
        "provisioner",
        [InterferenceAwareProvisioner, KubernetesDefaultProvisioner],
    )
    def test_scale_up_then_halve(self, provisioner):
        api, cluster, controller = make_controller(hosts=20, provisioner=provisioner())
        for i, host in enumerate(cluster.hosts):
            host.background_cpu = (i % 7) * 2.0
            host.background_memory_mb = (i % 5) * 2_000.0
        sizes = [
            ContainerSpec(cpu=0.1, memory_mb=200.0),
            ContainerSpec(cpu=0.2, memory_mb=300.0),
            ContainerSpec(cpu=0.4, memory_mb=800.0),
        ]
        desired = {f"ms-{i:02d}": 1 + i % 7 for i in range(42)}
        halved = {name: count // 2 for name, count in desired.items()}
        controller.apply_allocation(
            desired, {name: sizes[i % 3] for i, name in enumerate(desired)}
        )
        assert controller.reconcile() == desired
        controller.tick(10.0)
        controller.apply_allocation(halved)
        assert controller.reconcile() == {
            name: halved[name] - count for name, count in desired.items()
        }
        placed = cluster.placement()
        for name, count in halved.items():
            assert api.active_replicas(name) == count == placed.get(name, 0)


class TestPerDeploymentReads:
    def test_queries_touch_only_that_deployments_pods(self, is_active_calls):
        api, _, controller = make_controller()
        controller.apply_allocation({"a": 3, "b": 50, "c": 20})
        controller.reconcile()
        controller.tick(10.0)

        del is_active_calls[:]
        api.pods.scans = 0
        assert len(api.pods_of("a")) == 3
        assert is_active_calls == ["a"] * 3

        del is_active_calls[:]
        assert api.active_replicas("a") == 3
        assert api.serving_replicas("a") == 3
        assert set(is_active_calls) == {"a"}

        del is_active_calls[:]
        assert api.pods_of("ghost") == []
        assert is_active_calls == []
        assert api.pods.scans == 0  # the store itself is never walked

    def test_scale_down_victim_search_stays_in_the_deployment(self, is_active_calls):
        api, _, controller = make_controller()
        controller.apply_allocation({"a": 4, "b": 50})
        controller.reconcile()
        controller.tick(10.0)
        controller.apply_allocation({"a": 2, "b": 50})
        del is_active_calls[:]
        api.pods.scans = 0
        assert controller.reconcile() == {"a": -2}
        assert is_active_calls.count("b") == 50  # b's own replica count, once
        assert api.pods.scans == 0
        assert api.active_replicas("a") == 2


class TestPeriodFollowsWhatItShips:
    HOSTS = 6

    @pytest.fixture()
    def loop(self):
        app = hotel_reservation()
        cluster = Cluster.homogeneous(self.HOSTS)
        for host in cluster.hosts:
            host.containers = CountingStore()
        controller = ErmsController(app.services, cluster, app.analytic_profiles(1.0))
        return controller, {spec.name: 4_000.0 for spec in app.services}

    @staticmethod
    def walks(controller):
        return [host.containers.scans for host in controller.cluster.hosts]

    def test_unchanged_period_keeps_every_pods_bands(self, loop):
        controller, workloads = loop
        first = controller.reconcile(workloads)
        assert first.traffic_classes_installed > 0
        controller.tick(10.0)
        bands = {name: pod.traffic_bands for name, pod in controller.api.pods.items()}
        assert any(bands.values())

        second = controller.reconcile(workloads)
        assert second.pod_deltas == {}
        assert second.traffic_classes_installed == first.traffic_classes_installed
        for name, pod in controller.api.pods.items():
            assert pod.traffic_bands is bands[name]

    def test_unchanged_period_walks_each_host_at_most_twice(self, loop):
        controller, workloads = loop
        controller.reconcile(workloads)
        controller.tick(10.0)
        before = self.walks(controller)
        report = controller.reconcile(workloads)
        assert report.pod_deltas == {}
        # mean utilization going in, imbalance coming out — one walk each
        assert all(
            b - a <= 2 for a, b in zip(before, self.walks(controller))
        )
        assert report.cluster_imbalance == controller.cluster.imbalance()

    def test_changed_period_walks_once_per_pod_operation(self, loop):
        controller, workloads = loop
        controller.reconcile(workloads)
        controller.tick(10.0)
        before = sum(self.walks(controller))
        report = controller.reconcile({name: 40_000.0 for name in workloads})
        operations = sum(abs(delta) for delta in report.pod_deltas.values())
        assert operations > self.HOSTS
        # per host: mean utilization, the index build (sums, counts) and
        # imbalance; then one re-summation of the host each pod lands on
        assert sum(self.walks(controller)) - before <= 4 * self.HOSTS + operations


# ----------------------------------------------------------------------
# API index == brute-force scan of the store, under random mutation
# ----------------------------------------------------------------------
MICROSERVICES = ["a", "b", "c"]
NODES = ["host-000", "host-001", "host-002"]

operations = st.lists(
    st.one_of(
        st.tuples(st.just("apply"), st.sampled_from(MICROSERVICES), st.integers(0, 5)),
        st.tuples(
            st.just("create"), st.sampled_from(MICROSERVICES), st.sampled_from(NODES)
        ),
        st.tuples(st.just("delete"), st.integers(0, 10_000)),
        st.tuples(st.just("reap")),
        st.tuples(st.just("tick"), st.sampled_from([0.0, 1.0, 2.5, 7.0])),
    ),
    max_size=40,
)


def assert_matches_store_scan(api):
    store = list(api.pods.values())
    for name in MICROSERVICES + ["ghost"]:
        mine = [pod for pod in store if pod.microservice == name]
        active = [pod for pod in mine if pod.is_active()]
        assert api.pods_of(name, active_only=False) == mine
        assert api.pods_of(name) == active
        assert api.active_replicas(name) == len(active)
        assert api.serving_replicas(name) == sum(
            1 for pod in mine if pod.phase is PodPhase.RUNNING
        )
    for node in NODES:
        assert api.pods_on_node(node) == [
            pod for pod in store if pod.node == node and pod.is_active()
        ]


@given(operations)
@settings(max_examples=150, deadline=None)
def test_api_index_matches_store_scan(ops):
    api, _, controller = make_controller(hosts=len(NODES))
    for name in MICROSERVICES:
        api.apply(name, 1)
    for op in ops:
        if op[0] == "apply":
            api.apply(op[1], op[2])
        elif op[0] == "create":
            pod = api.create_pod(op[1])
            pod.node = op[2]  # bound by hand: no cluster behind this API
            pod.phase = PodPhase.STARTING
            pod.ready_at = controller.clock + controller.startup_seconds
        elif op[0] == "delete":
            if api.pods:
                api.delete_pod(list(api.pods)[op[1] % len(api.pods)])
        elif op[0] == "reap":
            doomed = sum(
                1 for pod in api.pods.values() if pod.phase is PodPhase.TERMINATING
            )
            assert api.reap_terminated() == doomed
        else:
            controller.tick(op[1])
        assert_matches_store_scan(api)
    with pytest.raises(KeyError, match="no pod"):
        api.delete_pod("never-created")


def test_reaped_pod_is_unknown_to_delete():
    api = MockKubeApi()
    api.apply("a", 1)
    pod = api.create_pod("a")
    api.delete_pod(pod.name)
    api.reap_terminated()
    assert api.pods_of("a", active_only=False) == []
    with pytest.raises(KeyError, match="no pod"):
        api.delete_pod(pod.name)


def test_store_passed_to_the_constructor_is_indexed():
    pod = Pod.fresh("a", ContainerSpec())
    api = MockKubeApi(pods={pod.name: pod})
    assert api.pods_of("a") == [pod]


def test_out_of_sync_cluster_still_detected():
    """Containers moved behind the controller's back: no pod to delete."""
    api, cluster, controller = make_controller(hosts=2)
    controller.apply_allocation({"a": 2})
    controller.reconcile()
    assert [host.container_count("a") for host in cluster.hosts] == [1, 1]
    cluster.hosts[0].release("a")
    cluster.hosts[1].place("a")
    controller.apply_allocation({"a": 0})
    with pytest.raises(RuntimeError, match="out of sync"):
        controller.reconcile()

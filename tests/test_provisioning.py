"""Tests for repro.core.provisioning: hosts, cluster, placement policies."""

import math

import pytest

from repro.core import (
    Cluster,
    ContainerSpec,
    Host,
    InterferenceAwareProvisioner,
    KubernetesDefaultProvisioner,
)


def small_cluster(hosts=4, background=()):
    cluster = Cluster.homogeneous(hosts, cpu_capacity=32.0, memory_capacity_mb=64_000.0)
    for index, (cpu, mem) in enumerate(background):
        cluster.hosts[index].background_cpu = cpu
        cluster.hosts[index].background_memory_mb = mem
    cluster.sizes["ms"] = ContainerSpec(cpu=1.0, memory_mb=1000.0)
    return cluster


class TestHost:
    def test_place_and_release(self):
        host = Host("h0")
        host.place("a", 3)
        host.release("a", 2)
        assert host.container_count("a") == 1
        host.release("a")
        assert host.container_count("a") == 0
        assert "a" not in host.containers

    def test_release_more_than_placed_rejected(self):
        host = Host("h0")
        host.place("a")
        with pytest.raises(ValueError, match="cannot release"):
            host.release("a", 2)

    def test_utilization_includes_background(self):
        host = Host("h0", cpu_capacity=10.0, background_cpu=2.0)
        sizes = {"a": ContainerSpec(cpu=1.0, memory_mb=100.0)}
        host.place("a", 3)
        assert host.cpu_utilization(sizes) == pytest.approx(0.5)

    @pytest.mark.parametrize("field", ["cpu_capacity", "memory_capacity_mb"])
    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
    def test_capacity_must_be_positive_and_finite(self, field, value):
        with pytest.raises(ValueError, match=f"h0: {field} must be positive"):
            Host("h0", **{field: value})

    @pytest.mark.parametrize("field", ["background_cpu", "background_memory_mb"])
    @pytest.mark.parametrize("value", [-1.0, float("nan"), float("inf")])
    def test_background_must_be_non_negative_and_finite(self, field, value):
        with pytest.raises(ValueError, match=f"h0: {field} must be non-negative"):
            Host("h0", **{field: value})
        assert getattr(Host("h0", **{field: 0.0}), field) == 0.0

    @pytest.mark.parametrize("field", ["background_cpu", "background_memory_mb"])
    @pytest.mark.parametrize("value", [-1.0, float("nan"), float("inf")])
    def test_background_checked_when_reassigned(self, field, value):
        host = Host("h0")
        setattr(host, field, 4.0)
        with pytest.raises(ValueError, match=f"h0: {field} must be non-negative"):
            setattr(host, field, value)
        assert getattr(host, field) == 4.0
        assert all(map(math.isfinite, host.utilization({})))


class TestCluster:
    def test_homogeneous_factory(self):
        cluster = Cluster.homogeneous(20)
        assert len(cluster.hosts) == 20
        assert all(h.cpu_capacity == 32.0 for h in cluster.hosts)

    def test_zero_capacity_rejected_where_it_enters(self):
        """Not a ``ZeroDivisionError`` at the first utilization read."""
        with pytest.raises(ValueError, match="cpu_capacity must be positive"):
            Cluster.homogeneous(2, cpu_capacity=0.0)

    def test_placement_totals(self):
        cluster = small_cluster()
        cluster.hosts[0].place("ms", 2)
        cluster.hosts[1].place("ms", 3)
        assert cluster.placement() == {"ms": 5}

    def test_imbalance_zero_when_uniform(self):
        cluster = small_cluster()
        for host in cluster.hosts:
            host.place("ms", 2)
        assert cluster.imbalance() == pytest.approx(0.0)

    def test_imbalance_positive_when_skewed(self):
        cluster = small_cluster()
        cluster.hosts[0].place("ms", 8)
        assert cluster.imbalance() > 0.0


class TestInterferenceAwareProvisioner:
    def test_scales_up_to_desired(self):
        cluster = small_cluster()
        plan = InterferenceAwareProvisioner().apply(cluster, {"ms": 6})
        assert cluster.placement() == {"ms": 6}
        assert plan.placements() == 6 and plan.releases() == 0

    def test_scales_down_to_desired(self):
        cluster = small_cluster()
        InterferenceAwareProvisioner().apply(cluster, {"ms": 8})
        plan = InterferenceAwareProvisioner().apply(cluster, {"ms": 3})
        assert cluster.placement() == {"ms": 3}
        assert plan.releases() == 5

    def test_avoids_hosts_with_background_load(self):
        # One host runs heavy batch jobs; placements should dodge it.
        cluster = small_cluster(background=[(24.0, 48_000.0)])
        InterferenceAwareProvisioner().apply(cluster, {"ms": 6})
        loaded_host = cluster.hosts[0]
        others = cluster.hosts[1:]
        assert loaded_host.container_count() <= min(
            h.container_count() for h in others
        )

    def test_release_prefers_most_utilized_host(self):
        cluster = small_cluster(background=[(20.0, 40_000.0)])
        # Force containers everywhere, including the loaded host.
        for host in cluster.hosts:
            host.place("ms", 2)
        InterferenceAwareProvisioner().apply(cluster, {"ms": 7})
        assert cluster.hosts[0].container_count() == 1

    def test_balances_utilization(self):
        cluster = small_cluster()
        InterferenceAwareProvisioner().apply(cluster, {"ms": 8})
        counts = [h.container_count() for h in cluster.hosts]
        assert max(counts) - min(counts) <= 1

    def test_pop_groups_partition_hosts(self):
        provisioner = InterferenceAwareProvisioner(groups=2)
        cluster = small_cluster(hosts=8)
        parts = provisioner._partitions(cluster)
        assert len(parts) == 2
        assert sum(len(p) for p in parts) == 8

    def test_pop_still_reaches_desired_count(self):
        cluster = small_cluster(hosts=8)
        InterferenceAwareProvisioner(groups=4).apply(cluster, {"ms": 13})
        assert cluster.placement() == {"ms": 13}

    def test_invalid_groups_rejected(self):
        with pytest.raises(ValueError, match="groups"):
            InterferenceAwareProvisioner(groups=0)

    def test_release_without_containers_rejected(self):
        cluster = small_cluster()
        provisioner = InterferenceAwareProvisioner()
        with pytest.raises(ValueError, match="no host has containers"):
            provisioner.choose_release_host(cluster, "ms")

    def test_unknown_microservice_gets_default_size(self):
        cluster = small_cluster()
        InterferenceAwareProvisioner().apply(cluster, {"new-ms": 2})
        assert cluster.placement()["new-ms"] == 2
        assert "new-ms" in cluster.sizes


class TestKubernetesDefaultProvisioner:
    def test_ignores_background_interference(self):
        """The K8s baseline spreads evenly even onto the loaded host."""
        cluster = small_cluster(background=[(24.0, 48_000.0)])
        KubernetesDefaultProvisioner().apply(cluster, {"ms": 8})
        counts = [h.container_count() for h in cluster.hosts]
        # Pure request-based spreading: all hosts equal, including host 0.
        assert max(counts) - min(counts) <= 1
        assert cluster.hosts[0].container_count() == 2

    def test_interference_aware_beats_default_on_imbalance(self):
        background = [(20.0, 40_000.0), (10.0, 20_000.0)]
        aware = small_cluster(background=background)
        default = small_cluster(background=background)
        InterferenceAwareProvisioner().apply(aware, {"ms": 10})
        KubernetesDefaultProvisioner().apply(default, {"ms": 10})
        assert aware.imbalance() <= default.imbalance() + 1e-9

    def test_release_from_host_with_most_containers(self):
        cluster = small_cluster()
        cluster.hosts[2].place("ms", 5)
        cluster.hosts[1].place("ms", 1)
        KubernetesDefaultProvisioner().apply(cluster, {"ms": 4})
        assert cluster.hosts[2].container_count() == 3

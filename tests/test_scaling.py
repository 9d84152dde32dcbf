"""Tests for repro.core.scaling: ErmsScaler pipeline and delta schedule."""

import pytest

from repro.core import (
    ErmsScaler,
    ServiceSpec,
    VirtualParams,
    clear_targets_memo,
    delta_schedule_probabilities,
    merge,
)
from repro.graphs import DependencyGraph, GraphPlan, call
from repro.workloads import generate_taobao

from tests.helpers import count_calls, make_profile


def shared_pair(gamma1=40_000.0, gamma2=40_000.0, sla=300.0):
    svc1 = ServiceSpec(
        "svc1",
        DependencyGraph("svc1", call("U", stages=[[call("P")]])),
        workload=gamma1,
        sla=sla,
    )
    svc2 = ServiceSpec(
        "svc2",
        DependencyGraph("svc2", call("H", stages=[[call("P")]])),
        workload=gamma2,
        sla=sla,
    )
    profiles = {
        "U": make_profile("U", slope=4.0, intercept=5.0),
        "H": make_profile("H", slope=0.8, intercept=5.0),
        "P": make_profile("P", slope=1.0, intercept=2.0),
    }
    return [svc1, svc2], profiles


class TestErmsScaler:
    def test_allocation_covers_all_microservices(self):
        specs, profiles = shared_pair()
        allocation = ErmsScaler().scale(specs, profiles)
        assert set(allocation.containers) == {"U", "H", "P"}
        assert all(count >= 1 for count in allocation.containers.values())

    def test_priorities_recorded(self):
        specs, profiles = shared_pair()
        allocation = ErmsScaler().scale(specs, profiles)
        assert allocation.priorities["P"]["svc1"] == 0

    def test_fcfs_variant_has_no_priorities(self):
        specs, profiles = shared_pair()
        allocation = ErmsScaler(use_priority=False).scale(specs, profiles)
        assert allocation.priorities == {}

    def test_priority_uses_fewer_containers_than_fcfs(self):
        specs, profiles = shared_pair()
        with_priority = ErmsScaler().scale(specs, profiles).total_containers()
        without = (
            ErmsScaler(use_priority=False).scale(specs, profiles).total_containers()
        )
        assert with_priority < without

    def test_scheme_names(self):
        assert ErmsScaler().name == "erms"
        assert ErmsScaler(use_priority=False).name == "erms-fcfs"

    def test_with_workloads_rebuilds_specs(self):
        specs, _ = shared_pair()
        scaler = ErmsScaler()
        updated = scaler.with_workloads(specs, {"svc1": 123.0})
        assert updated[0].workload == 123.0
        assert updated[1].workload == specs[1].workload
        assert specs[0].workload == 40_000.0  # original untouched

    def test_targets_per_service(self):
        specs, profiles = shared_pair()
        allocation = ErmsScaler().scale(specs, profiles)
        assert set(allocation.targets["svc1"]) == {"U", "P"}
        assert set(allocation.targets["svc2"]) == {"H", "P"}


class TestAllocatorShape:
    """Counts, not timings: the allocator reads each graph's compiled plan.

    What each allocation costs in merges and square roots is pinned in
    ``tests/test_allocator_counts.py``.
    """

    def test_one_compile_per_graph_then_no_tree_walks(self, monkeypatch):
        population = generate_taobao(
            n_services=10, mean_graph_size=12, shared_pool=20, sla_range=(300.0, 600.0),
            seed=4,
        )
        specs, profiles = population.services, population.profiles
        counts = {"compiled": 0, "walked": 0, "virtual": 0}

        class Walked(list):
            """A node's stage list that counts how often it is iterated."""

            def __iter__(self):
                counts["walked"] += 1
                return super().__iter__()

        count_calls(monkeypatch, GraphPlan, "__init__", counts, "compiled")
        count_calls(monkeypatch, merge, "merge_graph", counts, "merged")
        clear_targets_memo()
        first = ErmsScaler().scale(specs, profiles)
        merged = counts.pop("merged")
        assert counts["compiled"] == len(specs) <= merged

        for spec in specs:
            for node in spec.graph.nodes():
                node.stages = Walked(node.stages)
        count_calls(monkeypatch, VirtualParams, "__post_init__", counts, "virtual")
        clear_targets_memo()
        again = ErmsScaler().scale(specs, profiles)
        assert counts == {
            "compiled": len(specs), "walked": 0, "virtual": 0, "merged": merged
        }
        assert again == first
        # the counters do count: a compile of the tree and a reference merge rule
        assert 1 < len(GraphPlan(specs[0].graph.root).nodes) <= counts["walked"]
        VirtualParams(1.0, 1.0, 1.0)
        assert counts["virtual"] == 1


class TestDeltaScheduleProbabilities:
    def test_two_services(self):
        probs = delta_schedule_probabilities({"a": 0, "b": 1}, delta=0.05)
        assert probs["a"] == pytest.approx(0.95)
        assert probs["b"] == pytest.approx(0.05)

    def test_probabilities_sum_to_one(self):
        for n in range(1, 6):
            ranks = {f"s{i}": i for i in range(n)}
            probs = delta_schedule_probabilities(ranks, delta=0.05)
            assert sum(probs.values()) == pytest.approx(1.0)

    def test_single_service_gets_everything(self):
        probs = delta_schedule_probabilities({"only": 0}, delta=0.05)
        assert probs["only"] == pytest.approx(1.0)

    def test_delta_zero_is_strict_priority(self):
        probs = delta_schedule_probabilities({"a": 0, "b": 1, "c": 2}, delta=0.0)
        assert probs == {"a": 1.0, "b": 0.0, "c": 0.0}

    def test_monotone_in_rank(self):
        ranks = {f"s{i}": i for i in range(5)}
        probs = delta_schedule_probabilities(ranks, delta=0.05)
        ordered = [probs[f"s{i}"] for i in range(5)]
        assert ordered == sorted(ordered, reverse=True)

    def test_invalid_delta_rejected(self):
        with pytest.raises(ValueError, match="delta"):
            delta_schedule_probabilities({"a": 0}, delta=1.0)
        with pytest.raises(ValueError, match="delta"):
            delta_schedule_probabilities({"a": 0}, delta=-0.1)


class TestSharedScalingHelpers:
    def test_combined_shared_workloads(self):
        from repro.core.scaling import combined_shared_workloads

        specs, _ = shared_pair(gamma1=10_000.0, gamma2=5_000.0)
        combined = combined_shared_workloads(specs)
        assert combined["P"] == pytest.approx(15_000.0)
        assert combined["U"] == pytest.approx(10_000.0)

    def test_apply_fcfs_shared_scaling_uses_min_target(self):
        from repro.core.model import Allocation, best_effort_containers
        from repro.core.scaling import apply_fcfs_shared_scaling

        specs, profiles = shared_pair(gamma1=10_000.0, gamma2=10_000.0)
        targets = {
            "svc1": {"U": 100.0, "P": 40.0},
            "svc2": {"H": 150.0, "P": 90.0},
        }
        allocation = Allocation(containers={"P": 1})
        apply_fcfs_shared_scaling(specs, profiles, targets, allocation)
        expected = best_effort_containers(profiles["P"].model, 20_000.0, 40.0)
        assert allocation.containers["P"] == expected

    def test_apply_fcfs_ignores_unshared(self):
        from repro.core.model import Allocation
        from repro.core.scaling import apply_fcfs_shared_scaling

        specs, profiles = shared_pair()
        targets = {
            "svc1": {"U": 100.0, "P": 40.0},
            "svc2": {"H": 150.0, "P": 90.0},
        }
        allocation = Allocation(containers={"U": 3})
        apply_fcfs_shared_scaling(specs, profiles, targets, allocation)
        assert allocation.containers["U"] == 3  # untouched: not shared

"""Tests for repro.graphs.clustering: the §9 dynamic-graph extension."""

import pytest

from repro.core import ServiceSpec, compute_service_targets
from repro.graphs import DependencyGraph, call
from repro.graphs.clustering import (
    GraphClass,
    class_workloads,
    cluster_graphs,
    graph_similarity,
    merge_variants,
)

from tests.helpers import make_profiles


def variant(*names):
    """A simple chain variant rooted at 'fe'."""
    node = call(names[-1])
    for name in reversed(names[:-1]):
        node = call(name, stages=[[node]])
    return DependencyGraph("svc", call("fe", stages=[[node]]))


class TestGraphSimilarity:
    def test_identical_graphs(self):
        a = variant("a", "b", "c")
        assert graph_similarity(a, variant("a", "b", "c")) == pytest.approx(1.0)

    def test_disjoint_bodies(self):
        # Only the frontend is common.
        a = variant("a", "b")
        b = variant("x", "y")
        assert graph_similarity(a, b) < 0.25

    def test_partial_overlap_between(self):
        a = variant("a", "b", "c")
        b = variant("a", "b", "d")
        score = graph_similarity(a, b)
        assert 0.3 < score < 0.9

    def test_symmetric(self):
        a, b = variant("a", "b"), variant("a", "c")
        assert graph_similarity(a, b) == pytest.approx(graph_similarity(b, a))


class TestMergeVariants:
    def test_union_of_microservices(self):
        merged = merge_variants("svc", [variant("a", "b"), variant("a", "c")])
        assert set(merged.microservices()) == {"fe", "a", "b", "c"}

    def test_single_variant_unchanged(self):
        merged = merge_variants("svc", [variant("a", "b")])
        assert set(merged.critical_paths()) == {("fe", "a", "b")}

    def test_does_not_mutate_inputs(self):
        a = variant("a", "b")
        before = len(a.nodes())
        merge_variants("svc", [a, variant("a", "c")])
        assert len(a.nodes()) == before

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            merge_variants("svc", [])


class TestClusterGraphs:
    def test_identical_variants_one_class(self):
        variants = [variant("a", "b") for _ in range(5)]
        classes = cluster_graphs(variants)
        assert len(classes) == 1
        assert classes[0].size() == 5
        assert classes[0].weight == pytest.approx(1.0)

    def test_distinct_families_split(self):
        family_a = [variant("a", "b", "c"), variant("a", "b", "c2")]
        family_b = [variant("x", "y", "z"), variant("x", "y", "z2")]
        classes = cluster_graphs(family_a + family_b, similarity_threshold=0.4)
        assert len(classes) == 2
        sizes = sorted(cls.size() for cls in classes)
        assert sizes == [2, 2]

    def test_threshold_one_keeps_variants_apart(self):
        variants = [variant("a", "b"), variant("a", "c")]
        classes = cluster_graphs(variants, similarity_threshold=1.0)
        assert len(classes) == 2

    def test_threshold_zero_single_class(self):
        variants = [variant("a", "b"), variant("x", "y"), variant("p", "q")]
        classes = cluster_graphs(variants, similarity_threshold=0.0)
        assert len(classes) == 1
        assert set(classes[0].representative.microservices()) >= {
            "a", "b", "x", "y", "p", "q",
        }

    def test_weights_follow_frequencies(self):
        variants = [variant("a", "b"), variant("x", "y")]
        classes = cluster_graphs(
            variants, frequencies=[9.0, 1.0], similarity_threshold=0.5
        )
        weights = sorted(cls.weight for cls in classes)
        assert weights == [pytest.approx(0.1), pytest.approx(0.9)]

    def test_weights_sum_to_one(self):
        variants = [variant("a", "b"), variant("a", "c"), variant("x", "y")]
        classes = cluster_graphs(variants, frequencies=[3.0, 2.0, 5.0])
        assert sum(cls.weight for cls in classes) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            cluster_graphs([])
        with pytest.raises(ValueError, match="similarity_threshold"):
            cluster_graphs([variant("a")], similarity_threshold=2.0)
        with pytest.raises(ValueError, match="frequencies"):
            cluster_graphs([variant("a")], frequencies=[1.0, 2.0])


class TestPerClassScaling:
    def test_per_class_scaling_saves_containers(self):
        """The §9 motivation: complete-graph scaling over-provisions.

        90% of requests take a short path; 10% touch an expensive branch.
        Scaling the complete graph charges every request for the branch.
        """
        short = variant("core")
        long = DependencyGraph(
            "svc",
            call("fe", stages=[[call("core", stages=[[call("heavy")]])]]),
        )
        profiles = make_profiles(
            [("fe", 0.5, 1.0), ("core", 1.0, 2.0), ("heavy", 4.0, 5.0)]
        )
        workload, sla = 50_000.0, 120.0

        complete = merge_variants("svc", [short, long])
        complete_containers = sum(
            compute_service_targets(
                ServiceSpec("svc", complete, workload, sla), profiles
            ).containers.values()
        )

        classes = cluster_graphs(
            [short, long], frequencies=[0.9, 0.1], similarity_threshold=0.9
        )
        loads = class_workloads(classes, workload)
        per_class_total = 0
        for cls, load in zip(classes, loads):
            result = compute_service_targets(
                ServiceSpec("svc", cls.representative, load, sla), profiles
            )
            per_class_total += sum(result.containers.values())

        assert per_class_total < complete_containers

    def test_class_workload_split(self):
        classes = [
            GraphClass(representative=variant("a"), members=[0], weight=0.25),
            GraphClass(representative=variant("b"), members=[1], weight=0.75),
        ]
        assert class_workloads(classes, 1000.0) == [250.0, 750.0]

    def test_negative_workload_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            class_workloads([], -1.0)

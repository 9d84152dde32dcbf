"""Tests for repro.core.merge: Eqs. 6-12 merge rules and target distribution.

Includes property-based tests of the paper's structural invariants:

* sequential merge preserves sqrt(a*R) additively (the reason hierarchical
  Eq. 5 splitting matches the flat allocation);
* merge + distribute is consistent: summing the distributed targets through
  the graph structure reproduces the SLA exactly.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    VirtualParams,
    distribute_targets,
    merge_graph,
    parallel_merge,
    sequential_merge,
)
from repro.graphs import CallNode, DependencyGraph, GraphValidationError, call

from tests.helpers import fig1_graph, make_profiles, FIG1_PARAMS

positive = st.floats(min_value=0.01, max_value=100.0, allow_nan=False)
params_strategy = st.builds(
    VirtualParams,
    slope=positive,
    intercept=st.floats(min_value=0.0, max_value=50.0),
    resource=positive,
)


class TestSequentialMerge:
    def test_intercepts_add(self):
        p1 = VirtualParams(1.0, 2.0, 1.0)
        p2 = VirtualParams(2.0, 3.0, 1.0)
        assert sequential_merge(p1, p2).intercept == pytest.approx(5.0)

    def test_equal_nodes(self):
        p = VirtualParams(1.0, 1.0, 1.0)
        merged = sequential_merge(p, p)
        # s = 2*sqrt(aR) = 2, t = 2*sqrt(a/R) = 2 -> slope 4, resource 1
        assert merged.slope == pytest.approx(4.0)
        assert merged.resource == pytest.approx(1.0)

    @given(params_strategy, params_strategy)
    @settings(max_examples=200)
    def test_key_additivity(self, p1, p2):
        """sqrt(a*R) of the merged node equals the sum of children keys."""
        merged = sequential_merge(p1, p2)
        assert merged.key == pytest.approx(p1.key + p2.key, rel=1e-9)

    @given(params_strategy, params_strategy, params_strategy)
    @settings(max_examples=100)
    def test_associativity_of_key(self, p1, p2, p3):
        left = sequential_merge(sequential_merge(p1, p2), p3)
        right = sequential_merge(p1, sequential_merge(p2, p3))
        assert left.key == pytest.approx(right.key, rel=1e-9)
        assert left.intercept == pytest.approx(right.intercept, rel=1e-9)

    @given(params_strategy, params_strategy)
    @settings(max_examples=100)
    def test_resource_cost_equivalence(self, p1, p2):
        """The virtual node reproduces the optimal chain cost (Eq. 6).

        For a chain under budget B (above intercepts), the optimal resource
        usage is gamma * (sum sqrt(a_i R_i))^2 / B; the merged node's
        a*R/(B) formula must agree.
        """
        merged = sequential_merge(p1, p2)
        budget = 10.0
        chain_cost = (p1.key + p2.key) ** 2 / budget
        merged_cost = merged.slope * merged.resource / budget
        assert merged_cost == pytest.approx(chain_cost, rel=1e-9)


class TestParallelMerge:
    def test_slopes_add_intercept_max(self):
        p1 = VirtualParams(1.0, 2.0, 1.0)
        p2 = VirtualParams(2.0, 5.0, 1.0)
        merged = parallel_merge(p1, p2)
        assert merged.slope == pytest.approx(3.0)
        assert merged.intercept == pytest.approx(5.0)

    @given(params_strategy, params_strategy)
    @settings(max_examples=200)
    def test_aggregate_aR_preserved(self, p1, p2):
        """a**R** equals a1R1 + a2R2 so parallel cost is preserved."""
        merged = parallel_merge(p1, p2)
        assert merged.slope * merged.resource == pytest.approx(
            p1.slope * p1.resource + p2.slope * p2.resource, rel=1e-9
        )

    @given(params_strategy, params_strategy)
    @settings(max_examples=100)
    def test_commutative(self, p1, p2):
        m12 = parallel_merge(p1, p2)
        m21 = parallel_merge(p2, p1)
        assert m12.slope == pytest.approx(m21.slope)
        assert m12.intercept == pytest.approx(m21.intercept)
        assert m12.resource == pytest.approx(m21.resource)


def high_segment_params(graph, profiles):
    """``merge_graph``'s per-microservice ⟨a, b, R⟩ on the high segments."""
    return tuple(
        (
            profiles[name].model.high.slope,
            profiles[name].model.high.intercept,
            profiles[name].resource_demand,
        )
        for name in graph.plan().names
    )


def _fig1_setup():
    graph = fig1_graph()
    profiles = make_profiles(FIG1_PARAMS)
    return graph, profiles, high_segment_params(graph, profiles)


class TestMergeGraph:
    def test_fig1_merged_intercept_is_worst_path(self):
        graph, _, leaf_params = _fig1_setup()
        merged = merge_graph(graph, leaf_params)
        # T(2) + max(Url 3, U 4) + C(1) = 7
        assert merged.intercept == pytest.approx(7.0)

    def test_fig1_merge_tree_structure(self):
        graph, _, leaf_params = _fig1_setup()
        merged = merge_graph(graph, leaf_params)
        assert merged.plan is graph.plan() and len(merged.plan.nodes) == 4
        # T is merged sequentially with its two stages; Url, U and C are leaves
        _, _, floor, pieces = merged.splits[0]
        assert floor == pytest.approx(7.0)
        assert [children for children, _, _ in pieces] == [(1, 2), (3,)]
        assert merged.splits[1:] == [None, None, None]

    def test_single_node_graph(self):
        graph = DependencyGraph("one", call("A"))
        profiles = make_profiles([("A", 1.0, 2.0)])
        merged = merge_graph(graph, high_segment_params(graph, profiles))
        assert merged.splits == [None]
        assert merged.intercept == pytest.approx(2.0)

    def test_fanout_scales_slope(self):
        graph = DependencyGraph(
            "fan", call("A", stages=[[call("B", calls_per_request=4.0)]])
        )
        profiles = make_profiles([("A", 1.0, 0.0), ("B", 1.0, 0.0)])
        merged = merge_graph(graph, high_segment_params(graph, profiles))
        assert graph.plan().factors == (1.0, 4.0)
        # B enters the merge with slope 1.0 * 4.0
        expected = sequential_merge(
            VirtualParams(1.0, 0.0, 1.0), VirtualParams(4.0, 0.0, 1.0)
        )
        assert (merged.slope, merged.intercept, merged.resource) == (
            expected.slope, expected.intercept, expected.resource
        )

    def test_empty_stage_names_service_microservice_and_stage(self):
        root = call("A", stages=[[CallNode("B", stages=[[call("C")], []])]])
        graph = DependencyGraph("svc", root)
        with pytest.raises(
            GraphValidationError, match="service 'svc': stage 1 of 'B' is empty"
        ):
            merge_graph(graph, ((1.0, 1.0, 1.0),) * 3)

    @pytest.mark.parametrize(
        "bad, message",
        [((0.0, 1.0, 1.0), "slope must be positive"),
         ((1.0, 1.0, -2.0), "resource must be positive"),
         ((float("nan"), 1.0, 1.0), "slope must be positive, got nan"),
         ((1.0, 1.0, float("nan")), "resource must be positive, got nan")],
    )
    def test_every_leaf_is_checked_like_virtual_params(self, bad, message):
        graph = fig1_graph()
        previous = merge_graph(graph, [(1.0, 1.0, 1.0)] * 4)
        for position in range(4):
            leaf_params = [(1.0, 1.0, 1.0)] * 4
            leaf_params[position] = bad
            with pytest.raises(ValueError, match=message):
                merge_graph(graph, leaf_params)
            with pytest.raises(ValueError, match=message):
                merge_graph(graph, leaf_params, previous)

    def test_previous_merge_of_another_graph_is_refused(self):
        previous = merge_graph(fig1_graph(), [(1.0, 1.0, 1.0)] * 4)
        with pytest.raises(ValueError, match="previous merges another graph"):
            merge_graph(fig1_graph(), [(1.0, 1.0, 1.0)] * 4, previous)


class TestDistributeTargets:
    def test_targets_sum_to_sla_on_chain(self):
        graph = DependencyGraph(
            "chain", call("A", stages=[[call("B", stages=[[call("C")]])]])
        )
        profiles = make_profiles([("A", 1.0, 1.0), ("B", 2.0, 2.0), ("C", 0.5, 0.5)])
        merged = merge_graph(graph, high_segment_params(graph, profiles))
        targets = distribute_targets(merged, sla=100.0)
        assert sum(targets) == pytest.approx(100.0)

    def test_chain_matches_flat_eq5(self):
        """Hierarchical splitting equals the closed form of Eq. 5."""
        names = ["A", "B", "C", "D"]
        entries = [("A", 1.0, 1.0), ("B", 2.0, 0.5), ("C", 0.3, 2.0), ("D", 4.0, 0.0)]
        graph = DependencyGraph(
            "chain",
            call("A", stages=[[call("B", stages=[[call("C", stages=[[call("D")]])]])]]),
        )
        profiles = make_profiles(entries)
        merged = merge_graph(graph, high_segment_params(graph, profiles))
        sla = 80.0
        by_name = dict(zip(graph.plan().names, distribute_targets(merged, sla)))
        # Flat Eq. 5
        keys = {n: math.sqrt(a * 1.0) for n, a, _ in entries}
        intercepts = {n: b for n, _, b in entries}
        budget = sla - sum(intercepts.values())
        total_key = sum(keys.values())
        for name in names:
            expected = keys[name] / total_key * budget + intercepts[name]
            assert by_name[name] == pytest.approx(expected, rel=1e-9)

    def test_parallel_children_get_equal_targets(self):
        graph, _, leaf_params = _fig1_setup()
        merged = merge_graph(graph, leaf_params)
        targets = dict(zip(graph.plan().names, distribute_targets(merged, sla=100.0)))
        # Url and U are leaves of a parallel merge -> identical targets.
        assert targets["Url"] == targets["U"]

    def test_structural_latency_meets_sla_exactly(self):
        """Folding targets through the graph reproduces the SLA."""
        graph, _, leaf_params = _fig1_setup()
        merged = merge_graph(graph, leaf_params)
        sla = 123.0
        targets = dict(zip(graph.plan().names, distribute_targets(merged, sla)))

        def respond(node):
            total = targets[node.microservice]
            for stage in node.stages:
                total += max(respond(child) for child in stage)
            return total

        assert respond(graph.root) == pytest.approx(sla, rel=1e-9)

    def test_microservice_at_several_sites_gets_its_smallest_target(self):
        # B is called alone after A and again beside the expensive C
        graph = DependencyGraph(
            "twice", call("A", stages=[[call("B")], [call("B"), call("C")]])
        )
        leaf_params = ((1.0, 1.0, 1.0), (1.0, 2.0, 1.0), (9.0, 2.0, 1.0))
        merged = merge_graph(graph, leaf_params)
        targets = distribute_targets(merged, 100.0)
        _, _, _, ((_, alone, b1), (_, beside, b2)) = merged.splits[0]
        budget = 100.0 - merged.intercept
        assert alone < beside
        assert targets[1] == alone * budget + b1 < beside * budget + b2 == targets[2]

    @given(
        st.lists(
            st.tuples(positive, st.floats(min_value=0.0, max_value=5.0), positive),
            min_size=2,
            max_size=6,
        )
    )
    @settings(max_examples=100)
    def test_random_chain_targets_sum_to_sla(self, triples):
        node = None
        for index, _ in enumerate(reversed(triples)):
            name = f"M{len(triples) - 1 - index}"
            node = call(name, stages=[[node]] if node else [])
        graph = DependencyGraph("chain", node)
        merged = merge_graph(graph, triples)
        sla = merged.intercept + 50.0
        targets = distribute_targets(merged, sla)
        assert sum(targets) == pytest.approx(sla, rel=1e-6)

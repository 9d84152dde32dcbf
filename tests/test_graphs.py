"""Tests for repro.graphs: dependency model, builder, validation."""

import pytest

from repro.graphs import (
    CallNode,
    DependencyGraph,
    GraphBuilder,
    GraphValidationError,
    call,
    validate_graph,
)

from tests.helpers import chain_graph, fig1_graph


class TestCallNode:
    def test_walk_depth_first(self):
        graph = fig1_graph()
        names = [node.microservice for node in graph.root.walk()]
        assert names == ["T", "Url", "U", "C"]

    def test_children_iterates_all_stages(self):
        graph = fig1_graph()
        children = [c.microservice for c in graph.root.children()]
        assert children == ["Url", "U", "C"]

    def test_add_sequential_creates_new_stage(self):
        node = call("A")
        node.add_sequential(call("B"))
        node.add_sequential(call("C"))
        assert len(node.stages) == 2

    def test_add_parallel_joins_last_stage(self):
        node = call("A")
        node.add_sequential(call("B"))
        node.add_parallel(call("C"))
        assert len(node.stages) == 1
        assert [c.microservice for c in node.stages[0]] == ["B", "C"]

    def test_add_parallel_to_empty_creates_stage(self):
        node = call("A")
        node.add_parallel(call("B"))
        assert len(node.stages) == 1


class TestDependencyGraph:
    def test_fig1_critical_paths(self):
        graph = fig1_graph()
        assert set(graph.critical_paths()) == {("T", "Url", "C"), ("T", "U", "C")}

    def test_chain_has_single_path(self):
        graph = chain_graph(["A", "B", "C", "D"])
        assert graph.critical_paths() == [("A", "B", "C", "D")]

    def test_node_and_edge_counts(self):
        graph = fig1_graph()
        assert graph.node_count() == 4
        assert graph.edge_count() == 3

    def test_depth_counts_longest_chain(self):
        assert fig1_graph().depth() == 3
        assert chain_graph(["A", "B", "C", "D", "E"]).depth() == 5

    def test_microservices_unique_in_order(self):
        graph = DependencyGraph(
            "dup", call("A", stages=[[call("B", stages=[[call("A2")]]), call("B")]])
        )
        assert graph.microservices() == ["A", "B", "A2"]

    def test_workload_multipliers_simple(self):
        graph = fig1_graph()
        assert graph.workload_multipliers() == {
            "T": 1.0,
            "Url": 1.0,
            "U": 1.0,
            "C": 1.0,
        }

    def test_workload_multipliers_with_fanout(self):
        graph = DependencyGraph(
            "fan",
            call("A", stages=[[call("B", calls_per_request=3.0,
                                    stages=[[call("C", calls_per_request=2.0)]])]]),
        )
        multipliers = graph.workload_multipliers()
        assert multipliers["B"] == pytest.approx(3.0)
        assert multipliers["C"] == pytest.approx(6.0)

    def test_workload_multipliers_accumulate_repeats(self):
        # Microservice B appears at two call sites.
        graph = DependencyGraph(
            "rep", call("A", stages=[[call("B")], [call("B")]])
        )
        assert graph.workload_multipliers()["B"] == pytest.approx(2.0)

    def test_end_to_end_latency_sequential(self):
        graph = chain_graph(["A", "B", "C"])
        latencies = {"A": 1.0, "B": 2.0, "C": 3.0}
        assert graph.end_to_end_latency(latencies) == pytest.approx(6.0)

    def test_end_to_end_latency_parallel_takes_max(self):
        graph = fig1_graph()
        latencies = {"T": 1.0, "Url": 5.0, "U": 2.0, "C": 3.0}
        # T + max(Url, U) + C
        assert graph.end_to_end_latency(latencies) == pytest.approx(9.0)

    def test_end_to_end_equals_max_critical_path(self):
        graph = fig1_graph()
        latencies = {"T": 1.0, "Url": 5.0, "U": 2.0, "C": 3.0}
        best = max(
            graph.path_latency(p, latencies) for p in graph.critical_paths()
        )
        assert graph.end_to_end_latency(latencies) == pytest.approx(best)

    def test_critical_path_limit(self):
        # 3 stages x 2 parallel branches = 8 paths; limit caps enumeration.
        stages = [[call(f"P{i}a"), call(f"P{i}b")] for i in range(3)]
        graph = DependencyGraph("wide", call("root", stages=stages))
        assert len(graph.critical_paths()) == 8
        assert len(graph.critical_paths(limit=3)) == 3


class TestGraphPlan:
    """The compiled form every structure query and the allocator read."""

    def test_layout_of_a_graph_with_fanout_and_a_repeated_microservice(self):
        graph = DependencyGraph(
            "svc",
            call("A", stages=[
                [call("B", calls_per_request=2.0, stages=[[call("C"), call("A")]]),
                 call("D", calls_per_request=0.5)],
                [call("C", calls_per_request=3.0)],
            ]),
        )
        plan = graph.plan()
        assert [node.microservice for node in plan.nodes] == list("ABCADC")
        assert plan.nodes == tuple(graph.root.walk())
        assert plan.names == ("A", "B", "C", "D")
        assert plan.index == (0, 1, 2, 0, 3, 2)
        assert plan.factors == (1.0, 2.0, 2.0, 2.0, 0.5, 3.0)
        assert plan.stages == (((1, 4), (5,)), ((2, 3),), (), (), (), ())
        assert plan.multipliers == (3.0, 2.0, 5.0, 0.5)
        assert graph.workload_multipliers() == dict(zip(plan.names, plan.multipliers))

    def test_compiled_once_and_not_part_of_equality(self):
        graph = fig1_graph()
        assert graph.plan() is graph.plan()
        assert graph == fig1_graph()  # the other one has no plan yet
        assert "plan" not in repr(graph)

    def test_queries_return_fresh_lists(self):
        graph = fig1_graph()
        graph.microservices().append("X")
        graph.nodes().clear()
        assert graph.microservices() == ["T", "Url", "U", "C"]
        assert graph.node_count() == 4

    def test_a_mutated_root_needs_a_new_graph(self):
        """The freeze contract: the plan is built at first use and kept."""
        graph = chain_graph(["A", "B"])
        latencies = {"A": 1.0, "B": 2.0, "C": 4.0}
        assert graph.end_to_end_latency(latencies) == 3.0
        graph.root.add_sequential(call("C", calls_per_request=2.0))
        assert graph.microservices() == ["A", "B"]  # still the compiled tree
        assert graph.end_to_end_latency(latencies) == 3.0
        rebuilt = DependencyGraph(graph.service, graph.root)
        assert rebuilt.microservices() == ["A", "B", "C"]
        assert rebuilt.workload_multipliers()["C"] == 2.0
        assert rebuilt.end_to_end_latency(latencies) == 7.0

    def test_a_chain_deeper_than_the_recursion_limit_folds(self):
        import sys

        depth = sys.getrecursionlimit() + 500
        names = [f"m{i}" for i in range(depth)]
        node = call(names[-1])
        for name in reversed(names[:-1]):
            node = call(name, stages=[[node]])
        graph = DependencyGraph("deep", node)
        assert graph.node_count() == depth
        assert graph.end_to_end_latency(dict.fromkeys(names, 1.0)) == float(depth)


class TestGraphBuilder:
    def test_build_fig1_incrementally(self):
        builder = GraphBuilder("fig1")
        t = builder.set_root("T")
        url = builder.add_parallel(t, "Url")
        builder.add_parallel(t, "U", stage=url)
        builder.add_sequential(t, "C")
        graph = builder.build()
        assert set(graph.critical_paths()) == {("T", "Url", "C"), ("T", "U", "C")}

    def test_root_twice_rejected(self):
        builder = GraphBuilder("svc")
        builder.set_root("A")
        with pytest.raises(ValueError, match="root already set"):
            builder.set_root("B")

    def test_build_without_root_rejected(self):
        with pytest.raises(ValueError, match="no root"):
            GraphBuilder("svc").build()

    def test_parallel_with_unknown_stage_rejected(self):
        builder = GraphBuilder("svc")
        root = builder.set_root("A")
        stranger = CallNode("X")
        with pytest.raises(ValueError, match="not a direct downstream"):
            builder.add_parallel(root, "B", stage=stranger)

    def test_build_validates_by_default(self):
        builder = GraphBuilder("svc")
        root = builder.set_root("A")
        builder.add_sequential(root, "A")  # recursive self-call
        with pytest.raises(GraphValidationError):
            builder.build()


class TestValidation:
    def test_valid_graph_passes(self):
        validate_graph(fig1_graph())

    def test_empty_service_name(self):
        with pytest.raises(GraphValidationError, match="service name"):
            validate_graph(DependencyGraph("", call("A")))

    def test_empty_microservice_name(self):
        with pytest.raises(GraphValidationError, match="microservice name"):
            validate_graph(DependencyGraph("svc", call("")))

    def test_cycle_detection(self):
        graph = DependencyGraph(
            "svc", call("A", stages=[[call("B", stages=[[call("A")]])]])
        )
        with pytest.raises(GraphValidationError, match="recursive call cycle"):
            validate_graph(graph)

    def test_sibling_repeat_is_allowed(self):
        # The same microservice on two parallel branches is legal sharing.
        graph = DependencyGraph("svc", call("A", stages=[[call("B"), call("B")]]))
        validate_graph(graph)

    def test_empty_stage_rejected(self):
        node = call("A")
        node.stages.append([])
        with pytest.raises(GraphValidationError, match="stage 0 .* is empty"):
            validate_graph(DependencyGraph("svc", node))

    def test_nonpositive_fanout_rejected(self):
        graph = DependencyGraph("svc", call("A", calls_per_request=0.0))
        with pytest.raises(GraphValidationError, match="calls_per_request"):
            validate_graph(graph)


class TestPathHelpers:
    def test_path_latency_sums_names(self):
        graph = fig1_graph()
        latencies = {"T": 1.0, "Url": 2.0, "U": 3.0, "C": 4.0}
        assert graph.path_latency(("T", "Url", "C"), latencies) == pytest.approx(7.0)

    def test_edge_count_matches_rows(self):
        graph = chain_graph(["A", "B", "C", "D", "E"])
        assert graph.edge_count() == 4

"""Tests for repro.graphs: dependency model, compiled plan, validation."""

import sys

import pytest

from repro.graphs import (
    CallNode,
    DependencyGraph,
    GraphValidationError,
    call,
    validate_graph,
)

from tests.helpers import chain_graph, fig1_graph, make_profile


def _deep_chain(depth=None):
    """A chain ``sys.getrecursionlimit() + 500`` calls deep (or ``depth``)."""
    names = [f"m{i}" for i in range(depth or sys.getrecursionlimit() + 500)]
    return names, chain_graph(names, service="deep")


def _deep_simulator(names, graph):
    from repro.core import ServiceSpec
    from repro.simulator import ClusterSimulator, SimulatedMicroservice, SimulationConfig

    return ClusterSimulator(
        [ServiceSpec("deep", graph, workload=0.0, sla=1e9)],
        {name: SimulatedMicroservice(name) for name in names},
        containers={},
        rates={"deep": 200.0},
        config=SimulationConfig(duration_min=0.05, warmup_min=0.0, seed=0),
    )


def _validated(names, graph):
    validate_graph(graph)
    return graph.node_count()


def _merged(names, graph):
    from repro.graphs.clustering import merge_variants

    return merge_variants("deep", [graph, graph]).node_count()


def _similar(names, graph):
    from repro.graphs.clustering import graph_similarity

    assert graph_similarity(graph, DependencyGraph("deep", graph.root)) == 1.0
    return graph.node_count()


def _rows_round_trip(names, graph):
    from repro.workloads.traces_io import graph_to_rows, rows_to_graph

    rebuilt = rows_to_graph(graph_to_rows(graph))
    assert rebuilt.microservices() == names
    return rebuilt.depth()


def _traced(names, graph):
    from repro.tracing import TracingCoordinator, synthesize_trace

    coordinator = TracingCoordinator()
    assert coordinator.offer(synthesize_trace(graph, dict.fromkeys(names, 1.0)))
    extracted = coordinator.extract_graph("deep")
    assert extracted.microservices() == names
    return extracted.depth()


def _scaled(names, graph):
    from repro.core import ErmsScaler, ServiceSpec

    spec = ServiceSpec("deep", graph, workload=100.0, sla=10.0 * len(names))
    profiles = {name: make_profile(name, 0.01, 1.0) for name in names}
    return len(ErmsScaler().scale([spec], profiles).containers)


def _bound(names, graph):
    plan = _deep_simulator(names, graph)._roots["deep"]
    depth = 1
    while plan.stages:
        ((plan,),) = plan.stages  # a chain: one stage of one call
        depth += 1
    return depth


#: door -> reads a deep chain and returns its depth, as that door sees it
_DEEP_DOORS = {
    "validate": _validated,
    "depth": lambda names, graph: graph.depth(),
    "critical_paths": lambda names, graph: len(graph.critical_paths()[0]),
    "similarity": _similar,
    "merge_variants": _merged,
    "rows_round_trip": _rows_round_trip,
    "synthesize_offer_extract": _traced,
    "erms_scale": _scaled,
    "simulator_construction": _bound,
}


class TestCallNode:
    def test_walk_depth_first(self):
        graph = fig1_graph()
        names = [node.microservice for node in graph.nodes()]
        assert names == ["T", "Url", "U", "C"]

    def test_children_iterates_all_stages(self):
        graph = fig1_graph()
        plan = graph.plan()
        children = [
            plan.nodes[child].microservice for stage in plan.stages[0] for child in stage
        ]
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
        edges = sum(len(stage) for stages in graph.plan().stages for stage in stages)
        assert edges == graph.node_count() - 1 == 3  # one call per site but the root

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
            sum(latencies[name] for name in path) for path in graph.critical_paths()
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
        assert plan.nodes[0] is graph.root
        assert plan.nodes[1] is graph.root.stages[0][0]
        assert plan.names == ("A", "B", "C", "D")
        assert plan.index == (0, 1, 2, 0, 3, 2)
        assert plan.factors == (1.0, 2.0, 2.0, 2.0, 0.5, 3.0)
        assert plan.stages == (((1, 4), (5,)), ((2, 3),), (), (), (), ())
        assert plan.parents == (-1, 0, 1, 1, 0, 0)
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
        names, graph = _deep_chain()
        assert graph.node_count() == len(names)
        assert graph.end_to_end_latency(dict.fromkeys(names, 1.0)) == float(len(names))

    @pytest.mark.parametrize("door", sorted(_DEEP_DOORS))
    def test_a_chain_deeper_than_the_recursion_limit_goes_through(self, door):
        """Every reader of a graph is a loop: none has a depth limit."""
        names, graph = _deep_chain()
        assert _DEEP_DOORS[door](names, graph) == len(names)

    def test_a_chain_deeper_than_the_recursion_limit_is_not_simulated(self):
        """A response climbs its chain as nested calls: a named error."""
        names, graph = _deep_chain()
        sim = _deep_simulator(names, graph)
        with pytest.raises(GraphValidationError) as error:
            sim.run()
        for part in ("'deep'", str(len(names)), str(sys.getrecursionlimit())):
            assert part in str(error.value)

    def test_a_chain_the_engine_can_climb_still_runs(self):
        names, graph = _deep_chain(300)
        result = _deep_simulator(names, graph).run()
        assert result.completed["deep"] == result.generated["deep"] > 0

    def test_a_chain_400_calls_deep_runs(self):
        """A response climbs one call record per level (≈ 2 frames); with a
        join frame and a stage runner per level it stopped short of 400."""
        names, graph = _deep_chain(400)
        result = _deep_simulator(names, graph).run()
        assert result.completed["deep"] == result.generated["deep"] > 0


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

    @pytest.mark.parametrize("depth", [0, 1, 3])
    def test_a_node_that_contains_itself_is_rejected(self, depth):
        """Compiling an object cycle used to grow the work list forever."""
        looped = call("L")
        node = looped
        for level in range(depth):
            node = call(f"m{level}", stages=[[call("leaf")], [node]])
        looped.stages.append([call("x"), node])
        graph = DependencyGraph("svc", call("root", stages=[[looped]]))
        with pytest.raises(GraphValidationError, match="'L' contains itself"):
            graph.plan()
        with pytest.raises(GraphValidationError, match="'L' contains itself"):
            validate_graph(graph)

    def test_a_subtree_shared_by_two_parents_is_no_cycle(self):
        shared = call("S", stages=[[call("T")]])
        graph = DependencyGraph(
            "svc", call("A", stages=[[call("B", stages=[[shared]]), shared], [shared]])
        )
        validate_graph(graph)
        assert [node.microservice for node in graph.nodes()] == list("ABSTSTST")


class TestPathHelpers:
    def test_path_latency_sums_names(self):
        graph = fig1_graph()
        latencies = {"T": 1.0, "Url": 2.0, "U": 3.0, "C": 4.0}
        sums = {path: sum(latencies[name] for name in path) for path in graph.critical_paths()}
        assert sums == {("T", "Url", "C"): 7.0, ("T", "U", "C"): 8.0}
        assert graph.end_to_end_latency(latencies) == max(sums.values())

    def test_edge_count_matches_rows(self):
        from repro.workloads.traces_io import graph_to_rows

        graph = chain_graph(["A", "B", "C", "D", "E"])
        rows = graph_to_rows(graph)
        assert [(row.um, row.dm) for row in rows[1:]] == [
            ("A", "B"), ("B", "C"), ("C", "D"), ("D", "E")
        ]
        assert len(rows) - 1 == graph.node_count() - 1 == 4

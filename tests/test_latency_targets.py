"""Tests for repro.core.latency_targets: Eq. 5 allocation + §5.3.1 passes."""

import math

import pytest

from repro.core import (
    InfeasibleSLAError,
    LatencySegment,
    MicroserviceProfile,
    PiecewiseLatencyModel,
    ServiceSpec,
    compute_service_targets,
    predicted_end_to_end,
)
from repro.graphs import CallNode, DependencyGraph, GraphValidationError, call

from tests.helpers import (
    FIG1_PARAMS,
    chain_graph,
    fig1_graph,
    make_profile,
    make_profiles,
)


def two_tier_service(workload=2000.0, sla=300.0):
    """The Fig. 4 scenario: U (sensitive) then P (insensitive), sequential."""
    graph = DependencyGraph("social", call("U", stages=[[call("P")]]))
    profiles = {
        "U": make_profile("U", slope=4.0, intercept=5.0),
        "P": make_profile("P", slope=0.5, intercept=2.0),
    }
    return ServiceSpec("social", graph, workload=workload, sla=sla), profiles


class TestComputeServiceTargets:
    def test_chain_allocation_matches_eq5(self):
        graph = chain_graph(["A", "B"])
        profiles = make_profiles([("A", 1.0, 2.0), ("B", 4.0, 1.0)])
        spec = ServiceSpec("svc", graph, workload=10_000.0, sla=500.0)
        result = compute_service_targets(spec, profiles)
        # At this workload both stay in the high segment (pass 1).
        budget = 500.0 - 3.0
        key_a, key_b = math.sqrt(1.0), math.sqrt(4.0)
        expected_a = key_a / (key_a + key_b) * budget + 2.0
        assert result.targets["A"] == pytest.approx(expected_a)
        assert result.passes == 1

    def test_sensitive_microservice_gets_higher_target(self):
        """Paper Fig. 4a: U's latency grows faster -> U gets more budget."""
        spec, profiles = two_tier_service()
        result = compute_service_targets(spec, profiles)
        assert result.targets["U"] > result.targets["P"]

    def test_containers_meet_targets(self):
        spec, profiles = two_tier_service()
        result = compute_service_targets(spec, profiles)
        for name, target in result.targets.items():
            load = result.workloads[name] / result.containers[name]
            assert result.segments[name].latency(load) <= target + 1e-9

    def test_end_to_end_prediction_within_sla(self):
        spec, profiles = two_tier_service()
        result = compute_service_targets(spec, profiles)
        e2e = predicted_end_to_end(spec, profiles, result.containers)
        assert e2e <= spec.sla + 1e-9

    def test_infeasible_sla_raises(self):
        spec, profiles = two_tier_service(sla=6.0)  # below intercept sum 7
        with pytest.raises(InfeasibleSLAError, match="latency floor"):
            compute_service_targets(spec, profiles)

    def test_empty_stage_is_a_named_graph_error(self):
        """It used to surface as a bare ``IndexError`` from the merge."""
        graph = DependencyGraph("svc", CallNode("A", stages=[[call("B")], []]))
        spec = ServiceSpec("svc", graph, workload=1000.0, sla=100.0)
        profiles = make_profiles([("A", 1.0, 1.0), ("B", 1.0, 1.0)])
        with pytest.raises(GraphValidationError, match="'svc': stage 1 of 'A' is empty"):
            compute_service_targets(spec, profiles)

    def test_rebuilt_graph_gives_the_fresh_answer(self):
        """Graphs are frozen once scaled; a grown root needs a new graph."""
        spec, profiles = two_tier_service()
        before = compute_service_targets(spec, profiles)
        spec.graph.root.add_sequential(call("Q"))
        profiles["Q"] = make_profile("Q", slope=1.0, intercept=1.0)
        stale = compute_service_targets(spec, profiles)
        assert stale.targets == before.targets
        rebuilt = ServiceSpec(
            spec.name, DependencyGraph(spec.name, spec.graph.root),
            workload=spec.workload, sla=spec.sla,
        )
        fresh = compute_service_targets(rebuilt, profiles)
        assert set(fresh.targets) == {"U", "P", "Q"}
        assert sum(fresh.targets.values()) == pytest.approx(spec.sla)
        assert fresh.targets["U"] < before.targets["U"]

    def test_second_pass_switches_to_low_segment(self):
        """A very tight SLA forces per-container load below the cut-off."""
        graph = chain_graph(["A", "B"])
        profiles = {
            "A": MicroserviceProfile(
                "A",
                PiecewiseLatencyModel(
                    low=LatencySegment(0.1, 1.0),
                    high=LatencySegment(5.0, 1.0),
                    cutoff=10.0,
                ),
            ),
            "B": MicroserviceProfile(
                "B",
                PiecewiseLatencyModel(
                    low=LatencySegment(0.1, 1.0),
                    high=LatencySegment(5.0, 1.0),
                    cutoff=10.0,
                ),
            ),
        }
        # latency_at_cutoff = 51; SLA 20 yields targets ~10 < 51 -> switch.
        spec = ServiceSpec("svc", graph, workload=1000.0, sla=20.0)
        result = compute_service_targets(spec, profiles)
        assert result.passes == 2
        assert result.segments["A"] is profiles["A"].model.low
        assert result.segments["B"] is profiles["B"].model.low

    def test_loose_sla_stays_on_high_segment(self):
        spec, profiles = two_tier_service(sla=100_000.0)
        result = compute_service_targets(spec, profiles)
        assert result.passes == 1
        assert result.segments["U"] is profiles["U"].model.high

    def test_higher_workload_needs_more_containers(self):
        spec_low, profiles = two_tier_service(workload=1000.0)
        spec_high, _ = two_tier_service(workload=50_000.0)
        low = compute_service_targets(spec_low, profiles)
        high = compute_service_targets(spec_high, profiles)
        assert sum(high.containers.values()) > sum(low.containers.values())

    def test_tighter_sla_needs_more_containers(self):
        spec_loose, profiles = two_tier_service(sla=400.0)
        spec_tight, _ = two_tier_service(sla=60.0)
        loose = compute_service_targets(spec_loose, profiles)
        tight = compute_service_targets(spec_tight, profiles)
        assert sum(tight.containers.values()) >= sum(loose.containers.values())

    def test_workload_override_inflates_containers(self):
        """Overrides model the priority-modified workload at shared nodes."""
        spec, profiles = two_tier_service(workload=2000.0)
        base = compute_service_targets(spec, profiles)
        boosted = compute_service_targets(
            spec, profiles, workload_overrides={"P": 8000.0}
        )
        assert boosted.containers["P"] > base.containers["P"]
        assert boosted.workloads["P"] == pytest.approx(8000.0)

    def test_override_shifts_target_upward(self):
        """More load at P -> P gets a larger latency share (Eq. 5)."""
        spec, profiles = two_tier_service(workload=2000.0)
        base = compute_service_targets(spec, profiles)
        boosted = compute_service_targets(
            spec, profiles, workload_overrides={"P": 20_000.0}
        )
        assert boosted.targets["P"] > base.targets["P"]

    def test_shared_call_site_takes_min_target(self):
        # C appears on two branches at different depths; its final target
        # must be the minimum over the per-site targets.  Compare against a
        # structurally identical graph with the sites renamed C1/C2.
        def build(deep, shallow):
            return DependencyGraph(
                "svc",
                call("A", stages=[[call("B", stages=[[call(deep)]]), call(shallow)]]),
            )

        entries = [("A", 1.0, 1.0), ("B", 1.0, 1.0)]
        shared_profiles = make_profiles(entries + [("C", 1.0, 1.0)])
        renamed_profiles = make_profiles(
            entries + [("C1", 1.0, 1.0), ("C2", 1.0, 1.0)]
        )
        shared = compute_service_targets(
            ServiceSpec("svc", build("C", "C"), workload=5000.0, sla=200.0),
            shared_profiles,
        )
        renamed = compute_service_targets(
            ServiceSpec("svc", build("C1", "C2"), workload=5000.0, sla=200.0),
            renamed_profiles,
        )
        expected = min(renamed.targets["C1"], renamed.targets["C2"])
        assert shared.targets["C"] == pytest.approx(expected)

    def test_fig1_all_targets_positive_above_intercepts(self):
        graph = fig1_graph()
        profiles = make_profiles(FIG1_PARAMS)
        spec = ServiceSpec("fig1", graph, workload=10_000.0, sla=150.0)
        result = compute_service_targets(spec, profiles)
        for name, target in result.targets.items():
            assert target > result.segments[name].intercept


class TestPredictedEndToEnd:
    def test_more_containers_reduce_latency(self):
        spec, profiles = two_tier_service()
        few = predicted_end_to_end(spec, profiles, {"U": 2, "P": 2})
        many = predicted_end_to_end(spec, profiles, {"U": 50, "P": 50})
        assert many < few

    def test_missing_container_counts_default_to_one(self):
        spec, profiles = two_tier_service(workload=100.0)
        value = predicted_end_to_end(spec, profiles, {})
        expected = profiles["U"].model.latency(100.0) + profiles["P"].model.latency(
            100.0
        )
        assert value == pytest.approx(expected)

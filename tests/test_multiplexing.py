"""Tests for repro.core.multiplexing: sharing, priorities, Theorem 1."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ServiceSpec,
    SharedScenario,
    assign_priorities,
    modified_workloads,
    resource_usage_fcfs_sharing,
    resource_usage_non_sharing,
    resource_usage_priority_bound,
    scale_with_priorities,
    shared_microservices,
)
from repro.graphs import DependencyGraph, call

from tests.helpers import make_profile


def fig5_services(gamma1=40_000.0, gamma2=40_000.0, sla1=300.0, sla2=300.0):
    """The Fig. 5 scenario: svc1 = U->P, svc2 = H->P, P shared.

    U is markedly more workload-sensitive than H, the condition under which
    priority scheduling pays off (Theorem 1 proof).
    """
    svc1 = ServiceSpec(
        "svc1",
        DependencyGraph("svc1", call("U", stages=[[call("P")]])),
        workload=gamma1,
        sla=sla1,
    )
    svc2 = ServiceSpec(
        "svc2",
        DependencyGraph("svc2", call("H", stages=[[call("P")]])),
        workload=gamma2,
        sla=sla2,
    )
    profiles = {
        "U": make_profile("U", slope=4.0, intercept=5.0),
        "H": make_profile("H", slope=0.8, intercept=5.0),
        "P": make_profile("P", slope=1.0, intercept=2.0),
    }
    return [svc1, svc2], profiles


class TestSharedMicroservices:
    def test_detects_shared(self):
        specs, _ = fig5_services()
        shared = shared_microservices(specs)
        assert shared == {"P": ["svc1", "svc2"]}

    def test_no_sharing(self):
        specs = [
            ServiceSpec("a", DependencyGraph("a", call("A")), 1.0, 10.0),
            ServiceSpec("b", DependencyGraph("b", call("B")), 1.0, 10.0),
        ]
        assert shared_microservices(specs) == {}

    def test_three_way_sharing(self):
        specs = [
            ServiceSpec(n, DependencyGraph(n, call("X")), 1.0, 10.0)
            for n in ("a", "b", "c")
        ]
        assert shared_microservices(specs) == {"X": ["a", "b", "c"]}


class TestPriorities:
    def test_lower_target_gets_higher_priority(self):
        specs, profiles = fig5_services()
        allocation = scale_with_priorities(specs, profiles)
        # svc1 contains the sensitive U, so its target at P is lower ->
        # svc1 rank 0 (scheduled first).
        assert allocation.priorities["P"]["svc1"] == 0
        assert allocation.priorities["P"]["svc2"] == 1

    def test_initial_targets_drive_ranking(self):
        initial_stub = {
            "a": type("T", (), {"targets": {"X": 5.0}})(),
            "b": type("T", (), {"targets": {"X": 2.0}})(),
            "c": type("T", (), {"targets": {"X": 9.0}})(),
        }
        ranks = assign_priorities(initial_stub, {"X": ["a", "b", "c"]})
        assert ranks["X"] == {"b": 0, "a": 1, "c": 2}

    def test_tie_breaks_by_name(self):
        initial_stub = {
            "b": type("T", (), {"targets": {"X": 5.0}})(),
            "a": type("T", (), {"targets": {"X": 5.0}})(),
        }
        ranks = assign_priorities(initial_stub, {"X": ["b", "a"]})
        assert ranks["X"] == {"a": 0, "b": 1}


class TestModifiedWorkloads:
    def test_low_priority_sees_summed_workload(self):
        specs, profiles = fig5_services(gamma1=10_000.0, gamma2=5_000.0)
        allocation = scale_with_priorities(specs, profiles)
        # svc1 is high priority: sees only its own workload at P.
        assert allocation.overrides["svc1"]["P"] == pytest.approx(10_000.0)
        # svc2 is low priority: sees gamma1 + gamma2.
        assert allocation.overrides["svc2"]["P"] == pytest.approx(15_000.0)

    def test_three_services_cascade(self):
        specs = [
            ServiceSpec(
                name,
                DependencyGraph(name, call(sens, stages=[[call("P")]])),
                workload=load,
                sla=300.0,
            )
            for name, sens, load in [
                ("hot", "U", 1000.0),
                ("warm", "H", 2000.0),
                ("cool", "K", 3000.0),
            ]
        ]
        profiles = {
            "U": make_profile("U", 8.0, 5.0),
            "H": make_profile("H", 2.0, 5.0),
            "K": make_profile("K", 0.5, 5.0),
            "P": make_profile("P", 1.0, 2.0),
        }
        priorities = {"P": {"hot": 0, "warm": 1, "cool": 2}}
        overrides = modified_workloads(specs, priorities)
        assert overrides["hot"]["P"] == pytest.approx(1000.0)
        assert overrides["warm"]["P"] == pytest.approx(3000.0)
        assert overrides["cool"]["P"] == pytest.approx(6000.0)


    def test_ranked_service_outside_specs_adds_nothing_and_gets_nothing(self):
        specs, _ = fig5_services(gamma1=10_000.0, gamma2=5_000.0)
        for ranks in (
            {"svc1": 0, "ghost": 1, "svc2": 2},
            {"ghost": 0, "svc2": 2, "svc1": 1},
        ):
            overrides = modified_workloads(specs, {"P": ranks})
            assert overrides == {"svc1": {"P": 10_000.0}, "svc2": {"P": 15_000.0}}

    def test_equal_ranks_each_see_the_whole_rank(self):
        specs, _ = fig5_services(gamma1=10_000.0, gamma2=5_000.0)
        overrides = modified_workloads(specs, {"P": {"svc1": 1, "svc2": 1}})
        assert overrides == {"svc1": {"P": 15_000.0}, "svc2": {"P": 15_000.0}}


class TestScaleWithPriorities:
    def test_shared_container_count_is_max_over_services(self):
        specs, profiles = fig5_services()
        allocation = scale_with_priorities(specs, profiles)
        per_service = [
            allocation.final[s].containers.get("P", 0) for s in ("svc1", "svc2")
        ]
        assert allocation.containers()["P"] == max(per_service)

    def test_no_sharing_skips_phase_two(self):
        specs = [
            ServiceSpec(
                "a", DependencyGraph("a", call("A", stages=[[call("B")]])), 100.0, 50.0
            ),
        ]
        profiles = {
            "A": make_profile("A", 1.0, 1.0),
            "B": make_profile("B", 1.0, 1.0),
        }
        allocation = scale_with_priorities(specs, profiles)
        assert allocation.priorities == {}
        assert allocation.final["a"] is allocation.initial["a"]

    def test_priority_beats_fcfs_min_target_scaling(self):
        """The motivating §2.3 result: priority needs fewer resources."""
        specs, profiles = fig5_services()
        allocation = scale_with_priorities(specs, profiles)
        priority_total = sum(allocation.containers().values())

        # FCFS: shared microservice scaled for combined workload at the
        # minimum of the independently computed targets.
        from repro.core import ErmsScaler

        fcfs_total = sum(
            ErmsScaler(use_priority=False).scale(specs, profiles).containers.values()
        )
        assert priority_total < fcfs_total


class TestAllocatorPaysForWhatItShips:
    """Counts, not time: container counts are derived where they are read."""

    @pytest.fixture()
    def conversions(self, monkeypatch):
        """(model, workload, target) of every ``best_effort_containers``
        call made on behalf of a ``ServiceTargets``."""
        from repro.core import latency_targets

        calls = []
        original = latency_targets.best_effort_containers

        def recording(model, workload, target):
            calls.append((model, workload, target))
            return original(model, workload, target)

        monkeypatch.setattr(latency_targets, "best_effort_containers", recording)
        return calls

    def test_feasibility_check_converts_nothing(self, conversions):
        from repro.core import compute_service_targets

        specs, profiles = fig5_services()
        result = compute_service_targets(specs[0], profiles)
        assert conversions == []
        assert result.containers == result.containers
        assert len(conversions) == 2  # U and P, once, on the first read

    def test_priority_scaling_converts_only_the_final_targets(self, conversions):
        from repro.core import ErmsScaler

        specs, profiles = fig5_services(gamma1=10_000.0, gamma2=5_000.0)
        allocation = ErmsScaler().scale(specs, profiles)
        final = [
            (profiles[name].model, allocation.modified_workloads[spec.name][name], target)
            for spec in specs
            for name, target in allocation.targets[spec.name].items()
        ]
        assert len(conversions) == len(final) == 4  # one per (service, microservice)
        assert all(call in final for call in conversions)
        # svc2 ranks behind svc1 at P: its phase-1 result there (its own
        # 5 000 req/min) was only ranked, never converted
        assert allocation.priorities == {"P": {"svc1": 0, "svc2": 1}}
        at_p = [load for model, load, _ in conversions if model is profiles["P"].model]
        assert sorted(at_p) == [10_000.0, 15_000.0]

    def test_fcfs_ablation_is_phase_one_alone(self, monkeypatch):
        from repro.core import Allocation, ErmsScaler, multiplexing
        from repro.core.scaling import apply_fcfs_shared_scaling

        specs, profiles = fig5_services(gamma1=10_000.0, gamma2=5_000.0)
        expected = Allocation()
        for service, targets in scale_with_priorities(specs, profiles).initial.items():
            expected.targets[service] = dict(targets.targets)
            expected.modified_workloads[service] = dict(targets.workloads)
            for name, count in targets.containers.items():
                expected.containers[name] = max(expected.containers.get(name, 0), count)
        apply_fcfs_shared_scaling(specs, profiles, expected.targets, expected)

        def unreachable(*_):
            raise AssertionError("phase 2 ran for the FCFS ablation")

        monkeypatch.setattr(multiplexing, "assign_priorities", unreachable)
        monkeypatch.setattr(multiplexing, "modified_workloads", unreachable)
        assert ErmsScaler(use_priority=False).scale(specs, profiles) == expected


def scenario_strategy():
    positive = st.floats(min_value=0.1, max_value=10.0)
    loads = st.floats(min_value=100.0, max_value=100_000.0)
    return st.builds(
        lambda a_h, ratio, a_p, r_u, r_h, r_p, g1, g2, budget: SharedScenario(
            # Theorem 1's scenario requires U more sensitive than H in the
            # a*R product (the priority assignment's premise).
            a_u=(a_h * r_h / r_u) * ratio,
            a_h=a_h,
            a_p=a_p,
            r_u=r_u,
            r_h=r_h,
            r_p=r_p,
            gamma1=g1,
            gamma2=g2,
            budget=budget,
        ),
        a_h=positive,
        ratio=st.floats(min_value=1.0, max_value=20.0),
        a_p=positive,
        r_u=positive,
        r_h=positive,
        r_p=positive,
        g1=loads,
        g2=loads,
        budget=st.floats(min_value=1.0, max_value=500.0),
    )


class TestTheorem1:
    def test_paper_like_numbers(self):
        scenario = SharedScenario(
            a_u=4.0, a_h=0.8, a_p=1.0,
            r_u=1.0, r_h=1.0, r_p=1.0,
            gamma1=40_000.0, gamma2=40_000.0, budget=293.0,
        )
        ru_s = resource_usage_fcfs_sharing(scenario)
        ru_n = resource_usage_non_sharing(scenario)
        ru_o = resource_usage_priority_bound(scenario)
        assert ru_o <= ru_n <= ru_s

    @given(scenario_strategy())
    @settings(max_examples=300)
    def test_ordering_holds(self, scenario):
        """Theorem 1: RU^o <= RU^n <= RU^s whenever a_u R_u >= a_h R_h."""
        ru_s = resource_usage_fcfs_sharing(scenario)
        ru_n = resource_usage_non_sharing(scenario)
        ru_o = resource_usage_priority_bound(scenario)
        tolerance = 1e-9 * max(ru_s, 1.0)
        assert ru_n <= ru_s + tolerance
        assert ru_o <= ru_n + tolerance

    def test_equality_when_symmetric(self):
        """RU^n == RU^s iff a_u R_u == a_h R_h (Cauchy-Schwarz tightness)."""
        scenario = SharedScenario(
            a_u=2.0, a_h=2.0, a_p=1.0,
            r_u=1.0, r_h=1.0, r_p=1.0,
            gamma1=1000.0, gamma2=2000.0, budget=100.0,
        )
        assert resource_usage_non_sharing(scenario) == pytest.approx(
            resource_usage_fcfs_sharing(scenario)
        )

    def test_invalid_scenario_rejected(self):
        with pytest.raises(ValueError):
            SharedScenario(
                a_u=-1.0, a_h=1.0, a_p=1.0, r_u=1.0, r_h=1.0, r_p=1.0,
                gamma1=1.0, gamma2=1.0, budget=1.0,
            )
        with pytest.raises(ValueError, match="budget"):
            SharedScenario(
                a_u=1.0, a_h=1.0, a_p=1.0, r_u=1.0, r_h=1.0, r_p=1.0,
                gamma1=1.0, gamma2=1.0, budget=0.0,
            )

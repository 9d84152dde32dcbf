"""Tests for repro.baselines: GrandSLAm, Rhythm, Firm."""

import numpy as np
import pytest

from repro.baselines import (
    Firm,
    GrandSLAm,
    MicroserviceStats,
    ProfileStatisticsError,
    Rhythm,
)
from repro.baselines.base import stats_from_profiles, targets_from_weights
from repro.core import (
    ErmsScaler,
    PiecewiseLatencyModel,
    ServiceSpec,
    predicted_end_to_end,
)
from repro.graphs import DependencyGraph, call
from repro.workloads import social_network

from tests.helpers import count_calls, discontinuous_profile, make_profile


def sensitive_pair(workload=20_000.0, sla=300.0):
    """U (sensitive) -> P (insensitive), the Fig. 4 scenario."""
    graph = DependencyGraph("svc", call("U", stages=[[call("P")]]))
    profiles = {
        "U": make_profile("U", slope=4.0, intercept=5.0),
        "P": make_profile("P", slope=0.5, intercept=2.0),
    }
    return [ServiceSpec("svc", graph, workload=workload, sla=sla)], profiles


class TestStats:
    def test_stats_are_positive(self):
        specs, profiles = sensitive_pair()
        stats = stats_from_profiles(specs[0], profiles)
        for value in stats.values():
            assert value.mean > 0
            assert value.variance >= 0
            assert 0.0 <= value.correlation <= 1.0

    def test_sensitive_microservice_has_higher_variance(self):
        specs, profiles = sensitive_pair()
        stats = stats_from_profiles(specs[0], profiles)
        assert stats["U"].variance > stats["P"].variance

    def test_invalid_stats_rejected(self):
        with pytest.raises(ValueError):
            MicroserviceStats(mean=-1.0, variance=0.0, correlation=0.0)

    @pytest.mark.parametrize("scheme", [GrandSLAm, Rhythm])
    def test_negative_sweep_mean_names_the_profile(self, scheme):
        """No anonymous 'mean and variance must be non-negative'."""
        specs, profiles = sensitive_pair()
        profiles["P"] = discontinuous_profile("P")
        with pytest.raises(ProfileStatisticsError) as raised:
            scheme().scale(specs, profiles)
        message = str(raised.value)
        assert "service 'svc'" in message and "profile of 'P'" in message
        assert "low 18.9 ms, high -88.3 ms" in message

    def test_targets_from_weights_proportional(self):
        specs, _ = sensitive_pair(sla=100.0)
        targets = targets_from_weights(specs[0], {"U": 3.0, "P": 1.0})
        assert targets["U"] == pytest.approx(75.0)
        assert targets["P"] == pytest.approx(25.0)

    def test_targets_zero_weights_fall_back_uniform(self):
        specs, _ = sensitive_pair(sla=100.0)
        targets = targets_from_weights(specs[0], {"U": 0.0, "P": 0.0})
        assert targets["U"] == pytest.approx(50.0)

    def test_targets_respect_sla_along_paths(self):
        app = social_network()
        profiles = app.analytic_profiles()
        spec = app.services[0]
        stats = stats_from_profiles(spec, profiles)
        targets = targets_from_weights(
            spec, {n: s.mean for n, s in stats.items()}
        )
        for path in spec.graph.critical_paths():
            assert sum(targets[name] for name in path) <= spec.sla + 1e-9


class TestStatsShape:
    """Counts, not timings: the sweep is one array program per service."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {}
        count_calls(monkeypatch, DependencyGraph, "end_to_end_latency", counts)
        count_calls(monkeypatch, DependencyGraph, "end_to_end_series", counts)
        count_calls(monkeypatch, PiecewiseLatencyModel, "latency", counts)
        count_calls(monkeypatch, np, "corrcoef", counts)
        return counts

    def test_no_scalar_fold_model_call_or_corrcoef(self, calls):
        app = social_network()
        stats = stats_from_profiles(app.services[0], app.analytic_profiles())
        assert len(stats) > 5
        assert calls == {"end_to_end_series": 1}

    def test_scale_folds_the_sweep_once_per_service(self, calls):
        app = social_network()
        Rhythm().scale(app.services, app.analytic_profiles())
        assert calls["end_to_end_series"] == len(app.services) > 1
        assert "corrcoef" not in calls and "latency" not in calls


class TestGrandSLAm:
    def test_allocation_meets_sla_analytically(self):
        specs, profiles = sensitive_pair()
        allocation = GrandSLAm().scale(specs, profiles)
        e2e = predicted_end_to_end(specs[0], profiles, allocation.containers)
        assert e2e <= specs[0].sla + 1e-9

    def test_uses_more_containers_than_erms_under_load(self):
        """The Fig. 4b result: fixed mean-based splits waste resources."""
        specs, profiles = sensitive_pair(workload=60_000.0, sla=250.0)
        grandslam = GrandSLAm().scale(specs, profiles).total_containers()
        erms = ErmsScaler().scale(specs, profiles).total_containers()
        assert erms <= grandslam

    def test_priority_variant_sets_ranks(self):
        app = social_network()
        profiles = app.analytic_profiles()
        specs = app.with_workloads({s.name: 10_000.0 for s in app.services})
        allocation = GrandSLAm(use_priority=True).scale(specs, profiles)
        assert allocation.priorities
        assert GrandSLAm(use_priority=True).name == "grandslam+priority"

    def test_plain_variant_has_no_priorities(self):
        specs, profiles = sensitive_pair()
        allocation = GrandSLAm().scale(specs, profiles)
        assert allocation.priorities == {}


class TestRhythm:
    def test_allocation_meets_sla_analytically(self):
        specs, profiles = sensitive_pair()
        allocation = Rhythm().scale(specs, profiles)
        e2e = predicted_end_to_end(specs[0], profiles, allocation.containers)
        assert e2e <= specs[0].sla + 1e-9

    def test_every_microservice_allocated(self):
        app = social_network()
        profiles = app.analytic_profiles()
        specs = app.with_workloads({s.name: 10_000.0 for s in app.services})
        allocation = Rhythm().scale(specs, profiles)
        assert set(allocation.containers) == set(app.microservices())

    def test_differs_from_grandslam(self):
        """Variance/correlation weighting changes the split."""
        specs, profiles = sensitive_pair(workload=60_000.0)
        rhythm_targets = Rhythm().scale(specs, profiles).targets["svc"]
        grandslam_targets = GrandSLAm().scale(specs, profiles).targets["svc"]
        assert rhythm_targets["U"] != pytest.approx(grandslam_targets["U"])


class TestFirm:
    def test_identifies_sensitive_microservice_as_critical(self):
        specs, profiles = sensitive_pair()
        firm = Firm()
        observed = specs[0].microservice_workloads()
        critical = firm._critical_microservices(specs[0], profiles, observed)
        assert critical == {"U"}

    def test_tunes_until_sla_met_when_possible(self):
        specs, profiles = sensitive_pair(workload=30_000.0, sla=300.0)
        allocation = Firm().scale(specs, profiles)
        e2e = predicted_end_to_end(specs[0], profiles, allocation.containers)
        assert e2e <= specs[0].sla * 1.05

    def test_noncritical_keep_baseline_allocation(self):
        specs, profiles = sensitive_pair(workload=30_000.0, sla=300.0)
        firm = Firm()
        observed = specs[0].microservice_workloads()
        baseline = firm._baseline_allocation(specs[0], profiles, observed)
        allocation = firm.scale(specs, profiles)
        assert allocation.containers["P"] == baseline["P"]

    def test_iteration_budget_caps_work(self):
        # An SLA below the latency floor can never be met; Firm must stop.
        specs, profiles = sensitive_pair(workload=50_000.0, sla=8.0)
        allocation = Firm(max_iterations=10).scale(specs, profiles)
        assert allocation.total_containers() > 0  # terminated, best effort

    def test_scales_social_network(self):
        app = social_network()
        profiles = app.analytic_profiles()
        specs = app.with_workloads({s.name: 20_000.0 for s in app.services})
        allocation = Firm().scale(specs, profiles)
        assert set(allocation.containers) == set(app.microservices())


class TestSchemeComparison:
    def test_erms_is_most_efficient_at_high_load(self):
        """The headline Fig. 11 ordering on the Social Network app."""
        app = social_network()
        profiles = app.analytic_profiles()
        specs = app.with_workloads(
            {s.name: 60_000.0 for s in app.services}, sla=200.0
        )
        erms = ErmsScaler().scale(specs, profiles).total_containers()
        others = [
            scheme.scale(specs, profiles).total_containers()
            for scheme in (GrandSLAm(), Rhythm(), Firm())
        ]
        assert all(erms <= other for other in others)

    def test_savings_grow_with_workload(self):
        """Fig. 11b: the gap between Erms and baselines widens with load."""
        app = social_network()
        profiles = app.analytic_profiles()

        def gap(load):
            specs = app.with_workloads(
                {s.name: load for s in app.services}, sla=200.0
            )
            erms = ErmsScaler().scale(specs, profiles).total_containers()
            grandslam = GrandSLAm().scale(specs, profiles).total_containers()
            return grandslam - erms

        assert gap(60_000.0) >= gap(5_000.0)

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
from repro.baselines.base import (
    CHUNK_ROWS,
    PopulationSweep,
    ServiceStatistics,
    stats_from_profiles,
    targets_from_weights,
)
from repro.core import (
    ErmsScaler,
    PiecewiseLatencyModel,
    ServiceSpec,
    predicted_end_to_end,
)
from repro.core.model import Allocation, best_effort_containers
from repro.core.scaling import apply_fcfs_shared_scaling
from repro.graphs import DependencyGraph, call
from repro.workloads import generate_taobao, social_network

from tests.helpers import count_calls, discontinuous_profile, make_profile


def sensitive_pair(workload=20_000.0, sla=300.0):
    """U (sensitive) -> P (insensitive), the Fig. 4 scenario."""
    graph = DependencyGraph("svc", call("U", stages=[[call("P")]]))
    profiles = {
        "U": make_profile("U", slope=4.0, intercept=5.0),
        "P": make_profile("P", slope=0.5, intercept=2.0),
    }
    return [ServiceSpec("svc", graph, workload=workload, sla=sla)], profiles


def reference_containers(specs, profiles, rule, sweep_points=40):
    """GrandSLAm/Rhythm container map by a straightforward scalar loop.

    Every model evaluated once per sweep point, the graph folded once per
    sweep point, ``np.corrcoef`` per microservice, then the proportional
    SLA split, best-effort containers max-merged over services and FCFS
    min-target scaling at shared microservices.  ``rule`` is
    ``"grandslam"`` (weight = mean) or ``"rhythm"`` (mean × variance ×
    |correlation|, normalised to its maximum and floored at 0.1).
    """
    fractions = np.linspace(0.05, 1.3, sweep_points)
    allocation = Allocation()
    for spec in specs:
        graph = spec.graph
        names = graph.microservices()
        series = {
            name: np.array([
                profiles[name].model.latency(load)
                for load in fractions * profiles[name].model.cutoff
            ])
            for name in names
        }
        e2e = np.array([
            graph.end_to_end_latency(
                {name: float(series[name][index]) for name in names}
            )
            for index in range(sweep_points)
        ])
        weights = {}
        for name in names:
            values = series[name]
            weights[name] = float(np.mean(values))
            if rule == "rhythm":
                correlated = np.std(values) > 0 and np.std(e2e) > 0
                weights[name] *= float(np.var(values)) * (
                    abs(float(np.corrcoef(values, e2e)[0, 1])) if correlated else 0.0
                )
        if rule == "rhythm":
            top = max(weights.values())
            weights = {
                name: max(value / top, 0.1) if top > 0 else 1.0
                for name, value in weights.items()
            }
        fold = graph.end_to_end_latency(weights)
        allocation.targets[spec.name] = targets = {
            name: spec.sla * weights[name] / fold for name in names
        }
        workloads = spec.microservice_workloads()
        for name in names:
            allocation.containers[name] = max(
                allocation.containers.get(name, 0),
                best_effort_containers(
                    profiles[name].model, workloads[name], targets[name]
                ),
            )
    apply_fcfs_shared_scaling(specs, profiles, allocation.targets, allocation)
    return allocation.containers


class TestReferenceLoop:
    @pytest.mark.parametrize("scheme", [GrandSLAm, Rhythm])
    def test_scheme_allocates_like_the_scalar_loop(self, scheme):
        # ≈ 860 (service, microservice) pairs over a shared pool of 250
        population = generate_taobao(
            n_services=20, mean_graph_size=40, shared_pool=250, seed=0
        )
        specs, profiles = population.services, population.profiles
        assert scheme().scale(specs, profiles).containers == (
            reference_containers(specs, profiles, scheme.name)
        )


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
    """Counts, not timings: one array sweep per microservice, and one fold
    per service whose correlations a rule reads."""

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

    def test_grandslam_folds_nothing(self, calls):
        """Its rule reads only the means: no service is folded."""
        app = social_network()
        GrandSLAm().scale(app.services, app.analytic_profiles())
        assert calls.get("end_to_end_series", 0) == 0
        assert "corrcoef" not in calls and "latency" not in calls


class TestPopulationSweep:
    def test_every_service_reads_its_own_sweep_bit_for_bit(self):
        """A row's statistics do not depend on the chunk it was swept in."""
        population = generate_taobao(
            n_services=20, mean_graph_size=40, shared_pool=250, seed=0
        )
        specs, profiles = population.services, population.profiles
        sweep = PopulationSweep(specs, profiles, 40)
        assert len(sweep.row) > 2 * CHUNK_ROWS
        for spec in specs:
            stats = ServiceStatistics(sweep, spec)
            alone = stats_from_profiles(spec, profiles)
            assert list(alone) == list(stats.names)
            assert stats.means.tolist() == [s.mean for s in alone.values()]
            assert stats.variances.tolist() == [s.variance for s in alone.values()]
            assert stats.correlations.tolist() == [
                s.correlation for s in alone.values()
            ]


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

"""Tests for repro.workloads: arrival processes, DSB apps, Alibaba gen."""

import hashlib

import numpy as np
import pytest

from repro.core import compute_service_targets, scale_with_priorities
from repro.graphs import validate_graph
from repro.workloads import (
    DiurnalRate,
    StaticRate,
    SteppedRate,
    TraceRate,
    generate_taobao,
    hotel_reservation,
    media_service,
    sharing_counts,
    social_network,
)
from tests.pinned import expected

#: ``generate_taobao(n_services=40)`` populations pinned by
#: ``taobao_digest`` in ``tests/fixtures/workloads.json``, by seed.
CASES = {"taobao_seed0": 0, "taobao_seed1": 1, "taobao_seed2": 2}


def taobao_digest(population):
    """sha256 over each service's name, call-site names, workload and SLA,
    then the profile names."""
    pinned = hashlib.sha256()
    for spec in population.services:
        sites = [node.microservice for node in spec.graph.nodes()]
        pinned.update("\n".join(
            [spec.name, *sites, spec.workload.hex(), spec.sla.hex()]
        ).encode())
    pinned.update("\n".join(population.profiles).encode())
    return pinned.hexdigest()


def record(case):
    return taobao_digest(generate_taobao(n_services=40, seed=CASES[case]))


class TestArrivalProcesses:
    def test_static_rate(self):
        rate = StaticRate(5000.0)
        assert rate(0.0) == 5000.0
        assert rate(100.0) == 5000.0

    def test_static_negative_rejected(self):
        with pytest.raises(ValueError, match="rate"):
            StaticRate(-1.0)

    def test_stepped_rate(self):
        rate = SteppedRate(((0.0, 100.0), (10.0, 500.0), (20.0, 50.0)))
        assert rate(5.0) == 100.0
        assert rate(10.0) == 500.0
        assert rate(25.0) == 50.0

    def test_stepped_requires_sorted_steps(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            SteppedRate(((10.0, 1.0), (0.0, 2.0)))

    def test_stepped_empty_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            SteppedRate(())

    def test_diurnal_rate_oscillates(self):
        rate = DiurnalRate(base=1000.0, amplitude=0.5, period_min=1440.0, seed=1)
        trough = rate(0.0)  # phase puts the trough at t=0
        peak = rate(720.0)
        assert peak > 1.5 * trough
        assert all(rate(m) >= 0.0 for m in range(0, 1440, 60))

    def test_diurnal_deterministic(self):
        a = DiurnalRate(base=1000.0, seed=3)
        b = DiurnalRate(base=1000.0, seed=3)
        assert a(123.0) == b(123.0)

    def test_diurnal_validation(self):
        with pytest.raises(ValueError, match="base"):
            DiurnalRate(base=0.0)
        with pytest.raises(ValueError, match="amplitude"):
            DiurnalRate(base=1.0, amplitude=2.0)

    def test_trace_rate_replays_and_clamps(self):
        rate = TraceRate.from_samples([10.0, 20.0, 30.0])
        assert rate(0.5) == 10.0
        assert rate(1.0) == 20.0
        assert rate(99.0) == 30.0  # held at the last sample

    def test_trace_rate_validation(self):
        with pytest.raises(ValueError, match="non-empty"):
            TraceRate(())
        with pytest.raises(ValueError, match="non-negative"):
            TraceRate((1.0, -2.0))


class TestDeathStarBench:
    def test_paper_microservice_counts(self):
        """Paper §6.1: 36, 38, and 15 unique microservices."""
        assert len(social_network().microservices()) == 36
        assert len(media_service().microservices()) == 38
        assert len(hotel_reservation().microservices()) == 15

    def test_paper_service_counts(self):
        """Paper §6.1: 3, 1, and 4 services."""
        assert len(social_network().services) == 3
        assert len(media_service().services) == 1
        assert len(hotel_reservation().services) == 4

    def test_paper_shared_counts(self):
        """Paper §6.1: Social Network and Hotel have 3 shared microservices."""
        assert len(social_network().shared_stateless()) == 3
        assert len(hotel_reservation().shared_stateless()) == 3
        assert media_service().shared_microservices() == []

    def test_graphs_are_valid(self):
        for app in (social_network(), media_service(), hotel_reservation()):
            for spec in app.services:
                validate_graph(spec.graph)

    def test_every_microservice_has_simulation_params(self):
        for app in (social_network(), media_service(), hotel_reservation()):
            assert set(app.simulated) == set(app.microservices())

    def test_analytic_profiles_cover_all(self):
        app = social_network()
        profiles = app.analytic_profiles()
        assert set(profiles) == set(app.microservices())
        for profile in profiles.values():
            assert profile.model.low.slope > 0
            assert profile.model.high.slope > profile.model.low.slope

    def test_interference_scales_profiles(self):
        app = hotel_reservation()
        calm = app.analytic_profiles(1.0)
        busy = app.analytic_profiles(2.0)
        name = "search-service"
        assert busy[name].model.high.slope > calm[name].model.high.slope
        assert busy[name].model.cutoff < calm[name].model.cutoff

    def test_invalid_interference_rejected(self):
        with pytest.raises(ValueError, match="interference_multiplier"):
            social_network().analytic_profiles(0.5)

    def test_with_workloads(self):
        app = hotel_reservation()
        specs = app.with_workloads({"search-hotel": 1234.0}, sla=99.0)
        by_name = {s.name: s for s in specs}
        assert by_name["search-hotel"].workload == 1234.0
        assert by_name["login-hotel"].sla == 99.0

    def test_social_network_scales_end_to_end(self):
        """The whole app flows through the Erms core without errors."""
        app = social_network()
        profiles = app.analytic_profiles()
        specs = app.with_workloads(
            {s.name: 5000.0 for s in app.services}, sla=250.0
        )
        allocation = scale_with_priorities(specs, profiles)
        assert set(allocation.priorities)  # shared microservices got ranks
        containers = allocation.containers()
        assert set(containers) == set(app.microservices())

    def test_user_timeline_more_sensitive_than_post_storage(self):
        """The Fig. 4 premise holds in our ground truth."""
        profiles = social_network().analytic_profiles()
        ut = profiles["user-timeline-service"].model.high
        ps = profiles["post-storage-service"].model.high
        assert ut.slope > ps.slope


class TestAlibabaGenerators:
    def test_sharing_cdf_matches_paper(self):
        """Fig. 2: ~40% of microservices shared by >100 of 1000 services."""
        counts = sharing_counts(seed=0)
        fraction = float(np.mean(counts > 100))
        assert 0.3 <= fraction <= 0.5

    def test_sharing_counts_all_positive(self):
        counts = sharing_counts(n_microservices=500, n_services=100, seed=1)
        assert counts.min() >= 1
        assert counts.max() <= 100

    def test_sharing_validation(self):
        with pytest.raises(ValueError):
            sharing_counts(n_microservices=0)
        with pytest.raises(ValueError, match="hot_fraction"):
            sharing_counts(hot_fraction=1.5)

    def test_taobao_scale_parameters(self):
        workload = generate_taobao(n_services=60, seed=2)
        assert len(workload.services) == 60
        sizes = [s.graph.node_count() for s in workload.services]
        assert 30 <= np.mean(sizes) <= 70  # ~50 microservices per service
        assert len(workload.shared_microservices()) > 50

    def test_taobao_graphs_valid_and_scalable(self):
        workload = generate_taobao(n_services=10, seed=3)
        for spec in workload.services:
            validate_graph(spec.graph)
            result = compute_service_targets(spec, workload.profiles)
            assert all(count >= 1 for count in result.containers.values())

    def test_taobao_profiles_cover_all_microservices(self):
        workload = generate_taobao(n_services=10, seed=4)
        for spec in workload.services:
            for name in spec.graph.microservices():
                assert name in workload.profiles

    def test_taobao_deterministic(self):
        a = generate_taobao(n_services=5, seed=7)
        b = generate_taobao(n_services=5, seed=7)
        assert [s.workload for s in a.services] == [s.workload for s in b.services]
        assert a.microservice_count() == b.microservice_count()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_taobao_names_are_plain_str_on_the_same_rng_stream(self, seed):
        """Shared picks used to be ``np.str_``; the digests (call-site names,
        workloads, SLAs, profile names) are from before they became ``str``."""
        population = generate_taobao(n_services=40, seed=seed)
        for spec in population.services:
            assert all(type(node.microservice) is str for node in spec.graph.nodes())
        assert all(type(name) is str for name in population.profiles)
        assert taobao_digest(population) == expected(__name__)[f"taobao_seed{seed}"]

    def test_taobao_with_rates(self):
        workload = generate_taobao(n_services=3, seed=5, with_rates=True)
        assert set(workload.rates) == {s.name for s in workload.services}
        rate = workload.rates[workload.services[0].name]
        assert rate(0.0) >= 0.0

    def test_taobao_validation(self):
        with pytest.raises(ValueError):
            generate_taobao(n_services=0)
        with pytest.raises(ValueError):
            generate_taobao(mean_graph_size=1)

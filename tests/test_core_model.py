"""Tests for repro.core.model: latency segments, piecewise models, specs."""

import pytest

from repro.core import (
    Allocation,
    ContainerSpec,
    InfeasibleSLAError,
    LatencySegment,
    MicroserviceProfile,
    PiecewiseLatencyModel,
    ServiceSpec,
    containers_for_target,
)

from tests.helpers import fig1_graph, make_profile


class TestLatencySegment:
    def test_latency_is_affine(self):
        seg = LatencySegment(slope=2.0, intercept=3.0)
        assert seg.latency(0.0) == pytest.approx(3.0)
        assert seg.latency(10.0) == pytest.approx(23.0)

    def test_nonpositive_slope_rejected(self):
        for bad in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="slope"):
                LatencySegment(slope=bad, intercept=1.0)
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="intercept"):
                LatencySegment(slope=1.0, intercept=bad)

    def test_negative_intercept_allowed(self):
        # The steep post-cutoff segment extrapolates below zero at low
        # loads; Eq. 5 stays well-defined for negative intercepts.
        seg = LatencySegment(slope=1.0, intercept=-5.0)
        assert seg.latency(10.0) == pytest.approx(5.0)


class TestPiecewiseLatencyModel:
    def _model(self):
        return PiecewiseLatencyModel(
            low=LatencySegment(0.5, 2.0),
            high=LatencySegment(2.0, 2.0),
            cutoff=10.0,
        )

    def test_low_segment_below_cutoff(self):
        model = self._model()
        assert model.latency(5.0) == pytest.approx(0.5 * 5 + 2)

    def test_high_segment_above_cutoff(self):
        model = self._model()
        assert model.latency(20.0) == pytest.approx(2.0 * 20 + 2)

    def test_latency_at_cutoff_uses_high_segment(self):
        model = self._model()
        assert model.latency_at_cutoff == pytest.approx(2.0 * 10 + 2)

    def test_nonpositive_cutoff_rejected(self):
        for bad in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="cutoff"):
                PiecewiseLatencyModel(
                    low=LatencySegment(1.0, 0.0),
                    high=LatencySegment(2.0, 0.0),
                    cutoff=bad,
                )
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="max_load"):
                PiecewiseLatencyModel(
                    low=LatencySegment(1.0, 0.0),
                    high=LatencySegment(2.0, 0.0),
                    cutoff=10.0,
                    max_load=bad,
                )


class TestContainerSpec:
    def test_dominant_share_picks_max(self):
        spec = ContainerSpec(cpu=0.1, memory_mb=200.0)
        # CPU share 0.1/32, memory share 200/64000 -> CPU dominates
        share = spec.dominant_share(32.0, 64_000.0)
        assert share == pytest.approx(0.1 / 32.0)

    def test_memory_dominates_for_heavy_memory(self):
        spec = ContainerSpec(cpu=0.1, memory_mb=8_000.0)
        share = spec.dominant_share(32.0, 64_000.0)
        assert share == pytest.approx(8_000.0 / 64_000.0)

    @pytest.mark.parametrize("field", ["cpu", "memory_mb"])
    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
    def test_size_must_be_positive_and_finite(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be positive and finite"):
            ContainerSpec(**{field: value})


class TestContainersForTarget:
    def test_exact_division(self):
        seg = LatencySegment(slope=1.0, intercept=0.0)
        # latency = workload / n <= 10 with workload 100 -> n >= 10
        assert containers_for_target(seg, 100.0, 10.0) == 10

    def test_rounds_up(self):
        seg = LatencySegment(slope=1.0, intercept=0.0)
        assert containers_for_target(seg, 101.0, 10.0) == 11

    def test_minimum_one_container(self):
        seg = LatencySegment(slope=1.0, intercept=0.0)
        assert containers_for_target(seg, 1.0, 1000.0) == 1

    def test_zero_workload(self):
        seg = LatencySegment(slope=1.0, intercept=0.0)
        assert containers_for_target(seg, 0.0, 1.0) == 1

    def test_target_below_intercept_infeasible(self):
        seg = LatencySegment(slope=1.0, intercept=5.0)
        with pytest.raises(InfeasibleSLAError):
            containers_for_target(seg, 10.0, 4.0)

    def test_result_meets_target(self):
        seg = LatencySegment(slope=1.7, intercept=2.3)
        workload, target = 12_345.0, 9.0
        n = containers_for_target(seg, workload, target)
        assert seg.latency(workload / n) <= target
        if n > 1:
            assert seg.latency(workload / (n - 1)) > target


class TestServiceSpec:
    def test_microservice_workloads(self):
        spec = ServiceSpec("svc", fig1_graph(), workload=600.0, sla=100.0)
        assert spec.microservice_workloads() == {
            "T": 600.0,
            "Url": 600.0,
            "U": 600.0,
            "C": 600.0,
        }

    def test_negative_workload_rejected(self):
        for bad in (-1.0, float("inf"), float("nan")):
            with pytest.raises(ValueError, match=f"workload .* got {bad}"):
                ServiceSpec("svc", fig1_graph(), workload=bad, sla=100.0)

    def test_nonpositive_sla_rejected(self):
        for bad in (0.0, float("inf"), float("nan")):
            with pytest.raises(ValueError, match=f"sla .* got {bad}"):
                ServiceSpec("svc", fig1_graph(), workload=1.0, sla=bad)


class TestAllocation:
    def test_totals(self):
        allocation = Allocation(containers={"A": 3, "B": 2})
        assert allocation.total_containers() == 5
        profiles = {
            "A": make_profile("A", 1.0, 1.0, resource=2.0),
            "B": make_profile("B", 1.0, 1.0, resource=0.5),
        }
        assert allocation.total_resource_usage(profiles) == pytest.approx(7.0)

    def test_profile_rejects_nonpositive_resource(self):
        with pytest.raises(ValueError, match="resource_demand"):
            MicroserviceProfile(
                name="A",
                model=PiecewiseLatencyModel(
                    low=LatencySegment(1.0, 0.0),
                    high=LatencySegment(2.0, 0.0),
                    cutoff=1.0,
                ),
                resource_demand=0.0,
            )

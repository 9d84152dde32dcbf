"""Resilience layer: chaos schedules, policies, and graceful degradation."""

import numpy as np
import pytest

from repro.core import ServiceSpec
from repro.graphs import DependencyGraph, call
from repro.resilience import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    AdmissionPolicy,
    ChaosSchedule,
    CircuitBreaker,
    CircuitBreakerPolicy,
    CrashEvent,
    ErrorWindow,
    LatencySpike,
    ResiliencePolicies,
    RetryPolicy,
    SpikeMultiplier,
    TimeoutPolicy,
)
from repro.resilience.policies import HALF_OPEN_PROBES, SUCCESS_TO_CLOSE
from repro.simulator import (
    ClusterSimulator,
    SimulatedMicroservice,
    SimulationConfig,
)
from repro.telemetry import TelemetryConfig, TelemetrySink
from repro.workloads import DiurnalRate

NAN, INF = float("nan"), float("inf")


def make_sim(
    chaos=None,
    resilience=None,
    telemetry=None,
    rate=6_000.0,
    duration=0.5,
    seed=7,
    base_ms=2.0,
    containers=2,
    threads=4,
):
    spec = ServiceSpec("svc", DependencyGraph("svc", call("B")), 0.0, 1e9)
    return ClusterSimulator(
        [spec],
        {"B": SimulatedMicroservice("B", base_service_ms=base_ms, threads=threads)},
        containers={"B": containers},
        rates={"svc": rate},
        config=SimulationConfig(duration_min=duration, warmup_min=0.0, seed=seed),
        telemetry=telemetry,
        chaos=chaos,
        resilience=resilience,
    )


class TestChaosSchedule:
    def test_event_validation(self):
        with pytest.raises(ValueError, match="at_min"):
            CrashEvent(at_min=-1.0, microservice="B")
        with pytest.raises(ValueError, match="end_min"):
            ErrorWindow("B", start_min=1.0, end_min=1.0, error_rate=0.5)
        with pytest.raises(ValueError, match="error_rate"):
            ErrorWindow("B", start_min=0.0, end_min=1.0, error_rate=1.5)
        with pytest.raises(ValueError, match="multiplier"):
            LatencySpike("B", start_min=0.0, end_min=1.0, multiplier=0.0)
        for bad in (0.0, float("inf"), float("nan")):
            with pytest.raises(ValueError, match=f"duration_min .* got {bad}"):
                ChaosSchedule.random(["a"], duration_min=bad)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_crash_rejects_non_finite_fields(self, bad):
        with pytest.raises(ValueError, match="at_min"):
            CrashEvent(bad, "B")
        with pytest.raises(ValueError, match="restart_after_ms"):
            CrashEvent(0.1, "B", restart_after_ms=bad)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_error_window_rejects_non_finite_fields(self, bad):
        with pytest.raises(ValueError, match="start_min"):
            ErrorWindow("B", bad, 1.0, 0.5)
        with pytest.raises(ValueError, match="end_min"):
            ErrorWindow("B", 0.0, bad, 0.5)
        with pytest.raises(ValueError, match="error_rate"):
            ErrorWindow("B", 0.0, 1.0, bad)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_latency_spike_rejects_non_finite_fields(self, bad):
        with pytest.raises(ValueError, match="start_min"):
            LatencySpike("B", bad, 1.0, 2.0)
        with pytest.raises(ValueError, match="end_min"):
            LatencySpike("B", 0.0, bad, 2.0)
        with pytest.raises(ValueError, match="multiplier"):
            LatencySpike("B", 0.0, 1.0, bad)

    def test_random_is_deterministic(self):
        first = ChaosSchedule.random(["a", "b", "c"], duration_min=2.0, seed=9)
        second = ChaosSchedule.random(["a", "b", "c"], duration_min=2.0, seed=9)
        assert first == second
        assert first != ChaosSchedule.random(
            ["a", "b", "c"], duration_min=2.0, seed=10
        )

    def test_an_error_window_makes_a_schedule_non_empty(self):
        schedule = ChaosSchedule(
            error_windows=[ErrorWindow("B", 1.0, 2.0, 0.25)]
        )
        assert not schedule.is_empty()
        assert ChaosSchedule().is_empty()

    def test_unknown_microservice_rejected_at_run(self):
        chaos = ChaosSchedule(crashes=[CrashEvent(0.1, "nope")])
        sim = make_sim(chaos=chaos)
        with pytest.raises(ValueError, match="unknown microservices"):
            sim.run()


class TestSpikeMultiplier:
    def test_composes_base_and_windows(self):
        spike = SpikeMultiplier(2.0, [(1.0, 2.0, 3.0)])
        assert spike(0.5) == 2.0
        assert spike(1.5) == 6.0
        callable_base = SpikeMultiplier(lambda m: 1.0 + m, [(1.0, 2.0, 4.0)])
        assert callable_base(0.0) == 1.0
        assert callable_base(1.0) == 8.0

    def test_spike_window_raises_latency(self):
        calm = make_sim(duration=1.0).run()
        spiked = make_sim(
            duration=1.0,
            chaos=ChaosSchedule(
                latency_spikes=[LatencySpike("B", 0.2, 0.8, 8.0)]
            ),
        ).run()
        assert spiked.tail_latency("svc") > calm.tail_latency("svc") * 2


class TestPolicyBundles:
    def test_equal_bundles_hash_equal_whatever_the_mapping_order(self):
        def bundle(overrides, ranks):
            return ResiliencePolicies(
                retry=RetryPolicy(),
                timeout=TimeoutPolicy(call_timeout_ms=50.0, overrides=overrides),
                breaker=CircuitBreakerPolicy(),
                admission=AdmissionPolicy(ranks=ranks),
            )

        first = bundle({"a": 5.0, "b": 7.0}, {"gold": 0, "be": 1})
        second = bundle({"b": 7.0, "a": 5.0}, {"be": 1, "gold": 0})
        assert first == second
        assert hash(first) == hash(second)
        assert len({first, second, ResiliencePolicies.default()}) == 2
        assert first.timeout.overrides == (("a", 5.0), ("b", 7.0))
        assert first.admission.ranks == (("be", 1), ("gold", 0))

    def test_lookups_read_the_mappings_they_were_given(self):
        timeout = TimeoutPolicy(call_timeout_ms=50.0, overrides={"a": 5.0})
        assert (timeout.timeout_for("a"), timeout.timeout_for("z")) == (5.0, 50.0)
        with pytest.raises(ValueError, match="override for 'b' must be positive"):
            TimeoutPolicy(overrides={"a": 1.0, "b": 0.0})

    #: (constructor, settings, the field its error names)
    NON_FINITE = [
        (RetryPolicy, {"backoff_base_ms": NAN}, "backoff_base_ms"),
        (RetryPolicy, {"backoff_base_ms": INF}, "backoff_base_ms"),
        (TimeoutPolicy, {"call_timeout_ms": NAN}, "call_timeout_ms"),
        (TimeoutPolicy, {"call_timeout_ms": INF}, "call_timeout_ms"),
        (TimeoutPolicy, {"overrides": {"a": NAN}}, "override for 'a'"),
        (CircuitBreakerPolicy, {"cooldown_ms": NAN}, "cooldown_ms"),
        (AdmissionPolicy, {"max_queue_per_thread": NAN}, "max_queue_per_thread"),
        (DiurnalRate, {"base": NAN}, "base"),
        (DiurnalRate, {"base": INF}, "base"),
        (DiurnalRate, {"base": 1.0, "period_min": 0.0}, "period_min"),
        (DiurnalRate, {"base": 1.0, "period_min": NAN}, "period_min"),
        (DiurnalRate, {"base": 1.0, "noise_sigma": NAN}, "noise_sigma"),
    ]

    @pytest.mark.parametrize(
        "build, settings, field",
        NON_FINITE,
        ids=[f"{build.__name__}-{settings}" for build, settings, _ in NON_FINITE],
    )
    def test_non_finite_settings_are_rejected_by_name(self, build, settings, field):
        with pytest.raises(ValueError, match=f"{field} must be .*finite, got"):
            build(**settings)


class TestCircuitBreakerUnit:
    def test_full_lifecycle(self):
        policy = CircuitBreakerPolicy(failure_threshold=3, cooldown_ms=100.0)
        breaker = CircuitBreaker(policy)
        assert breaker.state == BREAKER_CLOSED
        for _ in range(2):
            assert breaker.record_failure(0.0) is None
        assert breaker.record_failure(0.0) == BREAKER_OPEN
        assert breaker.allow(50.0) == (False, None)  # cooling down
        admitted, transition = breaker.allow(150.0)
        assert admitted and transition == BREAKER_HALF_OPEN
        for _ in range(HALF_OPEN_PROBES - 1):
            assert breaker.allow(151.0) == (True, None)  # further probe slots
        assert breaker.allow(152.0) == (False, None)  # probes exhausted
        for _ in range(SUCCESS_TO_CLOSE - 1):
            assert breaker.record_success(160.0) is None
        assert breaker.record_success(161.0) == BREAKER_CLOSED

    def test_probe_failure_reopens(self):
        policy = CircuitBreakerPolicy(failure_threshold=1, cooldown_ms=100.0)
        breaker = CircuitBreaker(policy)
        assert breaker.record_failure(0.0) == BREAKER_OPEN
        admitted, _ = breaker.allow(200.0)
        assert admitted
        assert breaker.record_failure(210.0) == BREAKER_OPEN
        assert breaker.opens == 2
        assert breaker.allow(250.0) == (False, None)

    def test_success_resets_consecutive_failures(self):
        breaker = CircuitBreaker(CircuitBreakerPolicy(failure_threshold=2))
        breaker.record_failure(0.0)
        breaker.record_success(1.0)
        assert breaker.record_failure(2.0) is None  # streak was broken
        assert breaker.state == BREAKER_CLOSED


class TestErrorsAndRetries:
    OUTAGE = ChaosSchedule(error_windows=[ErrorWindow("B", 0.0, 10.0, 1.0)])
    FLAKY = ChaosSchedule(error_windows=[ErrorWindow("B", 0.0, 10.0, 0.3)])

    def test_errors_fail_requests_without_policies(self):
        result = make_sim(chaos=self.OUTAGE).run()
        assert result.completed.get("svc", 0) == 0
        assert result.failed_requests["svc"] == result.generated["svc"]
        assert result.resilience["errors_injected"] == result.generated["svc"]

    def test_retries_recover_partial_errors(self):
        unprotected = make_sim(chaos=self.FLAKY).run()
        protected = make_sim(
            chaos=self.FLAKY,
            resilience=ResiliencePolicies(retry=RetryPolicy(max_attempts=4)),
        ).run()
        assert unprotected.failed_requests["svc"] > 0
        # 0.3^4 per request vs 0.3: retries recover the overwhelming bulk.
        assert (
            protected.failed_requests.get("svc", 0)
            < unprotected.failed_requests["svc"] / 10
        )
        assert protected.resilience["retries"] > 0

    def test_request_errors_reach_telemetry(self):
        sink = TelemetrySink(
            config=TelemetryConfig(window_min=0.25, error_budget=0.01)
        )
        make_sim(chaos=self.FLAKY, telemetry=sink).run()
        counters = {
            name: c.value for name, c in sink.registry.counters.items()
        }
        assert counters.get("chaos_errors", 0) > 0
        assert counters.get("request_errors.svc.error", 0) > 0
        # 30% error rate blows any 1% error budget in every window.
        assert sink.monitor.error_alerts
        alert = sink.monitor.error_alerts[0]
        assert alert.service == "svc"
        assert alert.error_rate > 0.01


class TestTimeouts:
    def test_timeout_abandons_stragglers(self):
        # 2 ms timeout against an exponential 10 ms service: only the
        # ~18 % of draws under 2 ms complete; the rest are abandoned and,
        # with no retry policy, fail.
        result = make_sim(
            base_ms=10.0,
            rate=3_000.0,
            resilience=ResiliencePolicies(
                timeout=TimeoutPolicy(call_timeout_ms=2.0)
            ),
        ).run()
        stats = result.resilience
        generated = result.generated["svc"]
        completed = result.completed.get("svc", 0)
        assert 0 < completed < 0.3 * generated
        assert stats["timeouts"] == generated - completed
        assert result.failed_requests["svc"] == generated - completed
        # The abandoned work still ran to completion server-side.
        assert stats["late_completions"] > 0
        # Every surviving latency sample respects the client's deadline.
        assert result.latencies("svc", include_warmup=True).max() <= 2.0

    def test_generous_timeout_is_invisible(self):
        plain = make_sim().run()
        timed = make_sim(
            resilience=ResiliencePolicies(
                timeout=TimeoutPolicy(call_timeout_ms=10_000.0)
            ),
        ).run()
        assert timed.resilience["timeouts"] == 0
        assert timed.completed["svc"] == plain.completed["svc"]


class TestBreakerIntegration:
    def test_outage_trips_and_recovery_closes(self):
        chaos = ChaosSchedule(
            error_windows=[ErrorWindow("B", 0.1, 0.3, 1.0)]
        )
        sink = TelemetrySink()
        result = make_sim(
            duration=0.6,
            chaos=chaos,
            telemetry=sink,
            resilience=ResiliencePolicies(
                breaker=CircuitBreakerPolicy(
                    failure_threshold=5, cooldown_ms=1_000.0
                ),
            ),
        ).run()
        stats = result.resilience
        assert stats["breaker_opens"] >= 1
        assert stats["breaker_fast_fails"] > 0
        assert stats["breaker_closes"] >= 1  # closed again after the window
        transitions = [
            r for r in sink.decisions.records if r.actor == "circuit-breaker"
        ]
        assert any("closed -> open" in r.reason for r in transitions)
        assert any("-> closed" in r.reason for r in transitions)
        gauge = sink.registry.gauges.get("breaker_state.svc.B")
        assert gauge is not None and gauge.value == BREAKER_CLOSED


class TestAdmissionControl:
    def overloaded(self, resilience, telemetry=None):
        gold = ServiceSpec("gold", DependencyGraph("gold", call("B")), 0.0, 1e9)
        be = ServiceSpec("be", DependencyGraph("be", call("B")), 0.0, 1e9)
        # Capacity 2 containers * 4 threads / 2 ms = 240k/min; offer 360k.
        return ClusterSimulator(
            [gold, be],
            {"B": SimulatedMicroservice("B", base_service_ms=2.0, threads=4)},
            containers={"B": 2},
            rates={"gold": 120_000.0, "be": 240_000.0},
            config=SimulationConfig(
                duration_min=0.3, warmup_min=0.0, seed=11
            ),
            telemetry=telemetry,
            resilience=resilience,
        ).run()

    def test_sheds_low_priority_only(self):
        sink = TelemetrySink()
        result = self.overloaded(
            ResiliencePolicies(
                admission=AdmissionPolicy(
                    max_queue_per_thread=4.0, ranks={"gold": 0, "be": 1}
                )
            ),
            telemetry=sink,
        )
        assert result.shed_requests.get("be", 0) > 0
        assert "gold" not in result.shed_requests  # rank 0 is never shed
        sheds = [r for r in sink.decisions.records if r.actor == "admission"]
        assert sheds and all("be" in r.reason for r in sheds)


class TestChaosDeterminism:
    CHAOS = ChaosSchedule(
        crashes=[CrashEvent(0.15, "B", restart_after_ms=3_000.0)],
        error_windows=[ErrorWindow("B", 0.25, 0.4, 0.3)],
        latency_spikes=[LatencySpike("B", 0.1, 0.2, 2.0)],
        seed=5,
    )

    def run_once(self):
        return make_sim(
            duration=0.5,
            chaos=self.CHAOS,
            resilience=ResiliencePolicies.default(seed=3),
        ).run()

    def test_same_schedule_same_seed_bit_identical(self):
        first, second = self.run_once(), self.run_once()
        assert first.generated == second.generated
        assert first.completed == second.completed
        assert first.failed_requests == second.failed_requests
        assert first.shed_requests == second.shed_requests
        assert first.resilience == second.resilience
        assert np.array_equal(
            first.latencies("svc", include_warmup=True),
            second.latencies("svc", include_warmup=True),
        )

    def test_policy_seed_changes_only_policy_stream(self):
        other = make_sim(
            duration=0.5,
            chaos=self.CHAOS,
            resilience=ResiliencePolicies.default(seed=4),
        ).run()
        base = self.run_once()
        # Same workload reaches the system either way; the fault/backoff
        # draws differ.
        assert base.generated == other.generated


class TestResilienceSweep:
    def test_policies_reduce_high_priority_misses(self):
        from repro.experiments import run_resilience_sweep

        sweep = run_resilience_sweep(
            policy_grid=[
                ("no-policy", ResiliencePolicies.disabled()),
                ("full", ResiliencePolicies.default()),
            ],
        )
        # Identical faults, identical seeds: the full stack must cut the
        # high-priority tenant's SLA miss rate vs the no-policy baseline.
        assert sweep.improvement("gold") > 0
        assert sweep.improvement("besteffort") > 0
        full_stats = next(
            r["stats"] for r in sweep.rows if r["policy"] == "full"
        )
        assert full_stats["retries"] > 0
        assert full_stats["breaker_opens"] >= 1
        assert full_stats["shed"] > 0
        assert full_stats["crashes"] == 1 and full_stats["restarts"] == 1
        # Rank 0 is never shed even under the crash backlog.
        gold = sweep.row("full", "gold")
        assert gold["shed"] == 0

    def test_sweep_parallel_equals_serial(self):
        from repro.experiments import run_resilience_sweep

        scenario_chaos = ChaosSchedule(
            crashes=[CrashEvent(0.15, "shared-db", restart_after_ms=2_000.0)],
            error_windows=[ErrorWindow("shared-db", 0.25, 0.4, 0.3)],
            seed=2,
        )
        grid = [
            ("no-policy", ResiliencePolicies.disabled()),
            ("full", ResiliencePolicies.default()),
        ]
        serial = run_resilience_sweep(
            chaos=scenario_chaos, policy_grid=grid,
            duration_min=0.5, warmup_min=0.1, workers=1,
        )
        parallel = run_resilience_sweep(
            chaos=scenario_chaos, policy_grid=grid,
            duration_min=0.5, warmup_min=0.1, workers=2,
        )
        assert serial.rows == parallel.rows


class TestDisabledPathUntouched:
    def test_no_chaos_no_policies_attaches_nothing(self):
        sim = make_sim()
        assert sim._resilience is None
        result = sim.run()
        assert result.resilience is None
        assert result.failed_requests == {}
        assert result.shed_requests == {}

"""Failure-injection tests: container crashes and system recovery."""

import numpy as np
import pytest

from repro.telemetry import TelemetrySink

from repro.core import ErmsScaler, ServiceSpec
from repro.graphs import DependencyGraph, call
from repro.simulator import (
    AutoscaleConfig,
    AutoscaledSimulation,
    ClusterSimulator,
    SimulatedMicroservice,
    SimulationConfig,
)
from repro.workloads import analytic_profile


def make_simulator(containers=3, rate=10_000.0, duration=1.0, seed=1):
    spec = ServiceSpec("svc", DependencyGraph("svc", call("B")), 0.0, 1e9)
    return ClusterSimulator(
        [spec],
        {"B": SimulatedMicroservice("B", base_service_ms=5.0, threads=2)},
        containers={"B": containers},
        rates={"svc": rate},
        config=SimulationConfig(
            duration_min=duration, warmup_min=0.0, seed=seed
        ),
    )


class TestContainerFailure:
    def test_failure_reduces_rotation(self):
        sim = make_simulator(containers=3)
        assert sim.inject_container_failure("B") >= 0
        assert sim.container_count("B") == 2

    def test_last_container_protected(self):
        sim = make_simulator(containers=1)
        with pytest.raises(ValueError, match="last container"):
            sim.inject_container_failure("B")

    def test_retried_jobs_all_complete(self):
        sim = make_simulator(containers=3, rate=20_000.0)
        sim.events.schedule(20_000.0, lambda t: sim.inject_container_failure("B"))
        sim.events.schedule(40_000.0, lambda t: sim.inject_container_failure("B"))
        result = sim.run()
        assert result.completed["svc"] == result.generated["svc"]

    def test_dropped_jobs_never_complete(self):
        # Overload the containers (capacity 48k req/min) so queues grow
        # without bound and are non-empty when one dies, independent of
        # the engine's RNG draw order.
        sim = make_simulator(containers=2, rate=50_000.0)
        dropped = []
        sim.events.schedule(
            30_000.0,
            lambda t: dropped.append(
                sim.inject_container_failure("B", retry=False)
            ),
        )
        result = sim.run()
        assert dropped[0] > 0
        assert (
            result.generated["svc"] - result.completed["svc"] == dropped[0]
        )

    def test_dropped_requests_counter(self):
        sim = make_simulator(containers=2, rate=50_000.0)
        dropped = []
        sim.events.schedule(
            30_000.0,
            lambda t: dropped.append(
                sim.inject_container_failure("B", retry=False)
            ),
        )
        result = sim.run()
        assert result.dropped_requests["svc"] == dropped[0] > 0

    def test_failure_raises_latency(self):
        calm = make_simulator(containers=3, rate=25_000.0, duration=2.0).run()
        degraded_sim = make_simulator(containers=3, rate=25_000.0, duration=2.0)
        degraded_sim.events.schedule(
            30_000.0, lambda t: degraded_sim.inject_container_failure("B")
        )
        degraded = degraded_sim.run()
        assert degraded.tail_latency("svc") > calm.tail_latency("svc")


class TestRestartRecovery:
    def test_restart_restores_capacity(self):
        """A crash with ``restart_after_ms`` heals without the autoscaler."""
        sim = make_simulator(containers=3, rate=20_000.0)
        sim.events.schedule(
            20_000.0,
            lambda t: sim.inject_container_failure(
                "B", restart_after_ms=5_000.0
            ),
        )
        counts = []
        sim.events.schedule(21_000.0, lambda t: counts.append(sim.container_count("B")))
        sim.events.schedule(30_000.0, lambda t: counts.append(sim.container_count("B")))
        result = sim.run()
        assert counts == [2, 3]  # down after the crash, back after 5 s
        assert result.completed["svc"] == result.generated["svc"]

    def test_restart_records_decision(self):
        sink = TelemetrySink()
        spec = ServiceSpec("svc", DependencyGraph("svc", call("B")), 0.0, 1e9)
        sim = ClusterSimulator(
            [spec],
            {"B": SimulatedMicroservice("B", base_service_ms=5.0, threads=2)},
            containers={"B": 3},
            rates={"svc": 10_000.0},
            config=SimulationConfig(duration_min=1.0, warmup_min=0.0, seed=1),
            telemetry=sink,
        )
        sim.events.schedule(
            20_000.0,
            lambda t: sim.inject_container_failure(
                "B", restart_after_ms=4_000.0
            ),
        )
        sim.run()
        records = sink.decisions.records
        crashes = [r for r in records if r.delta < 0]
        restarts = [r for r in records if "container restart" in r.reason]
        assert len(crashes) == 1 and len(restarts) == 1
        assert restarts[0].delta == 1
        assert restarts[0].minute >= crashes[0].minute


class TestAutoscalerRecovery:
    def test_control_loop_replaces_failed_containers(self):
        """The autoscaler restores capacity after a crash."""
        spec = ServiceSpec(
            "svc", DependencyGraph("svc", call("B")), workload=0.0, sla=200.0
        )
        simulated = {"B": SimulatedMicroservice("B", base_service_ms=5.0, threads=2)}
        profiles = {"B": analytic_profile("B", 5.0, 2)}
        sim = AutoscaledSimulation(
            [spec],
            simulated,
            ErmsScaler(),
            profiles,
            rates={"svc": lambda minute: 30_000.0},
            config=SimulationConfig(duration_min=4.0, warmup_min=0.0, seed=3),
            autoscale=AutoscaleConfig(interval_min=1.0, startup_delay_ms=500.0),
        )
        baseline = sim.simulator.container_count("B")
        assert baseline >= 2
        # Kill a container mid-run; the next control period must restore it.
        sim.simulator.events.schedule(
            90_000.0, lambda t: sim.simulator.inject_container_failure("B")
        )
        result = sim.run()
        assert sim.simulator.container_count("B") >= baseline
        assert (
            result.simulation.completed["svc"]
            == result.simulation.generated["svc"]
        )


class TestDecisionLogUnderFailure:
    """The decision audit log pairs every crash with its recovery.

    Each injected failure must appear as a ``failure-injection`` record,
    and the control loop's reconcile that restores the lost capacity
    must appear later (causally ordered minutes) as a record with a
    positive delta on the same microservice.
    """

    def run_with_failures(self, failure_times_ms, seed=3):
        spec = ServiceSpec(
            "svc", DependencyGraph("svc", call("B")), workload=0.0, sla=200.0
        )
        simulated = {
            "B": SimulatedMicroservice("B", base_service_ms=5.0, threads=2)
        }
        profiles = {"B": analytic_profile("B", 5.0, 2)}
        sink = TelemetrySink()
        sim = AutoscaledSimulation(
            [spec],
            simulated,
            ErmsScaler(),
            profiles,
            rates={"svc": lambda minute: 30_000.0},
            config=SimulationConfig(duration_min=6.0, warmup_min=0.0, seed=seed),
            autoscale=AutoscaleConfig(interval_min=1.0, startup_delay_ms=500.0),
            telemetry=sink,
        )
        for when in failure_times_ms:
            sim.simulator.events.schedule(
                when, lambda t: sim.simulator.inject_container_failure("B")
            )
        sim.run()
        return sink.decisions.records

    def test_each_failure_pairs_with_a_reconcile(self):
        records = self.run_with_failures([90_000.0, 210_000.0])
        failures = [r for r in records if r.actor == "failure-injection"]
        assert len(failures) == 2
        for failure in failures:
            assert failure.microservice == "B"
            assert failure.delta == -1
            recoveries = [
                r
                for r in records
                if "reconcile" in r.reason
                and r.microservice == failure.microservice
                and r.minute > failure.minute
                and r.delta > 0
            ]
            assert recoveries, (
                f"failure at minute {failure.minute:.2f} never reconciled"
            )

    def test_records_are_causally_ordered(self):
        records = self.run_with_failures([90_000.0, 210_000.0])
        minutes = [r.minute for r in records]
        assert minutes == sorted(minutes)
        # The audit trail distinguishes who acted: injected crashes and
        # the control loop's reconciles both appear.
        actors = {r.actor for r in records}
        assert "failure-injection" in actors
        assert any("reconcile" in r.reason for r in records)

    def test_reason_distinguishes_retry_mode(self):
        spec = ServiceSpec(
            "svc", DependencyGraph("svc", call("B")), workload=0.0, sla=1e9
        )
        sink = TelemetrySink()
        sim = ClusterSimulator(
            [spec],
            {"B": SimulatedMicroservice("B", base_service_ms=5.0, threads=2)},
            containers={"B": 3},
            rates={"svc": 10_000.0},
            config=SimulationConfig(duration_min=1.0, warmup_min=0.0, seed=1),
            telemetry=sink,
        )
        sim.events.schedule(
            20_000.0, lambda t: sim.inject_container_failure("B")
        )
        sim.events.schedule(
            40_000.0,
            lambda t: sim.inject_container_failure("B", retry=False),
        )
        sim.run()
        reasons = [
            r.reason
            for r in sink.decisions.records
            if r.actor == "failure-injection"
        ]
        assert len(reasons) == 2
        assert "retried" in reasons[0]
        assert "lost" in reasons[1]

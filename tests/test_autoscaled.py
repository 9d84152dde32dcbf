"""Tests for repro.simulator.autoscaled: the in-DES control loop."""

import numpy as np
import pytest

from repro.core import ErmsScaler, ServiceSpec
from repro.graphs import DependencyGraph, call
from repro.simulator import (
    AutoscaleConfig,
    AutoscaledSimulation,
    SimulatedMicroservice,
    SimulationConfig,
)
from repro.workloads import HoltPredictor, StaticRate, SteppedRate, analytic_profile


def chain_setup(sla=200.0):
    spec = ServiceSpec(
        "svc",
        DependencyGraph("svc", call("A", stages=[[call("B")]])),
        workload=0.0,
        sla=sla,
    )
    simulated = {
        "A": SimulatedMicroservice("A", base_service_ms=10.0, threads=2),
        "B": SimulatedMicroservice("B", base_service_ms=5.0, threads=2),
    }
    profiles = {
        "A": analytic_profile("A", 10.0, 2),
        "B": analytic_profile("B", 5.0, 2),
    }
    return spec, simulated, profiles


class TestAutoscaleConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="interval_min"):
            AutoscaleConfig(interval_min=0.0)
        with pytest.raises(ValueError, match="startup_delay_ms"):
            AutoscaleConfig(startup_delay_ms=-1.0)


class TestScaleContainerCount:
    def _simulator(self, containers=2):
        from repro.simulator import ClusterSimulator

        spec, simulated, _ = chain_setup()
        return ClusterSimulator(
            [spec],
            simulated,
            containers={"A": containers, "B": 1},
            rates={"svc": 1000.0},
            config=SimulationConfig(duration_min=0.5, warmup_min=0.0, seed=1),
        )

    def test_scale_up_immediate(self):
        sim = self._simulator()
        sim.scale_container_count("A", 5)
        assert sim.container_count("A") == 5

    def test_scale_up_with_delay_joins_later(self):
        sim = self._simulator()
        sim.scale_container_count("A", 4, startup_delay_ms=1000.0)
        assert sim.container_count("A") == 2  # not started yet
        sim.events.run_until(1500.0)
        assert sim.container_count("A") == 4

    def test_scale_down(self):
        sim = self._simulator(containers=4)
        sim.scale_container_count("A", 2)
        assert sim.container_count("A") == 2

    def test_never_below_one(self):
        sim = self._simulator(containers=2)
        sim.scale_container_count("A", 1)
        assert sim.container_count("A") == 1
        with pytest.raises(ValueError, match="target"):
            sim.scale_container_count("A", 0)

    def test_no_requests_lost_across_scaling(self):
        """Scaling up and down mid-run drops no requests."""
        spec, simulated, _ = chain_setup()
        from repro.simulator import ClusterSimulator

        sim = ClusterSimulator(
            [spec],
            simulated,
            containers={"A": 3, "B": 2},
            rates={"svc": 8000.0},
            config=SimulationConfig(duration_min=1.0, warmup_min=0.0, seed=3),
        )
        sim.events.schedule(20_000.0, lambda t: sim.scale_container_count("A", 1))
        sim.events.schedule(40_000.0, lambda t: sim.scale_container_count("A", 4))
        result = sim.run()
        assert result.completed["svc"] == result.generated["svc"]


class TestAutoscaledSimulation:
    def test_tracks_load_step(self):
        spec, simulated, profiles = chain_setup()
        rate = SteppedRate(((0.0, 3_000.0), (2.0, 9_000.0)))
        sim = AutoscaledSimulation(
            [spec],
            simulated,
            ErmsScaler(),
            profiles,
            rates={"svc": rate},
            config=SimulationConfig(duration_min=5.0, warmup_min=0.0, seed=2),
            autoscale=AutoscaleConfig(interval_min=1.0, startup_delay_ms=1_000.0),
        )
        result = sim.run()
        assert result.scaling_events  # decisions were made
        # Observed rates reflect the step.
        early = result.observed_rates[0][1]["svc"]
        late = result.observed_rates[-1][1]["svc"]
        assert late > 2.0 * early
        # All requests complete despite scaling churn.
        assert (
            result.simulation.completed["svc"]
            == result.simulation.generated["svc"]
        )

    def test_constant_load_stable_allocation(self):
        spec, simulated, profiles = chain_setup()
        sim = AutoscaledSimulation(
            [spec],
            simulated,
            ErmsScaler(),
            profiles,
            rates={"svc": StaticRate(6_000.0)},
            config=SimulationConfig(duration_min=4.0, warmup_min=1.0, seed=4),
            autoscale=AutoscaleConfig(interval_min=1.0, startup_delay_ms=0.0),
        )
        result = sim.run()
        series = [total for _, total in result.scaling_events]
        assert max(series) - min(series) <= 1  # no thrash on steady load
        assert result.simulation.tail_latency("svc") < spec.sla

    def test_predictor_is_consulted(self):
        spec, simulated, profiles = chain_setup()
        created = []

        def factory():
            predictor = HoltPredictor()
            created.append(predictor)
            return predictor

        sim = AutoscaledSimulation(
            [spec],
            simulated,
            ErmsScaler(),
            profiles,
            rates={"svc": StaticRate(3_000.0)},
            config=SimulationConfig(duration_min=2.0, warmup_min=0.0, seed=5),
            autoscale=AutoscaleConfig(interval_min=1.0),
            predictor_factory=factory,
        )
        sim.run()
        assert len(created) == 1
        # The predictor saw observations (its state is initialized).
        assert created[0].predict() >= 0.0

    def test_smaller_startup_delay_recovers_faster(self):
        """Ablation: cold-start latency worsens ramp transients."""
        spec, simulated, profiles = chain_setup()
        rate = SteppedRate(((0.0, 4_000.0), (2.0, 10_000.0)))

        def run(delay_ms):
            sim = AutoscaledSimulation(
                [spec],
                simulated,
                ErmsScaler(),
                profiles,
                rates={"svc": rate},
                config=SimulationConfig(duration_min=6.0, warmup_min=0.0, seed=6),
                autoscale=AutoscaleConfig(
                    interval_min=1.0, startup_delay_ms=delay_ms
                ),
            )
            result = sim.run()
            ramp = [
                latency
                for minute, latency in result.simulation.end_to_end["svc"]
                if 2.0 <= minute < 5.0
            ]
            return float(np.percentile(ramp, 95))

        fast = run(0.0)
        slow = run(30_000.0)
        assert fast <= slow


class TestAutoscaledSharedServices:
    def test_priority_scheduling_survives_rescaling(self):
        """Shared services keep δ-priority queues as containers scale."""
        from repro.graphs import DependencyGraph
        from repro.workloads import StaticRate

        specs = [
            ServiceSpec(
                "hot",
                DependencyGraph("hot", call("U", stages=[[call("P")]])),
                workload=0.0,
                sla=250.0,
            ),
            ServiceSpec(
                "cold",
                DependencyGraph("cold", call("H", stages=[[call("P")]])),
                workload=0.0,
                sla=400.0,
            ),
        ]
        simulated = {
            "U": SimulatedMicroservice("U", base_service_ms=12.0, threads=1),
            "H": SimulatedMicroservice("H", base_service_ms=4.0, threads=2),
            "P": SimulatedMicroservice("P", base_service_ms=5.0, threads=2),
        }
        profiles = {
            "U": analytic_profile("U", 12.0, 1),
            "H": analytic_profile("H", 4.0, 2),
            "P": analytic_profile("P", 5.0, 2),
        }
        sim = AutoscaledSimulation(
            specs,
            simulated,
            ErmsScaler(),
            profiles,
            rates={"hot": StaticRate(4_000.0), "cold": StaticRate(4_000.0)},
            config=SimulationConfig(
                duration_min=3.0, warmup_min=0.5, seed=9, scheduling="priority"
            ),
            autoscale=AutoscaleConfig(interval_min=1.0),
        )
        result = sim.run()
        assert result.simulation.completed["hot"] > 0
        assert result.simulation.completed["cold"] > 0
        assert result.simulation.tail_latency("hot") < 250.0

    def test_infeasible_window_keeps_previous_deployment(self):
        spec = ServiceSpec(
            "svc",
            DependencyGraph("svc", call("A")),
            workload=0.0,
            sla=25.0,  # feasible at multiplier 1 (floor 2*10=20ms)
        )
        simulated = {"A": SimulatedMicroservice("A", base_service_ms=10.0, threads=2)}
        profiles = {"A": analytic_profile("A", 10.0, 2)}

        sim = AutoscaledSimulation(
            [spec],
            simulated,
            ErmsScaler(),
            profiles,
            rates={"svc": StaticRate(2_000.0)},
            config=SimulationConfig(duration_min=2.0, warmup_min=0.0, seed=10),
            autoscale=AutoscaleConfig(interval_min=1.0),
        )
        # Sabotage: make the SLA infeasible for subsequent windows.
        sim.specs = [
            ServiceSpec("svc", spec.graph, workload=0.0, sla=5.0)
        ]
        result = sim.run()
        # No scaling events recorded (every rescale raised), but the
        # initial deployment keeps serving.
        assert result.scaling_events == []
        assert result.simulation.completed["svc"] > 0


class TestPinnedDecisionLog:
    """sha256 of the decision log of two pinned runs, taken before the
    in-simulation loop, the controller and the window replay became
    drivers of one ``ControlLoop``: a 3 000 → 12 000 req/min step with a
    crash-and-restart of ``A`` (``simulator`` and ``chaos`` records), and
    the same run with the SLA sabotaged so every tick is infeasible
    (``autoscaler`` records)."""

    DIGESTS = {
        False: "eb80d7a31a4c1e4eb639d4bce8a32dd0b156d97271f88f99aa7a7d2e512c0fc5",
        True: "8605d8b98ff1a496163bc7e42a7db39d4a094e95e39d57601c5cedaeb3b49b72",
    }
    SCALING_EVENTS = {
        False: [(0.5, 2), (1.0, 2), (1.5, 2), (2.0, 3), (2.5, 3)],
        True: [],
    }

    @pytest.mark.parametrize("infeasible", [False, True])
    def test_decision_log_digest(self, infeasible):
        import hashlib
        import json

        from repro.resilience import ChaosSchedule, CrashEvent
        from repro.telemetry import TelemetrySink

        spec, simulated, profiles = chain_setup()
        sink = TelemetrySink()
        sim = AutoscaledSimulation(
            [spec],
            simulated,
            ErmsScaler(),
            profiles,
            rates={"svc": SteppedRate(((0.0, 3_000.0), (1.0, 12_000.0)))},
            config=SimulationConfig(duration_min=3.0, warmup_min=0.0, seed=11),
            autoscale=AutoscaleConfig(interval_min=0.5, startup_delay_ms=500.0),
            telemetry=sink,
            chaos=ChaosSchedule(
                crashes=[
                    CrashEvent(at_min=1.6, microservice="A", restart_after_ms=2000.0)
                ]
            ),
        )
        if infeasible:
            sim.specs = [ServiceSpec("svc", spec.graph, workload=0.0, sla=5.0)]
        result = sim.run()
        digest = hashlib.sha256(
            json.dumps(sink.decisions.to_dicts()).encode()
        ).hexdigest()
        assert digest == self.DIGESTS[infeasible]
        assert result.scaling_events == self.SCALING_EVENTS[infeasible]

"""In-simulation autoscaling: the control loop running inside the DES.

The experiment harness's windowed replay (one fresh simulation per
scaling window) measures steady-state windows; this module instead runs
the *whole* control loop (:class:`~repro.core.controller.ControlLoop`)
inside one continuous simulation, as the real deployment does: every
``interval_min`` the loop observes the arrival rate of the previous
interval, recomputes the allocation, and the simulator applies it — new
containers only join after a cold-start delay, removed ones drain.
Queues carry over across scaling decisions, so under-provisioned
intervals leave a backlog the next interval must clear, exactly the
transient the windowed harness cannot see.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.controller import ControlLoop, ControllerReport
from repro.core.model import MicroserviceProfile, ServiceSpec
from repro.core.scaling import Autoscaler
from repro.simulator.simulation import (
    ClusterSimulator,
    RateSpec,
    SimulatedMicroservice,
    SimulationConfig,
    SimulationResult,
)
from repro.workloads.prediction import WorkloadPredictor

_MS_PER_MINUTE = 60_000.0


@dataclass
class AutoscaleConfig:
    """Control-loop knobs."""

    interval_min: float = 1.0
    startup_delay_ms: float = 3_000.0  # container cold start (paper: seconds)

    def __post_init__(self) -> None:
        if not 0 < self.interval_min < math.inf:
            raise ValueError(
                f"interval_min must be positive and finite, got {self.interval_min}"
            )
        if not 0 <= self.startup_delay_ms < math.inf:
            raise ValueError(
                "startup_delay_ms must be non-negative and finite, "
                f"got {self.startup_delay_ms}"
            )


@dataclass
class AutoscaledResult:
    """Simulation measurements plus the scaling time series."""

    simulation: SimulationResult
    #: (minute, total containers) after each scaling decision.
    scaling_events: List[Tuple[float, int]] = field(default_factory=list)
    #: (minute, per-service observed rate) the scaler acted on.
    observed_rates: List[Tuple[float, Dict[str, float]]] = field(
        default_factory=list
    )


class AutoscaledSimulation(ControlLoop):
    """The control loop whose actuator is a running :class:`ClusterSimulator`.

    Args:
        specs: Services (graphs + SLAs).
        simulated: Ground-truth microservice parameters.
        scaler: The scheme making the decisions.
        profiles: Latency models the scaler believes in.
        rates: True arrival-rate processes (constant or callable).
        config: Simulation settings (duration, seed, scheduling).
        autoscale: Control-loop settings.
        predictor_factory: Optional per-service forecaster constructor;
            when given, the scaler plans for the predicted next-interval
            rate instead of the last observed one.
        telemetry: Optional :class:`~repro.telemetry.TelemetrySink`; the
            simulation emits live telemetry and the loop records its
            decisions in ``telemetry.decisions``.
        chaos: Optional :class:`~repro.resilience.ChaosSchedule` of
            deterministic faults.  Crashed containers are restored by the
            next reconcile (the autoscaler sees the reduced count and
            scales back to target) in addition to any per-crash
            ``restart_after_ms`` recovery.
        resilience: Optional
            :class:`~repro.resilience.ResiliencePolicies` woven into the
            request path of the underlying simulator.
    """

    actor = "simulator"

    def __init__(
        self,
        specs: Sequence[ServiceSpec],
        simulated: Mapping[str, SimulatedMicroservice],
        scaler: Autoscaler,
        profiles: Mapping[str, MicroserviceProfile],
        rates: Mapping[str, RateSpec],
        config: Optional[SimulationConfig] = None,
        autoscale: Optional[AutoscaleConfig] = None,
        predictor_factory=None,
        telemetry=None,
        chaos=None,
        resilience=None,
    ):
        decisions = telemetry.decisions if telemetry is not None else None
        super().__init__(specs, scaler, dict(profiles), decisions)
        self.autoscale = autoscale or AutoscaleConfig()
        self.config = config or SimulationConfig()

        # Initial allocation for the rate at t=0.
        initial_rates = {}
        for spec in self.specs:
            rate_spec = rates.get(spec.name, 0.0)
            initial_rates[spec.name] = (
                rate_spec(0.0) if callable(rate_spec) else float(rate_spec)
            )
        allocation = self.plan(initial_rates, self.profile_source)

        self.simulator = ClusterSimulator(
            self.specs,
            simulated,
            containers=allocation.containers,
            rates=rates,
            config=self.config,
            priorities=allocation.priorities,
            telemetry=telemetry,
            chaos=chaos,
            resilience=resilience,
        )
        self.result = AutoscaledResult(simulation=self.simulator.result)
        self._predictors: Dict[str, WorkloadPredictor] = {}
        if predictor_factory is not None:
            self._predictors = {
                spec.name: predictor_factory() for spec in self.specs
            }
        self._last_generated: Dict[str, int] = {
            spec.name: 0 for spec in self.specs
        }

    # ------------------------------------------------------------------
    def run(self) -> AutoscaledResult:
        duration_ms = self.config.duration_min * _MS_PER_MINUTE
        interval_ms = self.autoscale.interval_min * _MS_PER_MINUTE
        tick = interval_ms
        while tick < duration_ms:
            self.simulator.events.schedule(tick, self._observe)
            tick += interval_ms
        self.simulator.run()
        return self.result

    # ------------------------------------------------------------------
    def _observe(self, now_ms: float) -> None:
        # Each tick re-runs the full Eq. 5 pipeline.  The graph, SLA and
        # profiles are constant across ticks (only observed rates move),
        # so the merge-tree cache and the targets memo in
        # ``repro.core.latency_targets`` turn the per-tick phase-1 target
        # computation into a lookup; only container counts and the
        # priority phase are recomputed from live rates.
        minute = now_ms / _MS_PER_MINUTE
        observed: Dict[str, float] = {}
        for spec in self.specs:
            generated = self.simulator.result.generated.get(spec.name, 0)
            delta = generated - self._last_generated[spec.name]
            self._last_generated[spec.name] = generated
            rate = delta / self.autoscale.interval_min  # req/min
            predictor = self._predictors.get(spec.name)
            if predictor is not None:
                rate = predictor.observe_and_predict(rate, horizon=1.0)
            observed[spec.name] = rate
        self.result.observed_rates.append((minute, dict(observed)))
        self.step(minute, observed)

    def act(
        self, report: ControllerReport, profiles: Mapping[str, MicroserviceProfile]
    ) -> None:
        """Resize every allocated microservice in the running simulator."""
        simulator = self.simulator
        containers = report.allocation.containers
        for name, count in containers.items():
            delta = count - simulator.container_count(name)
            simulator.scale_container_count(
                name, count, startup_delay_ms=self.autoscale.startup_delay_ms
            )
            if delta:
                report.pod_deltas[name] = delta
        total = sum(simulator.container_count(name) for name in containers)
        self.result.scaling_events.append((report.minute, total))

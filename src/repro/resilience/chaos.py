"""Deterministic chaos schedules: the faults a run is subjected to.

A :class:`ChaosSchedule` is a frozen, fully explicit list of fault
events — container crashes (optionally with restart-after-delay
recovery), per-RPC error-probability windows, and transient latency-spike
windows — that the :class:`~repro.simulator.simulation.ClusterSimulator`
replays inside the event loop.  Because the schedule is plain data (no
callables, no hidden clocks) the same schedule injected into the same
seeded simulation produces bit-identical results across runs and across
``--workers`` settings, which is what lets the resilience sweep compare
policies *under identical faults*.

``ChaosSchedule.random`` generates a schedule from its own RNG stream,
so schedule generation never perturbs the engine's pinned draw order;
per-RPC error draws during the run come from the resilience manager's
dedicated RNG for the same reason.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "ChaosSchedule",
    "CrashEvent",
    "ErrorWindow",
    "LatencySpike",
    "SpikeMultiplier",
]


@dataclass(frozen=True)
class CrashEvent:
    """Kill one container of ``microservice`` at ``at_min``.

    Attributes:
        at_min: Simulation minute of the crash.
        microservice: Victim microservice (one container leaves rotation).
        restart_after_ms: When set, a fresh container re-joins after this
            delay through the simulator's startup machinery (crash with
            recovery); ``None`` models a permanent loss the autoscaler
            must repair.
        retry: Whether queued jobs on the dead container are re-enqueued
            on survivors (RPC clients retrying) or lost.
    """

    at_min: float
    microservice: str
    restart_after_ms: Optional[float] = None
    retry: bool = True

    def __post_init__(self) -> None:
        if not 0 <= self.at_min < math.inf:
            raise ValueError(
                f"at_min must be non-negative and finite, got {self.at_min}"
            )
        restart = self.restart_after_ms
        if restart is not None and not 0 <= restart < math.inf:
            raise ValueError(
                f"restart_after_ms must be non-negative and finite, got {restart}"
            )


def _check_window(window) -> None:
    """A fault window's bounds are finite and ordered."""
    for name in ("start_min", "end_min"):
        value = getattr(window, name)
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if window.end_min <= window.start_min:
        raise ValueError("end_min must exceed start_min")


@dataclass(frozen=True)
class ErrorWindow:
    """During [start_min, end_min), calls to ``microservice`` fail with
    probability ``error_rate`` (per RPC attempt, drawn at completion)."""

    microservice: str
    start_min: float
    end_min: float
    error_rate: float

    def __post_init__(self) -> None:
        _check_window(self)
        if not 0.0 < self.error_rate <= 1.0:
            raise ValueError(
                f"error_rate must be in (0, 1], got {self.error_rate}"
            )


@dataclass(frozen=True)
class LatencySpike:
    """During [start_min, end_min), ``microservice`` service times are
    multiplied by ``multiplier`` (a stalled dependency / GC pause / noisy
    neighbour, transient rather than the hour-scale iBench schedules)."""

    microservice: str
    start_min: float
    end_min: float
    multiplier: float

    def __post_init__(self) -> None:
        _check_window(self)
        if not 0 < self.multiplier < math.inf:
            raise ValueError(
                f"multiplier must be positive and finite, got {self.multiplier}"
            )


class SpikeMultiplier:
    """Container multiplier callable composing a base level with spikes.

    The engine already supports time-varying multipliers as callables of
    the simulation minute; wrapping a container's multiplier with this
    class is how latency-spike windows reach the service-time draw
    without touching the engine's hot path for unspiked microservices.
    """

    __slots__ = ("base", "windows")

    def __init__(self, base, windows: Sequence[Tuple[float, float, float]]):
        self.base = base  # float or callable(minute) -> float
        self.windows = tuple(windows)  # (start_min, end_min, multiplier)

    def __call__(self, minute: float) -> float:
        base = self.base
        value = base(minute) if callable(base) else base
        for start, end, multiplier in self.windows:
            if start <= minute < end:
                value *= multiplier
        return value


@dataclass(frozen=True)
class ChaosSchedule:
    """A deterministic fault plan for one simulation run.

    Attributes:
        crashes: Container-kill events (with optional restart recovery).
        error_windows: Per-RPC error-probability windows.
        latency_spikes: Transient service-time inflation windows.
        seed: Seed of the run-time fault RNG (per-RPC error draws); a
            dedicated stream so chaos never perturbs the engine's RNG.
    """

    crashes: Tuple[CrashEvent, ...] = ()
    error_windows: Tuple[ErrorWindow, ...] = ()
    latency_spikes: Tuple[LatencySpike, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        # Tolerate lists at construction; store tuples for hashability.
        object.__setattr__(self, "crashes", tuple(self.crashes))
        object.__setattr__(self, "error_windows", tuple(self.error_windows))
        object.__setattr__(
            self, "latency_spikes", tuple(self.latency_spikes)
        )

    def is_empty(self) -> bool:
        return not (self.crashes or self.error_windows or self.latency_spikes)

    def to_dict(self) -> Dict:
        return {
            "seed": self.seed,
            "crashes": [
                {
                    "at_min": c.at_min,
                    "microservice": c.microservice,
                    "restart_after_ms": c.restart_after_ms,
                    "retry": c.retry,
                }
                for c in self.crashes
            ],
            "error_windows": [
                {
                    "microservice": w.microservice,
                    "start_min": w.start_min,
                    "end_min": w.end_min,
                    "error_rate": w.error_rate,
                }
                for w in self.error_windows
            ],
            "latency_spikes": [
                {
                    "microservice": s.microservice,
                    "start_min": s.start_min,
                    "end_min": s.end_min,
                    "multiplier": s.multiplier,
                }
                for s in self.latency_spikes
            ],
        }

    @classmethod
    def random(
        cls,
        microservices: Sequence[str],
        duration_min: float,
        seed: int = 0,
        crashes: int = 1,
        restart_after_ms: Optional[float] = 5_000.0,
        error_windows: int = 1,
        error_rate: float = 0.05,
        latency_spikes: int = 1,
        spike_multiplier: float = 3.0,
        window_min: float = 0.5,
    ) -> "ChaosSchedule":
        """Generate a seeded schedule over ``microservices``.

        Fault times land in the middle 80 % of the run (so warmup and the
        drain tail stay clean), and window lengths are ``window_min``
        clipped to the run.  The same arguments always produce the same
        schedule — generation draws only from its own ``seed`` stream.
        """
        if not microservices:
            raise ValueError("microservices must be non-empty")
        if not 0 < duration_min < math.inf:
            raise ValueError(
                f"duration_min must be positive and finite, got {duration_min}"
            )
        if restart_after_ms is not None and not 0 <= restart_after_ms < math.inf:
            raise ValueError(
                "restart_after_ms must be non-negative and finite, "
                f"got {restart_after_ms}"
            )
        if not 0 < spike_multiplier < math.inf:
            raise ValueError(
                "spike_multiplier must be positive and finite, "
                f"got {spike_multiplier}"
            )
        rng = np.random.default_rng(seed)
        names = list(microservices)
        lo, hi = 0.1 * duration_min, 0.9 * duration_min

        def pick_time() -> float:
            return float(rng.uniform(lo, hi))

        def pick_name() -> str:
            return names[int(rng.integers(0, len(names)))]

        crash_events = tuple(
            CrashEvent(
                at_min=pick_time(),
                microservice=pick_name(),
                restart_after_ms=restart_after_ms,
            )
            for _ in range(crashes)
        )
        error_events = []
        for _ in range(error_windows):
            start = pick_time()
            error_events.append(
                ErrorWindow(
                    microservice=pick_name(),
                    start_min=start,
                    end_min=min(start + window_min, duration_min),
                    error_rate=error_rate,
                )
            )
        spike_events = []
        for _ in range(latency_spikes):
            start = pick_time()
            spike_events.append(
                LatencySpike(
                    microservice=pick_name(),
                    start_min=start,
                    end_min=min(start + window_min, duration_min),
                    multiplier=spike_multiplier,
                )
            )
        return cls(
            crashes=crash_events,
            error_windows=tuple(error_events),
            latency_spikes=tuple(spike_events),
            seed=seed,
        )

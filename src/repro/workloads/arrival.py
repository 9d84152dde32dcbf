"""Arrival-rate processes.

All processes are callables ``rate(minute) -> requests/minute`` so they can
be handed directly to :class:`~repro.simulator.simulation.ClusterSimulator`
or sampled per scaling round by the experiment harness.  A constant
workload needs no process: the simulator takes a plain number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

#: Minutes of per-minute noise a :class:`DiurnalRate` draws (two days);
#: the sequence repeats after it.
HORIZON_MIN = 2880
#: A :class:`DiurnalRate`'s phase: its trough at t = 0.
PHASE = -math.pi / 2.0


@dataclass(frozen=True)
class SteppedRate:
    """Piecewise-constant workload: a list of (start_minute, rate) steps."""

    steps: Tuple[Tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not self.steps:
            raise ValueError("steps must be non-empty")
        starts = [start for start, _ in self.steps]
        if starts != sorted(starts):
            raise ValueError("step start times must be non-decreasing")

    def __call__(self, minute: float) -> float:
        rate = self.steps[0][1]
        for start, value in self.steps:
            if minute >= start:
                rate = value
            else:
                break
        return rate


@dataclass
class DiurnalRate:
    """Alibaba-like diurnal workload: sinusoid plus smooth noise.

    rate(t) = base · (1 + amplitude·sin(2πt/period − π/2)) · noise(t),
    floored at zero: a trough at t = 0, the peak mid-period.  Noise is a
    fixed per-minute log-normal sequence so the process is deterministic
    for a given seed.
    """

    base: float
    amplitude: float = 0.5
    period_min: float = 1440.0
    noise_sigma: float = 0.05
    seed: int = 0
    _noise: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not 0 < self.base < math.inf:
            raise ValueError(f"base must be positive and finite, got {self.base}")
        if not 0 <= self.amplitude <= 1:
            raise ValueError(f"amplitude must be in [0, 1], got {self.amplitude}")
        if not 0 < self.period_min < math.inf:
            raise ValueError(
                f"period_min must be positive and finite, got {self.period_min}"
            )
        if not 0 <= self.noise_sigma < math.inf:
            raise ValueError(
                f"noise_sigma must be non-negative and finite, got {self.noise_sigma}"
            )
        rng = np.random.default_rng(self.seed)
        self._noise = rng.lognormal(0.0, self.noise_sigma, size=HORIZON_MIN)

    def __call__(self, minute: float) -> float:
        wave = 1.0 + self.amplitude * math.sin(
            2.0 * math.pi * minute / self.period_min + PHASE
        )
        noise = self._noise[int(minute) % len(self._noise)]
        return max(self.base * wave * noise, 0.0)


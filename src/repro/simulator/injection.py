"""iBench-style interference injection schedules (paper §6.2).

The paper collects profiling data by fixing the interference level on
each host for an hour at a time with iBench, then moving to the next
level.  :class:`InterferenceSchedule` reproduces that protocol as a
time-varying service-time multiplier, usable directly as a container
multiplier in :class:`~repro.simulator.simulation.ClusterSimulator`
(which accepts callables of the current simulation minute).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.simulator.interference import multiplier_for


@dataclass(frozen=True)
class InterferenceSchedule:
    """Step schedule of (cpu, mem) utilization levels, one per period.

    Calling the schedule with a simulation minute returns the service-time
    multiplier implied by the level active at that minute (via
    :func:`~repro.simulator.interference.multiplier_for`).  The schedule
    repeats after the last period, as an injection loop would.
    """

    levels: Tuple[Tuple[float, float], ...]
    period_min: float = 60.0

    def __post_init__(self) -> None:
        if not self.levels:
            raise ValueError("levels must be non-empty")
        if self.period_min <= 0:
            raise ValueError("period_min must be positive")
        for cpu, mem in self.levels:
            if cpu < 0 or mem < 0:
                raise ValueError("utilization levels must be non-negative")

    @classmethod
    def random(
        cls,
        periods: int,
        period_min: float = 60.0,
        low: float = 0.1,
        high: float = 0.9,
        seed: int = 0,
    ) -> "InterferenceSchedule":
        """Random levels in [low, high], the paper's profiling sweep."""
        rng = np.random.default_rng(seed)
        levels = tuple(
            (float(cpu), float(mem))
            for cpu, mem in rng.uniform(low, high, size=(periods, 2))
        )
        return cls(levels=levels, period_min=period_min)

    def level_at(self, minute: float) -> Tuple[float, float]:
        """The (cpu, mem) level active at ``minute``."""
        index = int(minute // self.period_min) % len(self.levels)
        return self.levels[index]

    def __call__(self, minute: float) -> float:
        """Service-time multiplier at ``minute`` (container callable)."""
        cpu, mem = self.level_at(minute)
        return multiplier_for(cpu, mem)

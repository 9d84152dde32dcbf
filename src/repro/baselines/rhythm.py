"""Rhythm baseline (Zhao et al., EuroSys'20; paper §6.1).

Rhythm scores each microservice's *contribution* to end-to-end latency as
the normalized product of its mean latency, its latency variance, and the
correlation between its latency and the end-to-end latency, then splits the
SLA proportionally to contribution.  Like GrandSLAm the contribution is a
fixed statistic, so the split does not track the operating point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.base import ServiceStatistics, StatisticsAutoscaler


@dataclass
class Rhythm(StatisticsAutoscaler):
    """Contribution-proportional SLA splitting.

    Attributes:
        sweep_points: Resolution of the statistics sweep.
        use_priority: Bolt-on priority scheduling at shared microservices
            (the §6.4.2 variant; targets are not recomputed).
    """

    sweep_points: int = 40
    use_priority: bool = False
    interference_aware: bool = False
    name: str = "rhythm"

    def __post_init__(self) -> None:
        if self.use_priority:
            self.name = "rhythm+priority"

    # the scheme's own class attribute: benchmarks/e2e traces ``scale`` per scheme
    scale = StatisticsAutoscaler.scale

    def weights(self, stats: ServiceStatistics) -> np.ndarray:
        return _normalize(stats.means * stats.variances * stats.correlations)


def _normalize(raw: np.ndarray) -> np.ndarray:
    """Scale contributions to [epsilon, 1] so no microservice gets zero."""
    top = raw.max()
    if top <= 0:
        return np.ones_like(raw)
    # Every microservice needs some latency budget: Rhythm deploys all
    # components, so contributions are floored well above zero (otherwise
    # negligible-contribution microservices would be assigned unmeetable
    # targets and dominate the container count).
    floor = 0.1
    return np.maximum(raw / top, floor)

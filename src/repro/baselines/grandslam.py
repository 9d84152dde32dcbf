"""GrandSLAm baseline (Kannan et al., EuroSys'19; paper §6.1).

GrandSLAm splits the end-to-end SLA across the stages of a microservice
pipeline *proportionally to each stage's average latency* observed across
workloads.  The allocation is independent of the current operating point —
the limitation paper §2.2 demonstrates in Fig. 4: the workload-sensitive
microservice is under-budgeted exactly when the workload is high.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping

from repro.baselines.base import MicroserviceStats, StatisticsAutoscaler


@dataclass
class GrandSLAm(StatisticsAutoscaler):
    """Mean-latency-proportional SLA splitting.

    Attributes:
        sweep_points: Resolution of the statistics sweep.
        use_priority: When True, requests at shared microservices are
            priority-scheduled (ranked by target) instead of FCFS — the
            §6.4.2 "GrandSLAm + priority" variant.  Note that unlike Erms,
            targets are *not* recomputed: the paper's point is that bolting
            priority onto GrandSLAm barely helps.
    """

    sweep_points: int = 40
    use_priority: bool = False
    interference_aware: bool = False
    name: str = "grandslam"

    def __post_init__(self) -> None:
        if self.use_priority:
            self.name = "grandslam+priority"

    # the scheme's own class attribute: benchmarks/e2e traces ``scale`` per scheme
    scale = StatisticsAutoscaler.scale

    def weights(self, stats: Mapping[str, MicroserviceStats]) -> Dict[str, float]:
        return {name: s.mean for name, s in stats.items()}

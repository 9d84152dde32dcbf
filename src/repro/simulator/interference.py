"""Host interference model for the simulator.

Paper Fig. 3 observes that the slope of the latency/load curve grows with
host CPU and memory utilization (memory pressure triggers compaction and
stalls processes, §5.2).  The simulator reproduces this by inflating each
container's mean service time with a multiplier derived from its host's
utilization.  Utilization combines the host's *background* (batch-job) load
with the resource requests of the containers placed on it — so
interference-aware placement genuinely changes observed latency.

    multiplier = 1 + CPU_WEIGHT·max(0, cpu − CPU_KNEE)
                   + MEM_WEIGHT·max(0, mem − MEM_KNEE)

The knees model the empirical observation that light colocation is
harmless; past them, slowdown grows roughly linearly (and memory
pressure hurts more than CPU pressure, per §5.2).
"""

from __future__ import annotations

from repro.core.provisioning import Cluster, Host

CPU_WEIGHT = 2.0
MEM_WEIGHT = 3.0
CPU_KNEE = 0.3
MEM_KNEE = 0.4


def multiplier_for(cpu_utilization: float, mem_utilization: float) -> float:
    """Service-time multiplier (≥ 1) at the given utilizations."""
    slowdown = 1.0
    slowdown += CPU_WEIGHT * max(0.0, cpu_utilization - CPU_KNEE)
    slowdown += MEM_WEIGHT * max(0.0, mem_utilization - MEM_KNEE)
    return slowdown


def host_multiplier(cluster: Cluster, host: Host) -> float:
    """Multiplier for one host given its current placement."""
    return multiplier_for(
        host.cpu_utilization(cluster.sizes),
        host.memory_utilization(cluster.sizes),
    )

"""Interference-aware provisioning experiment (paper §6.4.3, Fig. 15).

Compares Erms' interference-aware placement against the Kubernetes default
on a cluster where some hosts carry heavy background (batch) load:

* place the same logical allocation with each provisioner;
* derive every container's service-time multiplier from its host's
  utilization (the simulator's interference model);
* replay on the simulator, growing the allocation until the SLA holds —
  the interference-blind placement needs more containers (Fig. 15a) and,
  at equal containers, delivers worse latency (Fig. 15b).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.model import MicroserviceProfile
from repro.core.provisioning import (
    Cluster,
    Provisioner,
)
from repro.core.scaling import Autoscaler
from repro.experiments.harness import (
    Replay,
    ReplayContext,
    planning_profiles,
    replay_cells,
    uniform_specs,
)
from repro.experiments.parallel import WorkerPool
from repro.simulator.interference import host_multiplier
from repro.workloads.deathstarbench import Application

#: Factor by which every count grows after a round that misses the SLA.
GROWTH_FACTOR = 1.3


def multipliers_from_placement(cluster: Cluster) -> Dict[str, List[float]]:
    """Per-container service-time multipliers implied by a placement."""
    multipliers: Dict[str, List[float]] = {}
    for host in cluster.hosts:
        factor = host_multiplier(cluster, host)
        for name, count in host.containers.items():
            multipliers.setdefault(name, []).extend([factor] * count)
    return multipliers


def _place(
    provisioner: Provisioner,
    hosts: int,
    background: Sequence[Tuple[float, float]],
    containers: Mapping[str, int],
    profiles: Mapping[str, MicroserviceProfile],
) -> Cluster:
    cluster = Cluster.homogeneous(hosts)
    for index, (cpu, mem) in enumerate(background):
        cluster.hosts[index % hosts].background_cpu += cpu
        cluster.hosts[index % hosts].background_memory_mb += mem
    cluster.register(dict(profiles))
    provisioner.apply(cluster, dict(containers))
    return cluster


@dataclass
class InterferenceResult:
    """Outcome per provisioner.

    ``containers_needed`` is the last count each provisioner was replayed
    with; ``unmet`` names those not shown to meet the violation threshold
    within the growth rounds (still over it at that count).
    """

    containers_needed: Dict[str, int] = field(default_factory=dict)
    p95_equal_containers: Dict[str, float] = field(default_factory=dict)
    imbalance: Dict[str, float] = field(default_factory=dict)
    rows: List[Dict] = field(default_factory=list)
    unmet: List[str] = field(default_factory=list)


def _round_row(result, sink, context: ReplayContext) -> Tuple[float, float]:
    """``(violation, p95)`` of one round: mean SLA violation rate (a
    service with nothing measured counts as violated) and mean P95."""
    violations, p95s = [], []
    for spec in context.specs:
        if not result.has_samples(spec.name):
            violations.append(1.0)
            continue
        violations.append(result.sla_violation_rate(spec.name, spec.sla))
        p95s.append(result.tail_latency(spec.name))
    violation = float(np.mean(violations)) if violations else 0.0
    return violation, float(np.mean(p95s)) if p95s else float("nan")


def run_interference_comparison(
    app: Application,
    scaler: Autoscaler,
    provisioners: Sequence[Provisioner],
    workload: float = 20_000.0,
    sla: float = 250.0,
    hosts: int = 8,
    background: Sequence[Tuple[float, float]] = ((24.0, 48_000.0),) * 3,
    max_growth_rounds: int = 6,
    violation_threshold: float = 0.05,
    duration_min: float = 1.0,
    seed: int = 0,
    profiles: Optional[Mapping[str, MicroserviceProfile]] = None,
    workers: int = 1,
    pool: Optional[WorkerPool] = None,
) -> InterferenceResult:
    """Find the containers each provisioner needs to satisfy the SLA.

    Both provisioners start from the same scheme allocation; whenever the
    simulated violation rate exceeds ``violation_threshold`` every
    microservice's count grows by :data:`GROWTH_FACTOR` and the placement is
    redone — mirroring an operator scaling until the SLA holds, for at
    most ``max_growth_rounds`` replays.  Round ``r`` is seeded
    ``seed + r``; its placements fan out over ``workers`` processes (or
    the given ``pool``) with results identical to the serial run.
    """
    # Idle profiles: the placement, not the plan, sets each container's level.
    profiles, _ = planning_profiles(app, 1.0, profiles)
    specs = uniform_specs(app, workload, sla)
    base_allocation = scaler.scale(specs, profiles)

    context = ReplayContext(
        specs=specs,
        simulated=app.simulated,
        duration_min=duration_min,
        warmup_min=min(0.3, duration_min / 3),
    )
    # Round-synchronous search: each round replays every placement whose
    # SLA does not hold yet, and grows those that still violate.
    counts = [dict(base_allocation.containers) for _ in provisioners]
    p95_equal = imbalance = [float("nan")] * len(provisioners)
    growing = list(range(len(provisioners)))
    for round_index in range(max_growth_rounds):
        if round_index:
            for i in growing:
                counts[i] = {
                    name: max(count + 1, math.ceil(count * GROWTH_FACTOR))
                    for name, count in counts[i].items()
                }
        clusters = [
            _place(provisioners[i], hosts, background, counts[i], profiles)
            for i in growing
        ]
        replays = [
            Replay(
                rates={spec.name: spec.workload for spec in specs},
                containers=counts[i],
                priorities=base_allocation.priorities,
                multipliers=multipliers_from_placement(cluster),
                seed=seed + round_index,
            )
            for i, cluster in zip(growing, clusters)
        ]
        measured = replay_cells(replays, _round_row, context, workers, pool)
        if round_index == 0:
            # Equal-container comparison (Fig. 15b) uses the first round.
            p95_equal = [p95 for _, p95 in measured]
            imbalance = [cluster.imbalance() for cluster in clusters]
        growing = [
            i
            for i, (violation, _) in zip(growing, measured)
            if violation > violation_threshold
        ]
        if not growing:
            break
    result = InterferenceResult(unmet=[provisioners[i].name for i in growing])
    for i, provisioner in enumerate(provisioners):
        row = {
            "provisioner": provisioner.name,
            "containers": sum(counts[i].values()),
            "p95_equal": p95_equal[i],
            "imbalance": imbalance[i],
        }
        result.containers_needed[provisioner.name] = row["containers"]
        result.p95_equal_containers[provisioner.name] = row["p95_equal"]
        result.imbalance[provisioner.name] = row["imbalance"]
        result.rows.append(row)
    return result

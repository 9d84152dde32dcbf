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

from repro.core.model import Allocation, MicroserviceProfile
from repro.core.provisioning import (
    Cluster,
    Provisioner,
)
from repro.core.scaling import Autoscaler
from repro.experiments.harness import (
    evaluate_allocation,
    planning_profiles,
    uniform_specs,
)
from repro.experiments.parallel import WorkerPool, get_context, run_cells
from repro.simulator.interference import InterferenceModel
from repro.workloads.deathstarbench import Application


def multipliers_from_placement(
    cluster: Cluster, model: InterferenceModel
) -> Dict[str, List[float]]:
    """Per-container service-time multipliers implied by a placement."""
    multipliers: Dict[str, List[float]] = {}
    for host in cluster.hosts:
        factor = model.host_multiplier(cluster, host)
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
    """Outcome per provisioner."""

    containers_needed: Dict[str, int] = field(default_factory=dict)
    p95_equal_containers: Dict[str, float] = field(default_factory=dict)
    imbalance: Dict[str, float] = field(default_factory=dict)
    rows: List[Dict] = field(default_factory=list)


def _provisioner_search(cell: Dict) -> Dict:
    """The grow-until-SLA-holds loop for one provisioner (picklable cell).

    Rounds within one provisioner are inherently sequential (each round's
    counts depend on the previous verdict), but provisioners never share
    state, so each search is one parallel cell.  Everything the searches
    have in common (specs, profiles, the base allocation, the cluster
    shape) travels once in the shared context; the payload is just the
    provisioner under test.
    """
    context = get_context()
    provisioner: Provisioner = cell["provisioner"]
    specs = context["specs"]
    profiles = context["profiles"]
    base_allocation: Allocation = context["base_allocation"]
    interference: InterferenceModel = context["interference"]
    duration_min = context["duration_min"]

    counts = dict(base_allocation.containers)
    p95_equal = float("nan")
    imbalance = float("nan")
    for round_index in range(context["max_growth_rounds"]):
        cluster = _place(
            provisioner, context["hosts"], context["background"], counts, profiles
        )
        multipliers = multipliers_from_placement(cluster, interference)
        allocation = Allocation(
            containers=dict(counts),
            priorities=base_allocation.priorities,
        )
        sim = evaluate_allocation(
            specs,
            context["simulated"],
            allocation,
            duration_min=duration_min,
            warmup_min=min(0.3, duration_min / 3),
            seed=context["seed"] + round_index,
            container_multipliers=multipliers,
        )
        violations, p95s = [], []
        for spec in specs:
            if not sim.has_samples(spec.name):
                violations.append(1.0)
                continue
            violations.append(sim.sla_violation_rate(spec.name, spec.sla))
            p95s.append(sim.tail_latency(spec.name))
        violation = float(np.mean(violations)) if violations else 0.0
        final_p95 = float(np.mean(p95s)) if p95s else float("nan")
        if round_index == 0:
            # Equal-container comparison (Fig. 15b) uses the first round.
            p95_equal = final_p95
            imbalance = cluster.imbalance()
        if violation <= context["violation_threshold"]:
            break
        counts = {
            name: max(count + 1, math.ceil(count * context["growth_factor"]))
            for name, count in counts.items()
        }
    return {
        "provisioner": provisioner.name,
        "containers": sum(counts.values()),
        "p95_equal": p95_equal,
        "imbalance": imbalance,
    }


def run_interference_comparison(
    app: Application,
    scaler: Autoscaler,
    provisioners: Sequence[Provisioner],
    workload: float = 20_000.0,
    sla: float = 250.0,
    hosts: int = 8,
    background: Sequence[Tuple[float, float]] = ((24.0, 48_000.0),) * 3,
    interference: Optional[InterferenceModel] = None,
    max_growth_rounds: int = 6,
    growth_factor: float = 1.3,
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
    microservice's count grows by ``growth_factor`` and the placement is
    redone — mirroring an operator scaling until the SLA holds.  With
    ``workers > 1`` the per-provisioner searches run in parallel
    processes; results are identical to the serial run.
    """
    if interference is None:
        interference = InterferenceModel()
    # Idle profiles: the placement, not the plan, sets each container's level.
    profiles, _ = planning_profiles(app, 1.0, profiles)
    specs = uniform_specs(app, workload, sla)
    base_allocation = scaler.scale(specs, profiles)

    context = {
        "specs": specs,
        "profiles": profiles,
        "simulated": app.simulated,
        "base_allocation": base_allocation,
        "interference": interference,
        "hosts": hosts,
        "background": background,
        "max_growth_rounds": max_growth_rounds,
        "growth_factor": growth_factor,
        "violation_threshold": violation_threshold,
        "duration_min": duration_min,
        "seed": seed,
    }
    cells = [{"provisioner": provisioner} for provisioner in provisioners]
    result = InterferenceResult()
    for row in run_cells(
        _provisioner_search, cells, workers, context=context, pool=pool
    ):
        name = row["provisioner"]
        result.containers_needed[name] = row["containers"]
        result.p95_equal_containers[name] = row["p95_equal"]
        result.imbalance[name] = row["imbalance"]
        result.rows.append(dict(row))
    return result

"""Resilience sweep: violation rates with policies on/off under faults.

The robustness counterpart of the static sweep: a pinned
:class:`~repro.resilience.ChaosSchedule` (container crash with restart,
an error window, a latency spike) is replayed against the *same*
deployment under several :class:`~repro.resilience.ResiliencePolicies`
bundles — from observation-only (``disabled``) to the full
retry + timeout + breaker + admission stack — and the per-service SLA
miss rate is compared.  Because the schedule and every policy RNG are
seeded, each cell is a pure function of (context, payload) and the grid
fans out over :func:`~repro.experiments.parallel.run_cells` unchanged.

Two entry points:

* :func:`run_resilience_sweep` — a controlled two-tenant scenario
  (``gold`` at priority rank 0, ``besteffort`` at rank 1, sharing one
  database tier) designed so the policy stack's effect on the
  high-priority tenant is visible: errors recovered by retries, crash
  backlog shed from the best-effort tenant first (Eqs. 13–14 priority
  consistency — rank 0 is never shed).
* :func:`run_chaos_comparison` — the same on/off comparison over the
  allocation of one :class:`~repro.experiments.harness.RunSpec` (the
  ``python -m repro chaos`` subcommand).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.model import ServiceSpec
from repro.experiments.harness import RunSpec
from repro.experiments.parallel import WorkerPool, get_context, run_cells
from repro.graphs import DependencyGraph, call
from repro.resilience import (
    ChaosSchedule,
    CrashEvent,
    ErrorWindow,
    LatencySpike,
    ResiliencePolicies,
    RetryPolicy,
    TimeoutPolicy,
)
from repro.simulator.simulation import (
    ClusterSimulator,
    SimulatedMicroservice,
    SimulationConfig,
)


# ----------------------------------------------------------------------
# Controlled two-tenant scenario
# ----------------------------------------------------------------------
def default_resilience_scenario() -> Dict:
    """Two tenants sharing a database tier, near saturation.

    ``gold`` (rank 0 on the shared tier, tight SLA) and ``besteffort``
    (rank 1, loose SLA) each call a private frontend and then the shared
    ``shared-db``.  The database runs two containers with combined
    capacity just above the offered load, so losing one to a crash
    creates a genuine backlog that admission control must shed — from
    the best-effort tenant only.
    """
    specs = [
        ServiceSpec(
            name="gold",
            graph=DependencyGraph("gold", call("gold-fe", [[call("shared-db")]])),
            workload=16_000.0,
            sla=80.0,
        ),
        ServiceSpec(
            name="besteffort",
            graph=DependencyGraph(
                "besteffort", call("be-fe", [[call("shared-db")]])
            ),
            workload=50_000.0,
            sla=400.0,
        ),
    ]
    simulated = {
        "gold-fe": SimulatedMicroservice("gold-fe", base_service_ms=1.0, threads=4),
        "be-fe": SimulatedMicroservice("be-fe", base_service_ms=1.0, threads=4),
        "shared-db": SimulatedMicroservice(
            "shared-db", base_service_ms=4.0, threads=4
        ),
    }
    return {
        "specs": specs,
        "simulated": simulated,
        "containers": {"gold-fe": 1, "be-fe": 1, "shared-db": 2},
        "rates": {spec.name: spec.workload for spec in specs},
        "priorities": {"shared-db": {"gold": 0, "besteffort": 1}},
    }


def default_chaos_schedule(seed: int = 0) -> ChaosSchedule:
    """The pinned fault schedule for the controlled scenario.

    Inside a 2-minute run: one database container crashes mid-run and
    restarts after 15 s (the backlog that admission control sheds); the
    database then serves a 25 % error window (the retries' job) followed
    by a brief *total* outage (the circuit breaker's job — every call
    fails, the breaker trips within its threshold, and half-open probes
    re-close it when the window ends); finally the best-effort frontend
    suffers a 4x latency spike.
    """
    return ChaosSchedule(
        crashes=(
            CrashEvent(
                at_min=0.6, microservice="shared-db", restart_after_ms=15_000.0
            ),
        ),
        error_windows=(
            ErrorWindow(
                microservice="shared-db",
                start_min=1.1,
                end_min=1.5,
                error_rate=0.25,
            ),
            ErrorWindow(
                microservice="shared-db",
                start_min=1.6,
                end_min=1.7,
                error_rate=1.0,
            ),
        ),
        latency_spikes=(
            LatencySpike(
                microservice="be-fe", start_min=1.75, end_min=1.95, multiplier=4.0
            ),
        ),
        seed=seed,
    )


def default_policy_grid(seed: int = 0) -> List[Tuple[str, ResiliencePolicies]]:
    """(label, policies) pairs from no mitigation to the full stack."""
    return [
        ("no-policy", ResiliencePolicies.disabled(seed=seed)),
        (
            "retry",
            ResiliencePolicies(
                retry=RetryPolicy(), timeout=TimeoutPolicy(), seed=seed
            ),
        ),
        ("full", ResiliencePolicies.default(seed=seed)),
    ]


@dataclass
class ResilienceSweepResult:
    """Rows of the sweep: one per (policy, service)."""

    chaos: ChaosSchedule
    rows: List[Dict] = field(default_factory=list)

    def policies(self) -> List[str]:
        seen: Dict[str, None] = {}
        for row in self.rows:
            seen.setdefault(row["policy"], None)
        return list(seen)

    def row(self, policy: str, service: str) -> Dict:
        for row in self.rows:
            if row["policy"] == policy and row["service"] == service:
                return row
        raise KeyError(f"no row for policy={policy!r} service={service!r}")

    def miss_rate(self, policy: str, service: str) -> float:
        return self.row(policy, service)["sla_miss_rate"]

    def improvement(self, service: str, policy: str = "full",
                    baseline: str = "no-policy") -> float:
        """Absolute miss-rate reduction of ``policy`` vs ``baseline``."""
        return self.miss_rate(baseline, service) - self.miss_rate(policy, service)


def _service_rows(result, specs: Sequence[ServiceSpec]) -> List[Dict]:
    """Per-service outcome rows from one simulation result.

    The SLA miss rate folds every way a request can miss its target:
    completions over the SLA (warmup included — faults do not wait for
    it), requests failed after exhausting retries, requests shed by
    admission control, and queued jobs dropped by a non-retried crash.
    """
    rows = []
    for spec in specs:
        generated = result.generated.get(spec.name, 0)
        completed = result.completed.get(spec.name, 0)
        failed = result.failed_requests.get(spec.name, 0)
        shed = result.shed_requests.get(spec.name, 0)
        dropped = result.dropped_requests.get(spec.name, 0)
        latencies = result.latencies(spec.name, include_warmup=True)
        violations = int(np.sum(latencies > spec.sla)) if len(latencies) else 0
        p95 = (
            float(np.percentile(latencies, 95.0)) if len(latencies) else None
        )
        missed = violations + failed + shed + dropped
        rows.append(
            {
                "service": spec.name,
                "sla": spec.sla,
                "generated": generated,
                "completed": completed,
                "failed": failed,
                "shed": shed,
                "dropped": dropped,
                "violations": violations,
                "p95": p95,
                "sla_miss_rate": missed / generated if generated else 0.0,
            }
        )
    return rows


def _resilience_cell(cell: Dict) -> List[Dict]:
    """Run one policy bundle under the shared schedule (pickles for pools)."""
    context = get_context()
    scenario = context["scenario"]
    config = SimulationConfig(
        duration_min=context["duration_min"],
        warmup_min=context["warmup_min"],
        seed=context["seed"],
        scheduling="priority" if scenario["priorities"] else "fcfs",
    )
    simulator = ClusterSimulator(
        scenario["specs"],
        scenario["simulated"],
        containers=scenario["containers"],
        rates=scenario["rates"],
        config=config,
        priorities=scenario["priorities"],
        chaos=context["chaos"],
        resilience=cell["policies"],
    )
    result = simulator.run()
    rows = _service_rows(result, scenario["specs"])
    for row in rows:
        row["policy"] = cell["label"]
        row["stats"] = result.resilience
    return rows


def run_resilience_sweep(
    scenario: Optional[Dict] = None,
    chaos: Optional[ChaosSchedule] = None,
    policy_grid: Optional[Sequence[Tuple[str, ResiliencePolicies]]] = None,
    duration_min: float = 2.0,
    warmup_min: float = 0.25,
    seed: int = 0,
    workers: int = 1,
    pool: Optional[WorkerPool] = None,
) -> ResilienceSweepResult:
    """Replay one fault schedule under each policy bundle.

    Every cell shares the identical deployment, seed, and
    :class:`ChaosSchedule`; only the :class:`ResiliencePolicies` bundle
    varies, so miss-rate differences are attributable to the policies
    alone.  Cells are independent and fan out over ``workers`` processes
    (or a persistent ``pool``) with results identical to ``workers=1``.
    """
    if scenario is None:
        scenario = default_resilience_scenario()
    if chaos is None:
        chaos = default_chaos_schedule(seed=seed)
    if policy_grid is None:
        policy_grid = default_policy_grid(seed=seed)
    context = {
        "scenario": scenario,
        "chaos": chaos,
        "duration_min": duration_min,
        "warmup_min": warmup_min,
        "seed": seed,
    }
    payloads = [
        {"label": label, "policies": policies}
        for label, policies in policy_grid
    ]
    cell_rows = run_cells(
        _resilience_cell, payloads, workers, context=context, pool=pool
    )
    result = ResilienceSweepResult(chaos=chaos)
    for rows in cell_rows:
        result.rows.extend(rows)
    return result


# ----------------------------------------------------------------------
# Application-level on/off comparison (CLI ``chaos`` subcommand)
# ----------------------------------------------------------------------
@dataclass
class ChaosComparison:
    """Policies-off vs policies-on outcomes under one fault schedule."""

    chaos: ChaosSchedule
    #: mode -> per-service rows (see :func:`_service_rows`).
    rows: Dict[str, List[Dict]] = field(default_factory=dict)
    #: mode -> resilience-layer counters.
    stats: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: mode -> fault / policy decision records (actor, minute, reason).
    decisions: Dict[str, List[Dict]] = field(default_factory=dict)


def run_chaos_comparison(run: RunSpec, on_simulator=None) -> ChaosComparison:
    """Scale an application, then replay one fault schedule on/off.

    ``run`` is the setting (with ``chaos`` on): its allocation runs twice
    under its fault schedule — once observation-only
    (:meth:`ResiliencePolicies.disabled`) and once with the default
    bundle.  Both runs attach a telemetry sink so every injected fault
    and policy decision lands in the returned decision records.
    ``on_simulator`` (if given) is invoked with the constructed simulator
    of the *resilient* run — the ``--serve`` observability plane attaches
    to the run whose breaker / chaos activity is worth watching live.
    """
    comparison = ChaosComparison(chaos=run.chaos_schedule)
    for mode, bundle in (
        ("no-policy", ResiliencePolicies.disabled(seed=run.seed)),
        ("resilient", ResiliencePolicies.default(seed=run.seed)),
    ):
        sink = run.sink(always=True)
        result = run.replay(
            sink,
            resilience=bundle,
            on_simulator=on_simulator if mode == "resilient" else None,
        )
        comparison.rows[mode] = _service_rows(result, run.specs)
        comparison.stats[mode] = result.resilience or {}
        comparison.decisions[mode] = [
            {
                "minute": record.minute,
                "actor": record.actor,
                "microservice": record.microservice,
                "reason": record.reason,
            }
            for record in sink.decisions.records
            if record.actor in ("chaos", "circuit-breaker", "admission",
                                "failure-injection")
        ]
    return comparison

"""δ-parameter sweep for priority scheduling (paper §4.3, Fig. 9).

Erms' priority queue is δ-probabilistic: with probability δ a lower-rank
job is served ahead of a higher-rank one, trading a little latency on the
tight-SLA ("hot") service for starvation-freedom on the loose-SLA
("cold") one.  The paper sweeps δ and finds a sweet spot (δ ≈ 0.05).

:func:`run_delta_sweep` reproduces that sweep on the simulator: a shared
microservice serving one hot and one cold service, replayed once per δ
value.  Each δ is an independent replay with its own seed, so the sweep
fans out through :func:`repro.experiments.harness.replay_cells`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.model import ServiceSpec
from repro.experiments.harness import Replay, ReplayContext, replay_cells
from repro.experiments.parallel import WorkerPool
from repro.graphs import DependencyGraph, call
from repro.simulator.simulation import SimulatedMicroservice

__all__ = ["run_delta_sweep"]


def _tails(result, sink, context: ReplayContext) -> Dict:
    return {
        f"{spec.name}_p95_ms": result.tail_latency(spec.name)
        for spec in context.specs
    }


def run_delta_sweep(
    deltas: Sequence[float] = (0.0, 0.05, 0.2),
    shared: SimulatedMicroservice = None,
    hot_rate: float = 36_000.0,
    cold_rate: float = 6_000.0,
    hot_sla: float = 50.0,
    cold_sla: float = 300.0,
    duration_min: float = 1.5,
    warmup_min: float = 0.3,
    seed: int = 1,
    workers: int = 1,
    pool: Optional[WorkerPool] = None,
) -> List[Dict]:
    """Sweep δ at a shared microservice under priority scheduling.

    Two services share one microservice ``P``: ``hot`` (tight SLA, high
    rate, rank 0) and ``cold`` (loose SLA, low rate, rank 1).  Each δ is
    one independent simulation seeded with ``seed``, so results are
    identical for any ``workers`` value.

    Returns:
        One row per δ: ``{"delta", "hot_p95_ms", "cold_p95_ms"}``.
    """
    if shared is None:
        shared = SimulatedMicroservice("P", base_service_ms=5.0, threads=4)
    name = shared.name
    specs = [
        ServiceSpec("hot", DependencyGraph("hot", call(name)), 0.0, hot_sla),
        ServiceSpec("cold", DependencyGraph("cold", call(name)), 0.0, cold_sla),
    ]
    context = ReplayContext(
        specs=specs,
        simulated={name: shared},
        duration_min=duration_min,
        warmup_min=warmup_min,
    )
    replays = [
        Replay(
            rates={"hot": hot_rate, "cold": cold_rate},
            containers={name: 1},
            priorities={name: {"hot": 0, "cold": 1}},
            seed=seed,
            delta=float(delta),
        )
        for delta in deltas
    ]
    rows = replay_cells(replays, _tails, context, workers, pool)
    return [
        {"delta": replay.delta, **row} for replay, row in zip(replays, rows)
    ]

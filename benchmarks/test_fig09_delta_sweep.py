"""Fig. 9 — impact of the δ scheduling parameter at a shared microservice.

Paper: two services share a microservice; raising δ from 0 to 0.05 costs
high-priority requests only ~5 % in P95 while improving low-priority
requests by more than 20 % (worst case; in most settings δ has a minor
effect).  Erms therefore fixes δ = 0.05.

Measured here: the starvation-prone regime that makes δ matter — the
high-priority service dominates the shared microservice's load, so strict
priority (δ = 0) makes low-priority requests wait out long busy periods.
Results are averaged over seeds; P95 near saturation is noisy.
"""

import numpy as np

from repro.experiments import format_table, run_delta_sweep

from conftest import run_once

DELTAS = [0.0, 0.05, 0.2]
SEEDS = range(4)


def _run():
    # run_delta_sweep's scenario: hot 36k + cold 6k req/min on one
    # 4-thread container of P (capacity 48k req/min)
    sweeps = [
        run_delta_sweep(DELTAS, seed=seed, duration_min=2.0, warmup_min=0.5)
        for seed in SEEDS
    ]
    return {
        delta: {
            "hot_p95": float(np.mean([sweep[i]["hot_p95_ms"] for sweep in sweeps])),
            "cold_p95": float(np.mean([sweep[i]["cold_p95_ms"] for sweep in sweeps])),
        }
        for i, delta in enumerate(DELTAS)
    }


def test_fig09_delta_sweep(benchmark, report):
    outcomes = run_once(benchmark, _run)

    rows = [{"delta": delta, **values} for delta, values in outcomes.items()]
    report(
        "fig09_delta_sweep",
        format_table(rows, "Fig. 9 - delta sweep at a shared microservice"),
    )

    strict = outcomes[0.0]
    small = outcomes[0.05]
    # delta=0.05 degrades high-priority P95 mildly (paper: ~5%; our
    # simulator shows ~10% in this regime)...
    assert small["hot_p95"] <= strict["hot_p95"] * 1.25
    # ...while improving low-priority P95 noticeably (paper: >20% in the
    # worst case; ours shows >=8% in this regime).
    assert small["cold_p95"] <= strict["cold_p95"] * 0.92

    # Larger delta continues the trade: cold keeps improving, hot pays.
    large = outcomes[0.2]
    assert large["cold_p95"] < small["cold_p95"]
    assert large["hot_p95"] > small["hot_p95"]

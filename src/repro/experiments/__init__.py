"""Experiment harness: one runner per paper figure.

Each runner returns plain dataclasses/dicts of the rows the paper's figure
plots; the benchmark suite prints them and asserts the qualitative shape
(who wins, by roughly what factor, where crossovers fall).  See
EXPERIMENTS.md for the per-figure paper-vs-measured record.
"""

from repro.experiments.delta import run_delta_sweep
from repro.experiments.harness import (
    RunSpec,
    evaluate_allocation,
    fit_profiles_from_simulation,
    simulate_profiling_sweep,
)
from repro.experiments.parallel import (
    WorkerPool,
    default_workers,
    get_context,
    run_cells,
)
from repro.experiments.reporting import format_table, render_run_report
from repro.experiments.plots import cdf_table, sparkline
from repro.experiments.static import StaticSweepResult, run_static_sweep
from repro.experiments.dynamic import DynamicResult, run_dynamic_workload
from repro.experiments.interference import (
    InterferenceResult,
    run_interference_comparison,
)
from repro.experiments.trace_sim import TraceSimResult, run_trace_simulation
from repro.experiments.resilience import (
    ChaosComparison,
    ResilienceSweepResult,
    default_chaos_schedule,
    default_policy_grid,
    default_resilience_scenario,
    run_chaos_comparison,
    run_resilience_sweep,
)

__all__ = [
    "WorkerPool",
    "default_workers",
    "get_context",
    "RunSpec",
    "evaluate_allocation",
    "fit_profiles_from_simulation",
    "run_cells",
    "run_delta_sweep",
    "simulate_profiling_sweep",
    "format_table",
    "render_run_report",
    "cdf_table",
    "sparkline",
    "StaticSweepResult",
    "run_static_sweep",
    "DynamicResult",
    "run_dynamic_workload",
    "InterferenceResult",
    "run_interference_comparison",
    "TraceSimResult",
    "run_trace_simulation",
    "ChaosComparison",
    "ResilienceSweepResult",
    "default_chaos_schedule",
    "default_policy_grid",
    "default_resilience_scenario",
    "run_chaos_comparison",
    "run_resilience_sweep",
]

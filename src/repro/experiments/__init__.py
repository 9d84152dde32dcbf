"""Experiment harness: one runner per paper figure.

Each runner returns plain dataclasses/dicts of the rows the paper's figure
plots; the benchmark suite prints them and asserts the qualitative shape
(who wins, by roughly what factor, where crossovers fall).  See
EXPERIMENTS.md for the per-figure paper-vs-measured record.
"""

from repro.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "delta": ("run_delta_sweep",),
    "harness": (
        "RunSpec", "evaluate_allocation", "fit_profiles_from_simulation",
        "simulate_profiling_sweep",
    ),
    "parallel": ("WorkerPool", "default_workers", "get_context", "run_cells"),
    "reporting": ("format_table", "render_run_report"),
    "plots": ("cdf_table", "sparkline"),
    "static": ("StaticSweepResult", "run_static_sweep"),
    "dynamic": ("DynamicResult", "run_dynamic_workload"),
    "interference": ("InterferenceResult", "run_interference_comparison"),
    "trace_sim": ("TraceSimResult", "run_trace_simulation"),
    "resilience": (
        "ChaosComparison", "ResilienceSweepResult", "default_chaos_schedule",
        "default_policy_grid", "default_resilience_scenario",
        "run_chaos_comparison", "run_resilience_sweep",
    ),
})

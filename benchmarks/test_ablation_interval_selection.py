"""Ablation — §5.3.1 interval selection: 1 pass vs 2 passes vs converged.

The paper processes each dependency graph at most twice: assume the
high-load interval everywhere, then switch microservices whose target
falls below the cut-off latency and recompute once.  With discontinuous
fitted segments the second pass can strand targets inconsistent with
their segment; our default runs the (monotone) switching loop to
convergence.  This ablation quantifies what each extra pass buys.
"""

from repro.core import compute_service_targets
from repro.experiments import format_table
from repro.workloads import social_network

from conftest import run_once

WORKLOADS = [600.0, 5_000.0, 20_000.0, 60_000.0]
SLA = 160.0  # tight enough that interval switching actually triggers


def _run():
    app = social_network()
    profiles = app.analytic_profiles()
    rows = []
    for max_passes in (1, 2, 8):
        total_containers = 0
        total_passes = 0
        runs = 0
        inconsistent = 0
        for workload in WORKLOADS:
            for spec in app.with_workloads(
                {s.name: workload for s in app.services}, sla=SLA
            ):
                result = compute_service_targets(
                    spec, profiles, max_passes=max_passes
                )
                total_containers += sum(result.containers.values())
                total_passes += result.passes
                runs += 1
                for name, target in result.targets.items():
                    model = profiles[name].model
                    segment = result.segments[name]
                    # A high-segment microservice whose target sits below
                    # the cut-off latency is operating off its segment.
                    if segment is model.high and target < model.latency_at_cutoff:
                        inconsistent += 1
        rows.append(
            {
                "max_passes": max_passes,
                "total_containers": total_containers,
                "avg_passes_used": total_passes / runs,
                "segment_inconsistencies": inconsistent,
            }
        )
    return rows


def test_ablation_interval_selection(benchmark, report):
    rows = run_once(benchmark, _run)
    report(
        "ablation_interval_selection",
        format_table(rows, "Ablation - interval-selection passes (SLA 160ms)"),
    )
    by_passes = {row["max_passes"]: row for row in rows}
    # Convergence resolves every target/segment mismatch...
    assert by_passes[8]["segment_inconsistencies"] == 0
    # ...that a single pass leaves behind.
    assert by_passes[1]["segment_inconsistencies"] > 0
    # Extra passes never cost resources overall in this sweep.
    assert (
        by_passes[8]["total_containers"] <= by_passes[1]["total_containers"]
    )
    # The loop terminates quickly even when allowed 8 passes.
    assert by_passes[8]["avg_passes_used"] <= 4.0

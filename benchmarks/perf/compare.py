"""Compare a fresh perf run against the tracked ``BENCH_des.json``.

Used by the ``bench-smoke`` CI job: the runner produces a fresh (quick)
report, and this script diffs its *rate* metrics — events/sec, cells/sec,
actions/sec — against the committed report, failing (exit 1) when any
regresses by more than the threshold (default 20 %).  Rate metrics are
duration-independent, so a quick run compares meaningfully against the
tracked full run; wall-clock fields are never compared.  Same-session
ratios (``RATIO_FLOORS``: the span table's forest against the per-trace
analysis) are gated against a fixed floor in the fresh run alone.

Correctness flags ride along: if the fresh run reports a false
``CORRECTNESS_FLAGS`` entry (e.g. ``parallel_grid.rows_identical``,
``allocation_throughput.identical``,
``baseline_stats.allocations_identical``,
``priority_replay.fingerprint_stable``,
``analysis_throughput.identical``), that is always a failure — a
fast wrong answer is not a benchmark win.

Usage::

    python benchmarks/perf/compare.py FRESH.json [--tracked BENCH_des.json]
        [--threshold 0.20]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]

#: (benchmark, metric) pairs gated on regression.  Higher is better for
#: every one of these.
RATE_METRICS = [
    ("saturation", "events_per_sec"),
    ("priority_replay", "events_per_sec"),
    ("allocation_throughput", "memoized_cells_per_sec"),
    ("allocation_throughput", "provisioner_actions_per_sec"),
    ("deploy_reconcile", "reconcile_actions_per_sec"),
    ("baseline_stats", "stats_services_per_sec"),
    ("telemetry_overhead", "disabled_events_per_sec"),
    ("telemetry_overhead", "enabled_events_per_sec"),
    ("resilience_overhead", "disabled_events_per_sec"),
    ("tsdb_overhead", "disabled_events_per_sec"),
    ("serve_overhead", "disabled_events_per_sec"),
]

#: (benchmark, ratio, floor): same-session ratios of the fresh run, gated
#: on their own — they hold on a box whose absolute speed does not.
RATIO_FLOORS = [
    ("analysis_throughput", "table_speedup", 2.0),
]

#: (benchmark, flag) pairs that must be true whenever present.
CORRECTNESS_FLAGS = [
    ("parallel_grid", "rows_identical"),
    ("allocation_throughput", "identical"),
    ("deploy_reconcile", "pods_match_cluster"),
    ("baseline_stats", "allocations_identical"),
    ("priority_replay", "fingerprint_stable"),
    ("analysis_throughput", "identical"),
]


def compare(fresh: dict, tracked: dict, threshold: float) -> list:
    """Return a list of human-readable failure strings (empty = pass)."""
    failures = []
    fresh_benchmarks = fresh.get("benchmarks", {})
    tracked_benchmarks = tracked.get("benchmarks", {})

    for bench, flag in CORRECTNESS_FLAGS:
        value = fresh_benchmarks.get(bench, {}).get(flag)
        if value is False:
            failures.append(f"{bench}.{flag} is false in the fresh run")

    for bench, metric, floor in RATIO_FLOORS:
        value = fresh_benchmarks.get(bench, {}).get(metric)
        if value is None:
            print(f"[compare] {bench}.{metric}: skipped (missing)")
            continue
        status = "ok"
        if value < floor:
            status = "REGRESSION"
            failures.append(f"{bench}.{metric}: {value:.2f}x, floor {floor:.1f}x")
        print(f"[compare] {bench}.{metric}: {value:.2f}x (floor {floor:.1f}x) {status}")

    for bench, metric in RATE_METRICS:
        old = tracked_benchmarks.get(bench, {}).get(metric)
        new = fresh_benchmarks.get(bench, {}).get(metric)
        if not old or not new:
            # Metric absent on either side (subset run, older report
            # schema): nothing to gate.
            print(f"[compare] {bench}.{metric}: skipped (missing)")
            continue
        ratio = new / old
        status = "ok"
        if ratio < 1.0 - threshold:
            status = "REGRESSION"
            failures.append(
                f"{bench}.{metric}: {new:.1f} vs tracked {old:.1f} "
                f"({(1.0 - ratio) * 100.0:.1f}% slower, "
                f"threshold {threshold * 100.0:.0f}%)"
            )
        print(
            f"[compare] {bench}.{metric}: {new:.1f} vs {old:.1f} "
            f"({ratio:.2f}x) {status}"
        )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "fresh", type=pathlib.Path, help="freshly produced report (JSON)"
    )
    parser.add_argument(
        "--tracked",
        type=pathlib.Path,
        default=REPO_ROOT / "BENCH_des.json",
        help="tracked report to compare against (default: repo BENCH_des.json)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.20,
        help="allowed fractional regression per rate metric (default 0.20)",
    )
    args = parser.parse_args(argv)

    fresh = json.loads(args.fresh.read_text())
    tracked = json.loads(args.tracked.read_text())
    failures = compare(fresh, tracked, args.threshold)
    if failures:
        print(f"[compare] FAILED ({len(failures)} regression(s)):")
        for failure in failures:
            print(f"[compare]   {failure}")
        return 1
    print("[compare] OK: no rate metric regressed beyond threshold")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

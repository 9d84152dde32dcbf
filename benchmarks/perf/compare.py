"""Gate a fresh perf run on what holds on any box.

Used by the ``bench-smoke`` CI job: the runner produces a fresh (quick)
report and this script checks two kinds of number in it, failing (exit 1)
on either:

* ``CORRECTNESS_FLAGS`` — a false flag (``parallel_grid.rows_identical``,
  ``allocation_throughput.identical``,
  ``baseline_stats.allocations_identical``,
  ``priority_replay.fingerprint_stable``,
  ``analysis_throughput.identical``, ...) is always a failure: a fast
  wrong answer is not a benchmark win.
* ``RATIO_FLOORS`` — same-session ratios (the span table's forest against
  the per-trace analysis; the cheapest attached sink against the bare
  engine), each against a fixed floor.

Absolute rates (events/sec, cells/sec) are reported by the runner and
tracked in ``BENCH_des.json`` but gate nothing: compared with a figure
recorded on another day they fail on parent and change alike.

Usage::

    python benchmarks/perf/compare.py FRESH.json
"""

from __future__ import annotations

import argparse
import json
import pathlib

#: (benchmark, ratio, floor): same-session ratios of the fresh run, gated
#: on their own — they hold on a box whose absolute speed does not.
RATIO_FLOORS = [
    ("analysis_throughput", "table_speedup", 2.0),
    # measured ≈ 0.5; trips when the cheapest sink's per-event cost doubles
    ("disabled_path", "attached_off_ratio", 0.35),
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


def compare(fresh: dict) -> list:
    """Return a list of human-readable failure strings (empty = pass)."""
    failures = []
    benchmarks = fresh.get("benchmarks", {})

    for bench, flag in CORRECTNESS_FLAGS:
        if benchmarks.get(bench, {}).get(flag) is False:
            failures.append(f"{bench}.{flag} is false in the fresh run")

    for bench, metric, floor in RATIO_FLOORS:
        value = benchmarks.get(bench, {}).get(metric)
        if value is None:
            print(f"[compare] {bench}.{metric}: skipped (missing)")
            continue
        status = "ok"
        if value < floor:
            status = "REGRESSION"
            failures.append(f"{bench}.{metric}: {value:.2f}x, floor {floor:.2f}x")
        print(f"[compare] {bench}.{metric}: {value:.2f}x (floor {floor:.2f}x) {status}")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "fresh", type=pathlib.Path, help="freshly produced report (JSON)"
    )
    args = parser.parse_args(argv)

    failures = compare(json.loads(args.fresh.read_text()))
    if failures:
        print(f"[compare] FAILED ({len(failures)}):")
        for failure in failures:
            print(f"[compare]   {failure}")
        return 1
    print("[compare] OK: correctness flags true, ratios above their floors")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Compare two result files of ``run.py`` against the benchmark's bounds.

Usage::

    python benchmarks/e2e/compare.py A.json B.json

``A`` is the parent, ``B`` the change.  One row per workload and
end-to-end metric: the two medians, how much worse ``B`` is as a share of
``A``'s median, the metric's bound from ``BENCHMARK.json``, the wider of
the two run-to-run spreads (interquartile distance over the median), and
a verdict:

* ``regressed`` / ``improved`` — the medians differ by more than the bound;
* ``unchanged`` — they do not, and the spread is within the bound;
* ``unresolved`` — the spread is wider than the bound, so the runs cannot
  tell (unless every run of ``B`` reads better than every run of ``A``,
  which is ``improved``).

Simulated statistics and count-type layer metrics are compared exactly
when both files carry a traced pass of the same seed, and listed when they
differ: a host-time-only change must leave them identical, an algorithmic
change is judged on them.  Exit code 1 when anything regressed or is
unresolved, 2 when the files cannot be compared (a quick run against a
full one, say).
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys
from typing import Dict, List

ROOT = pathlib.Path(__file__).resolve().parents[2]


def load_contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def summarize(values: List[float]) -> Dict[str, float]:
    """Median, quartiles, sample count and spread (IQR over median)."""
    median = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "spread": (q3 - q1) / median if median else 0.0,
    }


def metric_values(results: dict, workload: str, metric: str) -> List[float]:
    return [run["metrics"][metric]["value"] for run in results["workloads"][workload]["runs"]]


def compare(a: dict, b: dict, contract: dict) -> List[dict]:
    rows = []
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            continue
        for metric in contract["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            lower_is_better = metric["better"] == "lower"
            va, vb = metric_values(a, workload, name), metric_values(b, workload, name)
            sa, sb = summarize(va), summarize(vb)
            change = (sb["median"] - sa["median"]) / sa["median"]
            worse_by = change if lower_is_better else -change
            spread = max(sa["spread"], sb["spread"])
            all_better = (
                max(vb) < min(va) if lower_is_better else min(vb) > max(va)
            )
            if spread > bound:
                verdict = "improved" if all_better else "unresolved"
            elif worse_by > bound:
                verdict = "regressed"
            elif worse_by < -bound:
                verdict = "improved"
            else:
                verdict = "unchanged"
            rows.append({
                "workload": workload, "metric": name, "unit": metric["unit"],
                "a": sa["median"], "b": sb["median"], "worse_by": worse_by,
                "bound": bound, "spread": spread, "verdict": verdict,
            })
    return rows


def exact_differences(a: dict, b: dict, contract: dict) -> List[str]:
    """Simulated statistics and counts that differ between two traced passes."""
    exact = [
        m["name"] for m in contract["per_layer"]
        if m["unit"] == "count" or m["name"].startswith("sim.")
    ]
    differences = []
    for workload, entry in a["workloads"].items():
        ta = entry.get("traced")
        tb = b["workloads"].get(workload, {}).get("traced")
        if not ta or not tb or ta["seed"] != tb["seed"]:
            continue
        for name in exact:
            left, right = ta["metrics"][name]["value"], tb["metrics"][name]["value"]
            if left != right:
                differences.append(f"{workload} {name}: {left} vs {right}")
    return differences


def format_rows(rows: List[dict]) -> str:
    header = (
        f"{'workload':<17} {'metric':<16} {'A median':>12} {'B median':>12} "
        f"{'worse by':>9} {'bound':>6} {'spread':>7}  verdict"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row['workload']:<17} {row['metric']:<16} {row['a']:>12.5g} "
            f"{row['b']:>12.5g} {row['worse_by']:>+9.1%} {row['bound']:>6.0%} "
            f"{row['spread']:>7.1%}  {row['verdict']}"
        )
    return "\n".join(lines)


def report(a: dict, b: dict):
    """Print the comparison; returns (regressed or unresolved rows,
    differing simulated statistics and counts)."""
    contract = load_contract()
    rows = compare(a, b, contract)
    print(format_rows(rows))
    differences = exact_differences(a, b, contract)
    for line in differences:
        print(f"differs: {line}")
    bad = [r for r in rows if r["verdict"] in ("regressed", "unresolved")]
    print(
        f"{len(rows)} comparisons: {len(bad)} regressed or unresolved, "
        f"{len(differences)} simulated statistics or counts differ"
    )
    return bad, differences


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        a, b = (json.loads(pathlib.Path(path).read_text()) for path in argv)
    except (OSError, ValueError) as error:
        print(f"cannot read result file: {error}", file=sys.stderr)
        return 2
    if a.get("mode") != b.get("mode") or a.get("seconds") != b.get("seconds"):
        print(
            f"cannot compare: mode/seconds differ "
            f"({a.get('mode')}/{a.get('seconds')} vs {b.get('mode')}/{b.get('seconds')})",
            file=sys.stderr,
        )
        return 2
    bad, _ = report(a, b)
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())

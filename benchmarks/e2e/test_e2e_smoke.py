"""Smoke test of the end-to-end benchmark (opt-in: ``pytest benchmarks/e2e -m perf``).

Runs every workload once in quick mode, untraced and traced, the way the
benchmark driver calls it, and asserts the contract of the last output
line: exactly the declared metrics, each finite and carrying its unit.
Numbers are not asserted — this checks the benchmark, not the program's
speed.
"""

import json
import math
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]

pytestmark = pytest.mark.perf


def _run(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [
            sys.executable, str(ROOT / "benchmarks/e2e/run.py"), "--quick",
            "--workload", workload, "--seed", "7", "--seconds", "4", "--trace", str(trace),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_declared_metric_is_reported(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = CONTRACT["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert math.isfinite(entry["value"]), metric["name"]
        if not trace:
            assert entry["value"] > 0, metric["name"]
    if trace:
        dump = ROOT / "benchmarks/e2e/out" / f"trace-{workload}.json"
        spans = json.loads(dump.read_text())["spans"]
        assert any(span[0] == "iteration" for span in spans)


def test_contract_file_is_well_formed():
    assert CONTRACT["paths"] == ["benchmarks/e2e"]
    assert len(WORKLOADS) == len(set(WORKLOADS)) == 5
    names = [m["name"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]]
    assert len(names) == len(set(names))
    assert "setup_s" in names
    assert all(0 < m["bound"] <= 0.25 for m in CONTRACT["end_to_end"])

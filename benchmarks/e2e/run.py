"""End-to-end benchmark of the Erms pipeline: one command, five workloads.

One workload, the way the benchmark driver calls it (the last line of
standard output is one JSON object; ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer ones)::

    python3 benchmarks/e2e/run.py --workload des_replay --seed 0 --seconds 12 --trace 0

The whole suite, for people::

    python3 benchmarks/e2e/run.py [--seed N] [--runs N] [--traced] [--quick]
                                  [--output FILE] [--record] [--agree]

Each workload runs in fresh subprocesses, single-threaded.  An untraced
run starts ``SETUP_REPEATS`` of them: all do the set-up (imports, input
generation, warm-up), one goes on to the timed iterations; ``setup_s`` is
the median set-up time.  Timings are reported in reference seconds (see
``calibrate``); raw wall times are printed beside them.  A traced run
starts one subprocess, with every layer
boundary wrapped in a span (``trace.py``, ``layers.py``), and leaves the
spans in ``out/trace-<workload>.json``.

``--quick`` runs a quarter of the iterations with a single set-up and
marks the results ``"mode": "quick"``; quick results are never compared
with full ones.  ``--agree`` runs the suite twice and applies
``compare.py`` to the two sets.  A full suite run appends one line to
``history.jsonl``; ``--record`` also rewrites ``baseline.json``.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import functools  # noqa: E402
import gc  # noqa: E402
import heapq  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
# Siblings import as ``benchmarks.e2e.*`` from the repo root rather than
# from the script directory, where ``trace.py`` would shadow the standard
# library's ``trace``.
if sys.path and pathlib.Path(sys.path[0]).resolve() == HERE:
    del sys.path[0]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from benchmarks.e2e import compare  # noqa: E402

OUT_DIR = HERE / "out"
SETUP_REPEATS = 3
#: What :func:`calibrate` takes on the reference box (2 vCPUs of a Xeon at
#: 2.1 GHz, CPython 3.11) when nothing else runs.
REFERENCE_CALIBRATION_S = 0.020
#: A run whose code got much slower stops early rather than hit the
#: driver's 180 s limit; it then reports fewer iterations.
HARD_CAP_FACTOR = 5.0
CHILD_TIMEOUT_S = 170


# ----------------------------------------------------------------------
# child: one process, one workload
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def _kernel_tables():
    x, items = 12345, []
    for i in range(1 << 16):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        items.append((x, i))
    heap = items[: 1 << 14]
    heapq.heapify(heap)
    return items, heap, {key: key for key in range(1 << 16)}


def _kernel() -> float:
    # Allocates nothing that outlives a loop step: how long it takes must
    # not depend on the state the workload left the allocator in.
    (items, heap, table), replace = _kernel_tables(), heapq.heapreplace
    x, total = 12345, 0
    start = time.perf_counter()
    for i in range(15_000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        total += table[x & 0xFFFF] ^ table[(x >> 8) & 0xFFFF]
        replace(heap, items[(i * 7) & 0xFFFF])
    return time.perf_counter() - start


def calibrate(repeats: int) -> float:
    """Time a fixed interpreter-bound kernel (integer arithmetic, dict
    lookups and heap operations over a few MB): how fast this host runs
    Python *right now*.

    The sandboxes this runs in slow down by up to 2x for seconds to minutes
    at a time when a neighbour is busy.  Timings are therefore reported in
    reference seconds: wall time scaled by ``REFERENCE_CALIBRATION_S`` over
    the calibration measured around it, which a slow phase stretches by the
    same factor as the work it brackets.  The median of ``repeats`` runs, so
    that a hiccup of a few milliseconds does not pass for a slow phase.
    """
    # without the collector: its passes would cost more in a process
    # that holds a bigger object graph, which is not the host's speed
    collecting = gc.isenabled()
    gc.disable()
    try:
        return statistics.median(_kernel() for _ in range(repeats))
    finally:
        if collecting:
            gc.enable()


def _cache_counters() -> dict:
    from repro.core import merge_tree_cache, targets_memo_stats

    cache, memo = merge_tree_cache(), targets_memo_stats()
    return {
        "core.merge.cache_hits": cache.hits,
        "core.merge.cache_misses": cache.misses,
        "core.latency_targets.memo_hits": memo["hits"],
        "core.latency_targets.memo_misses": memo["misses"],
    }


def child_main(args) -> int:
    """Set up, iterate, check; print one JSON object for the parent."""
    from benchmarks.e2e import layers
    from benchmarks.e2e.trace import Tracer
    from benchmarks.e2e.workloads import WORKLOADS

    tracer = Tracer() if args.child == "traced" else None
    if tracer:
        layers.instrument(tracer)
    workload = WORKLOADS[args.workload](args.seed, tracer)
    failures = list(workload.setup())
    setup_s = time.perf_counter() - PROCESS_START
    # calibration[i] precedes timed iteration i, calibration[i + 1] follows it
    calibration = [calibrate(workload.CALIBRATION_REPEATS)]
    if args.child == "setup":
        print(json.dumps(
            {"setup_s": setup_s, "calibration_s": calibration, "failures": failures}
        ))
        return 0

    planned = workload.iterations(args.seconds)
    wall, cpu, work = [], [], []
    attempted = failed = 0
    give_up_at = time.perf_counter() + HARD_CAP_FACTOR * args.seconds + 30.0
    for i in range(planned):
        if time.perf_counter() > give_up_at:
            break
        attempted += 1
        problems = []
        try:
            if tracer:
                tracer.iteration = i
            workload.prepare(i)
            before = _cache_counters() if tracer else None
            cpu_start, start = time.process_time(), time.perf_counter()
            if tracer:
                with tracer.span("iteration"):
                    done = workload.iteration(i)
            else:
                done = workload.iteration(i)
            wall.append(time.perf_counter() - start)
            cpu.append(time.process_time() - cpu_start)
            calibration.append(calibrate(workload.CALIBRATION_REPEATS))
            work.append(done)
            if tracer:
                for name, after in _cache_counters().items():
                    tracer.count(name, after - before[name])
            if not (math.isfinite(done) and done > 0):
                problems.append(f"{workload.name}[{i}]: no work done ({done})")
            problems += workload.check(i)
        except Exception:  # an iteration that raises is a failed iteration
            traceback.print_exc()
            problems.append(f"{workload.name}[{i}]: raised, see the traceback above")
        if problems:
            failed += 1
            failures += problems
    if not wall:
        print(f"{workload.name}: no iteration completed", file=sys.stderr)
        return 1
    failures += workload.finish()
    layer = dict(workload.sim_stats())
    if tracer:
        tracer.iteration = -1
        failures += workload.probes()
        layer.update(layers.span_metrics(tracer))
        layer.update(workload.layer)
        layer.update({
            "driver.iter_wall_s_p50": statistics.median(wall),
            "driver.iter_wall_s_p75": _percentile(wall, 0.75),
            "driver.iter_cpu_s_p50": statistics.median(cpu),
            "driver.calibration_ms_p50": 1e3 * statistics.median(calibration),
            "driver.trace_overhead_pct": 100.0 * tracer.span_cost_s()
            * tracer.iteration_span_count() / sum(wall),
        })
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(
            OUT_DIR / f"trace-{workload.name}.json",
            {"workload": workload.name, "seed": args.seed, "seconds": args.seconds},
        )
    print(json.dumps({
        "setup_s": setup_s,
        "calibration_s": calibration,
        "iter_wall_s": wall,
        "iter_cpu_s": cpu,
        "work": work,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layer": layer,
    }))
    return 0


def spawn(kind: str, workload: str, seed: int, seconds: float) -> dict:
    """Run one child to completion and return what it printed last."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    command = [
        sys.executable, str(HERE / "run.py"), "--child", kind,
        "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
    ]
    done = subprocess.run(
        command, stdout=subprocess.PIPE, text=True, env=env,
        timeout=CHILD_TIMEOUT_S, cwd=ROOT,
    )  # on timeout, run() kills the child and waits for it before raising
    if done.returncode != 0:
        raise RuntimeError(f"{workload}: {kind} child exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# parent: one run of one workload -> named metrics
# ----------------------------------------------------------------------
def _percentile(values, share: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def reference_seconds(wall_s: float, calibration_s: float) -> float:
    return wall_s * REFERENCE_CALIBRATION_S / calibration_s


def run_workload(contract, workload, seed, seconds, trace, quick=False) -> dict:
    """One run as the driver makes it; returns the contract's result object
    plus the failure messages and the raw times behind it."""
    if quick:
        seconds = seconds / 4.0
    if trace:
        measured = spawn("traced", workload, seed, seconds)
        failures = measured["failures"]
        declared = contract["per_layer"]
        # layers this workload does not exercise report 0
        metrics = {m["name"]: float(measured["layer"].get(m["name"], 0.0)) for m in declared}
    else:
        repeats = 1 if quick else SETUP_REPEATS
        setups = [spawn("setup", workload, seed, seconds) for _ in range(repeats - 1)]
        measured = spawn("measure", workload, seed, seconds)
        setups.append(measured)
        failures = [f for child in setups for f in child["failures"]]
        declared = contract["end_to_end"]
        calibration = measured["calibration_s"]
        iter_ref_s = [
            reference_seconds(wall, (before + after) / 2.0)
            for wall, before, after in zip(measured["iter_wall_s"], calibration, calibration[1:])
        ]
        metrics = {
            "setup_s": statistics.median([
                reference_seconds(child["setup_s"], child["calibration_s"][0])
                for child in setups
            ]),
            "iter_ref_s_p50": statistics.median(iter_ref_s),
            "work_per_ref_s": statistics.median(
                [w / t for w, t in zip(measured["work"], iter_ref_s)]
            ),
            "peak_rss_mb": measured["peak_rss_mb"],
        }
    return {
        "correct": not failures,
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared
        },
        "failures": failures,
        "raw": {key: measured[key] for key in ("iter_wall_s", "calibration_s")},
    }


def print_metrics(workload: str, result: dict) -> None:
    print(f"[{workload}] attempted={result['attempted']} failed={result['failed']} "
          f"correct={result['correct']}")
    for name, entry in result["metrics"].items():
        print(f"  {name:<46} {entry['value']:>14.6g} {entry['unit']}")
    raw = result["raw"]
    print(f"  raw: iter_wall_s p50 {statistics.median(raw['iter_wall_s']):.4g}, "
          f"calibration p50 {1e3 * statistics.median(raw['calibration_s']):.1f} ms "
          f"(reference {1e3 * REFERENCE_CALIBRATION_S:.0f} ms)")
    for failure in result["failures"]:
        print(f"  CHECK FAILED: {failure}")


# ----------------------------------------------------------------------
# the suite
# ----------------------------------------------------------------------
def _commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 and done.stdout.strip() else "unknown"


def run_suite(contract, args, names, output=None) -> dict:
    """Every workload ``--runs`` times; ``output`` is rewritten after each
    workload, so a late failure does not lose the earlier measurements."""
    results = {
        "schema": 1,
        "mode": "quick" if args.quick else "full",
        "commit": _commit(),
        "seed": args.seed,
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "workloads": {},
    }
    for name in names:
        entry = {"runs": []}
        for k in range(args.runs):
            run = run_workload(contract, name, args.seed + k, args.seconds, 0, args.quick)
            run["seed"] = args.seed + k
            print_metrics(name, run)
            entry["runs"].append(run)
        entry["summary"] = {
            m["name"]: dict(
                compare.summarize([r["metrics"][m["name"]]["value"] for r in entry["runs"]]),
                unit=m["unit"],
            )
            for m in contract["end_to_end"]
        }
        if args.traced:
            entry["traced"] = run_workload(contract, name, args.seed, args.seconds, 1, args.quick)
            entry["traced"]["seed"] = args.seed
            print_metrics(f"{name} traced", entry["traced"])
        results["workloads"][name] = entry
        if output:
            pathlib.Path(output).write_text(json.dumps(results, indent=1) + "\n")
    return results


def print_summary(results: dict) -> None:
    print(f"\n{'workload':<17} {'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'n':>3} {'spread':>7}  unit")
    for name, entry in results["workloads"].items():
        for metric, s in entry["summary"].items():
            print(f"{name:<17} {metric:<16} {s['median']:>12.5g} {s['q1']:>12.5g} "
                  f"{s['q3']:>12.5g} {s['n']:>3} {s['spread']:>7.1%}  {s['unit']}")


def _incorrect(results: dict) -> bool:
    return any(
        not run["correct"]
        for entry in results["workloads"].values()
        for run in entry["runs"] + ([entry["traced"]] if "traced" in entry else [])
    )


def append_history(results: dict) -> None:
    line = {
        key: results[key]
        for key in ("commit", "seed", "seconds", "nproc", "python")
    }
    line["medians"] = {
        name: {metric: s["median"] for metric, s in entry["summary"].items()}
        for name, entry in results["workloads"].items()
    }
    with open(HERE / "history.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps(line) + "\n")


def suite_main(contract, args) -> int:
    names = [w["name"] for w in contract["workloads"]]
    first = run_suite(contract, args, names, args.output)
    print_summary(first)
    status = 1 if _incorrect(first) else 0
    if args.agree:
        second = run_suite(contract, args, names, args.output and args.output + ".second")
        print_summary(second)
        print()
        bad, differences = compare.report(first, second)
        status = 1 if status or bad or differences or _incorrect(second) else 0
    if not args.quick:
        append_history(first)
        if args.record:
            (HERE / "baseline.json").write_text(json.dumps(first, indent=1) + "\n")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run this workload only, driver style")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true", help="suite: add the traced pass")
    parser.add_argument("--runs", type=int, default=1, help="suite: runs per workload, seeds seed..seed+runs-1")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--agree", action="store_true", help="suite: run twice, compare the two sets")
    parser.add_argument("--output", help="suite: write the results here (--agree: second set to FILE.second)")
    parser.add_argument("--record", action="store_true", help="suite: rewrite baseline.json")
    parser.add_argument("--repin", action="store_true", help="rewrite pinned.json from the current code")
    parser.add_argument("--child", choices=("setup", "measure", "traced"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        return child_main(args)
    if args.repin:
        from benchmarks.e2e.workloads import pinned_sets

        rows = [f' "{name}": {json.dumps(sets)}' for name, sets in pinned_sets(range(32)).items()]
        (HERE / "pinned.json").write_text("{\n" + ",\n".join(rows) + "\n}\n")
        return 0
    contract = compare.load_contract()
    if args.seconds is None:
        args.seconds = float(contract["run_seconds"])
    if args.workload is None:
        return suite_main(contract, args)
    if args.workload not in [w["name"] for w in contract["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")
    result = run_workload(contract, args.workload, args.seed, args.seconds, args.trace, args.quick)
    print_metrics(args.workload, result)
    failures = result.pop("failures")
    del result["raw"]
    print(json.dumps(result))
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())

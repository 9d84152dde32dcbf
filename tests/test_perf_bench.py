"""Perf benchmark suite tests.

The smoke tests (default tier-1) check that the runner produces a
well-formed ``BENCH_des.json`` and that the checked-in report records the
engine speedup.  The micro-timing guard actually times the engine and is
``perf``-marked — excluded from the default run (``-m "not perf"`` in
``pyproject.toml``), opt in with ``pytest -m perf``.
"""

import json
import pathlib
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "benchmarks" / "perf"))

import compare  # noqa: E402  (benchmarks/perf/compare.py)
import runner  # noqa: E402  (benchmarks/perf/runner.py)

GUARD_FLOOR = {(b, m): floor for b, m, floor in compare.RATIO_FLOORS}[
    ("disabled_path", "attached_off_ratio")
]


class TestRunnerSmoke:
    def test_writes_well_formed_report(self, tmp_path):
        out = tmp_path / "BENCH_des.json"
        report = runner.run_suite(only=["trace_slice"], output=out)
        assert out.exists()
        on_disk = json.loads(out.read_text())
        assert on_disk == report
        assert on_disk["schema"] == 1
        slice_report = on_disk["benchmarks"]["trace_slice"]
        assert slice_report["wall_s"] > 0
        assert slice_report["services"] == 40
        assert slice_report["total_containers"] > 0
        # The checked-in seed baseline rides along in every report.
        baseline = on_disk["baseline"]["benchmarks"]["saturation"]
        assert baseline["events_per_sec"] > 0

    def test_checked_in_report_records_speedup(self):
        """The committed BENCH_des.json carries both engines' numbers."""
        report = json.loads((REPO_ROOT / "BENCH_des.json").read_text())
        current = report["benchmarks"]["saturation"]["events_per_sec"]
        baseline = report["baseline"]["benchmarks"]["saturation"][
            "events_per_sec"
        ]
        assert current > 0 and baseline > 0
        assert report["saturation_speedup_vs_seed"] >= 3.0

    def test_checked_in_report_records_analysis_throughput(self):
        """The post-run analysis is tracked as a same-session ratio.

        Reads the committed report (no timing here): both inputs must
        have produced the same analysis, and the rates carry their trials
        and dispersion.
        """
        report = json.loads((REPO_ROOT / "BENCH_des.json").read_text())
        analysis = report["benchmarks"]["analysis_throughput"]
        assert analysis["traces"] > 0 and analysis["identical"] is True
        # same session, same traces: the table's forest vs trace by trace
        assert analysis["table_speedup"] >= 2.0
        for stats in (analysis["table_trials"], analysis["materialised_trials"]):
            assert len(stats["trials"]) >= 3
            assert min(stats["trials"]) <= stats["median"] <= stats["best"]
            assert stats["iqr"] >= 0

    def test_checked_in_report_disabled_path_guard(self):
        """The one disabled-path figure is a same-session ratio.

        No timing here: the committed entry compares the cheapest
        attached sink with the bare engine in alternating trials, and
        sits above the floor ``benchmarks/perf/compare.py`` gates.
        """
        report = json.loads((REPO_ROOT / "BENCH_des.json").read_text())
        guard = report["benchmarks"]["disabled_path"]
        assert GUARD_FLOOR <= guard["attached_off_ratio"] < 1.0
        for stats in (guard["bare_trials"], guard["attached_off_trials"]):
            assert len(stats["trials"]) >= 3
            assert min(stats["trials"]) <= stats["median"] <= stats["best"]
        for gone in ("telemetry_overhead", "tail_sampling",
                     "resilience_overhead", "tsdb_overhead", "serve_overhead"):
            assert gone not in report["benchmarks"]

    def test_checked_in_report_records_deploy_reconcile(self):
        """The per-pod deploy stage is tracked with trials and dispersion.

        No timing here: the committed entry must come from a run whose
        pods matched the cluster, and carry the rate the CI gate reads.
        """
        report = json.loads((REPO_ROOT / "BENCH_des.json").read_text())
        deploy = report["benchmarks"]["deploy_reconcile"]
        assert deploy["pods_match_cluster"] is True
        assert deploy["hosts"] == 200 and deploy["pod_actions"] > 1_000
        stats = deploy["reconcile_trials"]
        assert deploy["reconcile_actions_per_sec"] == stats["best"] > 0
        assert len(stats["trials"]) >= 3
        assert min(stats["trials"]) <= stats["median"] <= stats["best"]

    def test_checked_in_report_records_baseline_stats(self):
        """The comparators' statistics sweep is tracked like the deploy stage.

        No timing here: the committed entry must come from a run whose
        GrandSLAm/Rhythm container maps matched the scalar reference
        loop, over the full 300-service population.
        """
        report = json.loads((REPO_ROOT / "BENCH_des.json").read_text())
        baseline = report["benchmarks"]["baseline_stats"]
        assert baseline["allocations_identical"] is True
        assert baseline["services"] == 300
        assert baseline["service_microservice_pairs"] > 10_000
        stats = baseline["stats_trials"]
        assert baseline["stats_services_per_sec"] == stats["best"] > 0
        assert len(stats["trials"]) >= 3
        assert min(stats["trials"]) <= stats["median"] <= stats["best"]

    def test_checked_in_report_records_priority_replay(self):
        """The §5.3.2 data plane is tracked beside FCFS ``saturation``.

        No timing here: the committed entry must come from same-seed
        trials that agreed on the latency stream, on the ``des_replay``
        shape (Social Network, 52 containers, nine priority-scheduled
        shared microservices).
        """
        report = json.loads((REPO_ROOT / "BENCH_des.json").read_text())
        replay = report["benchmarks"]["priority_replay"]
        assert replay["fingerprint_stable"] is True
        assert replay["containers"] == 52
        assert replay["priority_microservices"] == 9
        assert replay["events"] > 1_000_000 > replay["requests"] > 50_000
        stats = replay["events_trials"]
        assert replay["events_per_sec"] == stats["best"] > 0
        assert len(stats["trials"]) >= 3
        assert min(stats["trials"]) <= stats["median"] <= stats["best"]

    def test_priority_replay_quick_mode(self):
        """Quick mode keeps the allocation and still checks the stream."""
        replay = runner.bench_priority_replay(quick=True)
        assert replay["fingerprint_stable"] is True
        assert replay["containers"] == 52
        assert replay["priority_microservices"] == 9
        assert len(replay["events_trials"]["trials"]) == 2
        assert replay["events"] > 10 * replay["requests"] > 0

    def test_reference_loop_agrees_with_the_schemes(self):
        """The bench's scalar reference and the schemes allocate alike."""
        from repro.baselines import GrandSLAm, Rhythm
        from repro.workloads import generate_taobao

        population = generate_taobao(
            n_services=6, mean_graph_size=15, shared_pool=20, seed=5
        )
        specs, profiles = population.services, population.profiles
        for scheme in (GrandSLAm(), Rhythm()):
            assert scheme.scale(specs, profiles).containers == (
                runner._reference_baseline_containers(
                    specs, profiles, scheme.name
                )
            )


@pytest.mark.perf
class TestMicroTimingGuard:
    def test_saturation_throughput_floor(self):
        """Gross engine regressions fail loudly.

        The fast-path engine does ~650k events/sec on a 1-CPU container
        (seed engine: ~214k); the floor is generous so slow shared CI
        machines don't flake, while a return to closure-per-event
        allocation (or worse) still trips it.
        """
        report = runner.bench_saturation(duration_min=1.0, trials=3)
        assert report["events_per_sec"] >= 150_000
        assert report["requests"] > 0

    def test_telemetry_disabled_within_20pct_of_tracked(self):
        """The disabled-telemetry hot path must not regress.

        The telemetry hooks add one ``is None`` branch per hot loop; this
        guard re-times the saturation scenario against the checked-in
        ``BENCH_des.json`` figure.  The tolerance is 20 %: on a shared VM
        the same deterministic workload swings well beyond 5 % between
        host phases, while the regression class this guards against
        (closure-per-event allocation) costs 3x.  Best-of-5 damps the
        phase noise further.
        """
        tracked = json.loads((REPO_ROOT / "BENCH_des.json").read_text())
        pinned = tracked["benchmarks"]["saturation"]["events_per_sec"]
        report = runner.bench_saturation(duration_min=1.0, trials=5)
        assert report["events_per_sec"] >= 0.80 * pinned

    def test_attached_off_sink_is_bounded(self):
        """The cheapest attached sink slows the engine, but boundedly.

        Re-times the ``disabled_path`` guard and holds it to the floor CI
        gates: windows, the SLA monitor and the per-call metric columns
        cost about half the bare rate; the guard trips on a runaway
        per-event cost, not the known price.
        """
        report = runner.bench_disabled_path(quick=True)
        assert report["bare_events_per_sec"] > 0
        assert report["attached_off_ratio"] >= GUARD_FLOOR

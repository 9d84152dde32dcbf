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

import runner  # noqa: E402  (benchmarks/perf/runner.py)


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

    def test_checked_in_report_records_tail_sampling(self):
        """Tail-based sampling numbers ride along with telemetry_overhead.

        Reads the committed report (no timing here): the tail run must
        keep only a small fraction of traces and cost less than full
        retention on the same scenario.
        """
        report = json.loads((REPO_ROOT / "BENCH_des.json").read_text())
        tail = report["benchmarks"]["tail_sampling"]
        assert tail["tail_threshold_ms"] > 0
        assert tail["keep_fraction"] <= 0.15
        assert tail["traces_kept"] < tail["traces_sampled"]
        assert tail["tail_overhead_pct"] < tail["full_overhead_pct"]
        analysis = report["benchmarks"]["analysis_throughput"]
        assert analysis["traces"] > 0 and analysis["identical"] is True
        # same session, same traces: the table's forest vs trace by trace
        assert analysis["table_speedup"] >= 2.0
        # the enabled-path rates carry their trials and dispersion
        telemetry = report["benchmarks"]["telemetry_overhead"]
        for stats in (
            telemetry["enabled_trials"], tail["full_trials"],
            analysis["table_trials"], analysis["materialised_trials"],
        ):
            assert len(stats["trials"]) >= 3
            assert min(stats["trials"]) <= stats["median"] <= stats["best"]
            assert stats["iqr"] >= 0

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

    def test_checked_in_report_resilience_disabled_path(self):
        """The disabled-resilience hot path costs nothing measurable.

        Both figures in the committed report come from the same suite
        run on the same host, so the tolerance can be tight: with no
        chaos schedule or policy bundle attached, the resilience layer
        is one ``is not None`` branch per arrival/fan-out, and its
        events/sec must sit within 5 % of the plain saturation number.
        """
        report = json.loads((REPO_ROOT / "BENCH_des.json").read_text())
        resilience = report["benchmarks"]["resilience_overhead"]
        saturation = report["benchmarks"]["saturation"]["events_per_sec"]
        assert resilience["disabled_events_per_sec"] >= 0.95 * saturation
        assert resilience["enabled_events_per_sec"] > 0
        # The enabled run must actually exercise the policy machinery:
        # a fault-free "enabled" measurement would understate the cost.
        assert (
            resilience["enabled_retries"] + resilience["enabled_chaos_errors"]
            > 0
        )

    def test_checked_in_report_tsdb_disabled_path(self):
        """The scrape-off hot path costs nothing measurable.

        With no telemetry sink attached there is no TSDB anywhere near
        the engine, so the disabled figure must sit within 5 % of the
        plain saturation number from the same suite run — the tentpole's
        "disabled path stays free" acceptance gate.  The enabled figure
        must come from a run that actually scraped.
        """
        report = json.loads((REPO_ROOT / "BENCH_des.json").read_text())
        tsdb = report["benchmarks"]["tsdb_overhead"]
        saturation = report["benchmarks"]["saturation"]["events_per_sec"]
        assert tsdb["disabled_events_per_sec"] >= 0.95 * saturation
        assert tsdb["enabled_events_per_sec"] > 0
        assert tsdb["scrapes"] > 0
        assert tsdb["samples"] > tsdb["scrapes"]

    def test_checked_in_report_serve_disabled_path(self):
        """The no-server hot path costs nothing measurable.

        A run that never passes ``--serve`` constructs no HTTP server,
        no threads, no source adapter — so the disabled figure must sit
        within 5 % of the plain saturation number from the same suite
        run (the tentpole's acceptance gate).  The enabled figure must
        come from a run that actually served scrapes concurrently.
        """
        report = json.loads((REPO_ROOT / "BENCH_des.json").read_text())
        serve = report["benchmarks"]["serve_overhead"]
        saturation = report["benchmarks"]["saturation"]["events_per_sec"]
        assert serve["disabled_events_per_sec"] >= 0.95 * saturation
        assert serve["enabled_events_per_sec"] > 0
        assert serve["requests_served"] > 0


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
        ``BENCH_des.json`` figure.  The tolerance matches the 20 %
        threshold of ``benchmarks/perf/compare.py``: on a shared VM the
        same deterministic workload swings well beyond 5 % between host
        phases, while the regression class this guards against
        (closure-per-event allocation) costs 3x.  Best-of-5 damps the
        phase noise further.
        """
        tracked = json.loads((REPO_ROOT / "BENCH_des.json").read_text())
        pinned = tracked["benchmarks"]["saturation"]["events_per_sec"]
        report = runner.bench_saturation(duration_min=1.0, trials=5)
        assert report["events_per_sec"] >= 0.80 * pinned

    def test_telemetry_overhead_is_bounded(self):
        """Fully-enabled telemetry slows the engine, but boundedly.

        Span emission at 100 % sampling allocates two spans per call, so
        ~3x slowdown is the expected worst case (tracked ~66 %); the
        guard trips on a runaway per-event cost, not the known price.
        """
        report = runner.bench_telemetry_overhead(duration_min=0.5, trials=2)
        assert report["disabled_events_per_sec"] > 0
        assert report["enabled_events_per_sec"] >= 100_000
        assert report["overhead_pct"] < 80.0

    def test_resilience_overhead_is_bounded(self):
        """The full policy stack slows the engine, but boundedly.

        Every logical RPC becomes a resilient-call record plus a timeout
        event, and saturation-induced timeouts add retry load, so ~2x
        slowdown is the expected worst case (tracked ~44 %); the guard
        trips on a runaway per-call cost, not the known price.
        """
        report = runner.bench_resilience_overhead(duration_min=0.5, trials=2)
        assert report["disabled_events_per_sec"] > 0
        assert report["enabled_events_per_sec"] >= 100_000
        assert report["overhead_pct"] < 80.0

    def test_tsdb_overhead_is_bounded(self):
        """Aggressive scraping slows the engine, but boundedly.

        The enabled side runs a full sink (windows, registry, monitor)
        plus a 0.05-minute scrape cadence with rules — the window ticks
        dominate, as in ``telemetry_overhead``; the guard trips on a
        runaway per-scrape or per-sample cost, not the known price.
        """
        report = runner.bench_tsdb_overhead(duration_min=0.5, trials=2)
        assert report["disabled_events_per_sec"] > 0
        assert report["enabled_events_per_sec"] >= 100_000
        assert report["overhead_pct"] < 80.0
        assert report["scrapes"] >= 5

    def test_serve_overhead_is_bounded(self):
        """Being polled over HTTP slows the engine, but boundedly.

        The sink + TSDB cost dominates (same as ``tsdb_overhead``); the
        GIL handoffs to the server's handler threads add a few percent
        on top.  The guard trips on a runaway per-request cost — e.g. a
        handler copying the whole store per scrape — not the known
        price, and the client must actually have been served.
        """
        report = runner.bench_serve_overhead(duration_min=0.5, trials=2)
        assert report["disabled_events_per_sec"] > 0
        assert report["enabled_events_per_sec"] >= 100_000
        assert report["overhead_pct"] < 80.0
        assert report["requests_served"] > 0

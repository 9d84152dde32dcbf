"""Tests for the live observability plane (:mod:`repro.telemetry.serve`).

The hard bar: with the HTTP server attached to a live run — and clients
hammering every endpoint *while the event loop is executing* — the
engine's golden fingerprint stays bit-identical to a server-less run.
Mid-run requests are driven from a DES event scheduled inside the run
(the simulation thread issues HTTP calls; the ThreadingHTTPServer
answers them from its own worker threads), so the "while in flight"
claim is exercised for real, not approximated.
"""

import json
import threading
import urllib.error
import urllib.request
from types import SimpleNamespace
from urllib.parse import quote

import pytest

from repro.core.model import ServiceSpec
from repro.graphs import DependencyGraph, call
from repro.simulator import (
    ClusterSimulator,
    SimulatedMicroservice,
    SimulationConfig,
)
from repro.simulator.simulation import SimulationResult
from repro.telemetry import (
    ObservabilityServer,
    RunSource,
    StructuredLogger,
    TelemetryConfig,
    TelemetrySink,
    TimeSeriesConfig,
    TimeSeriesStore,
    build_run_report,
    load_replay_source,
    parse_prometheus_text,
    render_top,
    write_run_report,
)
from tests.pinned import expected
from tests.test_determinism_golden import shared_fingerprint, shared_simulator

_MS = 60_000.0


def _get(url, timeout=10):
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.status, response.read().decode("utf-8")


def _get_json(url):
    status, body = _get(url)
    assert status == 200, (url, status)
    return json.loads(body)


@pytest.fixture(scope="module")
def shared_run():
    """One served golden run, probed mid-flight; server kept alive."""
    sink = TelemetrySink(
        config=TelemetryConfig(window_min=0.25, spans=False, max_traces=0),
        timeseries=TimeSeriesStore(TimeSeriesConfig(scrape_interval_min=0.1)),
    )
    simulator = shared_simulator(telemetry=sink)
    source = RunSource(
        sink, simulator=simulator, meta={"app": "shared-fanout", "seed": 42}
    )
    server = ObservabilityServer(source, poll_interval_s=0.02).start()
    midrun = {}

    def probe(now_ms):
        base = server.url
        midrun["now_ms"] = now_ms
        midrun["healthz"] = _get_json(base + "/healthz")
        midrun["readyz"] = _get_json(base + "/readyz")
        midrun["metrics"] = _get(base + "/metrics")
        midrun["summary"] = _get_json(base + "/api/summary")
        midrun["alerts"] = _get_json(base + "/api/alerts?limit=5")
        midrun["decisions"] = _get_json(base + "/api/decisions")
        midrun["query"] = _get_json(
            base
            + "/api/query?expr="
            + quote('rate(requests_completed[0.2m])')
        )
        midrun["series"] = _get_json(base + "/api/series?name=queue_depth")
        midrun["dashboard"] = _get(base + "/dashboard")
        midrun["index"] = _get(base + "/")

    # Which threads read the result's sample arrays while the run is in
    # flight: a numpy view of one would make the engine's next append
    # raise BufferError.
    readers = midrun["latency_readers"] = set()
    latencies = SimulationResult.latencies

    def recording_latencies(self, *args, **kwargs):
        readers.add(threading.current_thread().name)
        return latencies(self, *args, **kwargs)

    simulator.events.schedule(0.3 * _MS, probe)
    SimulationResult.latencies = recording_latencies
    try:
        result = simulator.run()
    finally:
        SimulationResult.latencies = latencies
    source.mark_complete(result)
    yield SimpleNamespace(
        server=server,
        source=source,
        sink=sink,
        result=result,
        midrun=midrun,
    )
    server.stop()


class TestLiveEndpoints:
    def test_probe_ran_midrun(self, shared_run):
        # The DES event fired inside the run window, not after it.
        assert shared_run.midrun["now_ms"] == pytest.approx(0.3 * _MS)

    def test_golden_fingerprint_with_server_attached(self, shared_run):
        """Serving mid-run must not shift a single RNG draw or event."""
        assert shared_fingerprint(shared_run.result) == (
            expected("tests.test_determinism_golden")["shared"]
        )

    def test_server_never_reads_result_samples_midrun(self, shared_run):
        assert shared_run.midrun["latency_readers"] <= {
            threading.current_thread().name
        }

    def test_health_and_ready(self, shared_run):
        assert shared_run.midrun["healthz"] == {"status": "ok", "mode": "live"}
        assert shared_run.midrun["readyz"]["ready"] is True

    def test_metrics_exposition_parses_midrun(self, shared_run):
        status, text = shared_run.midrun["metrics"]
        assert status == 200
        parsed = parse_prometheus_text(text)
        assert parsed["requests_completed_total"]["value"] > 0

    def test_summary_schema_midrun(self, shared_run):
        summary = shared_run.midrun["summary"]
        assert summary["schema"] == 1
        progress = summary["progress"]
        assert progress["mode"] == "live"
        assert progress["complete"] is False
        assert 0.0 < progress["now_min"] < progress["duration_min"]
        assert 0.0 < progress["progress_pct"] < 100.0
        assert progress["events_processed"] > 0
        services = {row["service"]: row for row in summary["services"]}
        assert set(services) == {"s1", "s2"}
        for row in services.values():
            assert row["sla_ms"] == 300.0
            assert row["completed"] > 0
            assert row["p95_ms"] >= row["p50_ms"]
            assert 0.0 <= row["miss_rate"] <= 1.0
        assert summary["containers"] == {"F": 2, "G": 2, "P": 2, "Q": 2}

    def test_query_endpoint_midrun(self, shared_run):
        query = shared_run.midrun["query"]
        assert query["results"], "rate() over the completed counter is live"
        assert query["results"][0]["name"] == "requests_completed"
        assert query["results"][0]["value"] > 0

    def test_series_endpoint_midrun(self, shared_run):
        series = shared_run.midrun["series"]["series"]
        assert len(series) == 1
        assert series[0]["name"] == "queue_depth"
        assert series[0]["points"]

    def test_alert_and_decision_tails_midrun(self, shared_run):
        alerts = shared_run.midrun["alerts"]
        assert set(alerts) == {"sla", "error_budget", "rules"}
        decisions = shared_run.midrun["decisions"]
        assert decisions["total"] == len(decisions["decisions"])

    def test_dashboard_fragment_and_live_shell(self, shared_run):
        status, body = shared_run.midrun["dashboard"]
        assert status == 200
        assert "viz-summary" in body or "meta" in body
        status, index = shared_run.midrun["index"]
        assert status == 200
        # The live shell (and only the live shell) carries the SSE script.
        assert "EventSource" in index

    def test_sse_stream_after_completion(self, shared_run):
        status, body = _get(shared_run.server.url + "/events?limit=3")
        assert status == 200
        assert "event: progress" in body
        assert "event: complete" in body
        payload = json.loads(
            [l for l in body.splitlines() if l.startswith("data: ")][0][6:]
        )
        assert payload["mode"] == "live"

    def test_bad_query_returns_400(self, shared_run):
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(shared_run.server.url + "/api/query?expr=" + quote("bogus("))
        assert err.value.code == 400

    def test_missing_expr_returns_400(self, shared_run):
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(shared_run.server.url + "/api/query")
        assert err.value.code == 400

    def test_unknown_path_returns_404(self, shared_run):
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(shared_run.server.url + "/nope")
        assert err.value.code == 404

    def test_summary_after_completion(self, shared_run):
        summary = _get_json(shared_run.server.url + "/api/summary")
        progress = summary["progress"]
        assert progress["complete"] is True
        assert progress["now_min"] == progress["duration_min"]
        assert progress["completed"] == sum(
            shared_run.result.completed.values()
        )


class TestShutdownHandshake:
    def test_post_shutdown_unblocks_wait(self, shared_run):
        # A second server over the same source: POST /shutdown must
        # resolve wait_for_shutdown() promptly and tear the server down.
        server = ObservabilityServer(shared_run.source).start()
        status, body = _get(server.url + "/healthz")
        assert status == 200
        waiter = threading.Thread(target=server.wait_for_shutdown, daemon=True)
        waiter.start()
        request = urllib.request.Request(
            server.url + "/shutdown", method="POST"
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            assert json.loads(response.read())["status"] == "shutting down"
        waiter.join(timeout=10)
        assert not waiter.is_alive()


class TestExemplars:
    def test_metrics_carry_trace_exemplars(self):
        """A trace-collecting run links histogram buckets to trace ids
        through the exposition, and the text round-trips."""
        sink = TelemetrySink(
            config=TelemetryConfig(window_min=0.25, max_traces=10, seed=1)
        )
        spec = ServiceSpec("svc", DependencyGraph("svc", call("B")), 0.0, 100.0)
        ClusterSimulator(
            [spec],
            {"B": SimulatedMicroservice("B", base_service_ms=5.0, threads=4)},
            containers={"B": 1},
            rates={"svc": 6_000.0},
            config=SimulationConfig(duration_min=0.3, warmup_min=0.05, seed=3),
            telemetry=sink,
        ).run()
        source = RunSource(sink, meta={})
        text = source.expose_metrics()
        assert '# {trace_id="svc-t' in text
        parsed = parse_prometheus_text(text)
        family = next(n for n in parsed if n.startswith("e2e_latency_ms"))
        exemplars = parsed[family]["exemplars"]
        assert exemplars
        le, exemplar = next(iter(exemplars.items()))
        assert exemplar["trace_id"].startswith("svc-t")
        assert exemplar["value"] > 0


class TestReplay:
    @pytest.fixture(scope="class")
    def replay(self, shared_run, tmp_path_factory):
        report = build_run_report(
            shared_run.sink, shared_run.result, specs=None
        )
        path = tmp_path_factory.mktemp("replay") / "run.json"
        write_run_report(report, str(path))
        source = load_replay_source(str(path))
        server = ObservabilityServer(source).start()
        yield SimpleNamespace(
            source=source, server=server, report=report, path=path
        )
        server.stop()

    def test_all_endpoints_answer(self, replay):
        for path in (
            "/healthz",
            "/readyz",
            "/metrics",
            "/api/summary",
            "/api/alerts",
            "/api/decisions",
            "/api/query?expr=requests_completed",
            "/api/series?name=queue_depth",
            "/dashboard",
            "/",
        ):
            status, _ = _get(replay.server.url + path)
            assert status == 200, path

    def test_replay_summary_matches_live(self, replay, shared_run):
        summary = _get_json(replay.server.url + "/api/summary")
        progress = summary["progress"]
        assert progress["mode"] == "replay"
        assert progress["complete"] is True
        assert (
            progress["events_processed"]
            == shared_run.result.events_processed
        )
        live = {
            row["service"]: row
            for row in _get_json(shared_run.server.url + "/api/summary")[
                "services"
            ]
        }
        for row in summary["services"]:
            # Snapshot percentiles are exact: replay == live, bit for bit.
            assert row["p95_ms"] == live[row["service"]]["p95_ms"]
            assert row["completed"] == live[row["service"]]["completed"]

    def test_replay_metrics_equal_live(self, replay, shared_run):
        # Every bucket and exemplar survives the report round trip.
        _, live = _get(shared_run.server.url + "/metrics")
        _, replayed = _get(replay.server.url + "/metrics")
        assert replayed == live
        assert live.count("_bucket{le=") > 2 * len(
            [n for n in parse_prometheus_text(live) if "e2e_latency_ms" in n]
        )

    def test_replay_dashboard_equals_live(self, replay, shared_run):
        live = shared_run.source.dashboard_payload()
        replayed = replay.source.dashboard_payload()
        assert replayed["meta"] == {"replay": str(replay.path)}
        del live["meta"], replayed["meta"]
        assert replayed == live
        for entry in replayed["services"].values():
            assert entry["sla_ms"] == 300.0

    def test_replay_endpoints_equal_live(self, replay, shared_run):
        for path in ("/api/summary", "/api/alerts", "/api/decisions"):
            live = _get_json(shared_run.server.url + path)
            replayed = _get_json(replay.server.url + path)
            if path == "/api/summary":
                assert live["progress"].pop("mode") == "live"
                assert replayed["progress"].pop("mode") == "replay"
                del live["meta"], replayed["meta"]
            assert replayed == live, path

    def test_replay_metrics_parse(self, replay):
        status, text = _get(replay.server.url + "/metrics")
        parsed = parse_prometheus_text(text)
        assert parsed["requests_completed_total"]["value"] > 0
        assert any(n.startswith("e2e_latency_ms") for n in parsed)

    def test_replay_tsdb_queries(self, replay):
        query = _get_json(
            replay.server.url
            + "/api/query?expr="
            + quote('queue_depth')
        )
        assert query["results"]

    def test_replay_index_is_script_free(self, replay):
        _, html = _get(replay.server.url + "/")
        assert "<script" not in html

    def test_rejects_non_report_json(self, tmp_path):
        bogus = tmp_path / "bogus.json"
        bogus.write_text('{"schema": 99}')
        with pytest.raises(ValueError, match="schema"):
            load_replay_source(str(bogus))

    def test_rejects_report_without_buckets(self, replay, tmp_path):
        report = json.loads(replay.path.read_text())
        for entry in report["registry"]["histograms"].values():
            del entry["buckets"]
        path = tmp_path / "old.json"
        write_run_report(report, str(path))
        with pytest.raises(ValueError, match="buckets"):
            load_replay_source(str(path))


class TestRenderTop:
    def test_frame_contents(self, shared_run):
        summary = _get_json(shared_run.server.url + "/api/summary")
        frame = render_top(summary, clear=False)
        assert frame.startswith("repro top")
        assert "SERVICE" in frame and "P95" in frame and "SLA" in frame
        assert "s1" in frame and "s2" in frame
        assert "ALERTS:" in frame
        assert "\x1b[2J" not in frame

    def test_clear_prefix(self, shared_run):
        summary = _get_json(shared_run.server.url + "/api/summary")
        assert render_top(summary, clear=True).startswith("\x1b[2J\x1b[H")


class TestAccessLog:
    def test_server_logs_requests_with_run_id(self, shared_run):
        import io

        stream = io.StringIO()
        logger = StructuredLogger(fmt="json", run_id="test-run", stream=stream)
        server = ObservabilityServer(shared_run.source, logger=logger).start()
        _get(server.url + "/healthz")
        server.stop()
        lines = [
            json.loads(line)
            for line in stream.getvalue().splitlines()
            if line
        ]
        access = [l for l in lines if l["event"] == "http_access"]
        assert access, lines
        assert access[0]["run_id"] == "test-run"
        assert access[0]["actor"] == "serve"
        assert access[0]["path"] == "/healthz"

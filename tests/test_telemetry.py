"""Tests for the live telemetry layer (`repro.telemetry`).

The load-bearing contracts:

* attaching a sink never perturbs the engine — the golden shared run's
  output streams are byte-identical with and without telemetry;
* the live MetricsStore equals the post-hoc ``to_metrics_store``
  reconstruction sample-for-sample on the same seed;
* emitted spans reconstruct the dependency graph exactly and Eq. 1
  recovers the engine's own-latency streams;
* the SLA monitor's windows agree with
  ``SimulationResult.violation_rate_by_window`` window-for-window.
"""

import json

import numpy as np
import pytest

from repro.core import Cluster
from repro.core.model import ServiceSpec
from repro.graphs import DependencyGraph, call
from repro.simulator import (
    ClusterSimulator,
    SimulatedMicroservice,
    SimulationConfig,
)
from repro.telemetry import (
    DecisionLog,
    MetricsRegistry,
    SLAMonitor,
    TelemetryConfig,
    TelemetrySink,
    build_run_report,
    chrome_trace_events,
    default_latency_buckets,
    parse_prometheus_text,
    write_chrome_trace,
    write_run_report,
)
from repro.tracing.coordinator import TracingCoordinator
from repro.tracing.spans import SpanKind


SHARED_SIMULATED = {
    "F": SimulatedMicroservice("F", 4.0, 2),
    "G": SimulatedMicroservice("G", 6.0, 2),
    "P": SimulatedMicroservice("P", 3.0, 4),
    "Q": SimulatedMicroservice("Q", 5.0, 2),
}


def shared_simulator(telemetry=None, seed=42):
    """The golden shared-fanout scenario (same shape as the pinned run)."""
    s1 = ServiceSpec(
        "s1",
        DependencyGraph("s1", call("F", stages=[[call("P"), call("Q")]])),
        0.0,
        300.0,
    )
    s2 = ServiceSpec(
        "s2", DependencyGraph("s2", call("G", stages=[[call("P")]])), 0.0, 300.0
    )
    return ClusterSimulator(
        [s1, s2],
        SHARED_SIMULATED,
        containers={"F": 2, "G": 2, "P": 2, "Q": 2},
        rates={"s1": 9_000.0, "s2": 6_000.0},
        config=SimulationConfig(duration_min=0.5, warmup_min=0.1, seed=seed),
        telemetry=telemetry,
    )


def run_instrumented(config=None, coordinator=None, seed=42):
    sink = TelemetrySink(
        config=config or TelemetryConfig(window_min=0.25),
        coordinator=coordinator,
    )
    result = shared_simulator(telemetry=sink, seed=seed).run()
    return sink, result


# ----------------------------------------------------------------------
# Registry primitives
# ----------------------------------------------------------------------
class TestRegistry:
    def test_counter_increments(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.counter("c").inc(4)
        assert registry.counter("c").value == 5

    def test_gauge_sets(self):
        registry = MetricsRegistry()
        registry.gauge("g").set(2.5)
        assert registry.gauge("g").value == 2.5

    def test_histogram_counts_and_quantile(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h")
        for value in [1.0, 2.0, 4.0, 8.0, 100.0]:
            histogram.observe(value)
        assert histogram.count == 5
        assert histogram.sum == pytest.approx(115.0)
        assert histogram.mean == pytest.approx(23.0)
        # The quantile is a bucket upper bound: conservative, never below.
        assert histogram.quantile(0.5) >= 2.0
        assert histogram.quantile(1.0) >= 100.0

    def test_default_buckets_cover_latency_range(self):
        buckets = default_latency_buckets()
        assert buckets[0] <= 0.5
        assert buckets[-1] >= 50_000.0  # covers ~1-minute tails
        assert all(b2 > b1 for b1, b2 in zip(buckets, buckets[1:]))

    def test_snapshot_is_json_ready(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.gauge("g").set(1.0)
        registry.histogram("h").observe(3.0)
        snapshot = registry.snapshot()
        json.dumps(snapshot)  # must not raise
        assert snapshot["counters"]["c"] == 1
        assert "h" in snapshot["histograms"]


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
class TestPrometheusExposition:
    def test_round_trip_all_metric_kinds(self):
        registry = MetricsRegistry(latency_bounds=[1.0, 10.0, 100.0])
        registry.counter("requests").inc(42)
        registry.gauge("queue_depth").set(7.5)
        histogram = registry.histogram("latency_ms")
        for value in [0.5, 5.0, 50.0, 500.0]:
            histogram.observe(value)

        parsed = parse_prometheus_text(registry.expose_text())
        assert parsed["requests_total"]["value"] == 42
        assert parsed["queue_depth"]["value"] == 7.5
        hist = parsed["latency_ms"]
        assert hist["type"] == "histogram"
        # Cumulative buckets: 1 below le=1, 2 below le=10, 3 below le=100,
        # all 4 below +Inf.
        assert hist["buckets"][1.0] == 1
        assert hist["buckets"][10.0] == 2
        assert hist["buckets"][100.0] == 3
        assert hist["buckets"][float("inf")] == 4
        assert hist["sum"] == pytest.approx(555.5)
        assert hist["count"] == 4

    def test_bucket_counts_are_cumulative_and_monotone(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h")
        rng = np.random.default_rng(0)
        for value in rng.exponential(20.0, size=200):
            histogram.observe(float(value))
        hist = parse_prometheus_text(registry.expose_text())["h"]
        counts = [hist["buckets"][le] for le in sorted(hist["buckets"])]
        assert counts == sorted(counts)
        assert counts[-1] == hist["count"] == 200

    def test_names_are_sanitized(self):
        registry = MetricsRegistry()
        registry.counter("latency.ms/svc-a").inc()
        text = registry.expose_text()
        assert "latency_ms_svc_a_total 1" in text
        assert "latency.ms" not in text

    def test_type_lines_present(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.gauge("g").set(1.0)
        registry.histogram("h").observe(3.0)
        text = registry.expose_text()
        assert "# TYPE c_total counter" in text
        assert "# TYPE g gauge" in text
        assert "# TYPE h histogram" in text
        assert text.endswith("\n")

    def test_live_run_exposition_parses(self):
        sink, result = run_instrumented()
        parsed = parse_prometheus_text(sink.registry.expose_text())
        completed = sum(result.completed.values())
        assert parsed["requests_completed_total"]["value"] == completed


# ----------------------------------------------------------------------
# SLA monitor + decision log
# ----------------------------------------------------------------------
class TestSLAMonitor:
    def test_windows_close_in_order(self):
        monitor = SLAMonitor({"svc": 100.0})
        for latency in (50.0, 80.0, 150.0):
            monitor.observe("svc", 0, latency)
        monitor.observe("svc", 1, 60.0)
        closed = monitor.close_windows(before=1, window_min=1.0)
        assert [w.window for w in closed] == [0]
        assert closed[0].count == 3
        assert closed[0].violations == 1
        remaining = monitor.close_all(window_min=1.0)
        assert [w.window for w in remaining] == [1]

    def test_alert_fires_when_p95_breaks_sla(self):
        monitor = SLAMonitor({"svc": 100.0})
        for _ in range(20):
            monitor.observe("svc", 0, 150.0)
        monitor.close_all(window_min=1.0)
        assert len(monitor.alerts) == 1
        alert = monitor.alerts[0]
        assert alert.service == "svc"
        assert alert.p95_ms > alert.sla_ms

    def test_no_alert_without_sla(self):
        monitor = SLAMonitor()
        monitor.observe("svc", 0, 1e9)
        monitor.close_all(window_min=1.0)
        assert monitor.alerts == []
        assert monitor.windows[0].violations == 0

    def test_violation_rate_aggregates_windows(self):
        monitor = SLAMonitor({"svc": 100.0})
        for latency in (50.0, 150.0):
            monitor.observe("svc", 0, latency)
        for latency in (50.0, 50.0, 50.0, 150.0):
            monitor.observe("svc", 1, latency)
        monitor.close_all(window_min=1.0)
        assert monitor.violation_rate("svc") == pytest.approx(2 / 6)
        assert monitor.violation_rate("svc", min_window=1) == pytest.approx(1 / 4)

    def test_violation_rate_requires_windows(self):
        with pytest.raises(ValueError, match="no closed windows"):
            SLAMonitor().violation_rate("ghost")


class TestDecisionLog:
    def test_record_and_query(self):
        log = DecisionLog()
        log.record(1.0, "autoscaler", "ms-a", 2, 5, "scale up", workload=100.0)
        log.record(2.0, "simulator", "ms-a", 5, 3, "scale down")
        assert len(log) == 2
        assert [r.delta for r in log.records] == [3, -2]
        assert [r.actor for r in log.records] == ["autoscaler", "simulator"]
        dicts = log.to_dicts()
        assert dicts[0]["workload"] == 100.0
        assert "workload" not in dicts[1]


# ----------------------------------------------------------------------
# Engine non-perturbation (golden determinism with telemetry on)
# ----------------------------------------------------------------------
class TestNonPerturbation:
    def test_enabled_equals_disabled_byte_for_byte(self):
        plain = shared_simulator().run()
        sink, instrumented = run_instrumented()
        for name in ("s1", "s2"):
            assert np.array_equal(
                plain.latencies(name, include_warmup=True),
                instrumented.latencies(name, include_warmup=True),
            )
        assert plain.generated == instrumented.generated
        assert plain.completed == instrumented.completed
        for name in ("F", "G", "P", "Q"):
            assert np.array_equal(
                np.frombuffer(plain._own[name][1], dtype=np.float64),
                np.frombuffer(instrumented._own[name][1], dtype=np.float64),
            )

    def test_sampling_rate_does_not_perturb_engine(self):
        _, full = run_instrumented()
        _, sampled = run_instrumented(
            config=TelemetryConfig(window_min=0.25, sampling_rate=0.25)
        )
        for name in ("s1", "s2"):
            assert np.array_equal(
                full.latencies(name, include_warmup=True),
                sampled.latencies(name, include_warmup=True),
            )

    def test_sink_serves_exactly_one_run(self):
        sink, _ = run_instrumented()
        with pytest.raises(RuntimeError, match="exactly one run"):
            shared_simulator(telemetry=sink).run()


# ----------------------------------------------------------------------
# Live MetricsStore == post-hoc reconstruction (satellite #3)
# ----------------------------------------------------------------------
class TestLiveMetricsParity:
    def setup_method(self):
        self.sink, self.result = run_instrumented()
        self.posthoc = self.result.to_metrics_store()

    def test_latency_observations_identical(self):
        key = lambda obs: (obs.microservice, obs.timestamp, obs.latency)
        assert sorted(self.sink.metrics.latencies, key=key) == sorted(
            self.posthoc.latencies, key=key
        )

    def test_call_counts_identical(self):
        key = lambda s: (s.microservice, s.timestamp)
        assert sorted(self.sink.metrics.call_counts, key=key) == sorted(
            self.posthoc.call_counts, key=key
        )

    def test_utilization_identical(self):
        assert self.sink.metrics.utilization == self.posthoc.utilization

    def test_profiling_windows_identical(self):
        for name in ("F", "G", "P", "Q"):
            assert self.sink.metrics.profiling_windows(name) == (
                self.posthoc.profiling_windows(name)
            )


# ----------------------------------------------------------------------
# Span emission: graph + Eq. 1 reconstruction
# ----------------------------------------------------------------------
class TestSpanEmission:
    def setup_method(self):
        self.coordinator = TracingCoordinator()
        self.sink, self.result = run_instrumented(coordinator=self.coordinator)

    def test_every_completed_request_yields_a_trace(self):
        total = sum(self.result.completed.values())
        assert self.sink.sampled_traces == total
        assert sum(map(len, self.coordinator.traces.values())) == total

    def test_graph_reconstruction_matches_specs(self):
        g1 = self.coordinator.extract_graph("s1")
        assert g1.root.microservice == "F"
        assert [
            sorted(node.microservice for node in stage)
            for stage in g1.root.stages
        ] == [["P", "Q"]]
        g2 = self.coordinator.extract_graph("s2")
        assert g2.root.microservice == "G"
        assert [[n.microservice for n in s] for s in g2.root.stages] == [["P"]]

    def test_eq1_recovers_engine_own_latency(self):
        # Pool Eq.-1 extractions across both services (P is shared).
        pooled = {}
        for service in ("s1", "s2"):
            for name, values in self.coordinator.latency_samples(service).items():
                pooled.setdefault(name, []).extend(values)
        for name in ("F", "G", "P", "Q"):
            engine = np.frombuffer(self.result._own[name][1], dtype=np.float64)
            assert len(pooled[name]) == len(engine)
            assert np.allclose(
                np.sort(pooled[name]), np.sort(engine), atol=1e-9
            )

    def test_e2e_span_duration_equals_engine_latency(self):
        for service in ("s1", "s2"):
            from_traces = np.sort(
                [t.root().duration for t in self.coordinator.traces[service]]
            )
            engine = np.sort(self.result.latencies(service, include_warmup=True))
            assert np.allclose(from_traces, engine, atol=1e-9)

    def test_spans_form_client_server_pairs(self):
        trace = self.sink.traces[0]
        servers = [s for s in trace.spans if s.kind is SpanKind.SERVER]
        clients = [s for s in trace.spans if s.kind is SpanKind.CLIENT]
        assert len(servers) == len(clients) + 1  # root has no client span

    def test_max_traces_caps_retention_not_sampling(self):
        sink, result = run_instrumented(
            config=TelemetryConfig(window_min=0.25, max_traces=10)
        )
        assert len(sink.traces) == 10
        assert sink.sampled_traces == sum(result.completed.values())

    def test_spans_off_still_monitors(self):
        sink, result = run_instrumented(
            config=TelemetryConfig(window_min=0.25, spans=False)
        )
        assert sink.traces == []
        assert sink.sampled_traces == 0
        counted = sum(w.count for w in sink.monitor.windows if w.service == "s1")
        assert counted == result.completed["s1"]


# ----------------------------------------------------------------------
# Windowed SLA agreement (satellite #2)
# ----------------------------------------------------------------------
class TestWindowedViolationAgreement:
    def test_monitor_matches_posthoc_api_window_for_window(self):
        window_min = 0.25
        sink, result = run_instrumented(
            config=TelemetryConfig(window_min=window_min)
        )
        for service, sla in (("s1", 300.0), ("s2", 300.0)):
            posthoc = result.violation_rate_by_window(
                service, sla, window_min=window_min
            )
            live = {
                w.window: w.violation_rate
                for w in sink.monitor.windows_of(service)
            }
            assert live.keys() == posthoc.keys()
            for window, rate in posthoc.items():
                assert live[window] == pytest.approx(rate, abs=1e-12)

    def test_count_weighted_windows_equal_aggregate(self):
        # Warmup on a window boundary: post-warmup windows tile the
        # steady state exactly, so their count-weighted average is the
        # aggregate violation rate.
        result = shared_simulator().run()
        windows = result.violation_rate_by_window(
            "s1", 300.0, window_min=0.1, include_warmup=False
        )
        minutes, values = result._e2e["s1"]
        minutes = np.frombuffer(minutes, dtype=np.float64)
        values = np.frombuffer(values, dtype=np.float64)
        steady = values[minutes >= 0.1]
        weights = {
            w: np.sum((minutes >= 0.1) & ((minutes / 0.1).astype(int) == w))
            for w in windows
        }
        weighted = sum(windows[w] * weights[w] for w in windows) / len(steady)
        assert weighted == pytest.approx(
            result.sla_violation_rate("s1", 300.0), abs=1e-12
        )

    def test_rejects_bad_window(self):
        result = shared_simulator().run()
        with pytest.raises(ValueError, match="window_min"):
            result.violation_rate_by_window("s1", 300.0, window_min=0.0)


# ----------------------------------------------------------------------
# Window machinery: registry snapshots + health series
# ----------------------------------------------------------------------
class TestWindowSeries:
    def test_series_has_one_row_per_full_window(self):
        sink, _ = run_instrumented(
            config=TelemetryConfig(window_min=0.1)
        )
        # 0.5 min duration / 0.1 min windows = 5 in-run ticks.
        assert len(sink.window_series) == 5
        for row in sink.window_series:
            assert set(row) == {
                "end_min",
                "queue_depth",
                "busy_fraction",
                "containers",
                "events_per_sec",
            }
            assert row["containers"] == 8
            assert 0.0 <= row["busy_fraction"] <= 1.0
            assert row["events_per_sec"] > 0

    def test_registry_tracks_run_totals(self):
        sink, result = run_instrumented()
        completed = sum(result.completed.values())
        assert sink.registry.counter("requests_completed").value == completed
        assert (
            sink.registry.gauge("events_processed").value
            == result.events_processed
        )
        histogram = sink.registry.histogram("e2e_latency_ms.s1")
        assert histogram.count == result.completed["s1"]


# ----------------------------------------------------------------------
# Decision audit trail
# ----------------------------------------------------------------------
class TestDecisionAudit:
    def test_scale_container_count_records(self):
        """The actuator records nothing; the control loop driving it
        records each move with its reason, workload and Eq. 5 target."""
        from repro.core import ErmsScaler
        from repro.simulator.autoscaled import AutoscaledSimulation
        from repro.workloads import analytic_profile

        sink = TelemetrySink()
        simulator = shared_simulator(telemetry=sink)
        simulator.scale_container_count("P", 4)
        assert simulator.container_count("P") == 4
        assert len(sink.decisions) == 0

        sink = TelemetrySink()
        loop = AutoscaledSimulation(
            simulator.services,
            SHARED_SIMULATED,
            ErmsScaler(),
            {
                name: analytic_profile(name, ms.base_service_ms, ms.threads)
                for name, ms in SHARED_SIMULATED.items()
            },
            rates={"s1": 9_000.0, "s2": 6_000.0},
            telemetry=sink,
        )
        report = loop.step(0.25, {"s1": 90_000.0, "s2": 60_000.0})
        assert report.pod_deltas
        assert len(sink.decisions) == len(report.pod_deltas)
        targets = report.allocation.targets
        for record in sink.decisions.records:
            name = record.microservice
            assert record.actor == "simulator"
            assert record.reason == (
                "erms reconcile @ 0.25 min (observed 150000 req/min)"
            )
            assert record.workload == 150_000.0
            assert record.latency_target_ms == min(
                per_ms[name] for per_ms in targets.values() if name in per_ms
            )
            assert record.delta == report.pod_deltas[name]
            assert record.after == report.allocation.containers[name]

    def test_autoscaler_records_reconciles(self):
        from repro.core import ErmsScaler
        from repro.simulator.autoscaled import (
            AutoscaleConfig,
            AutoscaledSimulation,
        )
        from repro.workloads import social_network

        app = social_network()
        specs = app.with_workloads(
            {s.name: 6_000.0 for s in app.services}, sla=250.0
        )
        sink = TelemetrySink(config=TelemetryConfig(window_min=0.5, spans=False))
        simulation = AutoscaledSimulation(
            specs,
            app.simulated,
            ErmsScaler(),
            app.analytic_profiles(),
            # Step the rate up mid-run so the reconcile must move counts.
            rates={
                spec.name: (lambda t: 3_000.0 if t < 0.5 else 12_000.0)
                for spec in specs
            },
            config=SimulationConfig(
                duration_min=1.5, warmup_min=0.25, seed=7
            ),
            autoscale=AutoscaleConfig(interval_min=0.5),
            telemetry=sink,
        )
        simulation.run()
        ups = [r for r in sink.decisions.records if r.delta > 0]
        assert ups, "rate step must force at least one scale-up"
        assert all(r.actor == "simulator" for r in sink.decisions.records)
        assert all("reconcile" in r.reason for r in ups)
        assert all(r.workload is not None for r in ups)

    def test_controller_audit_log(self):
        from repro.core.controller import ErmsController
        from repro.workloads import hotel_reservation

        app = hotel_reservation()
        ctl = ErmsController(
            app.services, Cluster.homogeneous(6), app.analytic_profiles()
        )
        ctl.decisions = DecisionLog()
        reports = []
        for rate in (20_000.0, 4_000.0):
            reports.append(ctl.reconcile({s.name: rate for s in app.services}))
            ctl.tick(5.0)
        moves = [(report, name) for report in reports for name in report.pod_deltas]
        assert moves and len(ctl.decisions) == len(moves)
        for record, (report, name) in zip(ctl.decisions.records, moves):
            assert record.actor == "controller"
            assert record.microservice == name
            assert record.minute == report.minute
            assert record.delta == report.pod_deltas[name]
            assert record.after == report.allocation.containers[name]
        assert any(r.delta < 0 for r in ctl.decisions.records)


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
class TestExporters:
    def test_chrome_trace_events_structure(self):
        sink, _ = run_instrumented(
            config=TelemetryConfig(window_min=0.25, max_traces=3)
        )
        events = chrome_trace_events(sink.traces)
        spans = [e for e in events if e["ph"] == "X"]
        metadata = [e for e in events if e["ph"] == "M"]
        assert spans and metadata
        total_spans = sum(len(t.spans) for t in sink.traces)
        assert len(spans) == total_spans
        process_names = {
            e["args"]["name"] for e in metadata if e["name"] == "process_name"
        }
        assert process_names == {"service:s1", "service:s2"}
        for event in spans:
            assert event["dur"] >= 0
            assert event["cat"] in ("server", "client")

    def test_write_chrome_trace_roundtrips(self, tmp_path):
        sink, _ = run_instrumented(
            config=TelemetryConfig(window_min=0.25, max_traces=2)
        )
        path = tmp_path / "trace.json"
        count = write_chrome_trace(sink.traces, str(path))
        payload = json.loads(path.read_text())
        assert len(payload["traceEvents"]) == count

    def test_run_report_contents(self, tmp_path):
        sink, result = run_instrumented()
        report = build_run_report(sink, result)
        assert report["schema"] == 1
        assert set(report["services"]) == {"s1", "s2"}
        for entry in report["services"].values():
            assert entry["sla_ms"] == 300.0
            assert "violation_rate" in entry
        assert report["events_processed"] == result.events_processed
        assert report["traces_collected"] == len(sink.traces)
        assert report["profiling_samples"]["latencies"] == len(
            sink.metrics.latencies
        )
        path = tmp_path / "report.json"
        write_run_report(report, str(path))
        assert json.loads(path.read_text()) == json.loads(
            json.dumps(report)
        )


# ----------------------------------------------------------------------
# Config validation
# ----------------------------------------------------------------------
class TestConfigValidation:
    def test_rejects_bad_window(self):
        with pytest.raises(ValueError, match="window_min"):
            TelemetryConfig(window_min=0.0)

    def test_rejects_bad_sampling(self):
        with pytest.raises(ValueError, match="sampling_rate"):
            TelemetryConfig(sampling_rate=0.0)
        with pytest.raises(ValueError, match="sampling_rate"):
            TelemetryConfig(sampling_rate=1.5)

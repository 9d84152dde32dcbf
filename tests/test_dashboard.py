"""HTML dashboard: data model correctness and self-containment."""

import re

import pytest

from repro.core import ErmsScaler
from repro.simulator.autoscaled import AutoscaleConfig, AutoscaledSimulation
from repro.simulator.simulation import SimulationConfig
from repro.telemetry import (
    TelemetryConfig,
    TelemetrySink,
    TimeSeriesConfig,
    TimeSeriesStore,
    dashboard_data,
    render_dashboard,
    run_state,
    write_dashboard,
)
from repro.workloads import social_network


@pytest.fixture(scope="module")
def instrumented_run():
    app = social_network()
    scheme = ErmsScaler()
    profiles = app.analytic_profiles(1.0)
    specs = app.with_workloads(
        {s.name: 20_000.0 for s in app.services}, sla=200.0
    )
    allocation = scheme.scale(specs, profiles)
    store = TimeSeriesStore(TimeSeriesConfig(scrape_interval_min=0.25))
    sink = TelemetrySink(
        config=TelemetryConfig(window_min=0.5, spans=False, max_traces=0),
        timeseries=store,
    )
    simulation = AutoscaledSimulation(
        specs,
        app.simulated,
        scheme,
        profiles,
        rates={spec.name: 20_000.0 for spec in specs},
        config=SimulationConfig(duration_min=1.5, warmup_min=0.5, seed=3),
        autoscale=AutoscaleConfig(interval_min=0.5),
        telemetry=sink,
    )
    outcome = simulation.run()
    return sink, outcome.simulation, specs, allocation


class TestDashboardData:
    def test_miss_series_matches_violation_rate_by_window(
        self, instrumented_run
    ):
        """The plotted per-window miss rate equals the simulator's own
        post-hoc ``violation_rate_by_window`` — window for window."""
        sink, result, specs, _ = instrumented_run
        data = dashboard_data(run_state(sink, result), sink.timeseries)
        for spec in specs:
            entry = data["services"][spec.name]
            expected = result.violation_rate_by_window(
                spec.name, spec.sla, window_min=0.5, include_warmup=True
            )
            plotted = {w["window"]: w["miss_rate"] for w in entry["windows"]}
            assert set(plotted) == set(expected)
            for window, rate in expected.items():
                # the dashboard rounds to 6 decimals for the JSON model
                assert plotted[window] == pytest.approx(rate, abs=5e-7)

    def test_services_carry_latency_series_and_sla(self, instrumented_run):
        sink, result, specs, _ = instrumented_run
        data = dashboard_data(run_state(sink, result), sink.timeseries)
        for spec in specs:
            entry = data["services"][spec.name]
            assert entry["sla_ms"] == spec.sla
            for stat in ("p50", "p95", "p99"):
                assert entry["latency"][stat], stat

    def test_container_timelines_reconstruct_decision_log(
        self, instrumented_run
    ):
        sink, result, _, _ = instrumented_run
        data = dashboard_data(run_state(sink, result), sink.timeseries)
        assert set(data["containers"]) == set(result.containers)
        for name, points in data["containers"].items():
            # final plotted value is the live simulator's final count
            assert points[-1][1] == float(result.containers[name])
            # time-ordered from 0 to the run duration
            times = [t for t, _ in points]
            assert times == sorted(times)
            assert times[0] == 0.0

    def test_summary_counts(self, instrumented_run):
        sink, result, specs, _ = instrumented_run
        data = dashboard_data(run_state(sink, result), sink.timeseries)
        summary = data["summary"]
        assert summary["completed"] == sum(result.completed.values())
        assert summary["events_processed"] == result.events_processed
        assert summary["tsdb_samples"] == sink.timeseries.total_samples
        assert summary["sla_alerts"] == len(sink.monitor.alerts)


class TestDashboardHtml:
    def test_self_contained(self, instrumented_run, tmp_path):
        sink, result, specs, allocation = instrumented_run
        data = dashboard_data(
            run_state(sink, result), sink.timeseries,
            targets=allocation.targets,
            meta={"app": "social-network", "seed": 3},
        )
        path = tmp_path / "dash.html"
        html = write_dashboard(data, str(path))
        assert path.read_text() == html
        # no external references of any kind, no scripts
        assert "http" not in html
        assert "<script" not in html
        assert "@import" not in html and "url(" not in html
        # real charts made it in
        assert html.count("<svg") >= 2 * len(specs)
        assert "<path" in html
        # every chart ships its table view; dark mode is declared
        assert html.count("<details") >= 2 * len(specs)
        assert "prefers-color-scheme: dark" in html

    def test_geometry_stays_inside_viewbox(self, instrumented_run):
        sink, result, specs, _ = instrumented_run
        data = dashboard_data(run_state(sink, result), sink.timeseries)
        html = render_dashboard(data)
        assert "NaN" not in html and "Infinity" not in html
        xs = [float(m) for m in re.findall(r'(?:cx|x1|x2)="(-?[\d.]+)"', html)]
        assert xs and all(-1 <= x <= 721 for x in xs)

    def test_labels_are_escaped(self):
        data = {
            "meta": {"title": "<b>run</b>"},
            "summary": {"duration_min": 1.0},
            "services": {},
            "targets": {},
            "breakers": [],
            "containers": {},
            "chaos": None,
            "alerts": {},
        }
        html = render_dashboard(data)
        assert "<b>run</b>" not in html
        assert "&lt;b&gt;run&lt;/b&gt;" in html

    def test_cli_dashboard_writes_html(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "dash.html"
        code = main([
            "dashboard", "--duration", "1.0", "--workload", "8000",
            "--seed", "1", "--output", str(out),
        ])
        assert code == 0
        assert "wrote dashboard" in capsys.readouterr().out
        html = out.read_text()
        assert "http" not in html
        assert "<svg" in html

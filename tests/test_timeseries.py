"""Embedded TSDB: store, query layer, rules engine, and sim integration."""

import json

import pytest

from repro.core.model import ServiceSpec
from repro.graphs import DependencyGraph, call
from repro.simulator import (
    ClusterSimulator,
    SimulatedMicroservice,
    SimulationConfig,
)
from repro.telemetry import (
    TelemetryConfig,
    TelemetrySink,
    TimeSeriesConfig,
    TimeSeriesStore,
    build_run_report,
)
from repro.telemetry.timeseries import (
    RuleEngine,
    RuleSet,
    Series,
    parse_expr,
    parse_metric_name,
    parse_selector,
)
from repro.telemetry.timeseries.rules import RULES_ACTOR


def run_instrumented(scrape_interval=0.1, rules=None, seed=42):
    """The golden shared-fanout configuration with a TSDB attached."""
    store = TimeSeriesStore(
        TimeSeriesConfig(scrape_interval_min=scrape_interval), rules=rules
    )
    sink = TelemetrySink(
        config=TelemetryConfig(window_min=0.25, spans=False, max_traces=0),
        timeseries=store,
    )
    s1 = ServiceSpec(
        "s1",
        DependencyGraph("s1", call("F", stages=[[call("P"), call("Q")]])),
        0.0,
        300.0,
    )
    s2 = ServiceSpec(
        "s2", DependencyGraph("s2", call("G", stages=[[call("P")]])), 0.0, 300.0
    )
    result = ClusterSimulator(
        [s1, s2],
        {
            "F": SimulatedMicroservice("F", 4.0, 2),
            "G": SimulatedMicroservice("G", 6.0, 2),
            "P": SimulatedMicroservice("P", 3.0, 4),
            "Q": SimulatedMicroservice("Q", 5.0, 2),
        },
        containers={"F": 2, "G": 2, "P": 2, "Q": 2},
        rates={"s1": 9_000.0, "s2": 6_000.0},
        config=SimulationConfig(duration_min=0.5, warmup_min=0.1, seed=seed),
        telemetry=sink,
    ).run()
    return sink, store, result


class TestSeries:
    def test_append_and_window(self):
        s = Series("x", {})
        for i in range(10):
            s.append(i * 0.5, float(i))
        assert len(s) == 10
        assert s.window(1.0, 2.0) == [(1.0, 2.0), (1.5, 3.0), (2.0, 4.0)]
        assert s.last() == (4.5, 9.0)
        assert s.last(at=1.7) == (1.5, 3.0)

    def test_out_of_order_append_rejected(self):
        s = Series("x", {})
        s.append(1.0, 1.0)
        with pytest.raises(ValueError):
            s.append(0.5, 2.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_sample_time_rejected(self, bad):
        s = Series("x", {"svc": "a"})
        with pytest.raises(ValueError, match="series .*x.*non-finite"):
            s.append(bad, 1.0)
        s.append(1.0, 1.0)
        with pytest.raises(ValueError, match="non-finite"):
            s.append(bad, 2.0)
        assert s.times == [1.0]

    def test_every_sample_is_kept(self):
        s = Series("x", {})
        for i in range(5000):  # more than any run's scrapes
            s.append(float(i), float(i))
        assert len(s) == 5000
        assert s.window(0.0, 3.0) == [(0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (3.0, 3.0)]


class TestNaming:
    def test_parse_metric_name_conventions(self):
        assert parse_metric_name("e2e_latency_ms.compose-post") == (
            "e2e_latency_ms", {"service": "compose-post"}
        )
        assert parse_metric_name("request_errors.s1.failed") == (
            "request_errors", {"service": "s1", "kind": "failed"}
        )
        assert parse_metric_name("breaker_state.s1.F") == (
            "breaker_state", {"service": "s1", "microservice": "F"}
        )
        assert parse_metric_name("queue_depth") == ("queue_depth", {})

    def test_selector_parsing(self):
        sel = parse_selector('e2e_latency_ms{service="s1",stat!="p50"}')
        assert sel.name == "e2e_latency_ms"
        s_match = Series("e2e_latency_ms", {"service": "s1", "stat": "p95"})
        s_miss = Series("e2e_latency_ms", {"service": "s1", "stat": "p50"})
        assert sel.matches(s_match)
        assert not sel.matches(s_miss)

    def test_bad_expressions_raise(self):
        with pytest.raises(ValueError):
            parse_expr("rate(foo)")  # missing range
        with pytest.raises(ValueError):
            parse_expr("nosuch_func(foo[1m])")
        with pytest.raises(ValueError):
            parse_selector("foo{bad}")


class TestQueries:
    def test_range_functions_on_manual_data(self):
        store = TimeSeriesStore(TimeSeriesConfig())
        for i in range(8):
            store.record("lat.s1", None, i * 0.25, float(10 + i))
        q = lambda e: [v for _, v in store.query(e)]
        assert q('lat{service="s1"}') == [17.0]
        assert q('avg_over_time(lat{service="s1"}[2m])') == [13.5]
        assert q('min_over_time(lat{service="s1"}[2m])') == [10.0]
        assert q('max_over_time(lat{service="s1"}[2m])') == [17.0]
        assert q('sum_over_time(lat{service="s1"}[2m])') == [108.0]
        assert q('count_over_time(lat{service="s1"}[2m])') == [8.0]

    def test_rate_handles_counter_reset(self):
        store = TimeSeriesStore(TimeSeriesConfig())
        for t, v in [(0.0, 0.0), (1.0, 10.0), (2.0, 2.0), (3.0, 6.0)]:
            store.record("ctr", {}, t, v)
        # positive deltas only: 10 + 2 + 4 = 16 over 3 minutes
        [(_, value)] = store.query("rate(ctr[10m])", at=3.0)
        assert value == pytest.approx(16.0 / 3.0)

    def test_quantile_over_time(self):
        store = TimeSeriesStore(TimeSeriesConfig())
        for i in range(100):
            store.record("lat", {}, i * 0.01, float(i + 1))
        [(_, p95)] = store.query("quantile_over_time(0.95, lat[5m])")
        assert p95 == 95.0

    def test_rate_needs_two_samples_in_the_window(self):
        """A counter scraped once a minute has one sample in a 30 s
        window: no slope to report, however long the series is."""
        store = TimeSeriesStore(TimeSeriesConfig())
        for i in range(10):
            store.record("c", {}, float(i), 7.0 * i)
        [(_, value)] = store.query("rate(c[30s])", at=6.2)
        assert value is None
        [(_, value)] = store.query("rate(c[2m])", at=6.2)
        assert value == 7.0

    def test_quantile_over_time_reaches_the_first_sample(self):
        store = TimeSeriesStore(TimeSeriesConfig())
        for i in range(5000):
            store.record("lat", {}, float(i), float(i))
        # the window holds the run's first ten samples, 4 990 scrapes back
        [(_, value)] = store.query("quantile_over_time(0.5, lat[10m])", at=9.0)
        assert value == 4.0  # nearest rank: ceil(0.5 * 10) = 5th of 0..9

    def test_empty_window_returns_none(self):
        store = TimeSeriesStore(TimeSeriesConfig())
        store.record("lat", {}, 10.0, 1.0)
        [(_, value)] = store.query("avg_over_time(lat[1m])", at=5.0)
        assert value is None


class TestScraping:
    def test_scrape_cadence_and_final_scrape(self):
        _, store, _ = run_instrumented(scrape_interval=0.1)
        # 0.1..0.5 in 0.1 steps: 5 scheduled scrapes; the final one lands
        # exactly on the duration so no extra finalize scrape is added.
        assert store.scrapes == 5
        assert store.last_scrape_min == pytest.approx(0.5)
        depth = store.get("queue_depth")
        assert [round(t, 6) for t in depth.times] == [0.1, 0.2, 0.3, 0.4, 0.5]

    def test_histogram_scrape_emits_windowed_stats(self):
        sink, store, _ = run_instrumented()
        for stat in ("count", "rate_per_min", "mean", "p50", "p95", "p99"):
            series = store.get("e2e_latency_ms", {"service": "s1", "stat": stat})
            assert series is not None, stat
            assert len(series) >= 4
        counts = store.get("e2e_latency_ms", {"service": "s1", "stat": "count"})
        # per-scrape count deltas sum back to the histogram's total
        assert sum(counts.values) == (
            sink.registry.histograms["e2e_latency_ms.s1"].count
        )

    def test_monitor_windows_become_series(self):
        sink, store, _ = run_instrumented()
        for service in ("s1", "s2"):
            miss = store.get("sla_miss_rate", {"service": service})
            expected = [w for w in sink.monitor.windows if w.service == service]
            assert miss is not None
            assert len(miss) == len(expected)
            for (t, v), w in zip(zip(miss.times, miss.values), expected):
                assert t == pytest.approx(w.start_min + 0.25)
                assert v == pytest.approx(w.violation_rate)

    def test_two_runs_identical(self):
        _, store_a, _ = run_instrumented()
        _, store_b, _ = run_instrumented()
        assert sorted(store_a.series) == sorted(store_b.series)
        for key in store_a.series:
            sa, sb = store_a.series[key], store_b.series[key]
            assert list(sa.times) == list(sb.times), key
            assert list(sa.values) == list(sb.values), key

    def test_store_not_reusable_across_runs(self):
        _, store, _ = run_instrumented()
        sink = TelemetrySink(
            config=TelemetryConfig(window_min=0.25, spans=False, max_traces=0),
            timeseries=store,
        )
        spec = ServiceSpec("svc", DependencyGraph("svc", call("B")), 0.0, 100.0)
        sim = ClusterSimulator(
            [spec],
            {"B": SimulatedMicroservice("B", base_service_ms=5.0, threads=4)},
            containers={"B": 1},
            rates={"svc": 1_000.0},
            config=SimulationConfig(duration_min=0.2, warmup_min=0.0, seed=1),
            telemetry=sink,
        )
        with pytest.raises(RuntimeError):
            sim.run()

    def test_manual_mode_finalize_reads_the_simulator_clock(self):
        """``bind`` + explicit ``scrape``: no run duration, so the clock."""
        store = TimeSeriesStore(TimeSeriesConfig(scrape_interval_min=0.1))
        sink = TelemetrySink(
            config=TelemetryConfig(window_min=0.25, spans=False, max_traces=0)
        )
        store.bind(sink)
        spec = ServiceSpec("svc", DependencyGraph("svc", call("B")), 0.0, 100.0)
        sim = ClusterSimulator(
            [spec],
            {"B": SimulatedMicroservice("B", base_service_ms=5.0, threads=4)},
            containers={"B": 1},
            rates={"svc": 1_000.0},
            config=SimulationConfig(duration_min=0.2, warmup_min=0.0, seed=1),
            telemetry=sink,
        )
        sim.run()
        store.scrape(0.1)
        store.finalize(sim)
        end_min = sim.events.now / 60_000.0
        assert end_min >= 0.2
        assert store.scrapes == 2
        assert store.last_scrape_min == pytest.approx(end_min)
        completed = store.get("requests_completed")
        assert completed is not None and completed.values[-1] > 0
        store.finalize(sim)  # nothing new to scrape
        assert store.scrapes == 2


class TestRules:
    def test_alert_fires_and_resolves_through_monitor_and_log(self):
        store = TimeSeriesStore(TimeSeriesConfig())
        ruleset = RuleSet.from_dict({
            "rules": [
                {"alert": "QueueDeep", "expr": "depth", "op": ">",
                 "threshold": 5.0, "severity": "critical"},
            ]
        })
        engine = RuleEngine(store, ruleset)

        class FakeMonitor:
            rule_alerts = []

        from repro.telemetry import DecisionLog
        monitor, decisions = FakeMonitor(), DecisionLog()
        for t, v in [(1.0, 2.0), (2.0, 9.0), (3.0, 9.0), (4.0, 1.0)]:
            store.record("depth", {}, t, v)
            engine.evaluate(t, monitor=monitor, decisions=decisions)
        assert len(engine.alerts) == 1
        alert = engine.alerts[0]
        assert alert.minute == 2.0 and alert.value == 9.0
        assert monitor.rule_alerts == [alert]
        reasons = [r.reason for r in decisions.records]
        assert any("fired" in r or "QueueDeep" in r for r in reasons)
        assert any("resolved" in r for r in reasons)
        assert all(r.actor == RULES_ACTOR for r in decisions.records)
        assert not engine.firing

    def test_for_duration_defers_firing(self):
        store = TimeSeriesStore(TimeSeriesConfig())
        ruleset = RuleSet.from_dict({
            "rules": [
                {"alert": "Sustained", "expr": "depth", "op": ">=",
                 "threshold": 5.0, "for": 2.0},
            ]
        })
        engine = RuleEngine(store, ruleset)
        for t in (1.0, 2.0):
            store.record("depth", {}, t, 9.0)
            engine.evaluate(t)
        assert not engine.alerts  # held only 1 min so far
        store.record("depth", {}, 3.0, 9.0)
        engine.evaluate(3.0)
        assert len(engine.alerts) == 1
        assert engine.alerts[0].minute == 3.0

    def test_recording_rule_materializes_series(self):
        store = TimeSeriesStore(TimeSeriesConfig())
        ruleset = RuleSet.from_dict({
            "rules": [
                {"record": "depth_avg",
                 "expr": "avg_over_time(depth[2m])"},
            ]
        })
        engine = RuleEngine(store, ruleset)
        for t, v in [(1.0, 2.0), (2.0, 4.0)]:
            store.record("depth", {}, t, v)
            engine.evaluate(t)
        recorded = store.get("depth_avg")
        assert recorded is not None
        assert list(recorded.values) == [2.0, 3.0]

    def test_malformed_rules_fail_at_construction(self):
        store = TimeSeriesStore(TimeSeriesConfig())
        with pytest.raises(ValueError):
            RuleSet.from_dict({"rules": [{"alert": "X", "expr": "d",
                                          "op": "~", "threshold": 1.0}]})
        with pytest.raises(ValueError):
            RuleEngine(store, RuleSet.from_dict({
                "rules": [{"record": "r", "expr": "rate(d)"}]
            }))

    def test_rules_fire_inside_simulated_run(self):
        rules = {
            "rules": [
                {"alert": "AnyTraffic",
                 "expr": 'e2e_latency_ms{service="s1",stat="count"}',
                 "op": ">", "threshold": 0.0},
            ]
        }
        sink, store, _ = run_instrumented(rules=rules)
        assert store.engine is not None
        assert len(store.engine.alerts) == 1  # fires once, stays firing
        assert sink.monitor.rule_alerts == store.engine.alerts
        assert any(r.actor == RULES_ACTOR for r in sink.decisions.records)


class TestGoldenNeutrality:
    def test_roundtrip_to_dict(self):
        _, store, _ = run_instrumented()
        dump = store.to_dict(max_points=4)
        assert dump["scrapes"] == store.scrapes
        assert dump["samples"] == store.total_samples
        assert all(len(s["points"]) <= 4 for s in dump["series_data"])

    def test_report_round_trip_keeps_every_raw_point(self):
        """A run report dumps every raw point the store holds (its ring
        is the bound), so a store rebuilt from it answers an early query
        as the live one does."""
        sink, store, result = run_instrumented(scrape_interval=0.0002)
        assert store.scrapes >= 2_500
        report = json.loads(json.dumps(build_run_report(sink, result)))
        replayed = TimeSeriesStore.from_dict(report["timeseries"])
        assert replayed.scrapes == store.scrapes
        assert set(replayed.series) == set(store.series)
        for key, series in store.series.items():
            copy = replayed.series[key]
            assert list(copy.times) == [round(t, 6) for t in series.times]
            assert list(copy.values) == list(series.values)

        def early(target):  # between the 50th and 51st scrape
            return [(s.key, v) for s, v in target.query("queue_depth", at=0.0101)]

        assert early(replayed) == early(store)
        assert early(store)


class TestQueryEdgeCases:
    """Edges the live query endpoint leans on: empty windows, windows
    that reach back to a long series' first sample, and selectors over
    labels containing quotes, backslashes, and commas."""

    def test_quantile_over_time_empty_window_is_none(self):
        store = TimeSeriesStore(TimeSeriesConfig(scrape_interval_min=0.1))
        for i in range(5):
            store.record("lat", {}, float(i), 10.0 * i)
        # window [99, 100] holds no samples
        [(series, value)] = store.query(
            "quantile_over_time(0.95, lat[1m])", at=100.0
        )
        assert series.name == "lat"
        assert value is None
        # ...while a covering window answers
        [(_, value)] = store.query("quantile_over_time(0.5, lat[10m])", at=4.0)
        assert value == 20.0

    def test_empty_window_other_range_functions_are_none(self):
        store = TimeSeriesStore(TimeSeriesConfig(scrape_interval_min=0.1))
        store.record("m", {}, 0.0, 1.0)
        for expr in ("rate(m[1m])", "avg_over_time(m[1m])",
                     "max_over_time(m[1m])"):
            [(_, value)] = store.query(expr, at=50.0)
            assert value is None, expr

    def test_rate_across_downsample_stitch(self):
        # A 5 000-sample monotonic counter: a window back to its first
        # sample reads every sample, so the slope is exact.
        store = TimeSeriesStore(TimeSeriesConfig())
        for i in range(5000):
            store.record("ctr", {}, float(i), 2.0 * i)  # slope 2/min
        [(_, value)] = store.query("rate(ctr[5000m])", at=4999.0)
        assert value == 2.0
        [(_, recent)] = store.query("rate(ctr[5m])", at=4999.0)
        assert recent == 2.0

    def test_selector_on_escaped_label_values(self):
        store = TimeSeriesStore(TimeSeriesConfig(scrape_interval_min=0.1))
        tricky = 'he said "hi", path=C:\\tmp'
        store.record("m", {"note": tricky}, 1.0, 7.0)
        store.record("m", {"note": "plain"}, 1.0, 8.0)
        escaped = tricky.replace("\\", "\\\\").replace('"', '\\"')
        selector = parse_selector(f'm{{note="{escaped}"}}')
        assert selector.matchers[0].value == tricky
        [(series, value)] = store.query(f'm{{note="{escaped}"}}', at=1.0)
        assert series.labels["note"] == tricky
        assert value == 7.0

    def test_selector_with_comma_inside_value(self):
        store = TimeSeriesStore(TimeSeriesConfig(scrape_interval_min=0.1))
        store.record("m", {"svc": "a,b", "tier": "db"}, 1.0, 3.0)
        [(series, value)] = store.query('m{svc="a,b",tier="db"}', at=1.0)
        assert series.labels == {"svc": "a,b", "tier": "db"}
        assert value == 3.0

    def test_negative_matcher_with_escapes(self):
        store = TimeSeriesStore(TimeSeriesConfig(scrape_interval_min=0.1))
        store.record("m", {"k": 'x"y'}, 1.0, 1.0)
        store.record("m", {"k": "z"}, 1.0, 2.0)
        [(series, value)] = store.query('m{k!="x\\"y"}', at=1.0)
        assert series.labels["k"] == "z"
        assert value == 2.0

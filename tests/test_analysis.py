"""Tests for the trace analytics engine (`repro.telemetry.analysis`).

The load-bearing contracts:

* critical-path decomposition is *exact*: per trace, the segment own
  latencies sum to the engine's end-to-end latency, and each timed
  segment's queue + service time equals its own latency (property-tested
  over seeded runs);
* SLA blame agrees with constructed ground truth — the deliberately
  under-provisioned microservice ranks first, and an injected priority
  inversion at a shared microservice is flagged;
* the profile-drift detector fires on a mid-run interference shift, stays
  silent on a stationary run, and routes alerts through the existing
  SLAMonitor / DecisionLog machinery;
* tail-based sampling at a P95 threshold keeps a small fraction of
  traces but retains 100 % of SLA-violating ones, without perturbing the
  engine's pinned output streams.
"""

import json

import numpy as np
import pytest

from repro.core.model import ServiceSpec
from repro.experiments import fit_profiles_from_simulation
from repro.experiments.reporting import render_analysis_sections
from repro.graphs import DependencyGraph, call
from repro.simulator import (
    ClusterSimulator,
    SimulatedMicroservice,
    SimulationConfig,
)
from repro.telemetry import (
    DecisionLog,
    SLAMonitor,
    TelemetryConfig,
    TelemetrySink,
    build_run_report,
)
from repro.telemetry.analysis import (
    AnalysisOptions,
    analyze_run,
    attribute_blame,
    detect_profile_drift,
    extract_critical_path,
    refit_profile,
)
from repro.telemetry.analysis.drift import PREDICTION_REL
from repro.tracing.spans import SpanForest, SpanTable, TraceView
from tests.helpers import count_calls


def shared_simulator(telemetry=None, seed=42, duration=0.5):
    """Shared-fanout scenario (same shape as the pinned golden run)."""
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
        {
            "F": SimulatedMicroservice("F", 4.0, 2),
            "G": SimulatedMicroservice("G", 6.0, 2),
            "P": SimulatedMicroservice("P", 3.0, 4),
            "Q": SimulatedMicroservice("Q", 5.0, 2),
        },
        containers={"F": 2, "G": 2, "P": 2, "Q": 2},
        rates={"s1": 9_000.0, "s2": 6_000.0},
        config=SimulationConfig(
            duration_min=duration, warmup_min=0.1, seed=seed
        ),
        telemetry=telemetry,
    )


# ----------------------------------------------------------------------
# Critical-path decomposition: exactness properties
# ----------------------------------------------------------------------
class TestCriticalPathExactness:
    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_own_latencies_sum_to_e2e(self, seed):
        """Property: segments telescope exactly to the engine e2e."""
        sink = TelemetrySink(config=TelemetryConfig())
        shared_simulator(telemetry=sink, seed=seed).run()
        assert sink.traces
        for trace in sink.traces:
            path = extract_critical_path(trace)
            assert path.total_own_ms == pytest.approx(
                path.end_to_end_ms, abs=1e-6
            )

    def test_queue_plus_service_equals_own(self):
        """Every timed segment splits exactly: queue + service == own."""
        sink = TelemetrySink(config=TelemetryConfig())
        shared_simulator(telemetry=sink).run()
        timed = 0
        for trace in sink.traces:
            for segment in extract_critical_path(trace).segments:
                if segment.queue_ms is not None:
                    timed += 1
                    assert segment.queue_ms + segment.service_ms == (
                        pytest.approx(segment.own_ms, abs=1e-9)
                    )
                    assert segment.queue_ms >= 0.0
                    assert segment.inflation_ms == 0.0  # no colocation here
        assert timed > 0

    def test_interference_inflation_share(self):
        """With a 2x multiplier, inflation is half of each service time."""
        spec = ServiceSpec("svc", DependencyGraph("svc", call("B")), 0.0, 1e9)
        sink = TelemetrySink(config=TelemetryConfig())
        ClusterSimulator(
            [spec],
            {"B": SimulatedMicroservice("B", base_service_ms=5.0, threads=4)},
            containers={"B": 2},
            rates={"svc": 6_000.0},
            config=SimulationConfig(duration_min=0.5, warmup_min=0.0, seed=3),
            container_multipliers={"B": [2.0, 2.0]},
            telemetry=sink,
        ).run()
        checked = 0
        for trace in sink.traces:
            for segment in extract_critical_path(trace).segments:
                if segment.service_ms:
                    checked += 1
                    assert segment.inflation_ms == pytest.approx(
                        segment.service_ms / 2.0, abs=1e-9
                    )
        assert checked > 0

    def test_posthoc_traces_decompose_without_timings(self):
        """Synthesized traces (no engine timings) still sum exactly."""
        from repro.tracing import synthesize_trace

        spec = ServiceSpec(
            "svc",
            DependencyGraph(
                "svc", call("A", stages=[[call("B"), call("C")], [call("D")]])
            ),
            0.0,
            100.0,
        )
        trace = synthesize_trace(
            spec.graph,
            {"A": 4.0, "B": 2.0, "C": 6.0, "D": 3.0},
            trace_id="t0",
        )
        path = extract_critical_path(trace)
        assert path.total_own_ms == pytest.approx(path.end_to_end_ms, abs=1e-6)
        assert all(s.queue_ms is None for s in path.segments)

    def test_summary_shares_sum_to_one(self):
        sink = TelemetrySink(config=TelemetryConfig())
        shared_simulator(telemetry=sink).run()
        rows = analyze_run(traces=sink.traces).critical_path
        assert rows[0]["total_own_ms"] == max(r["total_own_ms"] for r in rows)
        assert sum(r["share_pct"] for r in rows) == pytest.approx(100.0, abs=0.1)


# ----------------------------------------------------------------------
# SLA blame attribution: constructed ground truth
# ----------------------------------------------------------------------
def run_underprovisioned(seed=11):
    """F is generous (4 containers), P is starved (1 container near
    saturation) — P is the ground-truth blame target."""
    spec = ServiceSpec(
        "s1", DependencyGraph("s1", call("F", stages=[[call("P")]])), 0.0, 30.0
    )
    sink = TelemetrySink(config=TelemetryConfig())
    ClusterSimulator(
        [spec],
        {
            "F": SimulatedMicroservice("F", 2.0, 4),
            "P": SimulatedMicroservice("P", 4.0, 2),
        },
        containers={"F": 4, "P": 1},
        rates={"s1": 28_000.0},  # P capacity: 2/4ms = 30k req/min
        config=SimulationConfig(duration_min=1.0, warmup_min=0.0, seed=seed),
        telemetry=sink,
    ).run()
    return sink


class TestBlameAttribution:
    TARGETS = {"s1": {"F": 10.0, "P": 8.0}}
    SLAS = {"s1": 30.0}

    def test_underprovisioned_microservice_ranked_first(self):
        sink = run_underprovisioned()
        report = attribute_blame(sink.traces, self.TARGETS, self.SLAS)
        assert report.violating_windows  # the run does violate
        top = report.top_offender("s1")
        assert top is not None and top.microservice == "P"
        assert top.excess_ms > 0
        # The generously provisioned microservice is exonerated.
        f_entries = [e for e in report.entries if e.microservice == "F"]
        assert all(e.excess_ms < top.excess_ms for e in f_entries)

    def test_healthy_run_has_no_violating_windows(self):
        sink = TelemetrySink(config=TelemetryConfig())
        shared_simulator(telemetry=sink).run()
        report = attribute_blame(
            sink.traces,
            targets={"s1": {"F": 50.0, "P": 50.0, "Q": 50.0}},
            slas={"s1": 1e9, "s2": 1e9},
        )
        assert report.violating_windows == []
        assert report.entries == []
        assert report.top_offender() is None

    def test_a_rootless_block_is_rejected_like_analyze_run(self):
        """A block without its root call has no end-to-end latency: blame
        raises the error analyze_run raises, instead of reading the
        block's last call as its root."""
        from repro.tracing import synthesize_trace
        from tests.helpers import fig1_graph

        source = synthesize_trace(
            fig1_graph(), {"T": 10.0, "Url": 4.0, "U": 6.0, "C": 3.0}
        )
        t = source.table
        rows = [
            value
            for r in source.rows[:-1]  # every call but the root's
            for value in (
                t.start[r], t.finish[r], np.nan, np.nan, 1.0, t.ordinal[r],
                t.names[t.ms[r]], t.parent[r], t.names[t.caller[r]],
            )
        ]
        t.append_trace("fig1", 1, rows)
        message = "trace fig1-t1: expected exactly 1 root span, found 0"
        with pytest.raises(ValueError, match=message):
            attribute_blame(t, {"fig1": {"C": 1.0}}, {"fig1": 1.0})
        with pytest.raises(ValueError, match=message):
            analyze_run(traces=t)

    def test_entries_sorted_by_excess(self):
        sink = run_underprovisioned()
        report = attribute_blame(sink.traces, self.TARGETS, self.SLAS)
        excesses = [e.excess_ms for e in report.entries]
        assert excesses == sorted(excesses, reverse=True)

    def test_report_round_trips_to_json(self):
        sink = run_underprovisioned()
        report = attribute_blame(sink.traces, self.TARGETS, self.SLAS)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["entries"][0]["microservice"] == "P"

    def test_priority_inversion_flagged(self):
        """Scheduler favors s2 at shared P while the intended order says
        s1 first: s1 blows its P target, s2 meets its own -> inversion."""
        s1 = ServiceSpec(
            "s1", DependencyGraph("s1", call("F", stages=[[call("P")]])),
            0.0, 25.0,
        )
        s2 = ServiceSpec(
            "s2", DependencyGraph("s2", call("G", stages=[[call("P")]])),
            0.0, 10_000.0,
        )
        sink = TelemetrySink(config=TelemetryConfig())
        ClusterSimulator(
            [s1, s2],
            {
                "F": SimulatedMicroservice("F", 2.0, 4),
                "G": SimulatedMicroservice("G", 2.0, 4),
                "P": SimulatedMicroservice("P", 4.0, 2),
            },
            containers={"F": 2, "G": 2, "P": 1},
            rates={"s1": 15_000.0, "s2": 14_000.0},  # P at ~97 % load
            config=SimulationConfig(
                duration_min=1.0, warmup_min=0.0, seed=5, scheduling="priority"
            ),
            # The deployed order is INVERTED: s2 is served first.
            priorities={"P": {"s2": 0, "s1": 1}},
            telemetry=sink,
        ).run()
        report = attribute_blame(
            sink.traces,
            targets={
                "s1": {"F": 10.0, "P": 25.0},
                "s2": {"G": 10.0, "P": 25.0},
            },
            slas={"s1": 25.0, "s2": 10_000.0},
            # ... while the allocation's intended order puts s1 first.
            priorities={"P": {"s1": 0, "s2": 1}},
        )
        assert report.inversions
        inversion = report.inversions[0]
        assert inversion.microservice == "P"
        assert inversion.victim == "s1" and inversion.offender == "s2"
        assert inversion.victim_excess_ms > 0
        assert inversion.offender_headroom_ms >= 0

    def test_no_inversion_when_priorities_hold(self):
        """Same saturated setup but the deployed order matches the
        intended one: s1 is served first and meets its target."""
        s1 = ServiceSpec(
            "s1", DependencyGraph("s1", call("F", stages=[[call("P")]])),
            0.0, 25.0,
        )
        s2 = ServiceSpec(
            "s2", DependencyGraph("s2", call("G", stages=[[call("P")]])),
            0.0, 10_000.0,
        )
        sink = TelemetrySink(config=TelemetryConfig())
        ClusterSimulator(
            [s1, s2],
            {
                "F": SimulatedMicroservice("F", 2.0, 4),
                "G": SimulatedMicroservice("G", 2.0, 4),
                "P": SimulatedMicroservice("P", 4.0, 2),
            },
            containers={"F": 2, "G": 2, "P": 1},
            rates={"s1": 15_000.0, "s2": 14_000.0},
            config=SimulationConfig(
                duration_min=1.0, warmup_min=0.0, seed=5, scheduling="priority"
            ),
            priorities={"P": {"s1": 0, "s2": 1}},
            telemetry=sink,
        ).run()
        report = attribute_blame(
            sink.traces,
            targets={
                "s1": {"F": 10.0, "P": 25.0},
                "s2": {"G": 10.0, "P": 25.0},
            },
            slas={"s1": 25.0, "s2": 10_000.0},
            priorities={"P": {"s1": 0, "s2": 1}},
        )
        assert report.inversions == []


# ----------------------------------------------------------------------
# Profile drift detection
# ----------------------------------------------------------------------
def offline_profile_b():
    simulated = {"B": SimulatedMicroservice("B", base_service_ms=5.0, threads=4)}
    profiles = fit_profiles_from_simulation(
        simulated, sweep_points=8, duration_min=1.0, seed=0
    )
    return simulated, {name: p.model for name, p in profiles.items()}


def live_run_b(simulated, multiplier=None, seed=9):
    """Six instrumented minutes of B at moderate load (spans off: the
    drift detector consumes only the windowed MetricsStore)."""
    spec = ServiceSpec("svc", DependencyGraph("svc", call("B")), 0.0, 1e9)
    sink = TelemetrySink(config=TelemetryConfig(spans=False))
    ClusterSimulator(
        [spec],
        simulated,
        containers={"B": 1},
        rates={"svc": 24_000.0},  # half of capacity (4/5ms = 48k req/min),
        # safely inside the offline fit's low-load segment
        config=SimulationConfig(duration_min=6.0, warmup_min=0.5, seed=seed),
        container_multipliers=(
            {"B": [multiplier]} if multiplier is not None else None
        ),
        telemetry=sink,
    ).run()
    return sink


class TestProfileDrift:
    def test_silent_on_stationary_run(self):
        simulated, models = offline_profile_b()
        sink = live_run_b(simulated)
        reports = detect_profile_drift(sink.metrics, models)
        assert len(reports) == 1
        assert not reports[0].drifted
        assert reports[0].n_windows >= 4

    def test_fires_on_interference_shift(self):
        """Halfway through, colocation doubles B's service time; the
        offline profile's predictions no longer match the live windows."""
        simulated, models = offline_profile_b()
        sink = live_run_b(
            simulated,
            multiplier=lambda minute: 1.0 if minute < 2.5 else 2.0,
        )
        reports = detect_profile_drift(sink.metrics, models)
        assert reports[0].drifted
        assert reports[0].median_rel_error > PREDICTION_REL

    def test_alerts_flow_through_monitor_and_decision_log(self):
        simulated, models = offline_profile_b()
        sink = live_run_b(
            simulated,
            multiplier=lambda minute: 1.0 if minute < 2.5 else 2.0,
        )
        monitor = SLAMonitor()
        decisions = DecisionLog()
        detect_profile_drift(
            sink.metrics, models, monitor=monitor, decisions=decisions
        )
        assert len(monitor.alerts) == 1
        alert = monitor.alerts[0]
        assert alert.service == "profile-drift:B"
        assert alert.p95_ms > alert.sla_ms  # observed >> predicted
        assert len(decisions) == 1
        record = decisions.records[0]
        assert record.actor == "drift-detector"
        assert record.microservice == "B"
        assert record.delta == 0  # advisory: drift never scales by itself
        assert "drift" in record.reason

    def test_insufficient_windows_is_not_drift(self):
        simulated, models = offline_profile_b()
        spec = ServiceSpec("svc", DependencyGraph("svc", call("B")), 0.0, 1e9)
        sink = TelemetrySink(config=TelemetryConfig(spans=False))
        ClusterSimulator(
            [spec],
            simulated,
            containers={"B": 1},
            rates={"svc": 30_000.0},
            config=SimulationConfig(duration_min=2.0, warmup_min=0.0, seed=1),
            telemetry=sink,
        ).run()
        reports = detect_profile_drift(sink.metrics, models)
        assert not reports[0].drifted
        assert "insufficient windows" in reports[0].reason

    def test_refit_recovers_piecewise_shape(self):
        simulated, models = offline_profile_b()
        sink = live_run_b(simulated)
        windows = sink.metrics.profiling_windows("B")
        fit = refit_profile(windows)
        # Live windows sit at one load level, so only prediction agreement
        # is meaningful: the refit must predict those windows well.
        loads = np.array([w.per_container_load for w in windows])
        tails = np.array([w.tail_latency for w in windows])
        assert np.median(np.abs(fit.predict(loads) - tails)) < 0.5 * np.median(tails)


# ----------------------------------------------------------------------
# Tail-based sampling
# ----------------------------------------------------------------------
class TestTailSampling:
    def run_with_threshold(self, threshold, floor=0.01, seed=42):
        sink = TelemetrySink(
            config=TelemetryConfig(
                tail_threshold_ms=threshold, tail_floor=floor
            )
        )
        result = shared_simulator(telemetry=sink, seed=seed).run()
        return sink, result

    def baseline_p95(self, seed=42):
        result = shared_simulator(seed=seed).run()
        samples = np.concatenate(
            [
                result.latencies(name, include_warmup=True)
                for name in ("s1", "s2")
            ]
        )
        return float(np.percentile(samples, 95.0)), samples

    def test_p95_threshold_keeps_small_fraction(self):
        threshold, _ = self.baseline_p95()
        sink, _ = self.run_with_threshold(threshold)
        assert sink.sampled_traces > 0
        keep_fraction = sink.kept_traces / sink.sampled_traces
        # ~5 % above P95 plus the 1 % uniform floor, far from 100 %.
        assert keep_fraction <= 0.10
        assert sink.kept_traces + sink.tail_dropped == sink.sampled_traces
        assert len(sink.traces) == sink.kept_traces

    def test_all_violating_traces_retained(self):
        """With the threshold at the SLA, every violating request's full
        trace survives sampling."""
        threshold, samples = self.baseline_p95()
        sink, _ = self.run_with_threshold(threshold, floor=0.0)
        n_violating = int(np.count_nonzero(samples > threshold))
        kept_violating = sum(
            1
            for trace in sink.traces
            if trace.root().duration > threshold
        )
        assert n_violating > 0
        assert kept_violating == n_violating
        # floor=0: *only* violating traces are kept.
        assert len(sink.traces) == n_violating

    def test_monitor_sees_every_request_regardless_of_sampling(self):
        threshold, _ = self.baseline_p95()
        sink, result = self.run_with_threshold(threshold)
        monitored = sum(w.count for w in sink.monitor.windows)
        completed = sum(result.completed.values())
        assert monitored == completed

    def test_tail_sampling_does_not_perturb_engine(self):
        """Pinned contract: the engine's output streams are byte-identical
        with tail sampling on and off."""
        plain = shared_simulator(seed=42).run()
        sink, sampled = self.run_with_threshold(50.0)
        for name in ("s1", "s2"):
            assert np.array_equal(
                plain.latencies(name, include_warmup=True),
                sampled.latencies(name, include_warmup=True),
            )
        assert plain.events_processed == sampled.events_processed

    def test_floor_keeps_healthy_baseline(self):
        sink, _ = self.run_with_threshold(10_000.0, floor=0.05)
        # Nothing exceeds 10 s, so retention is the floor alone.
        keep_fraction = sink.kept_traces / sink.sampled_traces
        assert 0.02 <= keep_fraction <= 0.10

    def test_config_validation(self):
        with pytest.raises(ValueError, match="tail_threshold_ms"):
            TelemetryConfig(tail_threshold_ms=0.0)
        with pytest.raises(ValueError, match="tail_floor"):
            TelemetryConfig(tail_floor=1.5)


# ----------------------------------------------------------------------
# analyze_run: the one-call pipeline
# ----------------------------------------------------------------------
class TestAnalyzeRun:
    def test_sink_defaults_and_json_round_trip(self):
        sink = run_underprovisioned()
        analysis = analyze_run(
            sink=sink,
            targets={"s1": {"F": 10.0, "P": 8.0}},
            options=AnalysisOptions(top_paths=3),
        )
        assert analysis.n_traces == len(sink.traces)
        assert analysis.decomposition_max_abs_error_ms < 1e-6
        assert len(analysis.slowest) == 3
        assert analysis.blame is not None
        assert analysis.blame.top_offender("s1").microservice == "P"
        assert analysis.sampling["kept_traces"] == sink.kept_traces
        payload = json.loads(json.dumps(analysis.to_dict()))
        assert payload["critical_path"]
        # P dominates the critical path of the saturated run.
        assert payload["critical_path"][0]["microservice"] == "P"

    def test_render_and_report_embedding(self):
        sink = run_underprovisioned()
        result_stub = shared_simulator(seed=2).run()
        analysis = analyze_run(
            sink=sink, targets={"s1": {"F": 10.0, "P": 8.0}}
        )
        sections = render_analysis_sections(analysis.to_dict())
        text = "\n\n".join(sections)
        assert "Critical-path attribution" in text
        assert "SLA blame" in text
        assert "Sampling:" in text
        report = build_run_report(sink, result_stub, analysis=analysis)
        assert report["analysis"]["n_traces"] == analysis.n_traces
        json.dumps(report)  # the full report stays JSON-ready

    def test_a_span_table_is_read_as_one_forest(self, monkeypatch):
        """Counts, not timings: handed the sink's ``SpanTable``, critical
        paths and blame come off one ``SpanForest``, only the ``top_paths``
        shown are extracted one by one, and no view builds its spans."""
        sink = run_underprovisioned()
        counts = {"SpanForest": 0, "_read": 0, "extract_critical_path": 0}
        count_calls(monkeypatch, SpanForest, "__init__", counts, "SpanForest")
        count_calls(monkeypatch, TraceView, "_read", counts)
        from repro.telemetry.analysis import report

        count_calls(monkeypatch, report, "extract_critical_path", counts)
        inputs = dict(targets={"s1": {"F": 10.0, "P": 8.0}}, slas={"s1": 30.0})
        analysis = analyze_run(traces=sink.traces, **inputs)
        assert analysis.blame.violating_windows and analysis.n_traces > 1_000
        assert counts == {"SpanForest": 1, "_read": 0, "extract_critical_path": 5}

    def test_empty_traces_analyze_cleanly(self):
        with pytest.raises(TypeError, match="traces must be a SpanTable, got list"):
            analyze_run(traces=[])
        analysis = analyze_run(traces=SpanTable())
        assert analysis.n_traces == 0
        assert analysis.critical_path == []
        assert analysis.blame is None
        json.dumps(analysis.to_dict())

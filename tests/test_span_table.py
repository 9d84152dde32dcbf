"""The columnar span store: shape, late spans, and the post-hoc index.

* a retained trace costs no per-span Python object until ``spans`` /
  ``timings`` is read (count-based, no timing);
* a span that finishes after its trace closed — an attempt the client
  abandoned on timeout — is dropped explicitly and counted;
* ``TraceRecord``'s span-level queries run off one cached call-tree
  index, rebuilt when ``spans`` changes.
"""

import gc
import json

import pytest

from repro.core.model import ServiceSpec
from repro.experiments.reporting import render_run_report
from repro.graphs import DependencyGraph, call
from repro.resilience import ResiliencePolicies, RetryPolicy, TimeoutPolicy
from repro.simulator import ClusterSimulator, SimulatedMicroservice, SimulationConfig
from repro.telemetry import TelemetryConfig, TelemetrySink, build_run_report
from repro.telemetry.analysis import attribute_blame, extract_critical_path
from repro.tracing import Span, SpanKind, SpanTiming, TraceRecord, synthesize_trace
from repro.tracing.coordinator import trace_own_latencies
from repro.tracing.spans import CallTree
from tests.helpers import fig1_graph


def run(sink, resilience=None, duration=0.3, seed=5):
    """F -> (P || Q) -> R at moderate load."""
    graph = DependencyGraph(
        "svc", call("F", stages=[[call("P"), call("Q")], [call("R")]])
    )
    spec = ServiceSpec("svc", graph, 0.0, 300.0)
    return ClusterSimulator(
        [spec],
        {
            "F": SimulatedMicroservice("F", 4.0, 2),
            "P": SimulatedMicroservice("P", 3.0, 4),
            "Q": SimulatedMicroservice("Q", 5.0, 2),
            "R": SimulatedMicroservice("R", 2.0, 2),
        },
        containers={"F": 2, "P": 2, "Q": 2, "R": 2},
        rates={"svc": 6_000.0},
        config=SimulationConfig(duration_min=duration, warmup_min=0.05, seed=seed),
        telemetry=sink,
        resilience=resilience,
    ).run()


def _instances(cls):
    gc.collect()
    return sum(1 for obj in gc.get_objects() if type(obj) is cls)


# ----------------------------------------------------------------------
# Allocation shape
# ----------------------------------------------------------------------
class TestAllocationShape:
    def test_no_span_objects_until_read_and_growth_is_per_trace(self):
        gc.collect()
        spans_before, timings_before = _instances(Span), _instances(SpanTiming)
        sink = TelemetrySink(config=TelemetryConfig(window_min=0.1, spans=False))
        run(sink)
        gc.collect()
        baseline = len(gc.get_objects())  # everything a sink keeps but spans
        del sink

        sink = TelemetrySink(config=TelemetryConfig(window_min=0.1))
        result = run(sink)
        gc.collect()
        tracked = len(gc.get_objects())
        traces = len(sink.traces)
        rows = len(sink.traces.start)
        assert traces == sum(result.completed.values()) > 1000
        assert rows == 4 * traces  # one row per call, F P Q R
        # no per-span object exists ...
        assert _instances(Span) == spans_before
        assert _instances(SpanTiming) == timings_before
        # ... and what the span store added is not O(spans): well under one
        # tracked object per trace, let alone per row
        assert tracked - baseline < traces / 4

        # analysis walks the columns, still without Span objects
        for trace in sink.traces:
            extract_critical_path(trace)
        attribute_blame(sink.traces, {"svc": {"P": 1.0}}, {"svc": 20.0}, window_min=0.1)
        assert _instances(Span) == spans_before

        # reading materialises one trace, held only by the view
        view = sink.traces[0]
        assert len(view.spans) == 7 and len(view.timings) == 4
        assert _instances(Span) == spans_before + 7
        del view
        assert _instances(Span) == spans_before

    def test_views_are_trace_records(self):
        sink = TelemetrySink(config=TelemetryConfig(window_min=0.1, max_traces=50))
        run(sink, duration=0.1)
        assert len(sink.traces) == 50 and len(sink.traces[10:20]) == 10
        assert sink.traces[-1] == sink.traces[49] != sink.traces[48]
        with pytest.raises(IndexError):
            sink.traces[50]
        view = sink.traces[3]
        record = TraceRecord(view.trace_id, view.service, view.spans, view.timings)
        assert view == record and record == view
        assert view.root() == record.root()
        assert view.children_of(view.root()) == record.children_of(record.root())
        assert view.end_to_end_latency() == record.end_to_end_latency()
        assert trace_own_latencies(view) == trace_own_latencies(record)
        assert extract_critical_path(view) == extract_critical_path(record)


# ----------------------------------------------------------------------
# Late spans
# ----------------------------------------------------------------------
class TestLateSpans:
    POLICIES = ResiliencePolicies(
        retry=RetryPolicy(max_attempts=3, backoff_base_ms=1.0),
        # the root gives up on slow attempts; their stragglers finish
        # after the retry that closes the trace
        timeout=TimeoutPolicy(call_timeout_ms=10_000.0, overrides={"F": 25.0}),
        seed=1,
    )

    def test_dropped_counted_and_reported(self):
        sink = TelemetrySink(config=TelemetryConfig(window_min=0.1))
        result = run(sink, resilience=self.POLICIES)
        assert result.resilience["timeouts"] > 0
        assert sink.late_spans > 0
        assert sink.registry.counter("spans_dropped_late").value == sink.late_spans
        # blocks are sealed when the root closes them: rows only ever come
        # from flushes, and every block still ends with its root
        table = sink.traces
        assert len(table.start) == sum(table.trace_rows)
        assert all(t.spans[-1].parent_id is None for t in sink.traces[:200])
        report = build_run_report(sink, result)
        assert report["late_spans"] == sink.late_spans
        assert f"late_spans={sink.late_spans}" in render_run_report(
            json.loads(json.dumps(report))
        )

    def test_healthy_run_reports_nothing(self):
        sink = TelemetrySink(config=TelemetryConfig(window_min=0.1))
        result = run(sink, duration=0.1)
        assert sink.late_spans == 0
        assert "spans_dropped_late" not in sink.registry.snapshot()["counters"]
        assert "late_spans" not in build_run_report(sink, result)


# ----------------------------------------------------------------------
# Post-hoc traces: one cached index
# ----------------------------------------------------------------------
class TestTraceRecordIndex:
    LATENCIES = {"T": 10.0, "Url": 4.0, "U": 6.0, "C": 3.0}

    def test_queries_share_one_index(self, monkeypatch):
        trace = synthesize_trace(fig1_graph(), self.LATENCIES)
        builds = []
        original = CallTree.from_spans.__func__
        monkeypatch.setattr(
            CallTree, "from_spans",
            classmethod(lambda cls, *a: builds.append(1) or original(cls, *a)),
        )
        root = trace.root()
        for span in trace.spans:
            trace.children_of(span)
        assert [s.kind for s in trace.server_spans()] == [SpanKind.SERVER] * 4
        trace_own_latencies(trace)
        extract_critical_path(trace)
        assert trace.end_to_end_latency() == root.duration
        assert builds == [1]

    def test_reassigning_or_growing_spans_rebuilds(self):
        trace = synthesize_trace(fig1_graph(), self.LATENCIES)
        assert trace.root().microservice == "T"
        other = synthesize_trace(fig1_graph(), self.LATENCIES, trace_id="x", start=5.0)
        trace.spans = other.spans
        assert trace.root().span_id.startswith("x-")
        trace.spans.append(Span("x-extra", None, "T", SpanKind.SERVER, 0.0, 1.0))
        with pytest.raises(ValueError, match="exactly 1 root span, found 2"):
            trace.root()

    def test_rootless_trace_still_yields_own_latencies(self):
        trace = synthesize_trace(fig1_graph(), self.LATENCIES)
        trace.spans = [s for s in trace.spans if s.parent_id is not None]
        with pytest.raises(ValueError, match="exactly 1 root span, found 0"):
            extract_critical_path(trace)
        assert trace_own_latencies(trace)["C"] == [pytest.approx(3.0)]

    def test_children_sorted_by_start_then_id(self):
        spans = [
            Span("r", None, "A", SpanKind.SERVER, 0.0, 9.0),
            Span("c2", "r", "A", SpanKind.CLIENT, 1.0, 4.0),
            Span("c10", "r", "A", SpanKind.CLIENT, 1.0, 5.0),
            Span("c0", "r", "A", SpanKind.CLIENT, 6.0, 8.0),
        ]
        trace = TraceRecord("t", "svc", spans)
        assert [s.span_id for s in trace.children_of(spans[0])] == ["c10", "c2", "c0"]
        # lost server spans: the client durations stand in (max 4, then 2)
        assert trace_own_latencies(trace) == {"A": [pytest.approx(3.0)]}

"""Tests for repro.tracing: spans, coordinator, metrics store."""

import pytest

from repro.graphs import DependencyGraph, call
from repro.tracing import (
    MetricsStore,
    Span,
    SpanKind,
    SpanTable,
    TracingCoordinator,
    synthesize_trace,
)

from tests.helpers import chain_graph, fig1_graph


FIG1_LATENCIES = {"T": 10.0, "Url": 6.0, "U": 8.0, "C": 4.0}
NAN = float("nan")


def group_parallel(client_spans):
    """One caller's client spans, stage by stage, as the span forest groups
    them (the overlap rule): each a call of a root that outlasts them all."""
    rows = []
    for number, span in enumerate(client_spans, 1):
        rows.extend((span.start, span.end, NAN, NAN, 1.0, 2 * number, f"m{number}", 0, "X"))
    end = max([span.end for span in client_spans], default=0.0)
    rows.extend((0.0, end, NAN, NAN, 1.0, 0, "X", -1, None))
    stages = SpanTable().append_trace("svc", 0, rows).stages()
    return [[client_spans[row] for row in stage] for stage in stages.get(len(client_spans), [])]


class TestSpan:
    def test_duration(self):
        span = Span("s0", None, "A", SpanKind.SERVER, 1.0, 5.0)
        assert span.duration == pytest.approx(4.0)

    def test_end_before_start_rejected(self):
        with pytest.raises(ValueError, match="before start"):
            Span("s0", None, "A", SpanKind.SERVER, 5.0, 1.0)

    def test_overlaps(self):
        a = Span("a", None, "A", SpanKind.CLIENT, 0.0, 10.0)
        b = Span("b", None, "A", SpanKind.CLIENT, 5.0, 15.0)
        c = Span("c", None, "A", SpanKind.CLIENT, 10.0, 20.0)
        assert group_parallel([a, b]) == [[a, b]]
        assert group_parallel([a, c]) == [[a], [c]]  # touching endpoints do not overlap


class TestSynthesizeTrace:
    def test_root_span_covers_end_to_end(self):
        graph = fig1_graph()
        trace = synthesize_trace(graph, FIG1_LATENCIES)
        # e2e = T + max(Url, U) + C = 10 + 8 + 4 = 22
        assert trace.root().duration == pytest.approx(22.0)

    def test_two_spans_per_call(self):
        graph = fig1_graph()
        trace = synthesize_trace(graph, FIG1_LATENCIES)
        # 4 server spans + 3 client spans (3 calls).
        assert len(trace.spans) == 7
        assert [s.kind for s in trace.spans].count(SpanKind.SERVER) == 4

    def test_parallel_client_spans_overlap(self):
        graph = fig1_graph()
        trace = synthesize_trace(graph, FIG1_LATENCIES)
        clients = [s for s in trace.spans if s.kind is SpanKind.CLIENT]
        t_clients = [s for s in clients if s.microservice == "T"]
        url_u = sorted(t_clients, key=lambda s: s.start)[:2]
        assert group_parallel(url_u) == [url_u]

    def test_root_detection(self):
        trace = synthesize_trace(fig1_graph(), FIG1_LATENCIES)
        assert trace.root().microservice == "T"


class TestGroupParallel:
    def test_sequential_spans_get_own_stages(self):
        spans = [
            Span("a", None, "X", SpanKind.CLIENT, 0.0, 5.0),
            Span("b", None, "X", SpanKind.CLIENT, 6.0, 9.0),
        ]
        stages = group_parallel(spans)
        assert [len(s) for s in stages] == [1, 1]

    def test_overlapping_spans_share_stage(self):
        spans = [
            Span("a", None, "X", SpanKind.CLIENT, 0.0, 5.0),
            Span("b", None, "X", SpanKind.CLIENT, 2.0, 9.0),
        ]
        stages = group_parallel(spans)
        assert [len(s) for s in stages] == [2]

    def test_chained_overlap_extends_window(self):
        spans = [
            Span("a", None, "X", SpanKind.CLIENT, 0.0, 5.0),
            Span("b", None, "X", SpanKind.CLIENT, 4.0, 10.0),
            Span("c", None, "X", SpanKind.CLIENT, 6.0, 8.0),
        ]
        stages = group_parallel(spans)
        assert [len(s) for s in stages] == [3]

    def test_empty_input(self):
        assert group_parallel([]) == []


class TestTracingCoordinator:
    def test_graph_round_trips(self):
        graph = fig1_graph()
        coordinator = TracingCoordinator()
        coordinator.offer(synthesize_trace(graph, FIG1_LATENCIES))
        extracted = coordinator.extract_graph("fig1")
        assert set(extracted.critical_paths()) == set(graph.critical_paths())

    def test_latency_extraction_recovers_inputs(self):
        """Eq. 1 applied to synthetic spans recovers the own latencies."""
        graph = fig1_graph()
        coordinator = TracingCoordinator()
        coordinator.offer(synthesize_trace(graph, FIG1_LATENCIES))
        samples = coordinator.latency_samples("fig1")
        for name, expected in FIG1_LATENCIES.items():
            assert samples[name][0] == pytest.approx(expected)

    def test_sampling_rate_filters(self):
        graph = chain_graph(["A", "B"])
        coordinator = TracingCoordinator(sampling_rate=0.1, seed=42)
        accepted = sum(
            coordinator.offer(
                synthesize_trace(graph, {"A": 1.0, "B": 1.0}, trace_id=f"t{i}")
            )
            for i in range(2000)
        )
        assert 120 <= accepted <= 280  # ~10%
        assert len(coordinator.traces["chain"]) == accepted

    def test_invalid_sampling_rate(self):
        with pytest.raises(ValueError, match="sampling_rate"):
            TracingCoordinator(sampling_rate=0.0)

    def test_extract_graph_without_traces(self):
        with pytest.raises(ValueError, match="no traces"):
            TracingCoordinator().extract_graph("missing")

    def test_merge_dynamic_graphs(self):
        """Two trace variants merge into a complete graph (paper §7)."""
        variant_a = DependencyGraph("svc", call("A", stages=[[call("B")]]))
        variant_b = DependencyGraph("svc", call("A", stages=[[call("C")]]))
        coordinator = TracingCoordinator()
        coordinator.offer(
            synthesize_trace(variant_a, {"A": 5.0, "B": 2.0}, trace_id="t0")
        )
        coordinator.offer(
            synthesize_trace(variant_b, {"A": 5.0, "C": 3.0}, trace_id="t1")
        )
        merged = coordinator.extract_graph("svc")
        assert set(merged.microservices()) == {"A", "B", "C"}

    def test_tail_latency_percentile(self):
        graph = chain_graph(["A", "B"])
        coordinator = TracingCoordinator()
        for index in range(100):
            coordinator.offer(
                synthesize_trace(
                    graph,
                    {"A": float(index + 1), "B": 1.0},
                    trace_id=f"t{index}",
                )
            )
        p95 = coordinator.tail_latency("chain", "A", percentile=95.0)
        assert 94.0 <= p95 <= 97.0

    def test_tail_latency_without_samples(self):
        with pytest.raises(ValueError, match="no latency samples"):
            TracingCoordinator().tail_latency("svc", "A")

    def test_end_to_end_latencies(self):
        graph = chain_graph(["A", "B"])
        coordinator = TracingCoordinator()
        coordinator.offer(synthesize_trace(graph, {"A": 4.0, "B": 6.0}))
        assert [t.root().duration for t in coordinator.traces["chain"]] == [
            pytest.approx(10.0)
        ]


class TestMetricsStore:
    def test_profiling_windows_join(self):
        store = MetricsStore()
        for tick in range(10):
            store.record_latency(0.0 + tick / 20.0, "A", 10.0 + tick)
        store.record_calls(0.1, "A", calls=300.0, containers=3)
        store.record_utilization(0.2, "h0", 0.5, 0.3)
        windows = store.profiling_windows("A")
        assert len(windows) == 1
        window = windows[0]
        assert window.per_container_load == pytest.approx(100.0)
        assert window.cpu_utilization == pytest.approx(0.5)
        assert window.tail_latency >= 18.0  # P95 of 10..19

    def test_window_without_calls_skipped(self):
        store = MetricsStore()
        store.record_latency(0.5, "A", 10.0)
        assert store.profiling_windows("A") == []

    def test_calls_accumulate_within_minute(self):
        store = MetricsStore()
        store.record_latency(3.1, "A", 5.0)
        store.record_calls(3.2, "A", calls=100.0, containers=2)
        store.record_calls(3.7, "A", calls=100.0, containers=2)
        windows = store.profiling_windows("A")
        assert windows[0].per_container_load == pytest.approx(100.0)

    def test_invalid_container_count(self):
        with pytest.raises(ValueError, match="containers"):
            MetricsStore().record_calls(0.0, "A", 1.0, 0)

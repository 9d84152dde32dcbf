"""Tests for span serialization and the simulator-to-metrics bridge."""

import json

import numpy as np
import pytest

from repro.core.model import ServiceSpec
from repro.graphs import DependencyGraph, call
from repro.profiling import fit_piecewise
from repro.simulator import (
    ClusterSimulator,
    SimulatedMicroservice,
    SimulationConfig,
)
from repro.tracing import (
    SpanTable,
    TracingCoordinator,
    dump_traces,
    load_traces,
    synthesize_trace,
    trace_from_dict,
    trace_to_dict,
)

from tests.helpers import fig1_graph


LATENCIES = {"T": 10.0, "Url": 6.0, "U": 8.0, "C": 4.0}


class TestTraceSerialization:
    def test_round_trip_preserves_structure(self):
        trace = synthesize_trace(fig1_graph(), LATENCIES)
        rebuilt = trace_from_dict(trace_to_dict(trace))
        assert rebuilt.trace_id == trace.trace_id
        assert rebuilt.service == trace.service
        assert len(rebuilt.spans) == len(trace.spans)
        assert rebuilt.root().duration == pytest.approx(trace.root().duration, abs=0.01)

    def test_round_trip_supports_extraction(self):
        trace = synthesize_trace(fig1_graph(), LATENCIES)
        coordinator = TracingCoordinator()
        coordinator.offer(trace_from_dict(trace_to_dict(trace)))
        graph = coordinator.extract_graph("fig1")
        assert set(graph.critical_paths()) == set(fig1_graph().critical_paths())

    def test_microsecond_precision(self):
        trace = synthesize_trace(fig1_graph(), {"T": 0.1234, "Url": 1.0, "U": 1.0, "C": 1.0})
        rebuilt = trace_from_dict(trace_to_dict(trace))
        # Jaeger stores microseconds; sub-microsecond detail is rounded.
        for original, restored in zip(trace.spans, rebuilt.spans):
            assert restored.duration == pytest.approx(original.duration, abs=0.002)

    def test_dump_and_load(self, tmp_path):
        traces = [
            synthesize_trace(fig1_graph(), LATENCIES, trace_id=f"t{i}")
            for i in range(5)
        ]
        path = tmp_path / "traces.jsonl"
        assert dump_traces(traces, str(path)) == 5
        loaded = load_traces(str(path))
        assert [t.trace_id for t in loaded] == [f"t{i}" for i in range(5)]

    def test_load_skips_blank_lines(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        trace = synthesize_trace(fig1_graph(), LATENCIES)
        path.write_text("\n" + json.dumps(trace_to_dict(trace)) + "\n\n")
        assert len(load_traces(str(path))) == 1

    def test_a_synthesized_table_round_trips_view_for_view(self, tmp_path):
        views = [
            synthesize_trace(
                fig1_graph(),
                {name: 1.0 + i + 0.25 * k for k, name in enumerate(LATENCIES)},
                f"t{i}",
                10.0 * i,
            )
            for i in range(4)
        ]
        path = tmp_path / "traces.jsonl"
        assert dump_traces(views, str(path)) == 4
        loaded = load_traces(str(path))
        assert isinstance(loaded, SpanTable) and loaded == views
        assert [view.spans for view in loaded] == [view.spans for view in views]
        assert dump_traces(loaded, str(path)) == 4 and load_traces(str(path)) == loaded
        assert [view.own_latencies() for view in loaded] == [
            view.own_latencies() for view in views
        ]

    @staticmethod
    def _edit(payload, span_id, **fields):
        for item in payload["spans"]:
            if item["spanID"] == span_id:
                item.update(fields)
        return payload

    @pytest.mark.parametrize(
        "edit, reason",
        [
            # a client span over another interval than its server span's
            (lambda p: TestTraceSerialization._edit(p, "t7-s3", duration=1), "covers"),
            (lambda p: TestTraceSerialization._edit(p, "t7-s4", startTime=4000), "covers"),
            # a lost server span, or a client span with no caller
            (lambda p: p["spans"].pop(2) and p, "t7-s3 has no server span"),
            (lambda p: TestTraceSerialization._edit(p, "t7-s3", references=[]),
             "t7-s3 has no parent"),
            # a server span that is not its client span's child
            (lambda p: TestTraceSerialization._edit(
                p, "t7-s4", references=[{"refType": "CHILD_OF", "spanID": "t7-s1"}]),
             "not the child of t7-s3"),
            # ids the row model cannot number, and the root
            (lambda p: TestTraceSerialization._edit(p, "t7-s4", spanID="t7-x4"), "not t7-s<n>"),
            (lambda p: TestTraceSerialization._edit(p, "t7-s0", references=[
                {"refType": "CHILD_OF", "spanID": "t7-s9"}]), "not the child of t7-s-1"),
            (lambda p: p["spans"].append(dict(p["spans"][-1])) or p, "appears twice"),
            (lambda p: p["spans"].pop() and p, "found 0"),
            (lambda p: TestTraceSerialization._edit(p, "t7-s0", duration=-5), "interval"),
            (lambda p: p.pop("serviceName") and p, "missing field 'serviceName'"),
        ],
    )
    def test_what_the_row_model_cannot_hold_is_rejected(self, tmp_path, edit, reason):
        payload = edit(trace_to_dict(synthesize_trace(fig1_graph(), LATENCIES, "t7")))
        path = tmp_path / "traces.jsonl"
        path.write_text(json.dumps(payload) + "\n")
        with pytest.raises(ValueError, match=f"^trace t7: .*{reason}"):
            load_traces(str(path))
        with pytest.raises(ValueError, match=f"^trace t7: .*{reason}"):
            trace_from_dict(payload)

    def test_a_root_listed_first_becomes_the_blocks_last_row(self):
        def span(number, parent, name, kind, start, duration):
            return {
                "spanID": f"x-s{number}",
                "references": [] if parent is None else [{"spanID": f"x-s{parent}"}],
                "processServiceName": name,
                "startTime": start,
                "duration": duration,
                "tags": [{"key": "span.kind", "value": kind}],
            }

        payload = {"traceID": "x", "serviceName": "svc", "spans": [
            span(4, None, "A", "server", 0, 9000),
            span(2, 1, "B", "server", 1000, 5000),
            span(1, 4, "A", "client", 1000, 5000),
        ]}
        view = trace_from_dict(payload)
        assert [s.span_id for s in view.spans] == ["x-s2", "x-s1", "x-s4"]
        assert view.root().span_id == "x-s4" and view.root().duration == 9.0
        assert view.own_latencies() == (["B", "A"], [5.0, 4.0])
        assert trace_from_dict(trace_to_dict(view)) == view

    def test_a_line_that_is_not_json_is_named(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        path.write_text("\n{not json\n")
        with pytest.raises(ValueError, match="traces.jsonl:2: not a JSON trace"):
            load_traces(str(path))


class TestSimulatorMetricsBridge:
    def _run(self, rate=20_000.0, **config):
        spec = ServiceSpec("svc", DependencyGraph("svc", call("B")), 0.0, 1e9)
        sim = ClusterSimulator(
            [spec],
            {"B": SimulatedMicroservice("B", base_service_ms=5.0, threads=2)},
            containers={"B": 2},
            rates={"svc": rate},
            config=SimulationConfig(
                duration_min=2.0, warmup_min=0.0, seed=6, **config
            ),
        )
        return sim.run()

    def test_a_run_without_own_latencies_cannot_be_exported(self):
        """It used to export an empty store: zero windows, as if too short."""
        result = self._run(rate=4_000.0, record_own_latency=False)
        with pytest.raises(ValueError, match="record_own_latency"):
            result.to_metrics_store()

    def test_export_produces_profiling_windows(self):
        result = self._run()
        store = result.to_metrics_store(cpu_utilization=0.5, memory_utilization=0.3)
        windows = store.profiling_windows("B")
        assert len(windows) >= 2
        for window in windows:
            assert window.cpu_utilization == pytest.approx(0.5)
            assert window.per_container_load > 0
            assert window.tail_latency > 0

    def test_windows_reflect_per_container_load(self):
        result = self._run(rate=12_000.0)
        store = result.to_metrics_store()
        windows = store.profiling_windows("B")
        # ~12000 calls/min over 2 containers -> ~6000 per container.
        loads = [w.per_container_load for w in windows]
        assert 4_000 <= float(np.median(loads)) <= 8_000

    def test_full_telemetry_to_profile_pipeline(self):
        """Simulate at several loads, export, fit — the §5.2 loop."""
        loads, latencies = [], []
        for rate in (4_000.0, 10_000.0, 16_000.0, 20_000.0, 22_000.0):
            store = self._run(rate=rate).to_metrics_store()
            for window in store.profiling_windows("B"):
                loads.append(window.per_container_load)
                latencies.append(window.tail_latency)
        fit = fit_piecewise(np.array(loads), np.array(latencies))
        # Capacity is 24k/min per container; the knee must sit below it.
        assert 0 < fit.model.cutoff < 12_000.0
        assert fit.model.high.slope > fit.model.low.slope

"""Tests for span serialization and the simulator-to-metrics bridge."""

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
        assert rebuilt.end_to_end_latency() == pytest.approx(
            trace.end_to_end_latency(), abs=0.01
        )

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
        path.write_text(
            "\n" + __import__("json").dumps(trace_to_dict(trace)) + "\n\n"
        )
        assert len(load_traces(str(path))) == 1


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

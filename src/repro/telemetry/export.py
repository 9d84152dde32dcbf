"""Telemetry exporters: Chrome-tracing timelines and JSON run reports.

Two human-facing views of an instrumented run:

* :func:`chrome_trace_events` / :func:`write_chrome_trace` — render
  collected traces as ``chrome://tracing`` / Perfetto "trace event"
  JSON: one complete ("X") event per span, processes named after
  services, threads after individual requests, so a run's request
  timelines open directly in a browser profiler.
* :func:`build_run_report` / :func:`write_run_report` — a plain-JSON
  summary of one run: per-service outcomes, the SLA monitor's window
  timeline and alerts, the autoscaler decision audit log, the window
  health series, and a registry snapshot.  ``python -m repro report``
  prints the same structure as tables.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Sequence

from repro.tracing.spans import TraceRecord

__all__ = [
    "build_run_report",
    "chrome_trace_events",
    "write_chrome_trace",
    "write_run_report",
]

_US_PER_MS = 1000.0


def chrome_trace_events(traces: Iterable[TraceRecord]) -> List[Dict]:
    """Spans as Chrome trace-event dicts (timestamps in microseconds).

    Services map to numeric ``pid``s and individual traces to ``tid``s,
    with "M"-phase metadata events carrying the readable names — the
    scheme chrome://tracing expects.
    """
    events: List[Dict] = []
    pids: Dict[str, int] = {}
    tids: Dict[str, int] = {}
    for trace in traces:
        pid = pids.get(trace.service)
        if pid is None:
            pid = pids[trace.service] = len(pids) + 1
            events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": f"service:{trace.service}"},
                }
            )
        tid = tids.get(trace.trace_id)
        if tid is None:
            tid = tids[trace.trace_id] = len(tids) + 1
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": trace.trace_id},
                }
            )
        for span in trace.spans:
            events.append(
                {
                    "name": span.microservice,
                    "cat": span.kind.value,
                    "ph": "X",
                    "ts": span.start * _US_PER_MS,
                    "dur": span.duration * _US_PER_MS,
                    "pid": pid,
                    "tid": tid,
                    "args": {
                        "span_id": span.span_id,
                        "parent_id": span.parent_id,
                    },
                }
            )
    return events


def write_chrome_trace(traces: Iterable[TraceRecord], path: str) -> int:
    """Write traces as a chrome://tracing JSON file; returns event count."""
    events = chrome_trace_events(traces)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
    return len(events)


def build_run_report(
    sink, result, specs: Optional[Sequence] = None, analysis=None
) -> Dict:
    """Assemble the plain-JSON report of one instrumented run.

    Args:
        sink: The run's :class:`~repro.telemetry.hooks.TelemetrySink`.
        result: The run's
            :class:`~repro.simulator.simulation.SimulationResult`.
        specs: Optional service specs; adds per-service SLA context when
            the sink's monitor has none.
        analysis: Optional
            :class:`~repro.telemetry.analysis.RunAnalysis` — adds an
            ``"analysis"`` section (critical-path attribution, SLA blame,
            drift verdicts, sampling stats) to the report.
    """
    slas = dict(sink.monitor.slas)
    if specs:
        for spec in specs:
            slas.setdefault(spec.name, spec.sla)

    services: Dict[str, Dict] = {}
    for name, completed in sorted(result.completed.items()):
        entry: Dict = {
            "generated": result.generated.get(name, 0),
            "completed": completed,
            "sla_ms": slas.get(name),
        }
        if completed:
            entry["p95_ms"] = round(result.tail_latency(name), 4)
            sla = slas.get(name)
            if sla is not None:
                entry["violation_rate"] = round(
                    result.sla_violation_rate(name, sla), 6
                )
        services[name] = entry

    report: Dict = {
        "schema": 1,
        "duration_min": result.duration_min,
        "warmup_min": result.warmup_min,
        "window_min": sink.config.window_min,
        "events_processed": result.events_processed,
        "containers": dict(sorted(result.containers.items())),
        "services": services,
        "windows": [w.to_dict() for w in sink.monitor.windows],
        "alerts": [a.to_dict() for a in sink.monitor.alerts],
        "decisions": sink.decisions.to_dicts(),
        "window_series": list(sink.window_series),
        "registry": sink.registry.snapshot(),
        "traces_collected": len(sink.traces),
        "traces_sampled": sink.sampled_traces,
        "traces_kept": sink.kept_traces,
        "tail_dropped": sink.tail_dropped,
        "tail_threshold_ms": sink.config.tail_threshold_ms,
        "profiling_samples": {
            "latencies": len(sink.metrics.latencies),
            "call_counts": len(sink.metrics.call_counts),
            "utilization": len(sink.metrics.utilization),
        },
    }
    if sink.late_spans:
        # spans of attempts abandoned on timeout that outlived their trace
        report["late_spans"] = sink.late_spans
    if sink.monitor.error_alerts:
        report["error_alerts"] = [
            a.to_dict() for a in sink.monitor.error_alerts
        ]
    store = getattr(sink, "timeseries", None)
    if store is not None:
        # Bounded TSDB dump: lets `repro serve --replay` answer
        # /api/query and /api/series for an archived run.
        report["timeseries"] = store.to_dict(max_points=2000)
    if analysis is not None:
        report["analysis"] = analysis.to_dict()
    return report


def write_run_report(report: Dict, path: str) -> None:
    """Write a :func:`build_run_report` dict as indented JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")

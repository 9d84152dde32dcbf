"""Telemetry exporters: Chrome-tracing timelines and JSON run reports.

Two human-facing views of an instrumented run:

* :func:`chrome_trace_events` / :func:`write_chrome_trace` — render
  collected traces as ``chrome://tracing`` / Perfetto "trace event"
  JSON: one complete ("X") event per span, processes named after
  services, threads after individual requests, so a run's request
  timelines open directly in a browser profiler.
* :func:`run_state` — the one read model of a run, safe to read while
  it is in flight: per-service counts, the SLA monitor's window timeline
  and alerts, the autoscaler decision audit log, the window health
  series, and an exact registry snapshot.
* :func:`build_run_report` / :func:`write_run_report` — the run state
  of a finished run plus its exact tail latencies, trace counters and
  TSDB dump, as plain JSON.  ``python -m repro report`` prints the same
  structure as tables; ``repro serve --replay`` serves it.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Sequence

from repro.tracing.spans import TraceView

__all__ = [
    "build_run_report",
    "chrome_trace_events",
    "run_state",
    "write_chrome_trace",
    "write_run_report",
]

_US_PER_MS = 1000.0


def chrome_trace_events(traces: Iterable[TraceView]) -> List[Dict]:
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


def write_chrome_trace(traces: Iterable[TraceView], path: str) -> int:
    """Write traces as a chrome://tracing JSON file; returns event count."""
    events = chrome_trace_events(traces)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
    return len(events)


def run_state(sink, result) -> Dict:
    """The part of a run report that is safe to read while the run is in flight.

    Windows, alerts (SLA, error budget and rule), decisions, the window
    series, the registry snapshot, containers, per-service generated /
    completed / SLA, events processed, duration, warm-up, window length
    and percentile.  The dashboard and every endpoint of
    :mod:`repro.telemetry.serve` read this dict (live) or the report
    that extends it (replayed).

    Reads only the sink's objects and the result's plain dicts and
    scalars, never its sample arrays: a numpy view of an ``array('d')``
    keeps its buffer exported, and the simulation thread's next append
    would then raise ``BufferError``.

    Args:
        sink: The run's :class:`~repro.telemetry.hooks.TelemetrySink`.
        result: The run's
            :class:`~repro.simulator.simulation.SimulationResult`.
    """
    monitor = sink.monitor
    return {
        "schema": 1,
        "duration_min": result.duration_min,
        "warmup_min": result.warmup_min,
        "window_min": sink.config.window_min,
        "events_processed": result.events_processed,
        "containers": dict(sorted(result.containers.items())),
        "services": {
            name: {
                "generated": result.generated.get(name, 0),
                "completed": completed,
                "sla_ms": monitor.slas.get(name),
            }
            for name, completed in sorted(result.completed.items())
        },
        "windows": [w.to_dict() for w in monitor.windows],
        "alerts": [a.to_dict() for a in monitor.alerts],
        "decisions": sink.decisions.to_dicts(),
        "window_series": list(sink.window_series),
        "registry": sink.registry.snapshot(),
        "error_alerts": [a.to_dict() for a in monitor.error_alerts],
        "rule_alerts": [a.to_dict() for a in monitor.rule_alerts],
        "percentile": sink.config.percentile,
    }


def build_run_report(
    sink, result, specs: Optional[Sequence] = None, analysis=None
) -> Dict:
    """Assemble the plain-JSON report of one finished instrumented run.

    :func:`run_state` plus what needs a finished run: each service's
    exact ``p95_ms`` / ``violation_rate``, the trace counters,
    ``profiling_samples``, the TSDB dump and ``analysis``.  ``repro
    serve --replay`` reads the report as the run state.

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
    report = run_state(sink, result)
    # Keys run_state has that the report carries later (or not at all).
    error_alerts = report.pop("error_alerts")
    added = {key: report.pop(key) for key in ("rule_alerts", "percentile")}
    for spec in specs or ():
        entry = report["services"].get(spec.name)
        if entry is not None and entry["sla_ms"] is None:
            entry["sla_ms"] = spec.sla
    for name, entry in report["services"].items():
        if entry["completed"]:
            entry["p95_ms"] = round(result.tail_latency(name), 4)
            sla = entry["sla_ms"]
            if sla is not None:
                entry["violation_rate"] = round(
                    result.sla_violation_rate(name, sla), 6
                )
    report.update(
        traces_collected=len(sink.traces),
        traces_sampled=sink.sampled_traces,
        traces_kept=sink.kept_traces,
        tail_dropped=sink.tail_dropped,
        tail_threshold_ms=sink.config.tail_threshold_ms,
        profiling_samples={
            "latencies": len(sink.metrics.latencies),
            "call_counts": len(sink.metrics.call_counts),
            "utilization": len(sink.metrics.utilization),
        },
    )
    if sink.late_spans:
        # spans of attempts abandoned on timeout that outlived their trace
        report["late_spans"] = sink.late_spans
    if error_alerts:
        report["error_alerts"] = error_alerts
    store = getattr(sink, "timeseries", None)
    if store is not None:
        # Every raw point the store holds (its ring is the bound), so
        # `repro serve --replay` answers /api/query and /api/series as
        # the live run did.
        report["timeseries"] = store.to_dict()
    if analysis is not None:
        report["analysis"] = analysis.to_dict()
    report.update(added)
    return report


def write_run_report(report: Dict, path: str) -> None:
    """Write a :func:`build_run_report` dict as indented JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")

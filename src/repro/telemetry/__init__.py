"""Live telemetry for the cluster simulator (paper §5.1–§5.2, online).

Stands in for the *online* half of Erms' Jaeger + Prometheus stack: where
:mod:`repro.tracing` models the span data and the Tracing Coordinator's
extraction rules, this package produces that telemetry live from a
running simulation — span emission per request, a windowed metrics
registry, an SLA violation monitor with structured alerts, an autoscaler
decision audit log, and exporters (chrome://tracing timelines, JSON run
reports).  Attach a :class:`TelemetrySink` via the simulator's
``telemetry=`` parameter; a run without one pays a single null-check
branch per event.

:mod:`repro.telemetry.serve` adds the *interactive* half: an in-process
HTTP observability plane (``/metrics`` scrapes with exemplars, label
queries over the embedded TSDB, SSE event streaming, a live dashboard,
and replay of archived run reports) attached to a run via the CLI's
``--serve`` flag or :class:`ObservabilityServer` directly.
"""

from repro.telemetry.hooks import TelemetryConfig, TelemetrySink
from repro.telemetry.monitor import (
    AlertEvent,
    DecisionLog,
    DecisionRecord,
    ErrorBudgetAlert,
    SLAMonitor,
    WindowStats,
)
from repro.telemetry.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    default_latency_buckets,
    parse_prometheus_text,
)
from repro.telemetry.export import (
    build_run_report,
    chrome_trace_events,
    run_state,
    write_chrome_trace,
    write_run_report,
)
from repro.telemetry.timeseries import (
    AlertRule,
    RecordingRule,
    RuleAlert,
    RuleSet,
    TimeSeriesConfig,
    TimeSeriesStore,
    load_rules,
    parse_selector,
)
from repro.telemetry.diff import RunDiff, diff_run_reports
from repro.telemetry.dashboard import (
    dashboard_css,
    dashboard_data,
    render_dashboard,
    render_dashboard_body,
    write_dashboard,
)
from repro.telemetry.logging import StructuredLogger
from repro.telemetry.serve import (
    ObservabilityServer,
    RunSource,
    load_replay_source,
    render_top,
)

__all__ = [
    "AlertEvent",
    "AlertRule",
    "Counter",
    "DecisionLog",
    "DecisionRecord",
    "ErrorBudgetAlert",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ObservabilityServer",
    "RecordingRule",
    "RuleAlert",
    "RuleSet",
    "RunDiff",
    "RunSource",
    "SLAMonitor",
    "StructuredLogger",
    "TelemetryConfig",
    "TelemetrySink",
    "TimeSeriesConfig",
    "TimeSeriesStore",
    "WindowStats",
    "build_run_report",
    "chrome_trace_events",
    "dashboard_css",
    "dashboard_data",
    "default_latency_buckets",
    "diff_run_reports",
    "load_replay_source",
    "load_rules",
    "parse_prometheus_text",
    "parse_selector",
    "render_dashboard",
    "render_dashboard_body",
    "render_top",
    "run_state",
    "write_chrome_trace",
    "write_dashboard",
    "write_run_report",
]

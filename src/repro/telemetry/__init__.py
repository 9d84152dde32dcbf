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

from repro.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "hooks": ("TelemetryConfig", "TelemetrySink"),
    "monitor": (
        "AlertEvent", "DecisionLog", "DecisionRecord", "ErrorBudgetAlert",
        "SLAMonitor", "WindowStats",
    ),
    "registry": (
        "Counter", "Gauge", "Histogram", "MetricsRegistry",
        "default_latency_buckets", "parse_prometheus_text",
    ),
    "export": (
        "build_run_report", "chrome_trace_events", "run_state",
        "write_chrome_trace", "write_run_report",
    ),
    "timeseries.rules": (
        "AlertRule", "RecordingRule", "RuleAlert", "RuleSet", "load_rules",
    ),
    "timeseries.store": ("TimeSeriesConfig", "TimeSeriesStore"),
    "timeseries.query": ("parse_selector",),
    "diff": ("RunDiff", "diff_run_reports"),
    "dashboard": (
        "dashboard_css", "dashboard_data", "render_dashboard",
        "render_dashboard_body", "write_dashboard",
    ),
    "logging": ("StructuredLogger",),
    "serve": (
        "ObservabilityServer", "RunSource", "load_replay_source", "render_top",
    ),
})

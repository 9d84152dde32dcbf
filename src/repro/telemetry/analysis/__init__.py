"""Trace analytics engine (paper §5.1–§5.3 turned inward on the DES).

Four analyses over one run's telemetry — a live
:class:`~repro.telemetry.TelemetrySink`'s output, or its pieces given
one by one, traces always as one
:class:`~repro.tracing.spans.SpanTable` read off its forest:

* :mod:`~repro.telemetry.analysis.critical_path` — per-trace critical-path
  extraction, decomposing end-to-end latency exactly into per-microservice
  own latency (and, with engine timings, queue wait / service time /
  interference inflation).
* :mod:`~repro.telemetry.analysis.blame` — SLA blame attribution against
  the Eq. 5 latency targets, with priority-inversion flagging at shared
  microservices (Eqs. 13–14).
* :mod:`~repro.telemetry.analysis.drift` — profile-drift detection by
  refitting the Eq. 15 piecewise model on live windows, alerting through
  the existing SLA monitor / decision log.
* :mod:`~repro.telemetry.analysis.report` — :func:`analyze_run`, the
  one-call pipeline behind ``python -m repro analyze``.

Tail-based sampling itself lives in the sink
(:class:`~repro.telemetry.TelemetryConfig` ``tail_threshold_ms`` /
``tail_floor``); the analyses are designed to stay correct under it —
blame tests violating-trace *presence*, never healthy-traffic rates.
"""

from repro.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "blame": (
        "BlameEntry", "BlameReport", "PriorityInversion", "attribute_blame",
    ),
    "critical_path": (
        "CriticalPath", "PathSegment", "extract_critical_path",
    ),
    "drift": (
        "DriftReport", "detect_profile_drift", "refit_profile",
    ),
    "report": ("AnalysisOptions", "RunAnalysis", "analyze_run"),
})

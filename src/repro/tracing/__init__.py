"""Tracing substrate: span model, coordinator, and metrics store.

Stands in for the paper's Jaeger + Prometheus deployment (§5.1).  Jaeger
records two spans per call — a client span on the caller and a server span
on the callee; Prometheus records OS-level utilization.  The *Tracing
Coordinator* combines both: it reconstructs dependency graphs from span
parent/child relations (marking calls whose client spans overlap as
parallel), derives per-microservice latency via paper Eq. 1, and assembles
per-minute profiling samples.
"""

from repro.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "spans": (
        "Span", "SpanKind", "SpanTable", "SpanTiming", "TraceView",
        "synthesize_trace",
    ),
    "coordinator": ("TracingCoordinator",),
    "metrics": ("MetricsStore", "UtilizationSample"),
    "serialization": (
        "dump_traces", "load_traces", "trace_from_dict", "trace_to_dict",
    ),
})

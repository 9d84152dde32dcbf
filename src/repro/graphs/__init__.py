"""Microservice dependency graphs.

A *dependency graph* (paper Fig. 1) records how one user request fans out
through a service's microservices: each microservice may call downstream
microservices either sequentially (one stage after another) or in parallel
(several calls within one stage).  The end-to-end latency of the service is
the longest execution time over all *critical paths* of the graph.

This package provides the graph data model used by every other part of the
reproduction: the tracing coordinator extracts these graphs from spans, the
Erms core merges them into chains of virtual microservices, and the cluster
simulator binds them to live containers — all through :class:`GraphPlan`.
"""

from repro.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    # repro.graphs.clustering is imported by its users, not exported: it
    # reuses repro.tracing's merge rule.
    "dependency": ("CallNode", "DependencyGraph", "GraphPlan", "call"),
    "validation": ("GraphValidationError", "validate_graph"),
})

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

from repro.graphs.dependency import CallNode, DependencyGraph, GraphPlan, call
from repro.graphs.validation import GraphValidationError, validate_graph

__all__ = [
    "CallNode",
    "DependencyGraph",
    "GraphPlan",
    "call",
    "GraphValidationError",
    "validate_graph",
    # repro.graphs.clustering is imported lazily by its users to avoid a
    # circular import with repro.tracing (whose merge rule it reuses).
]

"""The Tracing Coordinator (paper §3 ①, §5.1).

Consumes recorded traces and produces the two artifacts Erms' other modules
need:

* **dependency graphs** — starting from the root span, an edge is added for
  every call; calls whose client spans overlap in time are marked parallel
  (same stage), otherwise sequential.  Graphs from many traces of the same
  service are merged into a *complete* graph (§7, "Handling dynamic
  dependencies").
* **microservice latency** — paper Eq. 1: a microservice's own latency is
  its server-span response time minus the response time of its downstream
  calls, subtracting the full duration of each sequential stage but only
  the maximum within a parallel stage.

A 10 % sampling rate (Jaeger's default in the paper) is applied on ingest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.graphs import CallNode, DependencyGraph
from repro.tracing.spans import CallTree, TraceRecord


def trace_own_latencies(trace: TraceRecord) -> Dict[str, List[float]]:
    """Own latency of every microservice occurrence in one trace (Eq. 1).

    For each server span: response time minus the summed per-stage
    downstream *server* response times (max within a parallel stage), so
    own latency keeps the transmission time, as the paper's L_i does; the
    client span stands in for a lost server span.  Computed once — per
    trace (:class:`~repro.tracing.spans.CallTree`) for a record, per table
    (:class:`~repro.tracing.spans.SpanForest`) for a live view, which
    hands over its block's slice.
    """
    latencies: Dict[str, List[float]] = {}
    for name, own in zip(*trace.own_latencies()):
        if name is not None:
            latencies.setdefault(name, []).append(own)
    return latencies


@dataclass
class TracingCoordinator:
    """Collects traces and extracts graphs and latencies.

    Attributes:
        sampling_rate: Fraction of offered traces that are kept (Jaeger
            samples 10 % in the paper).  ``1.0`` keeps everything — tests
            and deterministic pipelines use that.
        seed: Seed for the sampling decision stream.
    """

    sampling_rate: float = 1.0
    seed: int = 0
    traces: Dict[str, List[TraceRecord]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0.0 < self.sampling_rate <= 1.0:
            raise ValueError(
                f"sampling_rate must be in (0, 1], got {self.sampling_rate}"
            )
        self._rng = np.random.default_rng(self.seed)

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def offer(self, trace: TraceRecord) -> bool:
        """Offer a trace for collection; returns True when sampled in."""
        if self.sampling_rate < 1.0 and self._rng.random() >= self.sampling_rate:
            return False
        self.traces.setdefault(trace.service, []).append(trace)
        return True

    def trace_count(self, service: Optional[str] = None) -> int:
        if service is not None:
            return len(self.traces.get(service, []))
        return sum(len(ts) for ts in self.traces.values())

    # ------------------------------------------------------------------
    # Graph extraction
    # ------------------------------------------------------------------
    def extract_graph(self, service: str) -> DependencyGraph:
        """Reconstruct the (merged) dependency graph of one service."""
        records = self.traces.get(service)
        if not records:
            raise ValueError(f"no traces recorded for service {service!r}")
        trees = [record.call_tree() for record in records]
        merged, *others = [_call_node(tree, tree.root) for tree in trees]
        for other in others:
            _merge_call_trees(merged, other)
        return DependencyGraph(service=service, root=merged)

    # ------------------------------------------------------------------
    # Latency extraction (paper Eq. 1)
    # ------------------------------------------------------------------
    def latency_samples(self, service: str) -> Dict[str, List[float]]:
        """Pooled own-latency samples per microservice across all traces."""
        pooled: Dict[str, List[float]] = {}
        for record in self.traces.get(service, []):
            for name, values in trace_own_latencies(record).items():
                pooled.setdefault(name, []).extend(values)
        return pooled

    def tail_latency(
        self, service: str, microservice: str, percentile: float = 95.0
    ) -> float:
        """Tail (default P95) own latency of one microservice."""
        samples = self.latency_samples(service).get(microservice)
        if not samples:
            raise ValueError(
                f"no latency samples for {microservice!r} in service {service!r}"
            )
        return float(np.percentile(samples, percentile))

    def end_to_end_latencies(self, service: str) -> List[float]:
        """End-to-end latency of every collected trace of a service."""
        return [t.root().duration for t in self.traces.get(service, [])]


def _call_node(tree: CallTree, node: int) -> CallNode:
    """One trace's dependency graph below ``node`` (lost calls left out)."""
    root = CallNode(tree.names[node])
    pending = [(node, root)]
    for node, call_node in pending:  # grows by the callees of each node
        for stage in tree.stages.get(node, ()):
            callees = [
                (n, CallNode(tree.names[n])) for n in stage if tree.names[n] is not None
            ]
            if callees:
                call_node.stages.append([callee for _, callee in callees])
                pending.extend(callees)
    return root


def _merge_call_trees(target: CallNode, other: CallNode) -> None:
    """Union ``other``'s call structure into ``target`` (paper §7).

    Children are matched by microservice name within corresponding stages;
    unmatched children of ``other`` are appended — to an existing stage when
    the stage index exists, as a new stage otherwise.  The merged graph
    over-approximates each individual trace, which is the paper's stated
    over-provisioning behaviour for dynamic graphs.
    """
    # Grows by each matched pair; first in, first merged, so calls matched
    # to one callee hand it their callees in stage order.
    pending = [(target, other)]
    for target, other in pending:
        for index, stage in enumerate(other.stages):
            if index >= len(target.stages):
                target.stages.append([])
            target_stage = target.stages[index]
            by_name = {child.microservice: child for child in target_stage}
            for child in stage:
                existing = by_name.get(child.microservice)
                if existing is None:
                    target_stage.append(child)
                    by_name[child.microservice] = child
                else:
                    pending.append((existing, child))

"""Critical-path extraction and latency attribution (tentpole part 1).

A request's end-to-end latency is not the sum of everything that ran —
parallel stages overlap — but it *is* exactly the sum of own latencies
along the **critical tree**: starting from the root server span, each
stage contributes its slowest call, recursively.  This module walks that
tree per trace and decomposes the end-to-end latency into one
:class:`PathSegment` per on-path microservice occurrence.

With engine timings attached (live :class:`~repro.telemetry.TelemetrySink`
traces carry :class:`~repro.tracing.spans.SpanTiming`), each segment's
own latency further splits exactly into queue wait, service time, and the
interference inflation share of the service time.  Post-hoc traces
(synthesized, imported) decompose to own latencies only.

The identity ``sum(segment.own_ms) == end_to_end`` is exact because the
per-stage maximum telescopes: a server span's duration is its own latency
plus the sum over stages of the slowest child's server duration, and the
recursion replaces each such maximum with that child's full expansion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.tracing.spans import TraceRecord

__all__ = [
    "CriticalPath",
    "PathSegment",
    "critical_path_summary",
    "extract_critical_path",
]


@dataclass(frozen=True)
class PathSegment:
    """One microservice occurrence on a trace's critical path.

    ``own_ms`` is always present (Eq. 1 residual on the critical tree);
    the queue/service/inflation split is only available when the trace
    carries engine timings, and then satisfies
    ``queue_ms + service_ms == own_ms`` exactly.
    """

    microservice: str
    span_id: str
    own_ms: float
    queue_ms: Optional[float] = None
    service_ms: Optional[float] = None
    inflation_ms: Optional[float] = None

    def to_dict(self) -> Dict:
        entry: Dict = {
            "microservice": self.microservice,
            "span_id": self.span_id,
            "own_ms": round(self.own_ms, 6),
        }
        if self.queue_ms is not None:
            entry["queue_ms"] = round(self.queue_ms, 6)
            entry["service_ms"] = round(self.service_ms, 6)
            entry["inflation_ms"] = round(self.inflation_ms, 6)
        return entry


@dataclass(frozen=True)
class CriticalPath:
    """One trace's end-to-end latency, decomposed along its critical tree."""

    trace_id: str
    service: str
    end_to_end_ms: float
    segments: Tuple[PathSegment, ...]

    @property
    def total_own_ms(self) -> float:
        """Sum of segment own latencies (equals ``end_to_end_ms``)."""
        return sum(segment.own_ms for segment in self.segments)

    def to_dict(self) -> Dict:
        return {
            "trace_id": self.trace_id,
            "service": self.service,
            "end_to_end_ms": round(self.end_to_end_ms, 6),
            "segments": [segment.to_dict() for segment in self.segments],
        }


def extract_critical_path(trace: TraceRecord) -> CriticalPath:
    """Decompose one trace's end-to-end latency along its critical tree.

    Walks the trace's :class:`~repro.tracing.spans.CallTree`: at every
    server span, stages are regrouped from client-span overlap (the
    coordinator's rule); each stage's slowest call — by server span
    duration, client duration when the server span was lost — joins the
    path, and the walk descends into it.  Segments are listed in
    root-first path order; own latencies are the tree's (Eq. 1, computed
    once per trace and shared with blame attribution).
    """
    tree = trace.call_tree()
    names = tree.names
    own = tree.own_latencies()
    slowest = tree.slowest
    path: List[int] = []
    pending = [tree.root]
    while pending:  # depth-first, earlier stages first
        node = pending.pop()
        path.append(node)
        if node in slowest:
            # a call whose server span was lost ends its branch
            pending.extend(
                [n for n in reversed(slowest[node]) if names[n] is not None]
            )
    segments = [
        PathSegment(names[node], span_id, own[node], *timing)
        for node, (span_id, timing) in zip(path, trace.node_details(path))
    ]
    return CriticalPath(
        trace.trace_id, trace.service, tree.durations[tree.root], tuple(segments)
    )


def critical_path_summary(paths: Iterable[CriticalPath]) -> List[Dict]:
    """Aggregate critical paths into per-microservice attribution rows.

    Each row carries the microservice's appearance count, its total and
    mean own latency on critical paths, its share of the summed
    end-to-end latency, and — where engine timings were present — the
    queue/service/inflation split of its contribution.  Rows are sorted
    by total own latency, the most latency-responsible microservice
    first.
    """
    totals: Dict[str, Dict[str, float]] = {}
    total_e2e = 0.0
    n_paths = 0
    for path in paths:
        n_paths += 1
        total_e2e += path.end_to_end_ms
        for segment in path.segments:
            row = totals.setdefault(
                segment.microservice,
                {
                    "appearances": 0.0,
                    "own_ms": 0.0,
                    "queue_ms": 0.0,
                    "service_ms": 0.0,
                    "inflation_ms": 0.0,
                    "timed": 0.0,
                },
            )
            row["appearances"] += 1
            row["own_ms"] += segment.own_ms
            if segment.queue_ms is not None:
                row["timed"] += 1
                row["queue_ms"] += segment.queue_ms
                row["service_ms"] += segment.service_ms
                row["inflation_ms"] += segment.inflation_ms

    rows: List[Dict] = []
    for name, row in totals.items():
        appearances = int(row["appearances"])
        entry: Dict = {
            "microservice": name,
            "appearances": appearances,
            "total_own_ms": round(row["own_ms"], 4),
            "mean_own_ms": round(row["own_ms"] / appearances, 4),
            "share_pct": round(100.0 * row["own_ms"] / total_e2e, 2)
            if total_e2e > 0
            else 0.0,
        }
        if row["timed"]:
            entry["mean_queue_ms"] = round(row["queue_ms"] / row["timed"], 4)
            entry["mean_service_ms"] = round(row["service_ms"] / row["timed"], 4)
            entry["mean_inflation_ms"] = round(
                row["inflation_ms"] / row["timed"], 4
            )
        rows.append(entry)
    rows.sort(key=lambda r: r["total_own_ms"], reverse=True)
    return rows

"""Critical-path extraction and latency attribution (tentpole part 1).

A request's end-to-end latency is not the sum of everything that ran —
parallel stages overlap — but it *is* exactly the sum of own latencies
along the **critical tree**: starting from the root server span, each
stage contributes its slowest call, recursively.  This module walks that
tree per trace and decomposes the end-to-end latency into one
:class:`PathSegment` per on-path microservice occurrence.  Many paths at
once are :class:`PathColumns` — flattened from :class:`CriticalPath`
objects, or read straight off a :class:`~repro.tracing.spans.SpanTable`'s
forest without building any — and the per-microservice summary is one
aggregation over those columns.

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
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.tracing.spans import SpanTable, TraceRecord

__all__ = [
    "CriticalPath",
    "PathColumns",
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


class PathColumns(NamedTuple):
    """Critical paths as flat columns: one entry per segment, path after
    path in trace order, each root first."""

    names: Sequence[str]  #: microservice names, indexed by ``ms``
    trace: np.ndarray  #: the path (trace index) a segment is on
    ms: np.ndarray
    own: np.ndarray
    #: queue / service / inflation rows; NaN service where no engine timing
    split: np.ndarray
    e2e: np.ndarray  #: end-to-end latency per path

    @classmethod
    def of_paths(cls, paths: Sequence[CriticalPath]) -> "PathColumns":
        segments = [segment for path in paths for segment in path.segments]
        ids: Dict[str, int] = {}
        ms = [ids.setdefault(s.microservice, len(ids)) for s in segments]
        untimed = (np.nan, np.nan, np.nan)
        split = [
            untimed if s.queue_ms is None else (s.queue_ms, s.service_ms, s.inflation_ms)
            for s in segments
        ]
        return cls(
            list(ids),
            np.repeat(
                np.arange(len(paths)), np.array([len(p.segments) for p in paths], int)
            ),
            np.array(ms, int),
            np.array([s.own_ms for s in segments], float),
            np.array(split, float).reshape(-1, 3).T,
            np.array([path.end_to_end_ms for path in paths], float),
        )

    @classmethod
    def of_table(cls, table: SpanTable) -> "PathColumns":
        """The table's traces (its first ``limit`` blocks) off its forest."""
        forest, blocks = table.forest(), len(table)
        rootless = np.flatnonzero(forest.root_count[:blocks] != 1)
        if len(rootless):
            table[int(rootless[0])].call_tree().root  # raises, naming the trace
        rows, offsets = forest.paths()
        offsets = offsets[: blocks + 1]
        rows = rows[: offsets[-1]]
        column = table.column
        begin, service, mult = column("start"), column("proc_ms")[rows], column("mult")[rows]
        roots = rows[offsets[:-1]]
        return cls(
            table.names,
            forest.trace[rows],
            column("ms")[rows],
            forest.own[rows],
            np.stack([
                column("proc_start")[rows] - begin[rows],
                service,
                np.where(mult == 1.0, 0.0, service - service / mult),
            ]),
            column("finish")[roots] - begin[roots],
        )

    def summary(self) -> List[Dict]:
        """Per-microservice attribution rows (:func:`critical_path_summary`).

        ``bincount`` adds in input order — segment by segment, as a loop
        over the paths would — so the sums are the same floats.
        """
        size = len(self.names)
        present, first_seen = np.unique(self.ms, return_index=True)
        timed = ~np.isnan(self.split[1])
        timed_ms = self.ms[timed]
        totals = list(zip(
            np.bincount(self.ms, minlength=size).tolist(),
            np.bincount(self.ms, self.own, size).tolist(),
            np.bincount(timed_ms, minlength=size).tolist(),
            *(np.bincount(timed_ms, part[timed], size).tolist() for part in self.split),
        ))
        total_e2e = float(np.cumsum(self.e2e)[-1]) if len(self.e2e) else 0.0
        rows: List[Dict] = []
        for index in present[np.argsort(first_seen, kind="stable")].tolist():
            appearances, own, timed_count, queue, service, inflation = totals[index]
            entry: Dict = {
                "microservice": self.names[index],
                "appearances": appearances,
                "total_own_ms": round(own, 4),
                "mean_own_ms": round(own / appearances, 4),
                "share_pct": round(100.0 * own / total_e2e, 2) if total_e2e > 0 else 0.0,
            }
            if timed_count:
                entry["mean_queue_ms"] = round(queue / timed_count, 4)
                entry["mean_service_ms"] = round(service / timed_count, 4)
                entry["mean_inflation_ms"] = round(inflation / timed_count, 4)
            rows.append(entry)
        rows.sort(key=lambda r: r["total_own_ms"], reverse=True)
        return rows


def critical_path_summary(paths: Iterable[CriticalPath]) -> List[Dict]:
    """Aggregate critical paths into per-microservice attribution rows.

    Each row carries the microservice's appearance count, its total and
    mean own latency on critical paths, its share of the summed
    end-to-end latency, and — where engine timings were present — the
    queue/service/inflation split of its contribution.  Rows are sorted
    by total own latency, the most latency-responsible microservice
    first.
    """
    return PathColumns.of_paths(list(paths)).summary()

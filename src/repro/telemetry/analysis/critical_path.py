"""Critical-path extraction and latency attribution (tentpole part 1).

A request's end-to-end latency is not the sum of everything that ran —
parallel stages overlap — but it *is* exactly the sum of own latencies
along the **critical tree**: starting from the root server span, each
stage contributes its slowest call, recursively.  A
:class:`~repro.tracing.spans.SpanTable`'s forest holds that tree for
every trace; :func:`extract_critical_path` reads one trace's off it as
one :class:`PathSegment` per on-path microservice occurrence, and
:class:`PathColumns` reads all of them as flat columns, whose
per-microservice summary is one aggregation.

With engine timings (live :class:`~repro.telemetry.TelemetrySink`
traces carry them), each segment's own latency further splits exactly
into queue wait, service time, and the interference inflation share of
the service time.  Post-hoc traces (synthesized, imported) decompose to
own latencies only.

The identity ``sum(segment.own_ms) == end_to_end`` is exact because the
per-stage maximum telescopes: a server span's duration is its own latency
plus the sum over stages of the slowest child's server duration, and the
recursion replaces each such maximum with that child's full expansion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.tracing.spans import SpanTable, TraceView

__all__ = ["CriticalPath", "PathColumns", "PathSegment", "extract_critical_path"]


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


def extract_critical_path(trace: TraceView) -> CriticalPath:
    """Decompose one trace's end-to-end latency along its critical tree.

    The trace's rows on its table forest's critical tree (each stage's
    slowest call by server span duration, the walk descending into it),
    in root-first, depth-first order with earlier stages first; own
    latencies are the forest's (Eq. 1, shared with blame attribution).
    """
    table, root = trace.table, trace.root_row()
    forest = table.forest()
    rows, offsets = forest.paths()
    path = rows[offsets[trace.index]:offsets[trace.index + 1]].tolist()
    segments = [
        PathSegment(table.names[table.ms[row]], span_id, own, *timing)
        for row, own, (span_id, timing) in zip(
            path, forest.own[path].tolist(), trace.span_details(path)
        )
    ]
    return CriticalPath(
        trace.trace_id, trace.service, table.finish[root] - table.start[root],
        tuple(segments),
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
    def of_table(cls, table: SpanTable) -> "PathColumns":
        """The table's traces (its first ``limit`` blocks) off its forest."""
        forest, blocks = table.rooted_forest(), len(table)
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
        """Aggregate the paths into per-microservice attribution rows.

        Each row carries the microservice's appearance count, its total
        and mean own latency on critical paths, its share of the summed
        end-to-end latency, and — where engine timings were present — the
        queue/service/inflation split of its contribution.  Rows are
        sorted by total own latency, the most latency-responsible
        microservice first.  ``bincount`` adds in input order — segment by
        segment, as a loop over the paths would — so the sums are the same
        floats.
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

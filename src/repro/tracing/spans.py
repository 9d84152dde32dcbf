"""Span data model and the columnar span table.

Following Jaeger's model as described in paper §5.1, every call between a
pair of microservices produces two spans:

* a CLIENT span on the caller — from the client sending the request (SEND)
  to the client receiving the response (RECEIVE);
* a SERVER span on the callee — from the server receiving the request to it
  sending the response back.

The root of a trace is a SERVER span with no parent (the entering
microservice receiving the user request).  A CLIENT span's parent is the
caller's SERVER span; a SERVER span's parent is the corresponding CLIENT
span.

One store holds that model: a :class:`SpanTable`, one row per call and
one block of rows per trace, as flat ``array`` columns, so a trace costs
no per-span object.  Blocks come from a live run's sink
(:meth:`SpanTable.append_trace`), from :func:`synthesize_trace` and from
:func:`~repro.tracing.serialization.load_traces`.  The overlap rule, Eq. 1
and the critical tree are read off all blocks at once
(:class:`SpanForest`); graph extraction, critical paths, blame and the
exporters all read them there.  A block is read through its
:class:`TraceView`, which builds :class:`Span` objects and id strings only
when ``spans`` / ``timings`` are read.
"""

from __future__ import annotations

import itertools
from array import array
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.graphs import DependencyGraph


class SpanKind(Enum):
    """Which side of a call this span was recorded on."""

    CLIENT = "client"
    SERVER = "server"


@dataclass(frozen=True)
class Span:
    """One recorded span.

    Attributes:
        span_id: Unique id within the trace.
        parent_id: Parent span id, or None for the trace root.
        microservice: The microservice this span was recorded on.
        kind: CLIENT or SERVER.
        start: RECEIVE (server) or SEND (client) timestamp, milliseconds.
        end: SEND (server) or RECEIVE (client) timestamp, milliseconds.
    """

    span_id: str
    parent_id: Optional[str]
    microservice: str
    kind: SpanKind
    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(
                f"span {self.span_id}: end {self.end} before start {self.start}"
            )

    @property
    def duration(self) -> float:
        """Response time covered by this span (ms)."""
        return self.end - self.start


@dataclass(frozen=True)
class SpanTiming:
    """Exact engine-side decomposition of one server span's own latency.

    Real tracing backends only see span boundaries; the DES additionally
    knows when the job acquired a worker thread and how long it held it,
    so a live-instrumented trace can split own latency exactly:

    ``own = queue_ms + service_ms`` and ``service_ms`` further splits into
    an interference-free base plus the inflation the host multiplier added
    (``inflation_ms = service_ms * (1 - 1/multiplier)``).  Post-hoc traces
    (synthesized or imported) carry no timings and analyzers fall back to
    the Eq. 1 own-latency residual alone.
    """

    queue_ms: float
    service_ms: float
    inflation_ms: float = 0.0


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Mask of the positions where a run of equal values begins."""
    starts = np.ones(len(values), dtype=bool)
    starts[1:] = values[1:] != values[:-1]
    return starts


class SpanForest:
    """All blocks of a :class:`SpanTable` as one forest of call trees.

    One pass over the columns regroups every caller's calls into stages,
    takes Eq. 1 and walks the critical trees — the one place the overlap
    rule and Eq. 1 live.  Everything is a table row number (``int32``):

    * ``child`` — the calls whose caller's row is in their block (a
      caller that never reached it orphans them), siblings together in
      ``(start, str(ordinal - 1))`` order; ``stage[i]`` numbers the stage
      ``child[i]`` is in, stages counted across the table in that order;
    * ``caller`` / ``slowest`` — per stage, the calling row and the first
      of its slowest calls;
    * ``own`` / ``trace`` — Eq. 1 own latency and block of every row;
    * ``roots`` / ``root_count`` — the parentless rows, and how many
      each block has.
    """

    __slots__ = (
        "own", "trace", "child", "stage", "caller", "slowest",
        "roots", "root_count", "_paths",
    )

    def __init__(self, table: "SpanTable") -> None:
        column = table.column
        start, finish = column("start"), column("finish")
        ordinal, parent = column("ordinal"), column("parent")
        counts = column("trace_rows")
        self.trace = trace = np.repeat(np.arange(len(counts), dtype=np.int32), counts)
        self.roots = np.flatnonzero(parent == -1).astype(np.int32)
        self.root_count = np.bincount(trace[self.roots], minlength=len(counts))
        self._paths: Optional[Tuple[np.ndarray, np.ndarray]] = None

        # Caller rows: (trace, ordinal) keys sorted once, each parent
        # looked up in them; of equal keys the last row wins, as in a dict.
        width = np.int64(max(ordinal.max(initial=0), parent.max(initial=0)) + 1)
        key = trace * width + ordinal
        by_key = np.argsort(key, kind="stable").astype(np.int32)
        key = key[by_key]
        child = np.flatnonzero(parent >= 0).astype(np.int32)
        wanted = trace[child] * width + parent[child]
        at = np.searchsorted(key, wanted, side="right") - 1
        found = key[at] == wanted
        child, caller = child[found], by_key[at[found]]
        del key, by_key, wanted, at, found

        # Siblings by (start, client span id); the ids compare as strings.
        values, code = np.unique(ordinal[child], return_inverse=True)
        rank = np.argsort(np.argsort([str(value - 1) for value in values.tolist()]))
        order = np.lexsort((rank[code], start[child], caller))
        child, caller = child[order], caller[order]
        del values, code, rank, order

        # The overlap rule: a call opens a stage unless it starts below the
        # latest finish of its caller's earlier calls.  That running maximum
        # is taken over the finishes' ranks, offset per caller, so one
        # accumulate serves every caller and no float is shifted.
        calls = len(child)
        opens = _run_starts(caller)  # a caller's first call always does
        end = finish[child]
        by_end = np.argsort(end, kind="stable")
        rank = np.empty(calls, dtype=np.int64)
        rank[by_end] = np.arange(calls)
        rank += (np.cumsum(opens) - 1) * calls
        latest = end[by_end[np.maximum.accumulate(rank) % max(calls, 1)]]
        opens[1:] |= start[child[1:]] >= latest[:-1]
        stage = np.cumsum(opens, dtype=np.int32) - 1
        del end, by_end, rank, latest

        # Eq. 1: response time minus each stage's (first) slowest call,
        # subtracted caller by caller in stage order, never below zero.
        duration = finish - start
        lasting = duration[child]
        peak = np.maximum.reduceat(lasting, np.flatnonzero(opens))
        slowest = np.flatnonzero(lasting == peak[stage])
        slowest = slowest[_run_starts(stage[slowest])]
        self.child, self.stage = child, stage
        self.caller, self.slowest = caller[slowest], child[slowest]
        downstream = np.bincount(
            self.caller, weights=duration[self.slowest], minlength=len(duration)
        )
        self.own = np.maximum(duration - downstream, 0.0)

    def paths(self) -> Tuple[np.ndarray, np.ndarray]:
        """The critical tree of every block with exactly one root.

        Returns the on-path rows — block after block, each depth-first
        from its root with earlier stages first — and each block's offset
        into them (one more entry than blocks).
        """
        if self._paths is None:
            caller, slowest = self.caller, self.slowest
            level = rows = self.roots[self.root_count[self.trace[self.roots]] == 1]
            position = np.empty(len(self.own), dtype=np.int32)
            while True:
                # top-down: a stage's slowest call is on the path if its
                # caller is, right behind it and its earlier stages' calls
                position[rows] = np.arange(len(rows), dtype=np.int32)
                reached = np.zeros(len(self.own), dtype=bool)
                reached[level] = True
                edges = np.flatnonzero(reached[caller])
                if not len(edges):
                    break
                level = slowest[edges]
                behind = np.concatenate((position[rows], position[caller[edges]]))
                rows = np.concatenate((rows, level))[np.argsort(behind, kind="stable")]
            blocks = np.arange(len(self.root_count) + 1)
            self._paths = rows, np.searchsorted(self.trace[rows], blocks)
        return self._paths


#: Values per row of a trace's buffer (``SpanTable.append_trace``).
ROW = 9
NAN = float("nan")


class SpanTable(SequenceABC):
    """Columnar store of traces; a sequence of :class:`TraceView`.

    One row per call — the callee's SERVER span and, below the root, the
    caller's CLIENT span over the same interval — in one contiguous block
    per trace, in completion order (the root call is a block's last row).
    ``'d'`` columns: ``start``, ``finish``, ``proc_start``, ``proc_ms``
    (NaN if the call never got a thread), ``mult``.  Int columns:
    ``ordinal`` (the server span's number in its trace; the client span is
    ``ordinal - 1``), ``parent`` (the calling server span's ordinal, -1 at
    the root — not a row, because an abandoned attempt's children can sit
    in a block their parent never reached), interned ``ms`` / ``caller``
    microservice ids.  Per trace: service id, trace number, row offset and
    count; a block written with its own trace id (synthesized or loaded)
    has it in ``labels``, by block.  None of it is tracked by the cyclic
    GC, and no id string exists until a view is read.  As a sequence the
    table shows its first ``limit`` traces (the sink's ``max_traces``);
    later blocks are reached only through the view :meth:`append_trace`
    returned, which takes a block as the flat buffer of values the
    engine's call records wrote (:data:`ROW` a span) and moves it into the
    columns one slice each.
    :meth:`forest` reads every block's stages, own latencies and critical
    tree in one pass; it is kept until the next block is appended.
    """

    def __init__(self, limit: Optional[int] = None) -> None:
        if limit is not None and limit < 0:
            raise ValueError(f"limit must be non-negative or None, got {limit}")
        self.limit = limit
        self._forest: Optional[SpanForest] = None
        self.start, self.finish = array("d"), array("d")
        self.proc_start, self.proc_ms, self.mult = array("d"), array("d"), array("d")
        self.ordinal, self.parent = array("i"), array("i")
        self.ms, self.caller = array("i"), array("i")
        self.trace_service, self.trace_number = array("i"), array("q")
        self.trace_offset, self.trace_rows = array("q"), array("i")
        self.names: List[str] = []
        self.labels: Dict[int, str] = {}
        #: name -> id; ``None``, the root span's caller, is -1
        self._ids: Dict[Optional[str], int] = {None: -1}

    def _intern(self, name: str) -> int:
        index = self._ids.get(name)
        if index is None:
            index = self._ids[name] = len(self.names)
            self.names.append(name)
        return index

    def append_trace(self, service: str, number: int, rows: List) -> "TraceView":
        """Flush one finished request's spans as a block of rows.

        ``rows`` is the trace's flat buffer: :data:`ROW` values a span (at
        least the root's), in completion order — ``start``, ``finish``,
        ``proc_start``, ``proc_ms``, ``mult``, ``ordinal``, microservice,
        the ``parent`` ordinal (-1 at the root) and the caller's
        microservice (``None`` at the root).
        """
        intern = self._intern
        self._forest = None
        self.trace_service.append(intern(service))
        ids = self._ids
        names, callers = rows[6::ROW], rows[8::ROW]
        # Lists first: a new name must not leave half a column behind.  A
        # caller can be new too: its attempt may have been abandoned.
        try:
            ms = list(map(ids.__getitem__, names))
            callers = list(map(ids.__getitem__, callers))
        except KeyError:
            ms = [intern(name) for name in names]
            callers = [intern(name) for name in callers]
        self.trace_number.append(number)
        self.trace_offset.append(len(self.start))
        self.trace_rows.append(len(ms))
        self.start.fromlist(rows[0::ROW])
        self.finish.fromlist(rows[1::ROW])
        self.proc_start.fromlist(rows[2::ROW])
        self.proc_ms.fromlist(rows[3::ROW])
        self.mult.fromlist(rows[4::ROW])
        self.ordinal.fromlist(rows[5::ROW])
        self.ms.fromlist(ms)
        self.parent.fromlist(rows[7::ROW])
        self.caller.fromlist(callers)
        return TraceView(self, len(self.trace_rows) - 1)

    def column(self, name: str) -> np.ndarray:
        """A column as an array over the same memory.  Transient use only:
        while one is alive the table cannot grow (``BufferError``)."""
        values = getattr(self, name)
        return np.frombuffer(values, dtype=values.typecode)

    def forest(self) -> "SpanForest":
        """Every block (past ``limit`` too) as one :class:`SpanForest`."""
        if self._forest is None:
            self._forest = SpanForest(self)
        return self._forest

    def rooted_forest(self) -> "SpanForest":
        """:meth:`forest`, once each block within ``limit`` has one root.

        Raises :meth:`TraceView.root_row`'s ``ValueError``, naming the
        first block with no parentless call or with several.
        """
        forest = self.forest()
        rootless = np.flatnonzero(forest.root_count[: len(self)] != 1)
        if len(rootless):
            self[int(rootless[0])].root_row()  # raises, naming the trace
        return forest

    def __len__(self) -> int:
        blocks, limit = len(self.trace_rows), self.limit
        return blocks if limit is None or blocks < limit else limit

    def __iter__(self):
        return map(TraceView, itertools.repeat(self), range(len(self)))

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [TraceView(self, i) for i in range(*index.indices(len(self)))]
        return TraceView(self, range(len(self))[index])  # IndexError past the end

    def __eq__(self, other) -> bool:
        if not isinstance(other, SequenceABC):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))


class TraceView:
    """One :class:`SpanTable` block: a trace, read off the table's columns.

    A call-tree node is a row of the block (``rows``); stages, Eq. 1 and
    the critical tree come from the table's :class:`SpanForest`.  The
    :class:`Span` objects and engine timings of ``spans`` / ``timings``
    are built on first read, and kept by the view.
    """

    __slots__ = ("table", "index", "rows", "_id", "_spans", "_timings")

    def __init__(self, table: SpanTable, index: int) -> None:
        self.table = table
        self.index = index
        offset = table.trace_offset[index]
        self.rows = range(offset, offset + table.trace_rows[index])
        self._id: Optional[str] = None
        self._spans: Optional[List[Span]] = None
        self._timings: Optional[Dict[str, SpanTiming]] = None

    @property
    def service(self) -> str:
        table = self.table
        return table.names[table.trace_service[self.index]]

    @property
    def trace_id(self) -> str:
        if self._id is None:
            label = self.table.labels.get(self.index)
            self._id = (
                f"{self.service}-t{self.table.trace_number[self.index]}"
                if label is None else label
            )
        return self._id

    def names(self) -> List[str]:
        """The microservice of every row of the block."""
        table, rows = self.table, self.rows
        return [table.names[i] for i in table.ms[rows.start:rows.stop]]

    def root_row(self) -> int:
        """The table row of the block's one parentless call."""
        rows = self.rows
        roots = [
            row
            for row, parent in zip(rows, self.table.parent[rows.start:rows.stop])
            if parent == -1
        ]
        if len(roots) != 1:
            raise ValueError(
                f"trace {self.trace_id}: expected exactly 1 root span, "
                f"found {len(roots)}"
            )
        return roots[0]

    def root(self) -> Span:
        """The entering microservice's SERVER span."""
        table, row = self.table, self.root_row()
        return Span(
            f"{self.trace_id}-s{table.ordinal[row]}", None, table.names[table.ms[row]],
            SpanKind.SERVER, table.start[row], table.finish[row],
        )

    def span_details(self, rows: Iterable[int]) -> List[Tuple[str, Tuple[float, ...]]]:
        """Per table row: server span id and engine timing
        ``(queue_ms, service_ms, inflation_ms)``, ``()`` if none was recorded."""
        t, prefix = self.table, f"{self.trace_id}-s"
        rows = list(rows)
        timings = [
            ()
            if proc_ms != proc_ms
            else (queued, proc_ms, 0.0 if mult == 1.0 else proc_ms - proc_ms / mult)
            for queued, proc_ms, mult in [
                (t.proc_start[r] - t.start[r], t.proc_ms[r], t.mult[r]) for r in rows
            ]
        ]
        return [(f"{prefix}{t.ordinal[r]}", timing) for r, timing in zip(rows, timings)]

    def stages(self) -> Dict[int, List[List[int]]]:
        """Per row with downstream calls, its callees stage by stage (rows
        counted from the block's first): the block's slice of the forest."""
        lo, hi = self.rows.start, self.rows.stop
        forest = self.table.forest()
        first, last = np.searchsorted(forest.caller, (lo, hi)).tolist()
        calls = slice(*np.searchsorted(forest.stage, (first, last)).tolist())
        opened = np.flatnonzero(_run_starts(forest.stage[calls]))[1:]
        stages: Dict[int, List[List[int]]] = {}
        for caller, stage in zip(
            (forest.caller[first:last] - lo).tolist(),
            np.split(forest.child[calls] - lo, opened),
        ):
            stages.setdefault(caller, []).append(stage.tolist())
        return stages

    def own_latencies(self) -> Tuple[Sequence[str], Sequence[float]]:
        """Microservice and Eq. 1 own latency of every row of the block."""
        rows = self.rows
        return self.names(), self.table.forest().own[rows.start:rows.stop].tolist()

    @property
    def spans(self) -> List[Span]:
        """Per row, its SERVER span, then (below the root) the caller's
        CLIENT span over the same interval."""
        if self._spans is None:
            self._read()
        return self._spans

    @property
    def timings(self) -> Optional[Dict[str, SpanTiming]]:
        """Engine timing per server span id; ``None`` when none was recorded."""
        if self._spans is None:
            self._read()
        return self._timings

    def _read(self) -> None:
        table, names, trace_id = self.table, self.table.names, self.trace_id
        details = self.span_details(self.rows)
        spans: List[Span] = []
        for (server_id, _), row in zip(details, self.rows):
            parent, name = table.parent[row], names[table.ms[row]]
            client_id = None if parent == -1 else f"{trace_id}-s{table.ordinal[row] - 1}"
            times = table.start[row], table.finish[row]
            spans.append(Span(server_id, client_id, name, SpanKind.SERVER, *times))
            if client_id is not None:
                spans.append(
                    Span(client_id, f"{trace_id}-s{parent}",
                         names[table.caller[row]], SpanKind.CLIENT, *times)
                )
        timings = {span_id: SpanTiming(*timing) for span_id, timing in details if timing}
        self._spans, self._timings = spans, timings or None

    def __eq__(self, other) -> bool:
        if not isinstance(other, TraceView):
            return NotImplemented
        return (self.trace_id, self.service, self.spans, self.timings) == (
            other.trace_id, other.service, other.spans, other.timings
        )


def synthesize_trace(
    graph: DependencyGraph,
    latencies: Mapping[str, float],
    trace_id: str = "trace-0",
    start: float = 0.0,
) -> TraceView:
    """Generate the spans a tracing system would record for one request.

    Each microservice's *own* latency (queueing + processing, paper Fig. 1)
    is split around its downstream stages: half before issuing calls, half
    after the last stage returns.  Calls within a stage start simultaneously
    (their client spans overlap); stages are strictly sequential.

    Args:
        graph: The service's dependency graph.
        latencies: Own latency per microservice name (ms).
        trace_id: Identifier for the produced trace.
        start: Timestamp of the user request arriving at the root (ms).

    Returns:
        The :class:`TraceView` of a new table's one block, in completion
        order; its structure round-trips through
        :class:`~repro.tracing.coordinator.TracingCoordinator`.
    """
    plan = graph.plan()
    names, index, parents = plan.names, plan.index, plan.parents
    own = [latencies[name] for name in names]
    opens = {stage[0] for stages in plan.stages for stage in stages if stage}
    arrival = [start] * len(index)
    sent = [0.0] * len(index)  # when the site's current stage went out
    cursor = [0.0] * len(index)  # the latest response the site has seen
    rows: List = []  # completion order; a site's server span is 2 * site

    def _respond(site: int) -> None:
        """``site`` is done: its row, over its server and client spans."""
        latency = own[index[site]]
        end = cursor[site] + (latency - latency / 2.0)
        caller = parents[site] if site else -1
        rows.extend((
            arrival[site], end, NAN, NAN, 1.0, 2 * site, names[index[site]],
            2 * caller if site else -1, names[index[caller]] if site else None,
        ))
        if site:
            cursor[caller] = max(cursor[caller], end)

    waiting: List[int] = []  # the chain of callers above the site at hand
    for site in range(len(index)):
        caller = parents[site]
        while waiting and waiting[-1] != caller:
            _respond(waiting.pop())
        if site:
            if site in opens:  # the caller's earlier stages have responded
                sent[caller] = cursor[caller]
            arrival[site] = sent[caller]
        sent[site] = cursor[site] = arrival[site] + own[index[site]] / 2.0
        waiting.append(site)
    while waiting:
        _respond(waiting.pop())
    table = SpanTable()
    table.labels[0] = trace_id
    return table.append_trace(graph.service, 0, rows)

"""Span data model, the per-trace call tree, and the columnar span table.

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

Two stores hold that model.  A :class:`TraceRecord` is a list of
:class:`Span` objects (synthesized or imported traces); it reduces to one
:class:`CallTree` per trace — stages regrouped by the overlap rule
(:func:`group_stages`) plus the Eq. 1 kernel.  A :class:`SpanTable` holds
a live run's traces as flat ``array`` columns, one row per call, so a
retained trace costs no per-span object; the overlap rule, Eq. 1 and the
critical tree are read off all of its blocks at once
(:class:`SpanForest`), which is what ``analyze_run`` and blame aggregate
from.  Its :class:`TraceView` objects answer the ``TraceRecord``
interface — ``call_tree()`` packages the block's slice of the forest —
and build ``Span`` objects and id strings only when ``spans`` /
``timings`` are read.
"""

from __future__ import annotations

import itertools
from array import array
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field
from enum import Enum
from operator import attrgetter, itemgetter
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


def group_stages(calls: Iterable[Tuple]) -> List[List]:
    """Partition one caller's outgoing calls into stages (the overlap rule).

    ``calls`` are ``(start, span_id, end, payload)`` of the caller's client
    spans.  Sorted by ``(start, span_id)``, a call joins the current stage
    if it starts inside the stage's running time window (the paper marks
    calls whose client spans overlap existing calls as parallel), otherwise
    it opens a new sequential stage.  Returns the payloads, stage by stage.
    """
    stages: List[List] = []
    window_end = float("-inf")
    for start, _, end, payload in sorted(calls, key=itemgetter(0, 1)):
        if stages and start < window_end:
            stages[-1].append(payload)
        else:
            stages.append([payload])
        if end > window_end:
            window_end = end
    return stages


class CallTree:
    """One trace's calls as a tree, and paper Eq. 1 over it.

    A node is one server span — or, named ``None``, a call whose server
    span was lost (its client span's duration stands in).  ``stages`` maps
    each node with downstream calls to its child nodes, stage by stage;
    ``roots`` are the parentless nodes.  Trees built from :class:`Span`
    lists also keep each node's span and the span-level child index.
    """

    __slots__ = (
        "trace_id", "names", "durations", "stages", "roots",
        "spans", "children", "slowest", "_own",
    )

    def __init__(self, trace_id, names, durations, stages, roots,
                 spans=None, children=None):
        self.trace_id, self.names, self.durations = trace_id, names, durations
        self.stages, self.roots = stages, roots
        self.spans, self.children = spans, children
        #: node -> slowest call of each of its stages (the critical tree);
        #: filled by :meth:`own_latencies`.
        self.slowest: Dict[int, List[int]] = {}
        self._own: Optional[List[float]] = None

    @classmethod
    def from_spans(cls, trace_id: str, spans: List[Span]) -> "CallTree":
        """Index a span list in one pass (post-hoc / imported traces)."""
        children: Dict[Optional[str], List[Span]] = {}
        servers: List[Span] = []
        for span in spans:
            children.setdefault(span.parent_id, []).append(span)
            if span.kind is SpanKind.SERVER:
                servers.append(span)
        for siblings in children.values():
            siblings.sort(key=attrgetter("start", "span_id"))
        node_of = {id(span): node for node, span in enumerate(servers)}
        names: List[Optional[str]] = [s.microservice for s in servers]
        durations = [s.end - s.start for s in servers]
        stages: Dict[int, List[List[int]]] = {}
        for node, server in enumerate(servers):
            calls = []
            for client in children.get(server.span_id, ()):
                if client.kind is not SpanKind.CLIENT:
                    continue
                callees = [
                    node_of[id(s)]
                    for s in children.get(client.span_id, ())
                    if s.kind is SpanKind.SERVER
                ]
                if not callees:  # server span lost (e.g. sampling)
                    callees = [len(names)]
                    names.append(None)
                    durations.append(client.end - client.start)
                calls.append((client.start, client.span_id, client.end, callees))
            if calls:
                stages[node] = [
                    [callee for callees in stage for callee in callees]
                    for stage in group_stages(calls)
                ]
        roots = [node_of[id(s)] for s in children.get(None, ()) if id(s) in node_of]
        return cls(trace_id, names, durations, stages, roots, servers, children)

    @property
    def root(self) -> int:
        """The entering microservice's node."""
        if len(self.roots) != 1:
            raise ValueError(
                f"trace {self.trace_id}: expected exactly 1 root span, "
                f"found {len(self.roots)}"
            )
        return self.roots[0]

    def own_latencies(self) -> List[float]:
        """Own latency of every node (paper Eq. 1), computed once.

        Response time minus the summed per-stage downstream response times
        (the slowest call of each parallel stage).  The residual includes
        queueing, processing, and transmission — the quantity Erms
        profiles.  The per-stage slowest calls are kept in ``slowest``.
        """
        own = self._own
        if own is None:
            durations = self.durations
            own = self._own = list(durations)
            duration_of = durations.__getitem__
            for node, stages in self.stages.items():
                slowest = self.slowest[node] = [
                    stage[0] if len(stage) == 1 else max(stage, key=duration_of)
                    for stage in stages
                ]
                downstream = 0.0
                for child in slowest:
                    downstream += durations[child]
                own[node] = max(durations[node] - downstream, 0.0)
        return own


@dataclass
class TraceRecord:
    """All spans of one end-to-end request.

    ``timings`` optionally maps server span ids to the engine's exact
    :class:`SpanTiming` decomposition (live-instrumented runs only).
    """

    trace_id: str
    service: str
    spans: List[Span] = field(default_factory=list)
    timings: Optional[Dict[str, SpanTiming]] = None
    _tree: Optional[Tuple[List[Span], int, CallTree]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def call_tree(self) -> CallTree:
        """The trace's :class:`CallTree`, cached until ``spans`` changes."""
        spans = self.spans
        cached = self._tree
        if cached is None or cached[0] is not spans or cached[1] != len(spans):
            cached = self._tree = (
                spans, len(spans), CallTree.from_spans(self.trace_id, spans)
            )
        return cached[2]

    def own_latencies(self) -> Tuple[Sequence[Optional[str]], Sequence[float]]:
        """Microservice and Eq. 1 own latency of every call-tree node."""
        tree = self.call_tree()
        return tree.names, tree.own_latencies()

    def root(self) -> Span:
        """The entering microservice's SERVER span."""
        tree = self.call_tree()
        return tree.spans[tree.root]

    def children_of(self, span: Span) -> List[Span]:
        """Direct child spans, ordered by start time."""
        return list(self.call_tree().children.get(span.span_id, ()))

    def end_to_end_latency(self) -> float:
        """Duration of the root server span."""
        return self.root().duration

    def server_spans(self) -> List[Span]:
        return list(self.call_tree().spans)

    def node_details(self, nodes: Iterable[int]) -> List[Tuple[str, Tuple[float, ...]]]:
        """Per :meth:`call_tree` node: server span id and engine timing
        ``(queue_ms, service_ms, inflation_ms)``, ``()`` if none was recorded."""
        spans, timings = self.call_tree().spans, self.timings or {}
        ids = [spans[node].span_id for node in nodes]
        return [
            (span_id, (t.queue_ms, t.service_ms, t.inflation_ms) if t else ())
            for span_id, t in zip(ids, map(timings.get, ids))
        ]


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Mask of the positions where a run of equal values begins."""
    starts = np.ones(len(values), dtype=bool)
    starts[1:] = values[1:] != values[:-1]
    return starts


class SpanForest:
    """All blocks of a :class:`SpanTable` as one forest of call trees.

    One pass over the columns does what :meth:`CallTree.from_spans`,
    :meth:`CallTree.own_latencies` and the critical-path walk do trace by
    trace — for table rows this is where the overlap rule and Eq. 1 live.
    Everything is a table row number (``int32``):

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


class SpanTable(SequenceABC):
    """Columnar store of a live run's traces; a sequence of :class:`TraceView`.

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
    count.  None of it is tracked by the cyclic GC, and no id string
    exists until a view is read.  As a sequence the table shows its first
    ``limit`` traces (the sink's ``max_traces``); later blocks are reached
    only through the view :meth:`append_trace` returned, which takes a
    block as the flat buffer of values the engine's call records wrote
    (:data:`ROW` a span) and moves it into the columns one slice each.
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
    """One :class:`SpanTable` block behind the :class:`TraceRecord` interface.

    The methods defined here read the columns (a call-tree node is a row
    of the block; stages and Eq. 1 come from the table's
    :class:`SpanForest`); everything else (``spans``, ``timings``,
    ``children_of()``, …) is answered by the :class:`TraceRecord` that
    :meth:`materialize` builds on first use, the one thing a view keeps.
    """

    __slots__ = ("_table", "_index", "_rows", "_id", "_record")

    def __init__(self, table: SpanTable, index: int) -> None:
        self._table = table
        self._index = index
        offset = table.trace_offset[index]
        self._rows = range(offset, offset + table.trace_rows[index])
        self._id: Optional[str] = None
        self._record: Optional[TraceRecord] = None

    @property
    def service(self) -> str:
        table = self._table
        return table.names[table.trace_service[self._index]]

    @property
    def trace_id(self) -> str:
        if self._id is None:
            self._id = f"{self.service}-t{self._table.trace_number[self._index]}"
        return self._id

    def _names(self) -> List[str]:
        table, rows = self._table, self._rows
        return [table.names[i] for i in table.ms[rows.start:rows.stop]]

    def root(self) -> Span:
        """The entering microservice's SERVER span: the block's last row."""
        table, row = self._table, self._rows[-1]
        return Span(
            f"{self.trace_id}-s{table.ordinal[row]}", None, table.names[table.ms[row]],
            SpanKind.SERVER, table.start[row], table.finish[row],
        )

    def node_details(self, nodes: Iterable[int]) -> List[Tuple[str, Tuple[float, ...]]]:
        t, prefix = self._table, f"{self.trace_id}-s"
        rows = [self._rows.start + node for node in nodes]
        timings = [
            ()
            if proc_ms != proc_ms
            else (queued, proc_ms, 0.0 if mult == 1.0 else proc_ms - proc_ms / mult)
            for queued, proc_ms, mult in [
                (t.proc_start[r] - t.start[r], t.proc_ms[r], t.mult[r]) for r in rows
            ]
        ]
        return [(f"{prefix}{t.ordinal[r]}", timing) for r, timing in zip(rows, timings)]

    def call_tree(self) -> CallTree:
        """The block's :class:`CallTree`: its slice of the table's forest."""
        table, lo, hi = self._table, self._rows.start, self._rows.stop
        forest = table.forest()
        first, last = np.searchsorted(forest.caller, (lo, hi)).tolist()
        calls = slice(*np.searchsorted(forest.stage, (first, last)).tolist())
        opened = np.flatnonzero(_run_starts(forest.stage[calls]))[1:]
        stages: Dict[int, List[List[int]]] = {}
        slowest: Dict[int, List[int]] = {}
        for caller, slow, stage in zip(
            (forest.caller[first:last] - lo).tolist(),
            (forest.slowest[first:last] - lo).tolist(),
            np.split(forest.child[calls] - lo, opened),
        ):
            stages.setdefault(caller, []).append(stage.tolist())
            slowest.setdefault(caller, []).append(slow)
        durations = [
            end - begin for begin, end in zip(table.start[lo:hi], table.finish[lo:hi])
        ]
        roots = [n for n, parent in enumerate(table.parent[lo:hi]) if parent == -1]
        tree = CallTree(self.trace_id, self._names(), durations, stages, roots)
        tree.slowest, tree._own = slowest, forest.own[lo:hi].tolist()
        return tree

    def own_latencies(self) -> Tuple[Sequence[Optional[str]], Sequence[float]]:
        """Microservice and Eq. 1 own latency of every row of the block."""
        rows = self._rows
        return self._names(), self._table.forest().own[rows.start:rows.stop].tolist()

    def materialize(self) -> TraceRecord:
        """The block as a :class:`TraceRecord` of :class:`Span` objects."""
        if self._record is None:
            table, names, trace_id = self._table, self._table.names, self.trace_id
            details = self.node_details(range(len(self._rows)))
            spans: List[Span] = []
            for (server_id, _), row in zip(details, self._rows):
                ordinal, name = table.ordinal[row], names[table.ms[row]]
                client_id = f"{trace_id}-s{ordinal - 1}" if ordinal else None
                times = table.start[row], table.finish[row]
                spans.append(Span(server_id, client_id, name, SpanKind.SERVER, *times))
                if client_id is not None:
                    spans.append(
                        Span(client_id, f"{trace_id}-s{table.parent[row]}",
                             names[table.caller[row]], SpanKind.CLIENT, *times)
                    )
            timings = {
                span_id: SpanTiming(*timing) for span_id, timing in details if timing
            }
            self._record = TraceRecord(trace_id, self.service, spans, timings or None)
        return self._record

    def __getattr__(self, name: str):
        return getattr(self.materialize(), name)

    def __eq__(self, other) -> bool:
        if isinstance(other, TraceView):
            other = other.materialize()
        return self.materialize() == other


def synthesize_trace(
    graph: DependencyGraph,
    latencies: Mapping[str, float],
    trace_id: str = "trace-0",
    start: float = 0.0,
    network_delay: float = 0.0,
) -> TraceRecord:
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
        network_delay: One-way transmission delay added around each call.

    Returns:
        A :class:`TraceRecord` whose structure round-trips through
        :class:`~repro.tracing.coordinator.TracingCoordinator`.
    """
    plan = graph.plan()
    names, index, parents = plan.names, plan.index, plan.parents
    own = [latencies[name] for name in names]
    opens = {stage[0] for stages in plan.stages for stage in stages if stage}
    # in site order: a site's client span is 2 * site - 1, its server span 2 * site
    ids = [f"{trace_id}-s{number}" for number in range(2 * len(index))]
    arrival = [start] * len(index)
    sent = [0.0] * len(index)  # when the site's current stage went out
    cursor = [0.0] * len(index)  # the latest response the site has seen
    spans: List[Span] = []

    def _respond(site: int) -> None:
        """``site`` is done: its server span, then its caller's client span."""
        latency = own[index[site]]
        end = cursor[site] + (latency - latency / 2.0)
        spans.append(
            Span(
                span_id=ids[2 * site],
                parent_id=ids[2 * site - 1] if site else None,
                microservice=names[index[site]],
                kind=SpanKind.SERVER,
                start=arrival[site],
                end=end,
            )
        )
        if site:
            caller = parents[site]
            client_end = end + network_delay
            spans.append(
                Span(
                    span_id=ids[2 * site - 1],
                    parent_id=ids[2 * caller],
                    microservice=names[index[caller]],
                    kind=SpanKind.CLIENT,
                    start=sent[caller],
                    end=client_end,
                )
            )
            cursor[caller] = max(cursor[caller], client_end)

    waiting: List[int] = []  # the chain of callers above the site at hand
    for site in range(len(index)):
        caller = parents[site]
        while waiting and waiting[-1] != caller:
            _respond(waiting.pop())
        if site:
            if site in opens:  # the caller's earlier stages have responded
                sent[caller] = cursor[caller]
            arrival[site] = sent[caller] + network_delay
        sent[site] = cursor[site] = arrival[site] + own[index[site]] / 2.0
        waiting.append(site)
    while waiting:
        _respond(waiting.pop())
    return TraceRecord(trace_id=trace_id, service=graph.service, spans=spans)

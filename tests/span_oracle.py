"""The scalar reading of one trace's spans: the reference for the span forest.

``repro.tracing.spans.SpanForest`` reads the overlap rule, Eq. 1 and the
critical tree off every block of a ``SpanTable`` at once.  This module
reads them the way the library once did, trace by trace, from the trace's
``Span`` list alone: index the spans in one pass, group each caller's
client spans into stages (:func:`group_stages`), take Eq. 1 node by node
and walk the critical tree depth-first.  The tests check the forest,
critical paths, run analysis and graph extraction against it.
"""

from operator import attrgetter, itemgetter

import numpy as np

from repro.telemetry.analysis.critical_path import CriticalPath, PathColumns, PathSegment
from repro.tracing.spans import SpanKind


def group_stages(calls):
    """Partition one caller's outgoing calls into stages (the overlap rule).

    ``calls`` are ``(start, span_id, end, payload)`` of the caller's client
    spans.  Sorted by ``(start, span_id)``, a call joins the current stage
    if it starts inside the stage's running time window, otherwise it opens
    a new sequential stage.  Returns the payloads, stage by stage.
    """
    stages = []
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
    """One trace's server spans as a tree, and paper Eq. 1 over it.

    A node is a server span, numbered in span-list order; ``stages`` maps
    each node with downstream calls to its child nodes, stage by stage,
    ``slowest`` to the first slowest call of each stage, and ``roots``
    lists the parentless nodes.
    """

    def __init__(self, trace_id, spans):
        children = {}
        servers = []
        for span in spans:
            children.setdefault(span.parent_id, []).append(span)
            if span.kind is SpanKind.SERVER:
                servers.append(span)
        for siblings in children.values():
            siblings.sort(key=attrgetter("start", "span_id"))
        node_of = {id(span): node for node, span in enumerate(servers)}
        self.trace_id, self.spans = trace_id, servers
        self.names = [s.microservice for s in servers]
        self.durations = [s.end - s.start for s in servers]
        self.stages = {}
        for node, server in enumerate(servers):
            calls = [
                (
                    client.start, client.span_id, client.end,
                    [
                        node_of[id(s)]
                        for s in children.get(client.span_id, ())
                        if s.kind is SpanKind.SERVER
                    ],
                )
                for client in children.get(server.span_id, ())
                if client.kind is SpanKind.CLIENT
            ]
            if calls:
                self.stages[node] = [
                    [callee for callees in stage for callee in callees]
                    for stage in group_stages(calls)
                ]
        self.roots = [node_of[id(s)] for s in children.get(None, ()) if id(s) in node_of]
        durations = self.durations
        self.own = list(durations)
        self.slowest = {}
        for node, stages in self.stages.items():
            slowest = self.slowest[node] = [
                max(stage, key=durations.__getitem__) for stage in stages
            ]
            downstream = 0.0
            for child in slowest:
                downstream += durations[child]
            self.own[node] = max(durations[node] - downstream, 0.0)

    @property
    def root(self):
        if len(self.roots) != 1:
            raise ValueError(
                f"trace {self.trace_id}: expected exactly 1 root span, "
                f"found {len(self.roots)}"
            )
        return self.roots[0]


def own_latencies(trace):
    """Microservice and Eq. 1 own latency of every server span of ``trace``."""
    tree = CallTree(trace.trace_id, trace.spans)
    return tree.names, tree.own


def critical_path(trace):
    """``trace``'s critical path, walked depth-first from its root span."""
    tree = CallTree(trace.trace_id, trace.spans)
    path, pending = [], [tree.root]
    while pending:  # earlier stages first
        node = pending.pop()
        path.append(node)
        pending.extend(reversed(tree.slowest.get(node, ())))
    timings = trace.timings or {}
    segments = []
    for node in path:
        span_id = tree.spans[node].span_id
        timing = timings.get(span_id)
        split = () if timing is None else (
            timing.queue_ms, timing.service_ms, timing.inflation_ms
        )
        segments.append(PathSegment(tree.names[node], span_id, tree.own[node], *split))
    return CriticalPath(
        trace.trace_id, trace.service, tree.durations[tree.root], tuple(segments)
    )


def path_columns(traces):
    """The critical paths of ``traces`` as :class:`PathColumns`, path by path."""
    paths = [critical_path(trace) for trace in traces]
    segments = [segment for path in paths for segment in path.segments]
    ids = {}
    ms = [ids.setdefault(s.microservice, len(ids)) for s in segments]
    untimed = (np.nan, np.nan, np.nan)
    split = [
        untimed if s.queue_ms is None else (s.queue_ms, s.service_ms, s.inflation_ms)
        for s in segments
    ]
    return PathColumns(
        list(ids),
        np.repeat(np.arange(len(paths)), np.array([len(p.segments) for p in paths], int)),
        np.array(ms, int),
        np.array([s.own_ms for s in segments], float),
        np.array(split, float).reshape(-1, 3).T,
        np.array([path.end_to_end_ms for path in paths], float),
    )


def blame_samples(traces):
    """The columns blame attribution reads, trace by trace: names by id;
    per trace its service, root finish and duration; per server span its
    trace, microservice and Eq. 1 own latency."""
    ids = {}
    service, end, e2e, trace_of, ms, own = [], [], [], [], [], []
    for index, trace in enumerate(traces):
        tree = CallTree(trace.trace_id, trace.spans)
        root = tree.spans[tree.root]
        service.append(ids.setdefault(trace.service, len(ids)))
        end.append(root.end)
        e2e.append(root.duration)
        for name, value in zip(tree.names, tree.own):
            trace_of.append(index)
            ms.append(ids.setdefault(name, len(ids)))
            own.append(value)
    return (
        list(ids), np.array(service, int), np.array(end, float), np.array(e2e, float),
        np.array(trace_of, int), np.array(ms, int), np.array(own, float),
    )

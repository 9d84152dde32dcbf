"""Span serialization: Jaeger-compatible-ish JSON export/import.

Lets traces collected by the simulator (or synthesized) be saved to disk
and replayed into a :class:`~repro.tracing.coordinator.TracingCoordinator`
later — the offline-profiling workflow of the paper's artifact, where a
day of traces is collected first and fitted afterwards.

The schema loosely follows Jaeger's JSON export: a trace carries a
``traceID``, a ``serviceName`` and a list of spans with ``spanID``,
``references`` (CHILD_OF), ``startTime`` and ``duration`` (microseconds,
as in Jaeger), plus a ``kind`` tag.  Reading one back writes it into a
:class:`~repro.tracing.spans.SpanTable` block, one row per call, so a
trace is read only if that row model holds it: span ids
``<traceID>-s<n>``, exactly one root SERVER span, and below it every
SERVER span ``-s<n>`` the child of its CLIENT span ``-s<n-1>`` over the
same interval, that CLIENT span the child of a span ``-s<m>``.
"""

from __future__ import annotations

import json
import math
from typing import Dict, Iterable, List

from repro.tracing.spans import NAN, ROW, SpanKind, SpanTable, TraceView

_US_PER_MS = 1000.0


def trace_to_dict(trace: TraceView) -> Dict:
    """One trace as a JSON-ready dict (timestamps in microseconds)."""
    spans: List[Dict] = []
    for span in trace.spans:
        references = []
        if span.parent_id is not None:
            references.append(
                {"refType": "CHILD_OF", "spanID": span.parent_id}
            )
        spans.append(
            {
                "spanID": span.span_id,
                "references": references,
                "processServiceName": span.microservice,
                "startTime": round(span.start * _US_PER_MS),
                "duration": round(span.duration * _US_PER_MS),
                "tags": [{"key": "span.kind", "value": span.kind.value}],
            }
        )
    return {
        "traceID": trace.trace_id,
        "serviceName": trace.service,
        "spans": spans,
    }


def _rows(trace_id: str, payload: Dict) -> List:
    """A trace's spans as :meth:`SpanTable.append_trace` rows, the root
    last; a ``ValueError`` says what the row model cannot hold."""
    if not isinstance(trace_id, str):
        raise ValueError(f"traceID must be a string, got {trace_id!r}")
    prefix = f"{trace_id}-s"
    spans: Dict[int, tuple] = {}
    for item in payload["spans"]:
        span_id, name = item["spanID"], item["processServiceName"]
        number = _ordinal(span_id, prefix)
        if number in spans:
            raise ValueError(f"span {span_id} appears twice")
        if not isinstance(name, str):
            raise ValueError(f"span {span_id}: processServiceName must be a string")
        references = item.get("references") or []
        parent = references[0]["spanID"] if references else None
        kind = SpanKind.SERVER
        for tag in item.get("tags", []):
            if tag.get("key") == "span.kind":
                kind = SpanKind(tag["value"])
        start = item["startTime"] / _US_PER_MS
        end = start + item["duration"] / _US_PER_MS
        if not -math.inf < start <= end < math.inf:
            raise ValueError(f"span {span_id}: interval [{start}, {end}]")
        spans[number] = (kind, name, parent, start, end)
    rows: List = []
    root: List = []
    clients = {n for n, span in spans.items() if span[0] is SpanKind.CLIENT}
    for number, (kind, name, parent, start, end) in spans.items():
        if kind is SpanKind.CLIENT:
            continue
        if parent is None:
            root.extend((start, end, NAN, NAN, 1.0, number, name, -1, None))
            continue
        client_id = f"{prefix}{number - 1}"
        if parent != client_id or number - 1 not in clients:
            raise ValueError(f"server span {prefix}{number} is not the child of {client_id}")
        clients.remove(number - 1)
        _, caller, calling, *interval = spans[number - 1]
        if interval != [start, end]:
            raise ValueError(
                f"client span {client_id} covers {interval}, "
                f"its server span {[start, end]}"
            )
        if calling is None:
            raise ValueError(f"client span {client_id} has no parent")
        rows.extend(
            (start, end, NAN, NAN, 1.0, number, name, _ordinal(calling, prefix), caller)
        )
    if clients:
        raise ValueError(f"client span {prefix}{min(clients)} has no server span")
    if len(root) != ROW:
        raise ValueError(f"expected exactly 1 root span, found {len(root) // ROW}")
    if not isinstance(payload["serviceName"], str):
        raise ValueError("serviceName must be a string")
    return rows + root


def _ordinal(span_id, prefix: str) -> int:
    """``n`` of a span id ``<prefix><n>`` (``n`` below 10**9, no leading zero)."""
    if isinstance(span_id, str) and span_id.startswith(prefix):
        number = span_id[len(prefix):]
        if number.isascii() and number.isdigit() and len(number) < 10:
            if number == str(int(number)):
                return int(number)
    raise ValueError(f"span id {span_id!r} is not {prefix}<n>")


def _append(table: SpanTable, payload: Dict) -> TraceView:
    """Write one :func:`trace_to_dict` payload into ``table`` as a block."""
    trace_id = payload.get("traceID") if isinstance(payload, dict) else None
    try:
        rows = _rows(trace_id, payload)
    except KeyError as error:
        raise ValueError(f"trace {trace_id}: missing field {error}") from None
    except (TypeError, ValueError, AttributeError) as error:
        raise ValueError(f"trace {trace_id}: {error}") from None
    view = table.append_trace(payload["serviceName"], len(table.trace_rows), rows)
    table.labels[view.index] = trace_id
    return view


def trace_from_dict(payload: Dict) -> TraceView:
    """Rebuild one :func:`trace_to_dict` trace as a one-block table's view."""
    return _append(SpanTable(), payload)


def dump_traces(traces: Iterable[TraceView], path: str) -> int:
    """Write traces as JSON lines; returns the number written."""
    count = 0
    with open(path, "w") as handle:
        for trace in traces:
            handle.write(json.dumps(trace_to_dict(trace)))
            handle.write("\n")
            count += 1
    return count


def load_traces(path: str) -> SpanTable:
    """Read JSON-lines traces written by :func:`dump_traces` into a table.

    Raises:
        ValueError: naming the trace (or the line, when it is not JSON)
            that the row model cannot hold.
    """
    table = SpanTable()
    with open(path) as handle:
        for number, line in enumerate(handle, 1):
            line = line.strip()
            if line:
                try:
                    payload = json.loads(line)
                except ValueError as error:
                    raise ValueError(f"{path}:{number}: not a JSON trace: {error}") from None
                _append(table, payload)
    return table

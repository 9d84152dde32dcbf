"""Alibaba-v2021-style trace rows: export and call-graph reconstruction.

The cluster-trace-microservices-v2021 dataset the paper analyzes encodes
call graphs as *MSCallGraph* rows: one row per call with a ``traceid``,
a hierarchical ``rpcid`` ("0", "0.1", "0.1.2", ...), the upstream
microservice (``um``), the downstream microservice (``dm``), and the
response time ``rt``.  Sibling calls that share an rpcid prefix are
children of the same parent call; within a parent, calls are issued in
rpcid order with identical-timestamp siblings considered parallel — here,
sibling order is taken as stage order, with an explicit ``parallel`` flag
per row since the public trace's timestamps are too coarse to always
decide.

This module writes and reads that row format (CSV) and reconstructs
:class:`~repro.graphs.dependency.DependencyGraph` objects from it, so the
reproduction can exchange workloads in the shape of the real dataset.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.graphs import CallNode, DependencyGraph

FIELDNAMES = ["traceid", "service", "rpcid", "um", "dm", "rt", "parallel"]


@dataclass(frozen=True)
class CallRow:
    """One MSCallGraph-style row."""

    traceid: str
    service: str
    rpcid: str
    um: str  # upstream microservice (caller)
    dm: str  # downstream microservice (callee)
    rt: float  # response time, ms
    parallel: bool = False  # parallel with the previous sibling

    def depth(self) -> int:
        return self.rpcid.count(".")

    def parent_rpcid(self) -> Optional[str]:
        if "." not in self.rpcid:
            return None
        return self.rpcid.rsplit(".", 1)[0]


def graph_to_rows(
    graph: DependencyGraph, traceid: str = "trace-0", rt: float = 1.0
) -> List[CallRow]:
    """Flatten a dependency graph into MSCallGraph-style rows.

    The root microservice appears as the ``dm`` of the synthetic "USER"
    entry call with rpcid "0", matching the dataset's convention.
    """
    plan = graph.plan()
    names, index = plan.names, plan.index
    # One row per site, in site order; a caller writes the rows of its
    # calls before the loop reaches them.
    rows = [
        CallRow(
            traceid=traceid,
            service=graph.service,
            rpcid="0",
            um="USER",
            dm=names[index[0]],
            rt=rt,
        )
    ] * len(index)
    for site, stages in enumerate(plan.stages):
        number = 0
        for stage in stages:
            for position, child in enumerate(stage):
                number += 1
                rows[child] = CallRow(
                    traceid=traceid,
                    service=graph.service,
                    rpcid=f"{rows[site].rpcid}.{number}",
                    um=names[index[site]],
                    dm=names[index[child]],
                    rt=rt,
                    parallel=position > 0,
                )
    return rows


def rows_to_graph(rows: Sequence[CallRow]) -> DependencyGraph:
    """Rebuild a dependency graph from one trace's rows.

    Rows may arrive unordered; they are sorted by rpcid depth and sibling
    index.  A row whose ``parallel`` flag is set joins its previous
    sibling's stage; otherwise it opens a new stage — reproducing the
    stage structure :func:`graph_to_rows` flattened.
    """
    if not rows:
        raise ValueError("need at least one row")
    traceids = {row.traceid for row in rows}
    if len(traceids) != 1:
        raise ValueError(f"rows span multiple traces: {sorted(traceids)}")

    def _sibling_index(rpcid: str) -> Tuple:
        return tuple(int(part) for part in rpcid.split("."))

    ordered = sorted(rows, key=lambda r: _sibling_index(r.rpcid))
    root_row = ordered[0]
    if root_row.rpcid != "0":
        raise ValueError(f"missing root row (rpcid '0'); got {root_row.rpcid!r}")

    nodes: Dict[str, CallNode] = {"0": CallNode(root_row.dm)}
    for row in ordered[1:]:
        parent_rpcid = row.parent_rpcid()
        parent = nodes.get(parent_rpcid)
        if parent is None:
            raise ValueError(
                f"row {row.rpcid!r} has no parent row {parent_rpcid!r}"
            )
        if parent.microservice != row.um:
            raise ValueError(
                f"row {row.rpcid!r}: upstream {row.um!r} does not match "
                f"parent node {parent.microservice!r}"
            )
        node = CallNode(row.dm)
        if row.parallel and parent.stages:
            parent.stages[-1].append(node)
        else:
            parent.stages.append([node])
        nodes[row.rpcid] = node
    return DependencyGraph(service=root_row.service, root=nodes["0"])


def write_csv(rows: Iterable[CallRow], path: str) -> int:
    """Write rows to a CSV file; returns the count."""
    count = 0
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=FIELDNAMES)
        writer.writeheader()
        for row in rows:
            writer.writerow(
                {
                    "traceid": row.traceid,
                    "service": row.service,
                    "rpcid": row.rpcid,
                    "um": row.um,
                    "dm": row.dm,
                    "rt": row.rt,
                    "parallel": int(row.parallel),
                }
            )
            count += 1
    return count


def read_csv(path: str) -> List[CallRow]:
    """Read rows written by :func:`write_csv`."""
    rows: List[CallRow] = []
    with open(path, newline="") as handle:
        for record in csv.DictReader(handle):
            rows.append(
                CallRow(
                    traceid=record["traceid"],
                    service=record["service"],
                    rpcid=record["rpcid"],
                    um=record["um"],
                    dm=record["dm"],
                    rt=float(record["rt"]),
                    parallel=bool(int(record["parallel"])),
                )
            )
    return rows


def graphs_from_csv(path: str) -> Dict[str, DependencyGraph]:
    """Load a CSV of many traces; returns one graph per traceid."""
    by_trace: Dict[str, List[CallRow]] = {}
    for row in read_csv(path):
        by_trace.setdefault(row.traceid, []).append(row)
    return {
        traceid: rows_to_graph(rows) for traceid, rows in by_trace.items()
    }

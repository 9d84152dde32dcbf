"""Structural validation of dependency graphs.

The Erms scaling models assume well-formed call trees: no empty stages, no
recursive self-calls on a path (which would make the end-to-end latency
recursion diverge), positive fan-out factors, and non-empty microservice
names.  ``validate_graph`` enforces these invariants and raises
:class:`GraphValidationError` with a precise message on violation.
"""

from __future__ import annotations

from typing import List

from repro.graphs import dependency


class GraphValidationError(ValueError):
    """A dependency graph violates a structural invariant."""


def validate_graph(graph: "dependency.DependencyGraph") -> None:
    """Check every invariant; raise :class:`GraphValidationError` on failure.

    Of several violations the first in depth-first order is reported: a
    site, then stage by stage its callees' subtrees, an empty stage in turn.
    """
    if not graph.service:
        raise GraphValidationError("service name must be non-empty")
    plan = graph.plan()
    nodes, index, stages, parents = plan.nodes, plan.index, plan.stages, plan.parents
    due: List = [0]  # sites, and (site, stage number) where a stage is empty
    while due:
        site = due.pop()
        if type(site) is tuple:
            raise GraphValidationError(
                f"stage {site[1]} of {nodes[site[0]].microservice!r} is empty"
            )
        node = nodes[site]
        if not node.microservice:
            raise GraphValidationError("microservice name must be non-empty")
        if node.calls_per_request <= 0:
            raise GraphValidationError(
                f"calls_per_request of {node.microservice!r} must be positive, "
                f"got {node.calls_per_request}"
            )
        chain = [site]  # up to the root
        while chain[-1]:
            chain.append(parents[chain[-1]])
        if index[site] in [index[above] for above in chain[1:]]:
            cycle = " -> ".join(nodes[s].microservice for s in reversed(chain))
            raise GraphValidationError(f"recursive call cycle detected: {cycle}")
        for number in range(len(stages[site]) - 1, -1, -1):
            due.extend(stages[site][number][::-1] or [(site, number)])

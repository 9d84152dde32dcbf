"""Dependency-graph data model.

The model follows the paper's description of microservice call structure
(paper §2.1): a request enters at a *root* microservice, which then calls its
downstream microservices in *stages*.  Stages execute sequentially; calls
within one stage execute in parallel.  The graph is a call tree — the same
microservice may appear at several call sites (both within one service and
across services), which is exactly how microservice *sharing* arises.

Example — the graph of paper Fig. 1, where T calls Url and U in parallel and
then calls C::

    graph = DependencyGraph(
        service="fig1",
        root=call("T", stages=[[call("Url"), call("U")], [call("C")]]),
    )
    graph.critical_paths()   # [("T", "Url", "C"), ("T", "U", "C")]
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import reduce
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np


@dataclass
class CallNode:
    """One call site in a dependency graph.

    Attributes:
        microservice: Name of the microservice handling this call.
        stages: Sequential stages of downstream calls.  Each stage is a list
            of calls issued in parallel; the next stage starts only after
            every call of the previous stage has returned.
        calls_per_request: Average number of calls made to this node per
            service request (fan-out amplification).  ``1.0`` for plain
            one-call-per-request edges.
    """

    microservice: str
    stages: List[List["CallNode"]] = field(default_factory=list)
    calls_per_request: float = 1.0

    def add_sequential(self, node: "CallNode") -> "CallNode":
        """Append ``node`` as a new sequential stage and return it."""
        self.stages.append([node])
        return node

    def add_parallel(self, node: "CallNode") -> "CallNode":
        """Append ``node`` to the last stage (creating one if needed)."""
        if not self.stages:
            self.stages.append([])
        self.stages[-1].append(node)
        return node


def call(
    microservice: str,
    stages: Sequence[Sequence[CallNode]] = (),
    calls_per_request: float = 1.0,
) -> CallNode:
    """Convenience constructor for declaratively nested call trees."""
    return CallNode(
        microservice=microservice,
        stages=[list(stage) for stage in stages],
        calls_per_request=calls_per_request,
    )


class GraphPlan:
    """The compiled, immutable form of one :class:`DependencyGraph`.

    One pass over the call tree lays it out flat — the only traversal of
    a call tree there is: every reader of a graph (the Erms merge and
    Eq. 5, the latency folds, critical paths, validation, the row and span
    writers, the variant merge, the simulator's call plans) is a loop over
    these tuples, with no depth limit.  *Sites* are call nodes numbered in
    depth-first pre-order (a node's descendants follow it: a forward loop
    sees callers before callees, a reverse loop children before parents);
    microservice names are interned to their first-appearance rank.

    Attributes:
        nodes: The :class:`CallNode` of every site.
        names: Unique microservice names, in first-appearance order.
        index: Per site, the rank in ``names`` of its microservice.
        factors: Per site, the product of ``calls_per_request`` from the
            root down to and including the site.
        stages: Per site, its stages as tuples of child site numbers.
        parents: Per site, the site that calls it (``-1`` for the root).
        multipliers: Per name, the site factors summed in site order.
    """

    __slots__ = (
        "nodes", "names", "index", "factors", "stages", "parents", "multipliers"
    )

    def __init__(self, root: CallNode) -> None:
        nodes: List[CallNode] = []
        index: List[int] = []
        factors: List[float] = []
        stages: List[List[List[int]]] = []
        parents: List[int] = []
        ranks: Dict[str, int] = {}
        multipliers: List[float] = []
        # (node, factor above it, parent site, stage of the parent); children
        # are pushed in reverse so that sites pop in pre-order.
        pending = [(root, 1.0, -1, -1)]
        path: List[int] = []  # the sites from the root down to the caller
        above = set()  # ids of their nodes: a node met again contains itself
        while pending:
            node, factor, parent, stage = pending.pop()
            site = len(nodes)
            while path and path[-1] != parent:
                above.discard(id(nodes[path.pop()]))
            if id(node) in above:
                from repro.graphs.validation import GraphValidationError

                raise GraphValidationError(
                    f"call node {node.microservice!r} contains itself"
                )
            path.append(site)
            above.add(id(node))
            factor *= node.calls_per_request
            rank = ranks.setdefault(node.microservice, len(ranks))
            if rank == len(multipliers):
                multipliers.append(0.0)
            multipliers[rank] += factor
            nodes.append(node)
            index.append(rank)
            factors.append(factor)
            stages.append([[] for _ in node.stages])
            parents.append(parent)
            if parent >= 0:
                stages[parent][stage].append(site)
            for number in range(len(node.stages) - 1, -1, -1):
                for child in reversed(node.stages[number]):
                    pending.append((child, factor, site, number))
        self.nodes = tuple(nodes)
        self.names = tuple(ranks)
        self.index = tuple(index)
        self.factors = tuple(factors)
        self.stages = tuple(
            tuple(tuple(stage) for stage in site_stages) for site_stages in stages
        )
        self.parents = tuple(parents)
        self.multipliers = tuple(multipliers)

    def fold(self, values: Sequence, maximum: Callable = max):
        """Response of the root given each microservice's own value.

        ``values[k]`` belongs to ``names[k]``.  A site's response is its
        own value plus, per stage in order, the largest child response
        (``+ 0.0`` for an empty stage); ``maximum`` is the pairwise
        maximum of the value type — ``max`` for floats, ``np.maximum``
        for arrays.
        """
        index, stages = self.index, self.stages
        responses: List = [None] * len(index)
        for site in range(len(index) - 1, -1, -1):
            total = values[index[site]]
            for stage in stages[site]:
                total = total + (
                    reduce(maximum, [responses[child] for child in stage])
                    if stage
                    else 0.0
                )
            responses[site] = total
        return responses[0]


@dataclass
class DependencyGraph:
    """The call tree of one online service.

    Every reader of a graph — the structure queries below, validation,
    the row and span writers, :mod:`repro.core` and :mod:`repro.baselines`,
    the simulator — reads its :class:`GraphPlan`, which :meth:`plan` builds
    from the tree at first use and keeps.  A graph is therefore frozen once
    it has been queried, validated, scaled or simulated: build the call
    tree completely first, and after mutating a root in place make a new
    ``DependencyGraph(service, root)`` — the old instance keeps answering
    for the tree it compiled.

    Attributes:
        service: Name of the online service this graph belongs to.
        root: The entering microservice's call node (e.g. an Nginx frontend).
    """

    service: str
    root: CallNode
    _plan: Optional[GraphPlan] = field(
        default=None, init=False, repr=False, compare=False
    )

    def plan(self) -> GraphPlan:
        """The compiled form of this graph (built once, at first use)."""
        plan = self._plan
        if plan is None:
            plan = self._plan = GraphPlan(self.root)
        return plan

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------
    def nodes(self) -> List[CallNode]:
        """All call nodes in depth-first order (root first)."""
        return list(self.plan().nodes)

    def microservices(self) -> List[str]:
        """Unique microservice names, in first-appearance order."""
        return list(self.plan().names)

    def node_count(self) -> int:
        """Number of call sites (counting repeated microservices)."""
        return len(self.plan().nodes)

    def depth(self) -> int:
        """Length (in microservices) of the longest root-to-leaf chain."""
        plan = self.plan()
        return int(plan.fold([1] * len(plan.names)))

    def workload_multipliers(self) -> Dict[str, float]:
        """Per-microservice calls issued per one service request.

        A microservice appearing at several call sites accumulates the
        product of ``calls_per_request`` factors along each path.  This is
        the :math:`\\gamma_i / \\gamma_{service}` ratio used to translate a
        service arrival rate into microservice workloads.
        """
        plan = self.plan()
        return dict(zip(plan.names, plan.multipliers))

    # ------------------------------------------------------------------
    # Critical paths
    # ------------------------------------------------------------------
    def critical_paths(self, limit: int = 10_000) -> List[Tuple[str, ...]]:
        """Enumerate critical paths as tuples of microservice names.

        A critical path picks one branch from every parallel stage along the
        way (paper §2.1); the end-to-end latency is the maximum path sum.
        The number of paths can grow exponentially in pathological graphs, so
        enumeration stops after ``limit`` paths.
        """
        plan = self.plan()
        names, index, stages = plan.names, plan.index, plan.stages
        # Per site, the paths below it; the first ``limit`` paths of a site
        # use no more than the first ``limit`` of each callee.
        paths: List[List[Tuple[str, ...]]] = [[]] * len(index)
        for site in range(len(index) - 1, -1, -1):
            choices = [
                [path for child in stage for path in paths[child]]
                for stage in stages[site]
            ]
            paths[site] = [
                sum(combo, (names[index[site]],))
                for combo in itertools.islice(itertools.product(*choices), limit)
            ]
        return paths[0]

    def end_to_end_latency(self, latencies: Dict[str, float]) -> float:
        """End-to-end latency given each microservice's own latency.

        Computed structurally (own latency plus, per sequential stage, the
        maximum downstream response) rather than by enumerating critical
        paths, so it stays linear in graph size.
        """
        plan = self.plan()
        return plan.fold([latencies[name] for name in plan.names])

    def end_to_end_series(self, series: Mapping[str, np.ndarray]) -> np.ndarray:
        """:meth:`end_to_end_latency` over a whole axis of operating points.

        ``series[name][j]`` is the microservice's own latency at point
        ``j``; entry ``j`` of the result equals ``end_to_end_latency``
        of column ``j`` bit for bit: the same fold in the same order, with
        ``np.maximum`` over a stage's children where the scalar fold takes
        ``max``.
        """
        plan = self.plan()
        return plan.fold([series[name] for name in plan.names], np.maximum)

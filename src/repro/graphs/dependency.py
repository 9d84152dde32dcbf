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
from typing import Dict, Iterator, List, Mapping, Sequence, Tuple

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

    def children(self) -> Iterator["CallNode"]:
        """Yield every downstream call node, stage by stage."""
        for stage in self.stages:
            for node in stage:
                yield node

    def walk(self) -> Iterator["CallNode"]:
        """Yield this node and every descendant in depth-first order."""
        yield self
        for child in self.children():
            yield from child.walk()

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


@dataclass
class DependencyGraph:
    """The call tree of one online service.

    Attributes:
        service: Name of the online service this graph belongs to.
        root: The entering microservice's call node (e.g. an Nginx frontend).
    """

    service: str
    root: CallNode

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------
    def nodes(self) -> List[CallNode]:
        """All call nodes in depth-first order (root first)."""
        return list(self.root.walk())

    def microservices(self) -> List[str]:
        """Unique microservice names, in first-appearance order."""
        seen: Dict[str, None] = {}
        for node in self.root.walk():
            seen.setdefault(node.microservice, None)
        return list(seen)

    def node_count(self) -> int:
        """Number of call sites (counting repeated microservices)."""
        return sum(1 for _ in self.root.walk())

    def edge_count(self) -> int:
        """Number of upstream->downstream call edges."""
        return self.node_count() - 1

    def depth(self) -> int:
        """Length (in microservices) of the longest root-to-leaf chain."""

        def _depth(node: CallNode) -> int:
            extra = sum(
                max((_depth(child) for child in stage), default=0)
                for stage in node.stages
            )
            return 1 + extra

        return _depth(self.root)

    def workload_multipliers(self) -> Dict[str, float]:
        """Per-microservice calls issued per one service request.

        A microservice appearing at several call sites accumulates the
        product of ``calls_per_request`` factors along each path.  This is
        the :math:`\\gamma_i / \\gamma_{service}` ratio used to translate a
        service arrival rate into microservice workloads.
        """
        multipliers: Dict[str, float] = {}

        def _visit(node: CallNode, factor: float) -> None:
            factor *= node.calls_per_request
            multipliers[node.microservice] = (
                multipliers.get(node.microservice, 0.0) + factor
            )
            for child in node.children():
                _visit(child, factor)

        _visit(self.root, 1.0)
        return multipliers

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
        paths = list(itertools.islice(self._paths(self.root), limit))
        return [tuple(p) for p in paths]

    def _paths(self, node: CallNode) -> Iterator[List[str]]:
        stage_choices: List[List[List[str]]] = []
        for stage in node.stages:
            choices: List[List[str]] = []
            for child in stage:
                choices.extend(self._paths(child))
            stage_choices.append(choices)
        if not stage_choices:
            yield [node.microservice]
            return
        for combo in itertools.product(*stage_choices):
            path = [node.microservice]
            for sub in combo:
                path.extend(sub)
            yield path

    def path_latency(
        self, path: Sequence[str], latencies: Dict[str, float]
    ) -> float:
        """Sum of per-microservice latencies along ``path``."""
        return sum(latencies[name] for name in path)

    def end_to_end_latency(self, latencies: Dict[str, float]) -> float:
        """End-to-end latency given each microservice's own latency.

        Computed structurally (own latency plus, per sequential stage, the
        maximum downstream response) rather than by enumerating critical
        paths, so it stays linear in graph size.
        """

        def _response(node: CallNode) -> float:
            total = latencies[node.microservice]
            for stage in node.stages:
                total += max((_response(child) for child in stage), default=0.0)
            return total

        return _response(self.root)

    def end_to_end_series(self, series: Mapping[str, np.ndarray]) -> np.ndarray:
        """:meth:`end_to_end_latency` over a whole axis of operating points.

        ``series[name][j]`` is the microservice's own latency at point
        ``j``; entry ``j`` of the result equals ``end_to_end_latency``
        of column ``j`` bit for bit: one walk in the same visiting order,
        the same additions, ``np.maximum`` over a stage's children where
        the scalar fold takes ``max`` and ``+ 0.0`` for an empty stage.
        """

        def _response(node: CallNode) -> np.ndarray:
            total = series[node.microservice]
            for stage in node.stages:
                responses = [_response(child) for child in stage]
                total = total + (
                    reduce(np.maximum, responses) if responses else 0.0
                )
            return total

        return _response(self.root)

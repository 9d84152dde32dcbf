"""Dependency-graph merge into virtual microservices (paper §4.2, Alg. 1).

A general dependency graph mixes sequential and parallel calls, which makes
the end-to-end latency expression awkward to optimize directly.  Erms
repeatedly *merges* microservices into virtual ones with closed-form
parameters until the graph is a chain (in fact a single node), allocates
latency targets on the chain via the KKT closed form (Eq. 5), and then
*unmerges* — pushing targets back down to the real microservices (Fig. 8).

Merge rules (for two nodes with slope/intercept/resource ⟨a, b, R⟩):

* sequential (Eqs. 7–9)::

      a* = (√(a₁R₁)+√(a₂R₂)) · (√(a₁/R₁)+√(a₂/R₂))
      b* = b₁ + b₂
      R* = (√(a₁R₁)+√(a₂R₂)) / (√(a₁/R₁)+√(a₂/R₂))

  which preserves the key invariant ``√(a*R*) = √(a₁R₁) + √(a₂R₂)`` — the
  reason hierarchical target splitting agrees with the flat Eq. 5 allocation.

* parallel (Eqs. 10–12)::

      a** = a₁ + a₂,   b** = max(b₁, b₂)

  with ``R**`` chosen so that ``a**·R** = a₁R₁ + a₂R₂``; this equals the
  container-weighted average of Eq. 12 whenever the intercepts agree, and is
  the same approximation the paper's ``≈`` in Eq. 10 makes.

Workload heterogeneity (fan-out factors ≠ 1) is folded into the slope:
``a_eff = a · (γ_node / γ_service)``, so every virtual node can be treated
as handling the service arrival rate.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.graphs import CallNode, DependencyGraph
from repro.core.model import MicroserviceProfile


@dataclass(frozen=True)
class VirtualParams:
    """⟨slope, intercept, resource demand⟩ of a (virtual) microservice."""

    slope: float
    intercept: float
    resource: float

    def __post_init__(self) -> None:
        if self.slope <= 0:
            raise ValueError(f"slope must be positive, got {self.slope}")
        if self.resource <= 0:
            raise ValueError(f"resource must be positive, got {self.resource}")

    @property
    def key(self) -> float:
        """√(a·R), the weight Eq. 5 allocates latency budget by."""
        return math.sqrt(self.slope * self.resource)


def sequential_merge(first: VirtualParams, second: VirtualParams) -> VirtualParams:
    """Merge two sequentially-executed microservices (paper Eqs. 7–9)."""
    s = math.sqrt(first.slope * first.resource) + math.sqrt(
        second.slope * second.resource
    )
    t = math.sqrt(first.slope / first.resource) + math.sqrt(
        second.slope / second.resource
    )
    return VirtualParams(
        slope=s * t,
        intercept=first.intercept + second.intercept,
        resource=s / t,
    )


def parallel_merge(first: VirtualParams, second: VirtualParams) -> VirtualParams:
    """Merge two parallel microservices (paper Eqs. 10–12)."""
    slope = first.slope + second.slope
    aggregate = first.slope * first.resource + second.slope * second.resource
    return VirtualParams(
        slope=slope,
        intercept=max(first.intercept, second.intercept),
        resource=aggregate / slope,
    )


class MergeKind(Enum):
    """How a merged node combines its children."""

    LEAF = "leaf"
    SEQUENTIAL = "sequential"
    PARALLEL = "parallel"


@dataclass
class MergedNode:
    """A node in the merge tree built from a dependency graph.

    Leaves correspond to real call sites; internal nodes are the virtual
    microservices invented by the merge.  The tree is retained so the target
    allocation can be reversed (paper Fig. 8).
    """

    kind: MergeKind
    params: VirtualParams
    children: List["MergedNode"] = field(default_factory=list)
    call: Optional[CallNode] = None

    def leaf_count(self) -> int:
        """Number of real call sites under this node."""
        if self.kind is MergeKind.LEAF:
            return 1
        return sum(child.leaf_count() for child in self.children)


def _leaf(call: CallNode, params: VirtualParams) -> MergedNode:
    return MergedNode(kind=MergeKind.LEAF, params=params, call=call)


def _merge_sequence(nodes: List[MergedNode]) -> MergedNode:
    if len(nodes) == 1:
        return nodes[0]
    params = nodes[0].params
    for node in nodes[1:]:
        params = sequential_merge(params, node.params)
    return MergedNode(kind=MergeKind.SEQUENTIAL, params=params, children=nodes)


def _merge_parallel(nodes: List[MergedNode]) -> MergedNode:
    if len(nodes) == 1:
        return nodes[0]
    params = nodes[0].params
    for node in nodes[1:]:
        params = parallel_merge(params, node.params)
    return MergedNode(kind=MergeKind.PARALLEL, params=params, children=nodes)


def merge_graph(
    graph: DependencyGraph,
    leaf_params: Mapping[int, VirtualParams],
) -> MergedNode:
    """Collapse a dependency graph into a single virtual microservice.

    Args:
        graph: The service's dependency graph.
        leaf_params: Effective parameters per call node, keyed by
            ``id(call_node)``.  Effective means the slope already includes
            the relative workload multiplier of the call site.

    Returns:
        The root of the merge tree; its ``params`` describe the whole
        service as one virtual microservice handling the service workload.
    """

    def _merge(node: CallNode, factor: float) -> MergedNode:
        factor *= node.calls_per_request
        pieces = [_leaf(node, leaf_params[id(node)])]
        for stage in node.stages:
            merged_stage = _merge_parallel([_merge(c, factor) for c in stage])
            pieces.append(merged_stage)
        return _merge_sequence(pieces)

    return _merge(graph.root, 1.0)


def leaf_params_from_profiles(
    graph: DependencyGraph,
    profiles: Mapping[str, MicroserviceProfile],
    segment_of: Mapping[str, "object"],
) -> Dict[int, VirtualParams]:
    """Build per-call-site effective parameters from microservice profiles.

    Args:
        graph: The service's dependency graph.
        profiles: Profile per microservice name.
        segment_of: Chosen :class:`~repro.core.model.LatencySegment` per
            microservice name (interval selection happens upstream).

    Returns:
        Mapping from ``id(call_node)`` to effective :class:`VirtualParams`,
        where each slope is scaled by the call site's cumulative fan-out
        factor so all nodes can be treated as seeing the service workload.
    """
    params: Dict[int, VirtualParams] = {}

    def _visit(node: CallNode, factor: float) -> None:
        factor *= node.calls_per_request
        profile = profiles[node.microservice]
        segment = segment_of[node.microservice]
        params[id(node)] = VirtualParams(
            slope=segment.slope * factor,
            intercept=segment.intercept,
            resource=profile.resource_demand,
        )
        for child in node.children():
            _visit(child, factor)

    _visit(graph.root, 1.0)
    return params


def distribute_targets(root: MergedNode, sla: float) -> Dict[int, float]:
    """Reverse the merge: assign each real call site a latency target.

    Walks the merge tree top-down (paper Fig. 8):

    * a sequential node splits its budget among children by Eq. 5 —
      ``(target − Σb)`` is shared proportionally to each child's √(a·R),
      then each child adds back its own intercept;
    * a parallel node hands every child the same target (Eq. 10's equal-
      target optimality argument);
    * a leaf records its target.

    Returns:
        Mapping from ``id(call_node)`` to its latency target in ms.
    """
    targets: Dict[int, float] = {}

    def _assign(node: MergedNode, target: float) -> None:
        if node.kind is MergeKind.LEAF:
            assert node.call is not None
            targets[id(node.call)] = target
            return
        if node.kind is MergeKind.PARALLEL:
            for child in node.children:
                _assign(child, target)
            return
        # Sequential: Eq. 5 split.
        budget = target - sum(child.params.intercept for child in node.children)
        total_key = sum(child.params.key for child in node.children)
        for child in node.children:
            share = child.params.key / total_key
            _assign(child, share * budget + child.params.intercept)

    _assign(root, sla)
    return targets


def distribute_targets_batch(
    root: MergedNode, slas: np.ndarray
) -> Dict[int, np.ndarray]:
    """Vectorized :func:`distribute_targets` over a whole SLA axis.

    One tree walk assigns every call site a *vector* of latency targets,
    one entry per SLA.  Each elementwise operation mirrors the scalar
    walk's operation order exactly (``share * (t − Σb) + b`` becomes the
    same subtract/multiply/add on float64 arrays), so column ``j`` of the
    result is bit-identical to ``distribute_targets(root, slas[j])`` —
    the Eq. 5 split is *batched*, never approximated.

    Args:
        root: The merge-tree root (same tree for every SLA — callers
            group SLAs by segment assignment first; see
            :func:`repro.core.latency_targets.compute_targets_grid`).
        slas: 1-D float array of end-to-end SLAs in ms.

    Returns:
        Mapping from ``id(call_node)`` to a float64 array of targets with
        the same shape as ``slas``.
    """
    slas = np.ascontiguousarray(slas, dtype=np.float64)
    targets: Dict[int, np.ndarray] = {}

    def _assign(node: MergedNode, target: np.ndarray) -> None:
        if node.kind is MergeKind.LEAF:
            assert node.call is not None
            targets[id(node.call)] = target
            return
        if node.kind is MergeKind.PARALLEL:
            for child in node.children:
                _assign(child, target)
            return
        budget = target - sum(child.params.intercept for child in node.children)
        total_key = sum(child.params.key for child in node.children)
        for child in node.children:
            share = child.params.key / total_key
            _assign(child, share * budget + child.params.intercept)

    _assign(root, slas)
    return targets


# ----------------------------------------------------------------------
# Merge-tree cache
# ----------------------------------------------------------------------
class MergeTreeCache:
    """LRU cache of merge trees keyed by (graph, effective segment params).

    Building a merge tree walks the whole graph and takes four square
    roots per node; in grid sweeps and in the in-DES autoscaler loop the
    same (graph, segment-assignment) pair recurs for every cell/tick, so
    the tree — and the per-call-site leaf parameters — are cached.  The
    key captures everything the tree depends on: the graph's identity,
    each microservice's *effective* segment (slope already ratio-scaled,
    intercept) and its resource demand.  Entries hold strong references
    to the graph and profiles so ``id()`` keys cannot be recycled while
    an entry lives.

    Graphs are treated as immutable once used for scaling (they are
    everywhere in this codebase); mutate a graph in place and you must
    call :meth:`clear`.
    """

    def __init__(self, maxsize: int = 256) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[tuple, tuple]" = OrderedDict()

    def _key(
        self,
        graph: DependencyGraph,
        profiles: Mapping[str, MicroserviceProfile],
        scaled_segments: Mapping[str, "object"],
        names: Sequence[str],
    ) -> Tuple:
        return (
            id(graph),
            tuple(
                (
                    name,
                    scaled_segments[name].slope,
                    scaled_segments[name].intercept,
                    profiles[name].resource_demand,
                )
                for name in names
            ),
        )

    def tree(
        self,
        graph: DependencyGraph,
        profiles: Mapping[str, MicroserviceProfile],
        scaled_segments: Mapping[str, "object"],
        names: Optional[Sequence[str]] = None,
    ) -> MergedNode:
        """The merged root for this (graph, effective-parameters) pair.

        ``names`` is ``graph.microservices()``, passed by callers that
        have already walked the graph for it.
        """
        if names is None:
            names = graph.microservices()
        key = self._key(graph, profiles, scaled_segments, names)
        entry = self._entries.get(key)
        if entry is not None:
            self.hits += 1
            self._entries.move_to_end(key)
            return entry[0]
        self.misses += 1
        leaf_params = leaf_params_from_profiles(graph, profiles, scaled_segments)
        root = merge_graph(graph, leaf_params)
        # Keep graph + profiles alive so the id()-based key stays valid.
        self._entries[key] = (root, graph, tuple(profiles[n] for n in names))
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
        return root

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)


#: Process-wide default cache used by the latency-target layer.
_MERGE_CACHE = MergeTreeCache()


def merge_tree_cache() -> MergeTreeCache:
    """The process-wide merge-tree cache (inspect ``hits``/``misses``)."""
    return _MERGE_CACHE


def clear_merge_cache() -> None:
    """Drop every cached merge tree (e.g. after mutating a graph)."""
    _MERGE_CACHE.clear()

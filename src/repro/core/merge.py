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

:func:`sequential_merge` and :func:`parallel_merge` are the two-node rules.
:func:`merge_graph` applies them to a whole graph as one loop over the
graph's compiled :class:`~repro.graphs.GraphPlan` — the same folds in the
same order on plain floats — and keeps, per merged call site, the Eq. 5
shares the unmerge needs, so :func:`distribute_targets` is one more loop.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple

from repro.graphs import DependencyGraph, GraphPlan, GraphValidationError


def _check_positive(slope: float, resource: float) -> None:
    """Reject a non-positive or NaN slope or resource (``nan <= 0`` is False)."""
    if not slope > 0:
        raise ValueError(f"slope must be positive, got {slope}")
    if not resource > 0:
        raise ValueError(f"resource must be positive, got {resource}")


@dataclass(frozen=True)
class VirtualParams:
    """⟨slope, intercept, resource demand⟩ of a (virtual) microservice."""

    slope: float
    intercept: float
    resource: float

    def __post_init__(self) -> None:
        _check_positive(self.slope, self.resource)

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


#: Effective ⟨slope, intercept, resource demand⟩ of one microservice.
LeafParams = Tuple[float, float, float]


class MergedGraph(NamedTuple):
    """A dependency graph collapsed into one virtual microservice.

    ``slope``, ``intercept`` and ``resource`` describe the whole service as
    a single virtual microservice handling the service workload.  The rest
    is what reversing the merge needs (paper Fig. 8): ``splits[site]`` is
    ``None`` for a call site without downstream stages, and otherwise
    ``(share, intercept, floor, pieces)`` — the site's own Eq. 5 share
    ``√(aR) / Σ√(aR)`` and intercept among the sequential pieces it was
    merged from, the sum of all their intercepts, and one
    ``(child sites, share, intercept)`` per stage.
    """

    plan: GraphPlan
    slope: float
    intercept: float
    resource: float
    splits: List[Optional[tuple]]


def merge_graph(
    graph: DependencyGraph, leaf_params: Sequence[LeafParams]
) -> MergedGraph:
    """Collapse a dependency graph into a single virtual microservice.

    Every call site starts from its microservice's parameters with the
    slope scaled by the site's cumulative fan-out factor, so all sites can
    be treated as seeing the service workload.  Sites are visited children
    first; a site's stages are each folded left to right with
    :func:`parallel_merge`, and the site followed by its stages with
    :func:`sequential_merge`.  Every leaf and every virtual microservice is
    checked like a :class:`VirtualParams`.

    Args:
        graph: The service's dependency graph.
        leaf_params: ``(slope, intercept, resource)`` per microservice, in
            ``graph.plan().names`` order — the chosen latency segment
            (interval selection happens upstream) and the profile's
            resource demand.

    Raises:
        GraphValidationError: If a stage of the graph is empty.
        ValueError: If a slope or resource demand is not positive.
    """
    plan = graph.plan()
    index, factors, stages = plan.index, plan.factors, plan.stages
    sqrt = math.sqrt
    count = len(index)
    slopes = [0.0] * count
    intercepts = [0.0] * count
    resources = [0.0] * count
    splits: List[Optional[tuple]] = [None] * count
    for site in range(count - 1, -1, -1):
        a, b, r = leaf_params[index[site]]
        a = a * factors[site]
        if not (a > 0 and r > 0):
            _check_positive(a, r)
        if stages[site]:
            own_intercept = b
            own_key = key = total_key = sqrt(a * r)
            pieces = []
            for number, stage in enumerate(stages[site]):
                if not stage:
                    raise GraphValidationError(
                        f"service {graph.service!r}: stage {number} of "
                        f"{plan.names[index[site]]!r} is empty"
                    )
                first = stage[0]
                pa, pb, pr = slopes[first], intercepts[first], resources[first]
                for child in stage[1:]:  # Eqs. 10–12
                    total = pa + slopes[child]
                    pr = (pa * pr + slopes[child] * resources[child]) / total
                    pa = total
                    pb = max(pb, intercepts[child])
                    if pa <= 0 or pr <= 0:
                        _check_positive(pa, pr)
                piece_key = sqrt(pa * pr)
                s = key + piece_key  # Eqs. 7–9
                t = sqrt(a / r) + sqrt(pa / pr)
                a, b, r = s * t, b + pb, s / t
                if a <= 0 or r <= 0:
                    _check_positive(a, r)
                key = sqrt(a * r)
                total_key += piece_key
                pieces.append((stage, piece_key, pb))
            # b is by now the sum of the pieces' intercepts, Eq. 5's Σb
            splits[site] = (
                own_key / total_key,
                own_intercept,
                b,
                tuple(
                    (stage, piece_key / total_key, pb)
                    for stage, piece_key, pb in pieces
                ),
            )
        slopes[site], intercepts[site], resources[site] = a, b, r
    return MergedGraph(plan, slopes[0], intercepts[0], resources[0], splits)


def distribute_targets(merged: MergedGraph, sla: float) -> List[float]:
    """Reverse the merge: assign each microservice a latency target.

    Visits the call sites top-down (paper Fig. 8):

    * a site merged sequentially with its stages splits its budget by
      Eq. 5 — ``(target − Σb)`` is shared proportionally to each piece's
      √(a·R), then each piece adds back its own intercept;
    * the calls of one stage, merged in parallel, all receive the stage's
      target (Eq. 10's equal-target optimality argument);
    * a site without stages keeps what it was handed.

    Returns:
        The latency target in ms per microservice, in
        ``merged.plan.names`` order; a microservice called at several
        sites gets the smallest of their targets.
    """
    index = merged.plan.index
    incoming = [sla] * len(index)
    targets: list = [None] * len(merged.plan.names)
    for site, split in enumerate(merged.splits):
        target = incoming[site]
        if split is not None:
            share, intercept, floor, pieces = split
            budget = target - floor
            for children, piece_share, piece_intercept in pieces:
                piece_target = piece_share * budget + piece_intercept
                for child in children:
                    incoming[child] = piece_target
            target = share * budget + intercept
        rank = index[site]
        current = targets[rank]
        targets[rank] = target if current is None else min(current, target)
    return targets


# ----------------------------------------------------------------------
# Merge cache
# ----------------------------------------------------------------------
class MergeTreeCache:
    """LRU cache of merged graphs keyed by (plan, effective parameters).

    In grid sweeps and in the in-DES autoscaler loop the same (graph,
    segment-assignment) pair recurs for every cell/tick, so the merge is
    cached.  The key is everything the merge depends on: the graph's
    compiled plan — held by the key, so a live entry pins it — and each
    microservice's *effective* slope (already ratio-scaled), intercept and
    resource demand.

    Graphs are frozen once used for scaling (see
    :class:`~repro.graphs.DependencyGraph`): a mutated root needs a new
    graph, which has a new plan and so never meets a stale entry.
    """

    def __init__(self, maxsize: int = 256) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[tuple, MergedGraph]" = OrderedDict()

    def tree(
        self, graph: DependencyGraph, leaf_params: Tuple[LeafParams, ...]
    ) -> MergedGraph:
        """``merge_graph(graph, leaf_params)``, merged once per distinct key."""
        key = (graph.plan(), leaf_params)
        merged = self._entries.get(key)
        if merged is not None:
            self.hits += 1
            self._entries.move_to_end(key)
            return merged
        self.misses += 1
        merged = self._entries[key] = merge_graph(graph, leaf_params)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
        return merged

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)


#: Process-wide default cache used by the latency-target layer.
_MERGE_CACHE = MergeTreeCache()


def merge_tree_cache() -> MergeTreeCache:
    """The process-wide merge cache (inspect ``hits``/``misses``)."""
    return _MERGE_CACHE


def clear_merge_cache() -> None:
    """Drop every cached merge."""
    _MERGE_CACHE.clear()

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
Given the previous §5.3.1 pass's merge, it recomputes only the call sites
whose microservice switched segment and the sites above them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace
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
    ``(child sites, share, intercept)`` per stage.  ``leaf_params`` is what
    the merge was built from, and ``slopes`` / ``intercepts`` /
    ``resources`` hold each site's merged ⟨a, b, R⟩ (its subtree as one
    virtual microservice), so the next merge of the graph can start from
    this one.
    """

    plan: GraphPlan
    slope: float
    intercept: float
    resource: float
    splits: List[Optional[tuple]]
    leaf_params: Tuple[LeafParams, ...]
    slopes: List[float]
    intercepts: List[float]
    resources: List[float]


def merge_graph(
    graph: DependencyGraph,
    leaf_params: Sequence[LeafParams],
    previous: Optional[MergedGraph] = None,
) -> MergedGraph:
    """Collapse a dependency graph into a single virtual microservice.

    Every call site starts from its microservice's parameters with the
    slope scaled by the site's cumulative fan-out factor, so all sites can
    be treated as seeing the service workload.  Sites are visited children
    first; a site's stages are each folded left to right with
    :func:`parallel_merge`, and the site followed by its stages with
    :func:`sequential_merge`.  Every leaf and every virtual microservice is
    checked like a :class:`VirtualParams`.

    Given ``previous``, a merge of the same graph (the last §5.3.1 pass),
    a site keeps its ⟨a, b, R⟩ and split from there unless its
    microservice's params changed or a site below it was recomputed; the
    sites recomputed go through the same float operations in the same
    order, so the result is bit-identical to a merge from scratch.

    Args:
        graph: The service's dependency graph.
        leaf_params: ``(slope, intercept, resource)`` per microservice, in
            ``graph.plan().names`` order — the chosen latency segment
            (interval selection happens upstream) and the profile's
            resource demand.
        previous: An earlier merge of ``graph`` to start from, or ``None``.

    Raises:
        GraphValidationError: If a stage of the graph is empty.
        ValueError: If a slope or resource demand is not positive, or if
            ``previous`` merged another graph.
    """
    plan = graph.plan()
    index, factors, stages = plan.index, plan.factors, plan.stages
    sqrt = math.sqrt
    count = len(index)
    leaf_params = tuple(leaf_params)
    if previous is None:
        sites: Sequence[int] = range(count - 1, -1, -1)
        slopes = [0.0] * count
        intercepts = [0.0] * count
        resources = [0.0] * count
        splits: List[Optional[tuple]] = [None] * count
    elif previous.plan is not plan:
        raise ValueError(f"service {graph.service!r}: previous merges another graph")
    else:
        # the sites of a microservice whose params changed, and their callers
        changed = [new != old for new, old in zip(leaf_params, previous.leaf_params)]
        stale = set()
        for site, rank in enumerate(index):
            while changed[rank] and site >= 0 and site not in stale:
                stale.add(site)
                site = plan.parents[site]
        sites = sorted(stale, reverse=True)  # children first
        slopes = list(previous.slopes)
        intercepts = list(previous.intercepts)
        resources = list(previous.resources)
        splits = list(previous.splits)
    for site in sites:
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
    return MergedGraph(
        plan, slopes[0], intercepts[0], resources[0], splits,
        leaf_params, slopes, intercepts, resources,
    )


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
# Shims kept for the end-to-end benchmark's imports
# ----------------------------------------------------------------------
def merge_tree_cache() -> SimpleNamespace:
    """Hit and miss counters that both read 0: the merge caches nothing.
    Kept only because ``benchmarks/e2e`` reads them."""
    return SimpleNamespace(hits=0, misses=0)


def clear_merge_cache() -> None:
    """Does nothing, as the merge caches nothing.  Kept only because
    ``benchmarks/e2e`` imports it."""

"""Optimal latency-target computation (paper §4.2, §5.3.1).

Given one service's dependency graph, the profiled piecewise latency models,
the current workload and the SLA, this module computes:

* a latency target per microservice — the maximum time it may take to handle
  a request so the end-to-end SLA holds with minimum total resource usage
  (the KKT closed form, paper Eq. 5, applied through the merged graph);
* the number of containers needed to hit each target.

Interval selection follows §5.3.1: the first pass assumes every microservice
operates in the high-load segment (cheapest in resources).  Any microservice
whose allocated target falls below its cut-off latency must actually operate
in the low-load segment; its parameters are swapped and targets are
recomputed once.  Each graph is therefore processed at most twice.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.merge import (
    distribute_targets,
    distribute_targets_batch,
    merge_tree_cache,
)
from repro.core.model import (
    InfeasibleSLAError,
    LatencySegment,
    MicroserviceProfile,
    PiecewiseLatencyModel,
    ServiceSpec,
    best_effort_containers,
    best_effort_containers_array,
)


@dataclass
class ServiceTargets:
    """Latency targets and container counts for one service.

    Attributes:
        service: Service name.
        targets: Final latency target (ms) per microservice; when a
            microservice appears at several call sites the minimum applies.
        containers: Containers required per microservice to meet its target
            under this service's (possibly priority-modified) workload.
        segments: The latency segment each microservice was scaled with.
        workloads: The workload (req/min) used for each microservice —
            the service's own demand unless an override was supplied.
        merged_intercept: Intercept of the fully merged graph; the SLA must
            exceed it for feasibility.
        passes: Number of Eq. 5 passes performed (1 or 2, per §5.3.1).
    """

    service: str
    targets: Dict[str, float] = field(default_factory=dict)
    containers: Dict[str, int] = field(default_factory=dict)
    segments: Dict[str, LatencySegment] = field(default_factory=dict)
    workloads: Dict[str, float] = field(default_factory=dict)
    merged_intercept: float = 0.0
    passes: int = 1


# ----------------------------------------------------------------------
# Cross-cell memo for the workload-independent part of the computation
# ----------------------------------------------------------------------
# Eq. 5 scales segment slopes only by the *override ratio*
# (effective / own workload), never by the service workload itself: the
# merge treats every call site as handling the service arrival rate.
# Targets, chosen segments, the merged intercept and the §5.3.1 pass
# count are therefore identical across grid cells that differ only in
# workload (same graph, SLA and override ratios) — only the container
# counts change.  The memo below caches exactly that workload-independent
# tuple; container counts are always recomputed from the cell's actual
# workloads, so memoized results are bit-identical to fresh ones.
_TARGETS_MEMO: "OrderedDict[tuple, tuple]" = OrderedDict()
_TARGETS_MEMO_MAX = 1024
_MEMO_ENABLED = True
_MEMO_HITS = 0
_MEMO_MISSES = 0


def set_targets_memo(enabled: bool) -> None:
    """Enable/disable the cross-cell targets memo (testing hook)."""
    global _MEMO_ENABLED
    _MEMO_ENABLED = enabled
    if not enabled:
        clear_targets_memo()


def clear_targets_memo() -> None:
    """Drop every memoized target computation."""
    global _MEMO_HITS, _MEMO_MISSES
    _TARGETS_MEMO.clear()
    _MEMO_HITS = 0
    _MEMO_MISSES = 0


def targets_memo_stats() -> Dict[str, int]:
    """Hit/miss counters of the targets memo (diagnostics)."""
    return {
        "hits": _MEMO_HITS,
        "misses": _MEMO_MISSES,
        "entries": len(_TARGETS_MEMO),
    }


def _override_ratio(own: float, effective: float) -> float:
    """The slope scale factor an overridden workload puts on one microservice."""
    if own > 0 and effective != own:
        return effective / own
    return 1.0


def _leaf_params(
    segments: Sequence[LatencySegment],
    ratios: Sequence[float],
    resources: Sequence[float],
) -> Tuple[Tuple[float, float, float], ...]:
    """Effective ⟨slope, intercept, resource⟩ per microservice for the merge.

    Any workload override is folded into the slope so every call site can
    be treated as handling the service arrival rate.
    """
    return tuple(
        (segment.slope * ratio, segment.intercept, resource)
        for segment, ratio, resource in zip(segments, ratios, resources)
    )


def _targets_loop(
    spec: ServiceSpec,
    models: Sequence[PiecewiseLatencyModel],
    resources: Sequence[float],
    ratios: Sequence[float],
    max_passes: int,
) -> Tuple[List[float], List[LatencySegment], float, int]:
    """The §5.3.1 pass loop; returns (targets, segments, intercept, passes).

    All sequences follow ``spec.graph.plan().names``.  Each pass is one
    merge + Eq. 5 + unmerge.
    """
    # Initial pass: high-load segment for everyone (§5.3.1).
    segments = [model.high for model in models]

    # The paper recomputes once after interval switching (two passes),
    # which suffices for continuous fits.  Discontinuous fits may need a
    # few more rounds; switching is one-way (high -> low), so the loop is
    # monotone and terminates within the number of microservices.
    passes = 1
    for pass_index in range(max(max_passes, 1)):
        merged = merge_tree_cache().tree(
            spec.graph, _leaf_params(segments, ratios, resources)
        )
        if spec.sla <= merged.intercept:
            error = InfeasibleSLAError(
                f"service {spec.name!r}: SLA {spec.sla:.3f}ms does not exceed the "
                f"graph latency floor {merged.intercept:.3f}ms"
            )
            error.latency_floor = merged.intercept
            raise error
        targets = distribute_targets(merged, spec.sla)
        used_segments = list(segments)
        passes = pass_index + 1
        if pass_index == max_passes - 1:
            break
        switched = False
        for rank, target in enumerate(targets):
            model = models[rank]
            if segments[rank] is model.high and target < model.latency_at_cutoff():
                segments[rank] = model.low
                switched = True
        if not switched:
            break
    return targets, used_segments, merged.intercept, passes


def compute_service_targets(
    spec: ServiceSpec,
    profiles: Mapping[str, MicroserviceProfile],
    workload_overrides: Optional[Mapping[str, float]] = None,
    max_passes: int = 8,
) -> ServiceTargets:
    """Allocate optimal latency targets for every microservice of a service.

    Args:
        spec: The service (graph + workload + SLA).
        profiles: Piecewise latency profiles keyed by microservice name.
        workload_overrides: Optional per-microservice workload replacing the
            service's own demand — used by priority scheduling, where a
            low-priority service sees the summed workload of all higher-
            priority services at a shared microservice (paper §5.3.2).

    Returns:
        A :class:`ServiceTargets` with targets, container counts, the
        segment used per microservice, and bookkeeping for diagnostics.

    Raises:
        InfeasibleSLAError: If the SLA is not larger than the merged graph's
            intercept (the latency floor no resource level can beat).
        KeyError: If a microservice in the graph has no profile.

    The workload-independent part (targets/segments/passes — see the memo
    note above) is cached across calls keyed by the graph's compiled plan,
    SLA and override ratios, so sweeping a workload axis or re-running the
    autoscaler tick-by-tick pays for Eq. 5 once.  Graphs are frozen once
    scaled (a mutated root needs a new ``DependencyGraph``) and profiles
    are treated as immutable.
    """
    plan = spec.graph.plan()
    names = plan.names
    own_workloads = spec.microservice_workloads()
    effective: Dict[str, float] = dict(own_workloads)
    if workload_overrides:
        for name, value in workload_overrides.items():
            if name in effective:
                effective[name] = value
    used = [profiles[name] for name in names]
    ratios = tuple(
        _override_ratio(own_workloads[name], effective[name]) for name in names
    )

    key = None
    if _MEMO_ENABLED:
        key = (plan, spec.sla, max_passes, tuple(map(id, used)), ratios)
        entry = _TARGETS_MEMO.get(key)
        if entry is not None:
            global _MEMO_HITS
            _MEMO_HITS += 1
            _TARGETS_MEMO.move_to_end(key)
            value = entry[0]
            if value[0] == "infeasible":
                raise InfeasibleSLAError(
                    f"service {spec.name!r}: SLA {spec.sla:.3f}ms does not "
                    f"exceed the graph latency floor {value[1]:.3f}ms"
                )
            return _finish_targets(spec, used, effective, *value[1:])
        global _MEMO_MISSES
        _MEMO_MISSES += 1

    try:
        value = _targets_loop(
            spec,
            [profile.model for profile in used],
            [profile.resource_demand for profile in used],
            ratios,
            max_passes,
        )
    except InfeasibleSLAError as exc:
        if key is not None:
            _memo_store(key, ("infeasible", exc.latency_floor), used)
        raise
    if key is not None:
        _memo_store(key, ("ok", *value), used)
    return _finish_targets(spec, used, effective, *value)


def _memo_store(key, value, used) -> None:
    # The key holds the plan itself; the profiles it names by id() are kept
    # alive beside the value so those ids cannot be recycled.
    _TARGETS_MEMO[key] = (value, tuple(used))
    while len(_TARGETS_MEMO) > _TARGETS_MEMO_MAX:
        _TARGETS_MEMO.popitem(last=False)


def _finish_targets(
    spec: ServiceSpec,
    used: Sequence[MicroserviceProfile],
    effective: Dict[str, float],
    targets: Sequence[float],
    used_segments: Sequence[LatencySegment],
    intercept: float,
    passes: int,
) -> ServiceTargets:
    """Assemble the per-cell result around the (possibly cached) targets."""
    names = spec.graph.plan().names
    result = ServiceTargets(service=spec.name)
    result.targets = dict(zip(names, targets))
    result.segments = dict(zip(names, used_segments))
    result.workloads = effective
    result.merged_intercept = intercept
    result.passes = passes
    # Convert targets to containers with the segment consistent with each
    # *final* target.  After a §5.3.1 interval switch the recomputed target
    # can land back above the cut-off latency; blindly using the switched
    # segment would then provision containers whose per-container load sits
    # far beyond the cut-off, i.e. outside that segment's validity.
    result.containers = {
        name: best_effort_containers(profile.model, effective[name], target)
        for name, profile, target in zip(names, used, targets)
    }
    return result


# ----------------------------------------------------------------------
# Grid-batched targets (workload × SLA)
# ----------------------------------------------------------------------
@dataclass
class GridTargets:
    """Latency targets for a whole (workload × SLA) grid of one service.

    Targets are computed once per SLA (they are workload-independent, see
    the memo note above) and container counts once per (microservice,
    SLA) as a vector over the workload axis.  :meth:`cell` materializes
    any single grid cell as the :class:`ServiceTargets` that
    :func:`compute_service_targets` would have produced — bit-identical.
    """

    service: str
    workloads: List[float]
    slas: List[float]
    #: Per-SLA feasibility; infeasible columns raise from :meth:`cell`.
    feasible: List[bool]
    merged_intercepts: List[float]
    passes: List[int]
    targets: List[Optional[Dict[str, float]]]
    segments: List[Optional[Dict[str, LatencySegment]]]
    #: Per-SLA: microservice -> int64 array over the workload axis.
    containers: List[Optional[Dict[str, np.ndarray]]]
    _multipliers: Dict[str, float] = field(default_factory=dict, repr=False)

    def cell(self, workload_index: int, sla_index: int) -> ServiceTargets:
        """The :class:`ServiceTargets` of one grid cell.

        Raises:
            InfeasibleSLAError: If this SLA column is below the graph's
                latency floor (exactly as the scalar path would).
        """
        if not self.feasible[sla_index]:
            raise InfeasibleSLAError(
                f"service {self.service!r}: SLA {self.slas[sla_index]:.3f}ms "
                f"does not exceed the graph latency floor "
                f"{self.merged_intercepts[sla_index]:.3f}ms"
            )
        workload = self.workloads[workload_index]
        result = ServiceTargets(service=self.service)
        result.targets = dict(self.targets[sla_index])
        result.segments = dict(self.segments[sla_index])
        result.workloads = {
            name: multiplier * workload
            for name, multiplier in self._multipliers.items()
        }
        result.containers = {
            name: int(counts[workload_index])
            for name, counts in self.containers[sla_index].items()
        }
        result.merged_intercept = self.merged_intercepts[sla_index]
        result.passes = self.passes[sla_index]
        return result


def compute_targets_grid(
    spec: ServiceSpec,
    profiles: Mapping[str, MicroserviceProfile],
    workloads: Sequence[float],
    slas: Sequence[float],
    max_passes: int = 8,
) -> GridTargets:
    """Batch :func:`compute_service_targets` over a (workload × SLA) grid.

    One Eq. 5 pass per *segment-assignment group* of SLA columns
    (via :func:`repro.core.merge.distribute_targets_batch`) replaces one
    pass per grid cell, and container counts vectorize over the workload
    axis; yet every :meth:`GridTargets.cell` is bit-identical to the
    scalar call for that cell.  §5.3.1 interval switching runs per SLA
    column: columns that switch the same segments regroup and share the
    next pass's merge.

    Workload overrides are deliberately unsupported here — grids sweep a
    service's own arrival rate, where every override ratio is 1.
    """
    graph = spec.graph
    names = graph.plan().names
    multipliers = graph.workload_multipliers()
    workloads = [float(w) for w in workloads]
    slas = [float(s) for s in slas]
    sla_arr = np.asarray(slas, dtype=np.float64)
    w_arr = np.asarray(workloads, dtype=np.float64)
    n = len(slas)

    cache = merge_tree_cache()
    models: Dict[str, PiecewiseLatencyModel] = {
        name: profiles[name].model for name in names
    }
    resources = [profiles[name].resource_demand for name in names]
    ratios = [1.0] * len(names)  # a grid sweeps the service's own workload

    # Per-column state machine mirroring the scalar §5.3.1 loop.
    seg_state: List[Dict[str, LatencySegment]] = [
        {name: models[name].high for name in names} for _ in range(n)
    ]
    feasible = [True] * n
    intercepts = [0.0] * n
    passes = [0] * n
    col_targets: List[Optional[Dict[str, float]]] = [None] * n
    col_segments: List[Optional[Dict[str, LatencySegment]]] = [None] * n
    active = list(range(n))

    for pass_index in range(max(max_passes, 1)):
        if not active:
            break
        # Group columns sharing a segment assignment: one merge and one
        # batched Eq. 5 pass per group.
        groups: "OrderedDict[tuple, List[int]]" = OrderedDict()
        for column in active:
            signature = tuple(
                seg_state[column][name] is models[name].high for name in names
            )
            groups.setdefault(signature, []).append(column)

        next_active: List[int] = []
        for columns in groups.values():
            segments = seg_state[columns[0]]
            merged = cache.tree(
                graph,
                _leaf_params([segments[name] for name in names], ratios, resources),
            )
            intercept = merged.intercept
            live: List[int] = []
            for column in columns:
                intercepts[column] = intercept
                passes[column] = pass_index + 1
                if slas[column] <= intercept:
                    feasible[column] = False
                else:
                    live.append(column)
            if not live:
                continue

            per_ms = dict(zip(names, distribute_targets_batch(merged, sla_arr[live])))

            for j, column in enumerate(live):
                targets = {name: float(per_ms[name][j]) for name in per_ms}
                if pass_index == max_passes - 1:
                    # Scalar loop breaks before the switching check.
                    col_targets[column] = targets
                    col_segments[column] = dict(seg_state[column])
                    continue
                switched = False
                for name, target in targets.items():
                    model = models[name]
                    if (
                        seg_state[column][name] is model.high
                        and target < model.latency_at_cutoff()
                    ):
                        seg_state[column][name] = model.low
                        switched = True
                if switched:
                    next_active.append(column)
                else:
                    col_targets[column] = targets
                    col_segments[column] = dict(seg_state[column])
        active = next_active

    # Containers: one vectorized pass over the workload axis per
    # (microservice, SLA).  Microservice workload = multiplier * arrival
    # rate, exactly as ServiceSpec.microservice_workloads computes it.
    containers: List[Optional[Dict[str, np.ndarray]]] = [None] * n
    for column in range(n):
        if not feasible[column]:
            continue
        targets = col_targets[column]
        containers[column] = {
            name: best_effort_containers_array(
                models[name], multipliers[name] * w_arr, target
            )
            for name, target in targets.items()
        }

    return GridTargets(
        service=spec.name,
        workloads=workloads,
        slas=slas,
        feasible=feasible,
        merged_intercepts=intercepts,
        passes=passes,
        targets=col_targets,
        segments=col_segments,
        containers=containers,
        _multipliers=dict(multipliers),
    )


def predicted_end_to_end(
    spec: ServiceSpec,
    profiles: Mapping[str, MicroserviceProfile],
    containers: Mapping[str, int],
    workload_overrides: Optional[Mapping[str, float]] = None,
) -> float:
    """Model-predicted end-to-end tail latency under a container allocation.

    Evaluates each microservice's piecewise model at its per-container load
    and folds the per-microservice latencies through the graph structure.
    Used by analytic experiments and by baselines for feasibility checks.
    """
    workloads = spec.microservice_workloads()
    if workload_overrides:
        workloads = dict(workloads)
        for name, value in workload_overrides.items():
            if name in workloads:
                workloads[name] = value
    latencies = {}
    for name, load in workloads.items():
        count = max(1, containers.get(name, 1))
        latencies[name] = profiles[name].model.latency(load / count)
    return spec.graph.end_to_end_latency(latencies)

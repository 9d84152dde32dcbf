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
from functools import cached_property
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core import merge
from repro.core.merge import distribute_targets
from repro.core.model import (
    InfeasibleSLAError,
    LatencySegment,
    MicroserviceProfile,
    PiecewiseLatencyModel,
    ServiceSpec,
    best_effort_containers,
)


@dataclass
class ServiceTargets:
    """Latency targets for one service, and the containers they imply.

    Attributes:
        service: Service name.
        targets: Final latency target (ms) per microservice; when a
            microservice appears at several call sites the minimum applies.
        segments: The latency segment each microservice was scaled with.
        workloads: The workload (req/min) used for each microservice —
            the service's own demand unless an override was supplied.
        merged_intercept: Intercept of the fully merged graph; the SLA must
            exceed it for feasibility.
        passes: Number of Eq. 5 passes performed (1 or 2, per §5.3.1).
        profiles: The profile of each microservice, in the order of
            ``targets``.

    ``containers`` — containers required per microservice to meet its
    target under this service's (possibly priority-modified) workload — is
    derived from ``targets``, ``workloads`` and ``profiles`` the first
    time it is read: a result that is only ranked (phase 1 of priority
    scheduling), only tested for feasibility or only memo-checked never
    pays for the conversion.
    """

    service: str
    targets: Dict[str, float] = field(default_factory=dict)
    segments: Dict[str, LatencySegment] = field(default_factory=dict)
    workloads: Dict[str, float] = field(default_factory=dict)
    merged_intercept: float = 0.0
    passes: int = 1
    profiles: Sequence[MicroserviceProfile] = field(default=(), repr=False)

    @cached_property
    def containers(self) -> Dict[str, int]:
        # The segment is chosen per *final* target, not taken from
        # ``segments``: after a §5.3.1 interval switch the recomputed target
        # can land back above the cut-off latency; blindly using the switched
        # segment would then provision containers whose per-container load
        # sits far beyond the cut-off, i.e. outside that segment's validity.
        return {
            name: best_effort_containers(profile.model, self.workloads[name], target)
            for (name, target), profile in zip(self.targets.items(), self.profiles)
        }


# ----------------------------------------------------------------------
# Cross-cell memo for the workload-independent part of the computation
# ----------------------------------------------------------------------
# Eq. 5 scales segment slopes only by the *override ratio*
# (effective / own workload), never by the service workload itself: the
# merge treats every call site as handling the service arrival rate.
# Targets, chosen segments, the merged intercept and the §5.3.1 pass
# count are therefore identical across grid cells that differ only in
# workload (same graph and SLA) — only the container counts change.  The
# memo below caches exactly that workload-independent tuple, for calls
# whose override ratios are all 1.0: every call without overrides, and
# every §5.3.2 priority pass whose overrides scale no slope.  A scaled
# slope's ratios follow the workload mix, so such a call is computed
# fresh and is counted as neither a hit nor a miss.  Container counts are
# always recomputed from the cell's actual workloads, so memoized results
# are bit-identical to fresh ones.
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
    merge (starting from the previous pass's) + Eq. 5 + unmerge.
    """
    # Initial pass: high-load segment for everyone (§5.3.1).
    segments = [model.high for model in models]

    # The paper recomputes once after interval switching (two passes),
    # which suffices for continuous fits.  Discontinuous fits may need a
    # few more rounds; switching is one-way (high -> low), so the loop is
    # monotone and terminates within the number of microservices.
    passes = 1
    merged = None
    for pass_index in range(max(max_passes, 1)):
        merged = merge.merge_graph(
            spec.graph, _leaf_params(segments, ratios, resources), merged
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
            if segments[rank] is model.high and target < model.latency_at_cutoff:
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
    note above) of a call whose overrides scale no slope is cached across
    calls keyed by the graph's compiled plan and SLA, so sweeping a
    workload axis or re-running the autoscaler tick-by-tick pays for Eq. 5
    once per plan and SLA.  Graphs are frozen once scaled (a mutated root
    needs a new ``DependencyGraph``) and profiles are treated as immutable.
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
    if _MEMO_ENABLED and all(ratio == 1.0 for ratio in ratios):
        key = (plan, spec.sla, max_passes, tuple(map(id, used)))
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
    result.profiles = used
    return result


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

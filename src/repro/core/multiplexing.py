"""Microservice multiplexing and priority scheduling (paper §2.3, §4.3, §5.3.2).

A microservice shared by several services must satisfy every service's SLA.
Erms assigns each service a *priority* at each shared microservice: services
whose independently-computed latency target at the shared microservice is
lower (i.e. services full of latency-sensitive microservices) are scheduled
first.  A service of priority rank r then experiences, at the shared
microservice, an effective workload equal to the sum of its own workload and
the workloads of all higher-priority services (Eqs. 13–14).  Latency targets
for every service are recomputed under these modified workloads, and the
shared microservice is scaled to the largest container count any service
requires.

The module also exposes the analytic resource-usage expressions of the
Theorem 1 proof (Eqs. 17–19) for the canonical two-service scenario of
Fig. 5, used by benchmarks and property tests to check the ordering
``RU_priority ≤ RU_non_sharing ≤ RU_fcfs_sharing``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import groupby
from typing import Dict, List, Mapping, Sequence

from repro.core.latency_targets import ServiceTargets, compute_service_targets
from repro.core.model import MicroserviceProfile, ServiceSpec


def shared_microservices(specs: Sequence[ServiceSpec]) -> Dict[str, List[str]]:
    """Microservices used by more than one service.

    Returns:
        Mapping from shared microservice name to the list of service names
        using it (in input order).
    """
    users: Dict[str, List[str]] = {}
    for spec in specs:
        for name in spec.graph.microservices():
            users.setdefault(name, []).append(spec.name)
    return {name: services for name, services in users.items() if len(services) > 1}


def assign_priorities(
    initial: Mapping[str, ServiceTargets],
    shared: Mapping[str, List[str]],
) -> Dict[str, Dict[str, int]]:
    """Per shared microservice, rank services by initial latency target.

    The service with the *lowest* target gets rank 0 (highest priority) —
    a low target signals many latency-sensitive microservices elsewhere in
    its graph, so its requests should be handled first (paper §5.3.2).
    Ties break by service name for determinism.

    Returns:
        ``{shared_ms: {service: rank}}`` with rank 0 scheduled first.
    """
    priorities: Dict[str, Dict[str, int]] = {}
    for ms_name, services in shared.items():
        ordered = sorted(
            services, key=lambda svc: (initial[svc].targets[ms_name], svc)
        )
        priorities[ms_name] = {svc: rank for rank, svc in enumerate(ordered)}
    return priorities


def modified_workloads(
    specs: Sequence[ServiceSpec],
    priorities: Mapping[str, Mapping[str, int]],
) -> Dict[str, Dict[str, float]]:
    """Effective workloads each service sees at shared microservices.

    For service k with rank r at shared microservice i, the modified
    workload is :math:`\\sum_{l: rank_l \\le r} \\gamma_{l,i}` — its own
    demand plus everything scheduled ahead of it (paper §5.3.2): one
    running sum per shared microservice, taken in rank order, services of
    equal rank in the map's order and each seeing the whole of their rank.
    A ranked service that is not in ``specs`` contributes no demand and
    gets no entry.

    Returns:
        ``{service: {shared_ms: effective_workload}}``.
    """
    demands: Dict[str, Dict[str, float]] = {
        spec.name: spec.microservice_workloads() for spec in specs
    }
    result: Dict[str, Dict[str, float]] = {spec.name: {} for spec in specs}
    for ms_name, ranks in priorities.items():
        total = 0.0
        for _, tied in groupby(sorted(ranks, key=ranks.get), key=ranks.get):
            tied = [service for service in tied if service in demands]
            for service in tied:
                total += demands[service].get(ms_name, 0.0)
            for service in tied:
                result[service][ms_name] = total
    return result


@dataclass
class MultiplexedAllocation:
    """Outcome of the two-phase (initial + priority-adjusted) computation."""

    initial: Dict[str, ServiceTargets] = field(default_factory=dict)
    final: Dict[str, ServiceTargets] = field(default_factory=dict)
    priorities: Dict[str, Dict[str, int]] = field(default_factory=dict)
    overrides: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def containers(self) -> Dict[str, int]:
        """Final container count per microservice (max over services)."""
        merged: Dict[str, int] = {}
        for targets in self.final.values():
            for name, count in targets.containers.items():
                merged[name] = max(merged.get(name, 0), count)
        return merged


def independent_targets(
    specs: Sequence[ServiceSpec],
    profiles: Mapping[str, MicroserviceProfile],
) -> Dict[str, ServiceTargets]:
    """Phase 1: every service's targets under its own workload alone.

    What priority scheduling ranks services by, and the whole of the
    "Latency Target Computation only" ablation (§6.4.1).
    """
    return {spec.name: compute_service_targets(spec, profiles) for spec in specs}


def scale_with_priorities(
    specs: Sequence[ServiceSpec],
    profiles: Mapping[str, MicroserviceProfile],
) -> MultiplexedAllocation:
    """Full Erms multi-service scaling (paper §5.3.2).

    Phase 1 computes per-service latency targets independently; phase 2
    derives priorities at each shared microservice from those targets,
    builds the modified workloads, and recomputes every service's targets.
    Non-shared services skip phase 2 — their allocation is already final.
    """
    allocation = MultiplexedAllocation(initial=independent_targets(specs, profiles))

    shared = shared_microservices(specs)
    if not shared:
        allocation.final = dict(allocation.initial)
        return allocation

    allocation.priorities = assign_priorities(allocation.initial, shared)
    allocation.overrides = modified_workloads(specs, allocation.priorities)
    for spec in specs:
        overrides = allocation.overrides.get(spec.name) or None
        if overrides:
            allocation.final[spec.name] = compute_service_targets(
                spec, profiles, workload_overrides=overrides
            )
        else:
            allocation.final[spec.name] = allocation.initial[spec.name]
    return allocation


# ----------------------------------------------------------------------
# Theorem 1: analytic resource usage for the Fig. 5 two-service scenario
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SharedScenario:
    """The canonical scenario of Fig. 5 and Appendix A.

    Service 1 calls U then shared P; service 2 calls H then shared P.
    Parameters are the slope ``a``, intercept ``b`` and resource demand
    ``R`` of each microservice, the two workloads, and the common SLA
    normalization of the proof (``SLA1 − b_u − b_p = SLA2 − b_h − b_p``).
    """

    a_u: float
    a_h: float
    a_p: float
    r_u: float
    r_h: float
    r_p: float
    gamma1: float
    gamma2: float
    budget: float  # SLA1 − b_u − b_p (= SLA2 − b_h − b_p in the proof)

    def __post_init__(self) -> None:
        for name in ("a_u", "a_h", "a_p", "r_u", "r_h", "r_p"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.gamma1 < 0 or self.gamma2 < 0:
            raise ValueError("workloads must be non-negative")
        if self.budget <= 0:
            raise ValueError("budget (SLA minus intercepts) must be positive")


def resource_usage_fcfs_sharing(s: SharedScenario) -> float:
    """RU^s of paper Eq. 17: shared P, FCFS, no prioritization."""
    inner = math.sqrt(
        s.a_u * s.gamma1 * s.r_u + s.a_h * s.gamma2 * s.r_h
    ) + math.sqrt(s.a_p * (s.gamma1 + s.gamma2) * s.r_p)
    return inner**2 / s.budget


def resource_usage_non_sharing(s: SharedScenario) -> float:
    """RU^n of paper Eq. 18: P's containers partitioned per service."""
    term1 = s.gamma1 * (math.sqrt(s.a_u * s.r_u) + math.sqrt(s.a_p * s.r_p)) ** 2
    term2 = s.gamma2 * (math.sqrt(s.a_h * s.r_h) + math.sqrt(s.a_p * s.r_p)) ** 2
    return (term1 + term2) / s.budget


def resource_usage_priority_bound(s: SharedScenario) -> float:
    """Upper bound on RU^o of paper Eq. 19: Erms priority scheduling.

    Service 1 (which contains the more sensitive U) gets priority at P;
    service 2 sees workload γ₁+γ₂ at P.  The bound solves the two SLA
    constraints independently.
    """
    low_priority = (
        math.sqrt(s.a_h * s.gamma2 * s.r_h)
        + math.sqrt(s.a_p * (s.gamma1 + s.gamma2) * s.r_p)
    ) ** 2 / s.budget
    high_priority = (
        s.a_u * s.gamma1 * s.r_u
        + math.sqrt(s.a_u * s.a_p * s.r_u * s.r_p) * s.gamma1
    ) / s.budget
    return low_priority + high_priority

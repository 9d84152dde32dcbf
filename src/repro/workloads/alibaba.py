"""Synthetic Alibaba-trace-like workloads.

The paper uses the Alibaba 2021 microservice traces in three places:

* Fig. 2 — the distribution of how many online services share each
  microservice (40 % of microservices are shared by >100 services);
* Fig. 13 — dynamic per-minute workload curves replayed against the
  Social Network application;
* Fig. 16 / §6.5 — Taobao-scale simulations: 500+ services averaging ~50
  microservices each, 300+ shared microservices.

The real traces are not redistributable here, so this module generates
statistically matched synthetic equivalents from a seed:
:func:`sharing_counts` draws per-microservice popularity from a heavy-
tailed Beta so the Fig. 2 CDF shape holds, and :func:`generate_taobao`
builds service dependency graphs over a pool of hot shared microservices
plus per-service private tails.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.core.model import (
    ContainerSpec,
    LatencySegment,
    MicroserviceProfile,
    PiecewiseLatencyModel,
    ServiceSpec,
)
from repro.graphs import CallNode, DependencyGraph
from repro.workloads.arrival import DiurnalRate


def sharing_counts(
    n_microservices: int = 20_000,
    n_services: int = 1_000,
    hot_fraction: float = 0.45,
    seed: int = 0,
) -> np.ndarray:
    """How many services use each microservice (the Fig. 2 population).

    A ``hot_fraction`` of microservices are *hot* (infrastructure-like:
    auth, user, caching tiers) with inclusion probabilities drawn from
    Beta(2.5, 7) — most of them land in well over 100 of 1000 services —
    while the rest form a cold long tail (Beta(1, 200)).  The resulting
    CDF matches the paper's headline: roughly 40 % of microservices are
    shared by more than 100 online services.

    Returns:
        Integer array of length ``n_microservices``: the number of online
        services each microservice appears in.
    """
    if n_microservices < 1 or n_services < 1:
        raise ValueError("population sizes must be positive")
    if not 0.0 <= hot_fraction <= 1.0:
        raise ValueError(f"hot_fraction must be in [0, 1], got {hot_fraction}")
    rng = np.random.default_rng(seed)
    n_hot = int(n_microservices * hot_fraction)
    probabilities = np.concatenate(
        [
            rng.beta(2.5, 7.0, size=n_hot),
            rng.beta(1.0, 200.0, size=n_microservices - n_hot),
        ]
    )
    counts = rng.binomial(n_services, probabilities)
    # Every microservice exists because at least one service calls it.
    return np.maximum(counts, 1)


@dataclass
class TaobaoWorkload:
    """A generated Taobao-scale workload.

    Attributes:
        services: One spec per service (graph, workload, SLA).
        profiles: Piecewise latency profiles per microservice.
        rates: Optional dynamic rate per service (diurnal), for replay.
    """

    services: List[ServiceSpec]
    profiles: Dict[str, MicroserviceProfile]
    rates: Dict[str, DiurnalRate] = field(default_factory=dict)

    def shared_microservices(self) -> List[str]:
        counts: Dict[str, int] = {}
        for spec in self.services:
            for name in spec.graph.microservices():
                counts[name] = counts.get(name, 0) + 1
        return [name for name, value in counts.items() if value > 1]

    def microservice_count(self) -> int:
        names = set()
        for spec in self.services:
            names.update(spec.graph.microservices())
        return len(names)


def _random_profile(
    name: str, rng: np.random.Generator
) -> MicroserviceProfile:
    """A plausible random piecewise profile (continuous at the cut-off)."""
    base = rng.uniform(0.5, 5.0)  # idle P95, ms
    cutoff = rng.uniform(50.0, 400.0)  # req/min/container
    low_slope = base * rng.uniform(0.2, 0.8) / cutoff
    steepness = rng.uniform(4.0, 12.0)
    high_slope = low_slope * steepness
    latency_at_cutoff = low_slope * cutoff + base
    high_intercept = latency_at_cutoff - high_slope * cutoff
    return MicroserviceProfile(
        name=name,
        model=PiecewiseLatencyModel(
            low=LatencySegment(low_slope, base),
            high=LatencySegment(high_slope, high_intercept),
            cutoff=cutoff,
        ),
        resource_demand=float(rng.uniform(0.05, 0.4)),
        container=ContainerSpec(cpu=0.1, memory_mb=200.0),
    )


def _random_tree(
    service: str,
    microservices: List[str],
    rng: np.random.Generator,
    max_children: int = 4,
    parallel_probability: float = 0.5,
) -> DependencyGraph:
    """A random call tree over a fixed multiset of microservices.

    Production graphs behave like trees (paper §5.3.3); children attach to
    random earlier nodes, joining the parent's last stage with
    ``parallel_probability`` (parallel call) or opening a new stage
    (sequential call).
    """
    if not microservices:
        raise ValueError("need at least one microservice for a graph")
    nodes = [CallNode(microservices[0])]
    for name in microservices[1:]:
        parent = nodes[rng.integers(0, len(nodes))]
        child = CallNode(name)
        attach_parallel = (
            parent.stages
            and len(parent.stages[-1]) < max_children
            and rng.random() < parallel_probability
        )
        if attach_parallel:
            parent.stages[-1].append(child)
        else:
            parent.stages.append([child])
        nodes.append(child)
    return DependencyGraph(service=service, root=nodes[0])


def generate_taobao(
    n_services: int = 500,
    mean_graph_size: int = 50,
    shared_pool: int = 350,
    shared_per_service: int = 12,
    sla_range: tuple = (100.0, 400.0),
    workload_range: tuple = (1_000.0, 40_000.0),
    seed: int = 0,
    with_rates: bool = False,
) -> TaobaoWorkload:
    """Generate a Taobao-scale service population (paper §6.5).

    Each service's graph mixes draws from a hot *shared pool* (Zipf-
    weighted, so some microservices are shared by very many services) with
    service-private microservices, yielding 300+ shared microservices for
    the default parameters — the paper's reported count.

    Args:
        n_services: Number of online services (paper: 500+).
        mean_graph_size: Average microservices per service (paper: ~50).
        shared_pool: Size of the hot shared-microservice pool.
        shared_per_service: Mean draws from the pool per service.
        sla_range: Uniform range of per-service SLAs (ms).
        workload_range: Uniform range of per-service workloads (req/min).
        seed: RNG seed.
        with_rates: Also attach diurnal rate processes per service.

    Returns:
        A :class:`TaobaoWorkload`.
    """
    if n_services < 1:
        raise ValueError("n_services must be positive")
    if mean_graph_size < 2:
        raise ValueError("mean_graph_size must be at least 2")
    rng = np.random.default_rng(seed)

    pool = [f"shared-{i:04d}" for i in range(shared_pool)]
    weights = 1.0 / np.arange(1, shared_pool + 1) ** 0.8
    weights /= weights.sum()

    profiles: Dict[str, MicroserviceProfile] = {
        name: _random_profile(name, rng) for name in pool
    }

    services: List[ServiceSpec] = []
    rates: Dict[str, DiurnalRate] = {}
    for index in range(n_services):
        service = f"taobao-svc-{index:04d}"
        size = max(3, int(rng.normal(mean_graph_size, mean_graph_size / 4)))
        n_shared = min(
            size - 2, max(1, int(rng.poisson(shared_per_service)))
        )
        # .tolist(): plain ``str`` names, not ``np.str_``
        shared_picks = rng.choice(
            pool, size=n_shared, replace=False, p=weights
        ).tolist()
        n_private = size - n_shared - 1
        private = [f"{service}-ms-{i:03d}" for i in range(n_private)]
        for name in private:
            profiles[name] = _random_profile(name, rng)
        entry = f"{service}-entry"
        profiles[entry] = _random_profile(entry, rng)

        members = shared_picks + private
        rng.shuffle(members)
        graph = _random_tree(service, [entry] + members, rng)
        workload = float(rng.uniform(*workload_range))
        sla = float(rng.uniform(*sla_range))
        services.append(
            ServiceSpec(service, graph, workload=workload, sla=sla)
        )
        if with_rates:
            rates[service] = DiurnalRate(
                base=workload,
                amplitude=float(rng.uniform(0.3, 0.7)),
                period_min=1440.0,
                seed=seed + index + 1,
            )

    return TaobaoWorkload(services=services, profiles=profiles, rates=rates)

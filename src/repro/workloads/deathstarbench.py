"""Synthetic DeathStarBench-like applications (paper §6.1).

The paper evaluates on three DeathStarBench applications:

* **Social Network** — 36 unique microservices, 3 services, shared
  microservices (post storage, user timeline, social graph);
* **Media Service** — 38 unique microservices, 1 service;
* **Hotel Reservation** — 15 unique microservices, 4 services, shared
  microservices (frontend, profile, reservation).

We reproduce the *structure* that drives the experiments — microservice
counts, service fan-out, which microservices are shared — with realistic
call topologies (stateless logic services backed by mongodb / redis /
memcached containers).  The paper counts 3 shared microservices per app;
here the three shared *stateless* services match that count, and their
storage backends are naturally shared as well.

Each microservice carries ground-truth simulator parameters
(``base_service_ms``, ``threads``) and an *analytic profile* — a piecewise
latency model derived from its queueing capacity — used by the
analytic/theoretical experiments (the paper's own ``theoretical-resource``
artifact step).  High-fidelity experiments fit profiles from simulator runs
instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Sequence

from repro.core.model import (
    ContainerSpec,
    LatencySegment,
    MicroserviceProfile,
    PiecewiseLatencyModel,
    ServiceSpec,
)
from repro.graphs import CallNode, DependencyGraph, call, validate_graph
from repro.simulator.simulation import SimulatedMicroservice

_MS_PER_MINUTE = 60_000.0
#: An analytic profile's P95 at the edge of its profiled range, in
#: multiples of the (interference-inflated) mean service time.
PEAK_LATENCY_FACTOR = 8.0


@dataclass
class Application:
    """A benchmark application: services, ground truth, and defaults."""

    name: str
    services: List[ServiceSpec]
    simulated: Dict[str, SimulatedMicroservice]
    container_specs: Dict[str, ContainerSpec] = field(default_factory=dict)

    def microservices(self) -> List[str]:
        """Unique microservices across all services."""
        seen: Dict[str, None] = {}
        for spec in self.services:
            for name in spec.graph.microservices():
                seen.setdefault(name, None)
        return list(seen)

    def shared_microservices(self) -> List[str]:
        """Microservices appearing in more than one service."""
        counts: Dict[str, int] = {}
        for spec in self.services:
            for name in spec.graph.microservices():
                counts[name] = counts.get(name, 0) + 1
        return [name for name, count in counts.items() if count > 1]

    def shared_stateless(self) -> List[str]:
        """Shared microservices excluding storage backends.

        This is the count the paper reports (3 per application).
        """
        backends = ("mongodb", "redis", "memcached", "rabbitmq")
        return [
            name
            for name in self.shared_microservices()
            if not name.endswith(backends)
        ]

    def with_workloads(
        self, workloads: Dict[str, float], sla: float = None
    ) -> List[ServiceSpec]:
        """Service specs with updated workloads (and optionally one SLA)."""
        updated = []
        for spec in self.services:
            changes = {"workload": workloads.get(spec.name, spec.workload)}
            if sla is not None:
                changes["sla"] = sla
            updated.append(replace(spec, **changes))
        return updated

    def analytic_profiles(
        self, interference_multiplier: float = 1.0
    ) -> Dict[str, MicroserviceProfile]:
        """Piecewise profiles derived from each microservice's capacity.

        The shape mirrors the simulator's emergent behaviour: P95 ≈ 2×
        the mean service time at light load, a knee (≈3× base) near 70 %
        of the per-container capacity, and a steep post-cutoff segment
        reaching ~15× base close to saturation.  Host interference
        multiplies service time, scaling latency up and capacity down.
        """
        if not 1.0 <= interference_multiplier < math.inf:
            raise ValueError(
                f"interference_multiplier must be >= 1 and finite, "
                f"got {interference_multiplier}"
            )
        return {
            name: analytic_profile(
                name,
                sim.base_service_ms,
                sim.threads,
                interference_multiplier=interference_multiplier,
                container=self.container_specs.get(name, ContainerSpec()),
            )
            for name, sim in self.simulated.items()
        }


def analytic_profile(
    name: str,
    base_service_ms: float,
    threads: int,
    interference_multiplier: float = 1.0,
    container: ContainerSpec = None,
) -> MicroserviceProfile:
    """Piecewise profile from queueing capacity (shared by apps and benches).

    The shape mirrors the simulator's emergent behaviour and the paper's
    Fig. 3 curves: P95 ≈ 2× the mean service time at light load, a knee
    (≈3× base) near 70 % of the per-container capacity
    ``threads / base_service_ms``, and a steep post-cutoff segment
    reaching ``PEAK_LATENCY_FACTOR × base`` at the edge of the profiled
    range (``max_load`` = 1.3× the cut-off ≈ 91 % of capacity) —
    provisioning never extrapolates past that range.  The resource demand
    is the container's CPU request.
    """
    if container is None:
        container = ContainerSpec()
    base = base_service_ms * interference_multiplier
    capacity = threads / base * _MS_PER_MINUTE  # req/min/container
    cutoff = 0.7 * capacity
    low = LatencySegment(slope=base / cutoff, intercept=2.0 * base)
    # Through (cutoff, 3·base) and (1.3·cutoff, peak·base).
    high_slope = (PEAK_LATENCY_FACTOR - 3.0) * base / (0.3 * cutoff)
    high = LatencySegment(
        slope=high_slope, intercept=3.0 * base - high_slope * cutoff
    )
    return MicroserviceProfile(
        name=name,
        model=PiecewiseLatencyModel(
            low=low, high=high, cutoff=cutoff, max_load=1.3 * cutoff
        ),
        resource_demand=container.cpu,
        container=container,
    )


def _backed(name: str, *backends: str, parallel: bool = True) -> CallNode:
    """A stateless service calling its storage backends."""
    children = [call(b) for b in backends]
    if not children:
        return call(name)
    stages = [children] if parallel else [[c] for c in children]
    return call(name, stages=stages)


_DEFAULTS_BY_SUFFIX = {
    "mongodb": (3.0, 2),
    "redis": (1.0, 2),
    "memcached": (0.8, 2),
    "rabbitmq": (1.5, 2),
}


def _simulated(
    names: Sequence[str], overrides: Dict[str, tuple]
) -> Dict[str, SimulatedMicroservice]:
    result = {}
    for name in names:
        if name in overrides:
            base, threads = overrides[name]
        else:
            base, threads = 3.0, 1
            for suffix, params in _DEFAULTS_BY_SUFFIX.items():
                if name.endswith(suffix):
                    base, threads = params
                    break
        result[name] = SimulatedMicroservice(
            name, base_service_ms=base, threads=threads
        )
    return result


def _application(
    name: str,
    graphs: List[DependencyGraph],
    overrides: Dict[str, tuple],
    workload: float = 6000.0,
    sla: float = 200.0,
) -> Application:
    for graph in graphs:
        validate_graph(graph)
    services = [
        ServiceSpec(graph.service, graph, workload=workload, sla=sla)
        for graph in graphs
    ]
    all_names: Dict[str, None] = {}
    for graph in graphs:
        for ms_name in graph.microservices():
            all_names.setdefault(ms_name, None)
    return Application(
        name=name,
        services=services,
        simulated=_simulated(list(all_names), overrides),
        container_specs={n: ContainerSpec() for n in all_names},
    )


def social_network() -> Application:
    """Social Network: 36 microservices, 3 services, 3 shared (stateless).

    Services: ``compose-post`` (write path), ``read-home-timeline``,
    ``read-user-timeline``.  Shared stateless microservices:
    ``post-storage-service`` (all three), ``user-timeline-service``
    (compose + read-user), ``social-graph-service`` (compose + read-home).
    """

    def post_storage() -> CallNode:
        return _backed(
            "post-storage-service", "post-storage-memcached", "post-storage-mongodb"
        )

    def user_timeline() -> CallNode:
        return _backed(
            "user-timeline-service", "user-timeline-redis", "user-timeline-mongodb"
        )

    def social_graph() -> CallNode:
        return _backed(
            "social-graph-service", "social-graph-redis", "social-graph-mongodb"
        )

    compose = DependencyGraph(
        "compose-post",
        call(
            "nginx-compose",
            stages=[
                [_backed("auth-service", "auth-redis")],
                [
                    call(
                        "compose-post-service",
                        stages=[
                            [
                                call("unique-id-service"),
                                call(
                                    "text-service",
                                    stages=[
                                        [
                                            _backed(
                                                "url-shorten-service",
                                                "url-shorten-mongodb",
                                            ),
                                            _backed(
                                                "user-mention-service",
                                                "user-mention-memcached",
                                                "user-mention-mongodb",
                                            ),
                                        ],
                                        [call("text-filter-service")],
                                    ],
                                ),
                                call(
                                    "media-service",
                                    stages=[
                                        [call("media-filter-service")],
                                        [
                                            call("media-memcached"),
                                            call("media-mongodb"),
                                        ],
                                        [call("media-frontend")],
                                    ],
                                ),
                                _backed(
                                    "user-service",
                                    "user-memcached",
                                    "user-mongodb",
                                    parallel=False,
                                ),
                            ],
                            [call("compose-post-redis")],
                            [post_storage()],
                            [
                                user_timeline(),
                                call(
                                    "write-home-timeline-service",
                                    stages=[
                                        [call("write-home-timeline-rabbitmq")],
                                        [social_graph()],
                                    ],
                                ),
                            ],
                        ],
                    )
                ],
            ],
        ),
    )

    read_home = DependencyGraph(
        "read-home-timeline",
        call(
            "nginx-home",
            stages=[
                [
                    call(
                        "home-timeline-service",
                        stages=[
                            [call("home-timeline-redis")],
                            [social_graph()],
                            [post_storage()],
                        ],
                    )
                ]
            ],
        ),
    )

    read_user = DependencyGraph(
        "read-user-timeline",
        call(
            "nginx-user",
            stages=[[user_timeline()], [post_storage()]],
        ),
    )

    overrides = {
        # The write path's timeline fan-out is workload-sensitive (one
        # heavy thread) while post storage is cheap and wide — exactly the
        # U-vs-P contrast of paper Figs. 4-5.
        "user-timeline-service": (6.0, 1),
        "post-storage-service": (2.5, 2),
        "home-timeline-service": (2.5, 2),
        "social-graph-service": (4.5, 1),
        "compose-post-service": (5.0, 1),
        "unique-id-service": (1.5, 2),
        "text-service": (4.0, 1),
        "url-shorten-service": (2.5, 1),
        "user-mention-service": (2.5, 1),
        "media-service": (4.0, 1),
        "user-service": (2.5, 2),
        "write-home-timeline-service": (3.0, 1),
        "text-filter-service": (2.0, 2),
        "media-filter-service": (2.0, 2),
        "media-frontend": (2.0, 2),
        "auth-service": (2.0, 2),
        "nginx-compose": (1.5, 4),
        "nginx-home": (1.5, 4),
        "nginx-user": (1.5, 4),
    }
    return _application("social-network", [compose, read_home, read_user], overrides)


def media_service() -> Application:
    """Media Service: 38 microservices, 1 service (compose-review)."""

    compose_review = DependencyGraph(
        "compose-review",
        call(
            "nginx-media",
            stages=[
                [_backed("media-auth-service", "media-auth-redis")],
                [
                    call(
                        "compose-review-service",
                        stages=[
                            [
                                _backed(
                                    "movie-id-service",
                                    "movie-id-memcached",
                                    "movie-id-mongodb",
                                ),
                                call("text-review-service"),
                                _backed("user-media-service", "user-media-mongodb"),
                                _backed("rating-service", "rating-redis"),
                            ],
                            [
                                _backed(
                                    "review-storage-service",
                                    "review-storage-memcached",
                                    "review-storage-mongodb",
                                )
                            ],
                            [
                                _backed(
                                    "user-review-service",
                                    "user-review-redis",
                                    "user-review-mongodb",
                                ),
                                _backed(
                                    "movie-review-service",
                                    "movie-review-redis",
                                    "movie-review-mongodb",
                                ),
                            ],
                        ],
                    )
                ],
                [
                    call(
                        "page-service",
                        stages=[
                            [
                                _backed(
                                    "movie-info-service",
                                    "movie-info-memcached",
                                    "movie-info-mongodb",
                                ),
                                _backed(
                                    "plot-service", "plot-memcached", "plot-mongodb"
                                ),
                                _backed(
                                    "cast-info-service",
                                    "cast-info-memcached",
                                    "cast-info-mongodb",
                                ),
                            ],
                            [
                                _backed("video-service", "video-mongodb"),
                                _backed("photo-service", "photo-mongodb"),
                                call("trailer-service"),
                            ],
                            [
                                _backed(
                                    "recommendation-media-service",
                                    "recommendation-media-mongodb",
                                )
                            ],
                        ],
                    )
                ],
            ],
        ),
    )

    overrides = {
        "compose-review-service": (5.0, 1),
        "page-service": (4.0, 1),
        "movie-review-service": (4.0, 1),
        "user-review-service": (3.5, 1),
        "review-storage-service": (2.5, 2),
        "rating-service": (2.0, 2),
        "media-auth-service": (2.0, 2),
        "nginx-media": (1.5, 4),
    }
    return _application("media-service", [compose_review], overrides)


def hotel_reservation() -> Application:
    """Hotel Reservation: 15 microservices, 4 services, 3 shared (stateless).

    Services: ``search-hotel``, ``recommend-hotel``, ``reserve-hotel``,
    ``login-hotel``.  Shared stateless microservices: ``frontend-hotel``
    (all four), ``profile-service`` (search + recommend),
    ``reservation-service`` (search + reserve).
    """

    def profile() -> CallNode:
        return _backed("profile-service", "profile-memcached", "profile-mongodb")

    def reservation() -> CallNode:
        return _backed("reservation-service", "reservation-mongodb")

    search = DependencyGraph(
        "search-hotel",
        call(
            "frontend-hotel",
            stages=[
                [
                    call(
                        "search-service",
                        stages=[
                            [
                                _backed("geo-service", "geo-mongodb"),
                                _backed(
                                    "rate-service",
                                    "rate-memcached",
                                    "rate-mongodb",
                                ),
                            ],
                            [reservation()],
                        ],
                    )
                ],
                [profile()],
            ],
        ),
    )
    recommend = DependencyGraph(
        "recommend-hotel",
        call(
            "frontend-hotel",
            stages=[[call("recommendation-service", stages=[[profile()]])]],
        ),
    )
    reserve = DependencyGraph(
        "reserve-hotel",
        call("frontend-hotel", stages=[[reservation()]]),
    )
    login = DependencyGraph(
        "login-hotel",
        call(
            "frontend-hotel",
            stages=[[_backed("user-hotel-service", "user-hotel-mongodb")]],
        ),
    )

    overrides = {
        "search-service": (6.0, 1),
        "profile-service": (2.5, 2),
        "reservation-service": (2.0, 2),
        "recommendation-service": (4.0, 1),
        "frontend-hotel": (1.5, 4),
        "geo-service": (4.0, 1),
        "rate-service": (3.0, 2),
        "user-hotel-service": (2.5, 2),
    }
    return _application(
        "hotel-reservation", [search, recommend, reserve, login], overrides
    )

"""Micro-benchmarks of the hot algorithmic paths.

Unlike the figure benchmarks (one-shot experiments), these use
pytest-benchmark's statistical timing across rounds: graph merge + target
distribution, the full per-service computation, multi-service priority
scaling, and the piecewise fit.  They guard the §5.3.3 scalability claim
against regressions.
"""

import numpy as np

from repro.core import compute_service_targets, scale_with_priorities
from repro.core.merge import distribute_targets, merge_graph
from repro.core.model import ServiceSpec
from repro.profiling import fit_piecewise
from repro.workloads import social_network
from repro.workloads.alibaba import _random_profiles, _random_tree


def _random_service(n, seed):
    rng = np.random.default_rng(seed)
    names = [f"ms-{i:04d}" for i in range(n)]
    graph = _random_tree(f"svc-{n}", names, rng)
    profiles = _random_profiles(names, rng)
    return ServiceSpec(f"svc-{n}", graph, workload=10_000.0, sla=5_000.0), profiles


def test_merge_and_distribute_100_nodes(benchmark):
    spec, profiles = _random_service(100, seed=1)

    def body():
        params = [
            (profile.model.high.slope, profile.model.high.intercept,
             profile.resource_demand)
            for profile in map(profiles.get, spec.graph.plan().names)
        ]
        merged = merge_graph(spec.graph, params)
        return distribute_targets(merged, spec.sla)

    targets = benchmark(body)
    assert len(targets) == 100


def test_service_targets_200_nodes(benchmark):
    spec, profiles = _random_service(200, seed=2)
    result = benchmark(compute_service_targets, spec, profiles)
    assert len(result.containers) == 200


def test_priority_scaling_social_network(benchmark):
    app = social_network()
    profiles = app.analytic_profiles()
    specs = app.with_workloads(
        {s.name: 20_000.0 for s in app.services}, sla=200.0
    )
    allocation = benchmark(scale_with_priorities, specs, profiles)
    assert allocation.priorities


def test_piecewise_fit_1440_samples(benchmark):
    rng = np.random.default_rng(3)
    loads = rng.uniform(1.0, 250.0, 1440)
    latencies = np.where(loads <= 100.0, 0.05 * loads + 5.0, loads - 90.0)
    latencies = latencies * rng.lognormal(0.0, 0.05, size=1440)
    fit = benchmark(fit_piecewise, loads, latencies)
    assert fit.model.high.slope > fit.model.low.slope

"""§6.5.2 — scaling overhead of Latency Target Computation.

Paper: the average overhead of Latency Target Computation is 15ms; for
the largest graph with 1000+ microservices it is 300ms — small against
container start-up times of seconds.

Measured here: wall-clock time of ``compute_service_targets`` on random
trees of 50 / 200 / 1000 microservices (this is the natural use of
pytest-benchmark's timing machinery, so the 1000-node case is the timed
benchmark body).
"""

import time

import numpy as np

from repro.core import compute_service_targets
from repro.experiments import format_table
from repro.workloads.alibaba import _random_profiles, _random_tree
from repro.core.model import ServiceSpec

from conftest import run_once


def _service_of_size(n, seed):
    rng = np.random.default_rng(seed)
    names = [f"ms-{i:04d}" for i in range(n)]
    graph = _random_tree(f"svc-{n}", names, rng)
    profiles = _random_profiles(names, rng)
    # Deep random trees accumulate a large latency floor; the SLA only
    # needs to be feasible — the timing, not the allocation, is measured.
    spec = ServiceSpec(f"svc-{n}", graph, workload=10_000.0, sla=5_000.0)
    return spec, profiles


def test_scalability_overhead(benchmark, report):
    rows = []
    for size in (50, 200, 1000):
        spec, profiles = _service_of_size(size, seed=size)
        start = time.perf_counter()
        compute_service_targets(spec, profiles)
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        rows.append({"graph_size": size, "ltc_time_ms": elapsed_ms})

    # The timed benchmark body: the paper's largest-graph case.
    spec, profiles = _service_of_size(1000, seed=1000)
    run_once(benchmark, lambda: compute_service_targets(spec, profiles))

    report(
        "scalability_overhead",
        format_table(
            rows,
            "§6.5.2 - Latency Target Computation overhead "
            "(paper: 15ms avg, 300ms for 1000+ nodes)",
        ),
    )

    by_size = {row["graph_size"]: row["ltc_time_ms"] for row in rows}
    # Well under a second even for 1000-microservice graphs; negligible
    # against multi-second container start-up (paper: 300ms).
    assert by_size[1000] < 1000.0
    # Cost grows with size but stays tractable (interpreter constant
    # factors make small-graph timings noisy, so no tight linearity bound).
    assert by_size[50] <= by_size[1000]

"""What one Erms allocation costs, in counts, on the control loop's population.

The population is the one the end-to-end ``control_loop`` workload
re-decides every period (60 Taobao services, seed 0), restricted to its
feasible services.  Each case runs with a cold targets memo and records:

* ``merges`` — calls of ``repro.core.merge.merge_graph`` (one per §5.3.1
  pass and per §5.3.2 priority pass of every service);
* ``sqrt`` — calls of ``math.sqrt`` made while the case runs, the unit of
  work of the Eq. 7–9 merge;
* ``alive`` — ``MergedGraph`` objects still reachable after the case and
  a ``gc.collect()``.

The pins live in ``tests/fixtures/allocator_counts.json``; a change to the
merge or the pass loop moves them before it moves a timing.
"""

import gc
import math

import pytest

from repro.core import (
    Cluster,
    ErmsController,
    ErmsScaler,
    InfeasibleSLAError,
    clear_targets_memo,
    compute_service_targets,
    merge,
)
from repro.workloads import generate_taobao
from tests.pinned import expected

#: ``benchmarks/e2e`` ``control_loop``'s population
SHAPE = dict(
    seed=0, n_services=60, mean_graph_size=30, shared_pool=120,
    workload_range=(100, 2000), with_rates=True,
)


def _population():
    population = generate_taobao(**SHAPE)
    feasible = []
    for spec in population.services:
        try:
            compute_service_targets(spec, population.profiles)
        except InfeasibleSLAError:
            continue
        feasible.append(spec)
    return population, feasible


def scale():
    population, specs = _population()
    return lambda: ErmsScaler().scale(specs, population.profiles)


def controller_period():
    population, specs = _population()
    controller = ErmsController(specs, Cluster.homogeneous(100), population.profiles)
    workloads = {spec.name: float(population.rates[spec.name](0.0)) for spec in specs}
    return lambda: controller.reconcile(workloads)


#: case -> a builder returning the call whose counts are pinned
CASES = {"scale": scale, "controller_period": controller_period}


def record(case):
    """``{"merges", "sqrt", "alive"}`` of one cold run of ``case``."""
    run = CASES[case]()
    clear_targets_memo()
    counts = {"merges": 0, "sqrt": 0}
    merge_graph, sqrt = merge.merge_graph, math.sqrt

    def counted_merge(*args, **kwargs):
        counts["merges"] += 1
        return merge_graph(*args, **kwargs)

    def counted_sqrt(x):
        counts["sqrt"] += 1
        return sqrt(x)

    merge.merge_graph, math.sqrt = counted_merge, counted_sqrt
    try:
        run()
    finally:
        merge.merge_graph, math.sqrt = merge_graph, sqrt
    gc.collect()
    counts["alive"] = sum(isinstance(o, merge.MergedGraph) for o in gc.get_objects())
    clear_targets_memo()
    return counts


@pytest.mark.parametrize("case", sorted(CASES))
def test_allocation_counts_pinned(case):
    assert record(case) == expected(__name__)[case]

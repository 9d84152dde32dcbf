"""GrandSLAm, Rhythm and Erms decide exactly what they did before two rewrites.

``tests/fixtures/baseline_equivalence.json`` was generated on the commit
before ``stats_from_profiles`` became one array program per service
(``PYTHONPATH=src python -m tests.pinned baseline_equivalence`` rewrites
it, keeping each case whose record :func:`matches` the fresh one).  That
commit evaluated every model 40 times in scalar Python, folded the graph
once per sweep index through ``DependencyGraph.end_to_end_latency`` and
called ``np.corrcoef`` per microservice.  Per case the fixture pins:

* ``float.hex`` of every microservice's ``mean`` and ``variance`` — the
  array sweep does the same multiply-then-add per element and the same
  row reductions, so these match bit for bit;
* every ``correlation`` — reproducible to 1e-12 only, because
  ``np.corrcoef`` summed its 2×40 product in BLAS order;
* for ``GrandSLAm()``, ``Rhythm()`` and their ``use_priority=True``
  variants: ``Allocation.containers`` and ``.priorities`` (identical)
  and ``.targets`` (1e-9 relative).

The ``erms`` entry of each case was generated the same way on the commit
before the allocator read one compiled graph (a ``MergedNode`` tree per
Eq. 5 pass, ``id(node)`` dictionaries, recursive merge and unmerge).  For
``ErmsScaler()`` and ``ErmsScaler(use_priority=False)`` it pins
``float.hex`` of every latency target, modified workload and merged
intercept, the §5.3.1 pass count, containers and priorities — all bit for
bit.  It is ``null`` for ``empty_stage``: the merge rejects that graph
(``tests/test_latency_targets.py``), only the baselines fold it.

Cases: three ``generate_taobao`` populations (one whose pool is so small
that most (service, microservice) pairs sit on a shared microservice),
the three DeathStarBench applications on analytic profiles, Hotel
Reservation on profiles fitted from the simulator, a graph with an empty
stage and one with ``calls_per_request != 1``.
"""

import functools

import pytest

from repro.baselines import GrandSLAm, Rhythm, stats_from_profiles
from repro.core import ErmsScaler, ServiceSpec, scale_with_priorities
from repro.experiments.harness import fit_profiles_from_simulation
from repro.graphs import CallNode, DependencyGraph, call
from repro.workloads import (
    generate_taobao,
    hotel_reservation,
    media_service,
    social_network,
)

from tests.helpers import make_profiles
from tests.pinned import expected

SCHEMES = {
    "grandslam": GrandSLAm,
    "grandslam+priority": lambda: GrandSLAm(use_priority=True),
    "rhythm": Rhythm,
    "rhythm+priority": lambda: Rhythm(use_priority=True),
}


#: Cases whose graph the Erms merge refuses (an empty stage).
ERMS_REJECTS = ("empty_stage",)


def _taobao(**shape):
    population = generate_taobao(**shape)
    return population.services, population.profiles


def _analytic(app):
    return app.services, app.analytic_profiles()


def _hotel_fitted():
    app = hotel_reservation()
    profiles = fit_profiles_from_simulation(
        app.simulated, sweep_points=8, duration_min=0.25, seed=3
    )
    return app.services, profiles


def _hand_built(root):
    graph = DependencyGraph("svc", root)
    profiles = make_profiles(
        (name, 1.0 + index, 2.0 + 0.5 * index)
        for index, name in enumerate(graph.microservices())
    )
    return [ServiceSpec("svc", graph, workload=9_000.0, sla=400.0)], profiles


CASES = {
    "taobao_seed0": lambda: _taobao(
        n_services=7, mean_graph_size=24, shared_pool=250, seed=0
    ),
    "taobao_seed1": lambda: _taobao(
        n_services=7, mean_graph_size=24, shared_pool=250, seed=1
    ),
    "taobao_mostly_shared": lambda: _taobao(
        n_services=6, mean_graph_size=10, shared_pool=16,
        shared_per_service=30, seed=2,
    ),
    "social_network": lambda: _analytic(social_network()),
    "media_service": lambda: _analytic(media_service()),
    "hotel_reservation": lambda: _analytic(hotel_reservation()),
    "hotel_fitted": _hotel_fitted,
    # B's first stage is empty: the fold adds 0 for it and moves on
    "empty_stage": lambda: _hand_built(
        call("A", stages=[[CallNode("B", stages=[[], [call("C")]]), call("D")],
                          [call("E")]])
    ),
    "fan_out": lambda: _hand_built(
        call("A", stages=[[call("B", calls_per_request=2.5,
                                stages=[[call("C", calls_per_request=0.4)]]),
                           call("D")]])
    ),
}


@functools.lru_cache(maxsize=None)  # both tests of a case read one record
def record(case):
    """Everything the fixture pins for one case, as JSON-ready values.

    Per-microservice lists follow ``graph.microservices()`` order, the
    container list follows ``microservices`` (sorted names).
    """
    specs, profiles = CASES[case]()
    stats = {}
    for spec in specs:
        per_ms = stats_from_profiles(spec, profiles)
        assert list(per_ms) == spec.graph.microservices()
        stats[spec.name] = [
            [s.mean.hex(), s.variance.hex(), s.correlation]
            for s in per_ms.values()
        ]
    microservices = sorted({n for s in specs for n in s.graph.microservices()})
    schemes = {}
    for name, make in SCHEMES.items():
        allocation = make().scale(specs, profiles)
        assert sorted(allocation.containers) == microservices
        schemes[name] = {
            "containers": [allocation.containers[n] for n in microservices],
            "priorities": allocation.priorities,
            "targets": {
                spec.name: [
                    allocation.targets[spec.name][n]
                    for n in spec.graph.microservices()
                ]
                for spec in specs
            },
        }
    erms = None if case in ERMS_REJECTS else _erms(specs, profiles, microservices)
    return {
        "microservices": microservices, "stats": stats, "schemes": schemes,
        "erms": erms,
    }


def _erms(specs, profiles, microservices):
    """What full Erms and its FCFS ablation decide, floats as ``float.hex``."""
    multiplexed = scale_with_priorities(specs, profiles)
    records = {}
    for use_priority, per_service in (
        (True, multiplexed.final), (False, multiplexed.initial)
    ):
        scaler = ErmsScaler(use_priority=use_priority)
        allocation = scaler.scale(specs, profiles)
        assert sorted(allocation.containers) == microservices
        services = {}
        for spec in specs:
            names = spec.graph.microservices()
            targets = allocation.targets[spec.name]
            workloads = allocation.modified_workloads[spec.name]
            assert list(targets) == list(workloads) == names
            services[spec.name] = {
                "targets": [targets[n].hex() for n in names],
                "workloads": [workloads[n].hex() for n in names],
                "merged_intercept": per_service[spec.name].merged_intercept.hex(),
                "passes": per_service[spec.name].passes,
            }
        records[scaler.name] = {
            "containers": [allocation.containers[n] for n in microservices],
            "priorities": allocation.priorities,
            "services": services,
        }
    return records


#: The tolerance of a float by the top-level key of the record it is in:
#: a correlation (``stats``) to 1e-12, a baseline's target (``schemes``)
#: to 1e-9 relative.  Every other value matches exactly.
TOLERANCES = {
    "stats": lambda old, new: abs(new - old) <= 1e-12,
    "schemes": lambda old, new: new == old or abs(new - old) <= 1e-9 * abs(old),
}


def matches(old, new, section=None):
    """Whether a fresh record ``new`` reproduces the pinned ``old``: the
    same keys in the same order, the same lengths, every value equal but
    for the floats of :data:`TOLERANCES` (``section``: the top-level key
    ``old`` sits under, when it is not a whole record)."""
    if isinstance(old, dict):
        return (
            isinstance(new, dict) and list(new) == list(old)
            and all(matches(old[k], new[k], section or k) for k in old)
        )
    if isinstance(old, list):
        return (
            isinstance(new, list) and len(new) == len(old)
            and all(matches(o, n, section) for o, n in zip(old, new))
        )
    if isinstance(old, float) and isinstance(new, float) and section in TOLERANCES:
        return TOLERANCES[section](old, new)
    return new == old


@pytest.mark.parametrize("case", sorted(CASES))
def test_statistics_match_the_scalar_sweep(case):
    want, have = expected(__name__)[case], record(case)
    assert matches(want["stats"], have["stats"], "stats")
    for service, rows in have["stats"].items():
        for index, row in enumerate(rows):
            assert 0.0 <= row[2] <= 1.0, f"{case}/{service}[{index}]: correlation"


@pytest.mark.parametrize("case", sorted(CASES))
def test_allocations_match_the_scalar_sweep(case):
    want, have = expected(__name__)[case], record(case)
    assert matches(want["microservices"], have["microservices"])
    assert matches(want["schemes"], have["schemes"], "schemes")


@pytest.mark.parametrize("case", sorted(set(CASES) - set(ERMS_REJECTS)))
def test_erms_allocations_match_the_tree_merge(case):
    want, have = expected(__name__)[case], record(case)
    assert matches(want["erms"], have["erms"])


def test_cases_cover_what_they_claim():
    """Sharing, priorities and the odd graph shapes are really exercised."""
    pinned = expected(__name__)
    crowded = pinned["taobao_mostly_shared"]
    ranked = crowded["schemes"]["grandslam+priority"]["priorities"].values()
    pairs = sum(len(rows) for rows in crowded["stats"].values())
    assert sum(len(ranks) for ranks in ranked) > pairs / 2
    for case in ("taobao_seed0", "taobao_seed1", "social_network"):
        assert pinned[case]["schemes"]["rhythm+priority"]["priorities"], case
        assert not pinned[case]["schemes"]["rhythm"]["priorities"], case
    correlations = [
        row[2] for case in pinned.values()
        for rows in case["stats"].values() for row in rows
    ]
    assert len(correlations) > 400
    assert min(correlations) < 0.999 < max(correlations)
    # Erms: interval switching, priorities and overridden workloads all occur
    erms = [case["erms"] for case in pinned.values() if case["erms"]]
    assert [name for name, case in pinned.items() if not case["erms"]] == list(
        ERMS_REJECTS
    )
    passes = {
        service["passes"]
        for case in erms for scheme in case.values()
        for service in scheme["services"].values()
    }
    assert {1, 2} <= passes
    assert any(case["erms"]["priorities"] for case in erms)
    assert all(not case["erms-fcfs"]["priorities"] for case in erms)
    assert any(
        full["workloads"] != fcfs["workloads"]
        for case in erms
        for full, fcfs in zip(
            case["erms"]["services"].values(), case["erms-fcfs"]["services"].values()
        )
    )


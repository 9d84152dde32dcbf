"""GrandSLAm, Rhythm and Erms decide exactly what they did before two rewrites.

``tests/fixtures/baseline_equivalence.json`` was generated on the commit
before ``stats_from_profiles`` became one array program per service
(``PYTHONPATH=src python -m tests.test_baseline_equivalence`` rewrites it
from whatever ``repro`` is importable).  That commit evaluated every
model 40 times in scalar Python, folded the graph once per sweep index
through ``DependencyGraph.end_to_end_latency`` and called ``np.corrcoef``
per microservice.  Per case the fixture pins:

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
import json
from pathlib import Path

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

FIXTURE = Path(__file__).parent / "fixtures" / "baseline_equivalence.json"

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


def _expected():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("case", sorted(CASES))
def test_statistics_match_the_scalar_sweep(case):
    want, have = _expected()[case], record(case)
    assert list(have["stats"]) == list(want["stats"])
    for service, rows in want["stats"].items():
        got = have["stats"][service]
        assert len(got) == len(rows)
        for index, (old, new) in enumerate(zip(rows, got)):
            where = f"{case}/{service}[{index}]"
            assert new[0] == old[0], f"{where}: mean"
            assert new[1] == old[1], f"{where}: variance"
            assert abs(new[2] - old[2]) <= 1e-12, f"{where}: correlation"
            assert 0.0 <= new[2] <= 1.0, f"{where}: correlation range"


@pytest.mark.parametrize("case", sorted(CASES))
def test_allocations_match_the_scalar_sweep(case):
    want, have = _expected()[case], record(case)
    assert have["microservices"] == want["microservices"]
    for scheme, old in want["schemes"].items():
        new = have["schemes"][scheme]
        assert new["containers"] == old["containers"], f"{case}/{scheme}"
        assert new["priorities"] == old["priorities"], f"{case}/{scheme}"
        assert list(new["targets"]) == list(old["targets"])
        for service, targets in old["targets"].items():
            assert new["targets"][service] == pytest.approx(
                targets, rel=1e-9, abs=0.0
            ), f"{case}/{scheme}/{service}"


@pytest.mark.parametrize("case", sorted(set(CASES) - set(ERMS_REJECTS)))
def test_erms_allocations_match_the_tree_merge(case):
    assert record(case)["erms"] == _expected()[case]["erms"]


def test_cases_cover_what_they_claim():
    """Sharing, priorities and the odd graph shapes are really exercised."""
    expected = _expected()
    crowded = expected["taobao_mostly_shared"]
    ranked = crowded["schemes"]["grandslam+priority"]["priorities"].values()
    pairs = sum(len(rows) for rows in crowded["stats"].values())
    assert sum(len(ranks) for ranks in ranked) > pairs / 2
    for case in ("taobao_seed0", "taobao_seed1", "social_network"):
        assert expected[case]["schemes"]["rhythm+priority"]["priorities"], case
        assert not expected[case]["schemes"]["rhythm"]["priorities"], case
    correlations = [
        row[2] for case in expected.values()
        for rows in case["stats"].values() for row in rows
    ]
    assert len(correlations) > 400
    assert min(correlations) < 0.999 < max(correlations)
    # Erms: interval switching, priorities and overridden workloads all occur
    erms = [case["erms"] for case in expected.values() if case["erms"]]
    assert [name for name, case in expected.items() if not case["erms"]] == list(
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


if __name__ == "__main__":  # regenerate the fixture from the importable repro
    FIXTURE.parent.mkdir(exist_ok=True)
    lines = [f"{json.dumps(c)}: {json.dumps(record(c))}" for c in CASES]
    FIXTURE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {FIXTURE} ({FIXTURE.stat().st_size} bytes, {len(lines)} cases)")

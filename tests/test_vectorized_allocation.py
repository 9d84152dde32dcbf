"""Property tests: the cached allocation core is bit-identical.

The optimizations under test (cross-cell targets memo, incremental
provisioner index) both claim *exact* equality with the reference path,
not approximate equality.  Each test drives randomized inputs (graphs,
segments, place/release sequences) through both paths and compares with
``==`` on floats.  The merge that starts from the previous §5.3.1 pass is
held equal to one from scratch in ``tests/test_properties.py``.
"""

import random

import pytest

from repro.core import (
    ContainerSpec,
    ErmsScaler,
    InfeasibleSLAError,
    InterferenceAwareProvisioner,
    KubernetesDefaultProvisioner,
    LatencySegment,
    MicroserviceProfile,
    PiecewiseLatencyModel,
    ServiceSpec,
    clear_targets_memo,
    compute_service_targets,
    set_targets_memo,
    targets_memo_stats,
)
from repro.core.provisioning import Cluster
from repro.graphs import DependencyGraph, call


@pytest.fixture(autouse=True)
def _clean_caches():
    """Every test starts and ends with cold caches and the memo enabled."""
    set_targets_memo(True)
    clear_targets_memo()
    yield
    set_targets_memo(True)
    clear_targets_memo()


def random_graph(rng: random.Random, max_depth: int = 3) -> DependencyGraph:
    """A random call tree; ~30% of nodes reuse an earlier microservice name
    (shared microservices at multiple call sites exercise the per-name
    minimum fold of Eq. 5's reverse pass)."""
    counter = [0]
    names = []

    def new_name():
        if names and rng.random() < 0.3:
            return rng.choice(names)
        name = f"ms{counter[0]}"
        counter[0] += 1
        names.append(name)
        return name

    def build(depth):
        n_stages = rng.randint(0, 2) if depth < max_depth else 0
        stages = [
            [build(depth + 1) for _ in range(rng.randint(1, 2))]
            for _ in range(n_stages)
        ]
        return call(
            new_name(),
            stages=stages,
            calls_per_request=rng.choice([1.0, 1.0, 1.0, 2.0]),
        )

    return DependencyGraph(service="rand", root=build(0))


def random_profiles(rng: random.Random, graph: DependencyGraph):
    """Two-segment profiles with independent low/high intercepts, so
    §5.3.1 switching can change the merged latency floor between passes."""
    profiles = {}
    for name in graph.microservices():
        slope = rng.uniform(0.3, 4.0)
        intercept = rng.uniform(0.5, 4.0)
        profiles[name] = MicroserviceProfile(
            name=name,
            model=PiecewiseLatencyModel(
                low=LatencySegment(
                    slope * rng.uniform(0.15, 0.8),
                    intercept * rng.uniform(0.8, 1.3),
                ),
                high=LatencySegment(slope, intercept),
                cutoff=rng.uniform(20.0, 80.0),
            ),
            resource_demand=rng.uniform(0.5, 2.0),
            container=ContainerSpec(cpu=0.1, memory_mb=200.0),
        )
    return profiles


def assert_targets_equal(left, right):
    """Field-for-field exact equality of two ServiceTargets."""
    assert left.targets == right.targets
    assert left.containers == right.containers
    assert left.segments == right.segments
    assert left.workloads == right.workloads
    assert left.merged_intercept == right.merged_intercept
    assert left.passes == right.passes


class TestTargetsMemo:
    def test_memoized_matches_fresh(self):
        for seed in range(8):
            rng = random.Random(200 + seed)
            graph = random_graph(rng)
            profiles = random_profiles(rng, graph)
            specs = [
                ServiceSpec("rand", graph, workload=w, sla=90.0)
                for w in (500.0, 2_000.0, 8_000.0, 32_000.0)
            ]
            set_targets_memo(False)
            fresh = [compute_service_targets(s, profiles) for s in specs]
            set_targets_memo(True)
            clear_targets_memo()
            warm = [compute_service_targets(s, profiles) for s in specs]
            again = [compute_service_targets(s, profiles) for s in specs]
            stats = targets_memo_stats()
            # Cells differ only in workload -> one miss, the rest hits.
            assert stats["misses"] == 1
            assert stats["hits"] == 2 * len(specs) - 1
            for f, w, a in zip(fresh, warm, again):
                assert_targets_equal(f, w)
                assert_targets_equal(f, a)

    def test_memoized_infeasible_raises_like_fresh(self):
        rng = random.Random(303)
        graph = random_graph(rng)
        profiles = random_profiles(rng, graph)
        spec = ServiceSpec("rand", graph, workload=1_000.0, sla=1e-6)
        for _ in range(2):  # second call hits the memoized infeasible entry
            with pytest.raises(InfeasibleSLAError, match="latency floor"):
                compute_service_targets(spec, profiles)

    def test_memo_distinguishes_override_ratios(self):
        """§5.3.2 overrides change the slope scaling; the memo must not
        collapse them with the no-override cell."""
        rng = random.Random(404)
        graph = random_graph(rng)
        profiles = random_profiles(rng, graph)
        name = graph.microservices()[0]
        spec = ServiceSpec("rand", graph, workload=4_000.0, sla=150.0)
        own = spec.microservice_workloads()[name]
        plain = compute_service_targets(spec, profiles)
        overridden = compute_service_targets(
            spec, profiles, workload_overrides={name: own * 3.0}
        )
        set_targets_memo(False)
        plain_fresh = compute_service_targets(spec, profiles)
        overridden_fresh = compute_service_targets(
            spec, profiles, workload_overrides={name: own * 3.0}
        )
        assert_targets_equal(plain, plain_fresh)
        assert_targets_equal(overridden, overridden_fresh)
        assert overridden.targets != plain.targets or (
            overridden.containers != plain.containers
        )

    def test_only_unit_override_ratios_are_memoized(self):
        """A call whose overrides scale a slope is computed fresh and counts
        as neither a hit nor a miss; one whose overrides scale none shares
        the entry of the call without overrides."""
        rng = random.Random(505)
        graph = random_graph(rng)
        profiles = random_profiles(rng, graph)
        name = graph.microservices()[0]
        spec = ServiceSpec("rand", graph, workload=4_000.0, sla=150.0)
        own = spec.microservice_workloads()[name]
        clear_targets_memo()
        for _ in range(2):
            compute_service_targets(
                spec, profiles, workload_overrides={name: own * 3.0}
            )
        assert targets_memo_stats() == {"hits": 0, "misses": 0, "entries": 0}
        compute_service_targets(spec, profiles, workload_overrides={name: own})
        compute_service_targets(spec, profiles)
        assert targets_memo_stats() == {"hits": 1, "misses": 1, "entries": 1}


def _apply_with_fresh_choices(provisioner, cluster, desired):
    """Mirror ``Provisioner.apply`` but re-choose every host with a fresh
    full recompute (``index=None``), mutating hosts directly — the scalar
    reference the incremental ClusterIndex must match action for action."""
    actions = []
    current = cluster.placement()
    names = sorted(set(desired) | set(current))
    for name in names:
        if name not in cluster.sizes:
            cluster.sizes[name] = ContainerSpec()
    for name in names:
        delta = desired.get(name, 0) - current.get(name, 0)
        for _ in range(delta):
            host = provisioner.choose_placement_host(cluster, name)
            host.place(name)
            actions.append((host.host_id, name, +1))
        for _ in range(-delta):
            host = provisioner.choose_release_host(cluster, name)
            host.release(name)
            actions.append((host.host_id, name, -1))
    return actions


class TestIncrementalProvisioning:
    @pytest.mark.parametrize(
        "make_provisioner",
        [
            lambda rng: InterferenceAwareProvisioner(
                groups=rng.randint(1, 3)
            ),
            lambda rng: KubernetesDefaultProvisioner(),
        ],
        ids=["interference-aware", "k8s-default"],
    )
    def test_indexed_apply_matches_full_recompute(self, make_provisioner):
        for seed in range(10):
            rng = random.Random(seed)
            n_hosts = rng.randint(1, 10)
            names = [f"m{i}" for i in range(rng.randint(1, 4))]

            def build_cluster():
                cluster = Cluster.homogeneous(n_hosts)
                setup = random.Random(seed * 7 + 1)
                for host in cluster.hosts:
                    host.background_cpu = setup.uniform(0.0, 8.0)
                    host.background_memory_mb = setup.uniform(0.0, 16_000.0)
                for name in names:
                    cluster.sizes[name] = ContainerSpec(
                        cpu=setup.uniform(0.1, 1.0),
                        memory_mb=setup.uniform(100.0, 2_000.0),
                    )
                return cluster

            indexed = build_cluster()
            reference = build_cluster()
            provisioner = make_provisioner(rng)
            for _ in range(5):  # scale up AND down across steps
                desired = {name: rng.randint(0, 12) for name in names}
                plan = provisioner.apply(indexed, desired)
                expected = _apply_with_fresh_choices(
                    provisioner, reference, desired
                )
                assert [
                    (a.host_id, a.microservice, a.delta)
                    for a in plan.actions
                ] == expected
            assert [h.containers for h in indexed.hosts] == [
                h.containers for h in reference.hosts
            ]


class TestSweepParity:
    def test_static_sweep_serial_matches_pool_parallel(self):
        from repro.experiments import run_static_sweep
        from repro.experiments.parallel import WorkerPool
        from repro.workloads import social_network

        app = social_network()
        grid = dict(
            workloads=[4_000.0, 16_000.0],
            slas=[250.0],
            simulate=True,
            duration_min=0.3,
            warmup_min=0.1,
            seed=3,
        )
        serial = run_static_sweep(app, [ErmsScaler()], workers=1, **grid)
        with WorkerPool(2) as pool:
            parallel = run_static_sweep(
                app, [ErmsScaler()], workers=2, pool=pool, **grid
            )
        assert serial.rows == parallel.rows

"""Cross-module property-based tests of system invariants.

These pin down behaviours the unit tests only sample:

* the scaling pipeline always produces allocations that meet the SLA
  under its own model, for random graphs/profiles/workloads;
* the array graph fold agrees with the scalar one on every column, and
  both with a recursive walk of the call tree;
* the flat merge and Eq. 5 unmerge over a compiled graph equal a recursive
  fold of the two-node merge rules, bit for bit;
* `best_effort_containers` is monotone (tighter targets or more workload
  never mean fewer containers) and regime-consistent;
* the Eqs. 13–14 running sum equals the per-service re-summation it
  replaced, bit for bit whenever a rank map iterates in rank order;
* a host's usage is its background load plus the one request sum;
* the simulator conserves requests and respects latency lower bounds,
  and its per-minute call counts count its own-latency minute column;
* a one-station run replayed as the Kiefer–Wolfowitz recursion leaves the
  bytes the event loop leaves, from idle to four times capacity;
* the columnar `MetricsStore` joins the same profiling windows as a scan
  of one list of observations, and reads only the microservice asked for;
* a `SpanTable` read as one forest gives the own latencies, critical paths
  and run analysis of the same traces taken one `TraceRecord` at a time;
* every reader of a call graph — validation, depth, critical paths, the
  row and span writers, graph extraction, the variant merge, the
  simulator's call plans — gives, as a loop over `GraphPlan`, what the
  recursive walk of the tree it replaced gave, field for field;
* graph clustering always partitions variants and preserves weight mass.
"""

import copy
import itertools
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import (
    LatencySegment,
    MicroserviceProfile,
    PiecewiseLatencyModel,
    ServiceSpec,
    VirtualParams,
    compute_service_targets,
    distribute_targets,
    merge_graph,
    parallel_merge,
    predicted_end_to_end,
    sequential_merge,
)
from repro.core import ContainerSpec, modified_workloads
from repro.core.model import best_effort_containers
from repro.core.provisioning import Host
from repro.graphs import CallNode, DependencyGraph, call
from repro.telemetry.analysis import AnalysisOptions, analyze_run, extract_critical_path
from repro.tracing.metrics import LatencyObservation, MetricsStore, ProfilingWindow
from repro.tracing.spans import SpanTable, TraceRecord

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------


@st.composite
def piecewise_models(draw):
    base = draw(st.floats(min_value=0.5, max_value=20.0))
    cutoff = draw(st.floats(min_value=50.0, max_value=5_000.0))
    low_slope = base * draw(st.floats(min_value=0.1, max_value=1.0)) / cutoff
    steepness = draw(st.floats(min_value=2.0, max_value=15.0))
    high_slope = low_slope * steepness
    knee = low_slope * cutoff + 2.0 * base  # continuous at the cutoff
    return PiecewiseLatencyModel(
        low=LatencySegment(low_slope, 2.0 * base),
        high=LatencySegment(high_slope, knee - high_slope * cutoff),
        cutoff=cutoff,
        max_load=1.3 * cutoff,
    )


@st.composite
def random_services(draw, max_nodes=8):
    """A random call tree plus consistent profiles."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    names = [f"m{i}" for i in range(n)]
    nodes = [CallNode(names[0])]
    for name in names[1:]:
        parent = nodes[draw(st.integers(0, len(nodes) - 1))]
        child = CallNode(name)
        if parent.stages and draw(st.booleans()):
            parent.stages[-1].append(child)
        else:
            parent.stages.append([child])
        nodes.append(child)
    graph = DependencyGraph("svc", nodes[0])
    profiles = {
        name: MicroserviceProfile(
            name=name, model=draw(piecewise_models()), resource_demand=0.1
        )
        for name in names
    }
    workload = draw(st.floats(min_value=100.0, max_value=100_000.0))
    return graph, profiles, workload


# ----------------------------------------------------------------------
# Scaling pipeline invariants
# ----------------------------------------------------------------------


class TestScalingInvariants:
    @given(random_services(), st.floats(min_value=1.2, max_value=4.0))
    @settings(max_examples=60, deadline=None)
    def test_allocation_meets_sla_under_own_model(self, service, slack):
        graph, profiles, workload = service
        # Choose an SLA comfortably above the graph's latency floor.
        floor = graph.end_to_end_latency(
            {n: profiles[n].model.low.intercept for n in graph.microservices()}
        )
        spec = ServiceSpec("svc", graph, workload=workload, sla=floor * slack + 5.0)
        result = compute_service_targets(spec, profiles)
        e2e = predicted_end_to_end(spec, profiles, result.containers)
        assert e2e <= spec.sla * 1.0 + 1e-6

    @given(random_services())
    @settings(max_examples=40, deadline=None)
    def test_targets_cover_every_microservice(self, service):
        graph, profiles, workload = service
        floor = graph.end_to_end_latency(
            {n: profiles[n].model.low.intercept for n in graph.microservices()}
        )
        spec = ServiceSpec("svc", graph, workload=workload, sla=floor * 2 + 10.0)
        result = compute_service_targets(spec, profiles)
        assert set(result.targets) == set(graph.microservices())
        assert all(count >= 1 for count in result.containers.values())

    @given(random_services())
    @settings(max_examples=40, deadline=None)
    def test_more_workload_never_fewer_containers(self, service):
        graph, profiles, workload = service
        floor = graph.end_to_end_latency(
            {n: profiles[n].model.low.intercept for n in graph.microservices()}
        )
        sla = floor * 2 + 10.0
        light = compute_service_targets(
            ServiceSpec("svc", graph, workload=workload, sla=sla), profiles
        )
        heavy = compute_service_targets(
            ServiceSpec("svc", graph, workload=workload * 2, sla=sla), profiles
        )
        assert sum(heavy.containers.values()) >= sum(light.containers.values())


class TestGraphFoldInvariants:
    @given(random_services(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_array_fold_equals_scalar_fold_column_by_column(self, service, data):
        """``end_to_end_series`` is ``end_to_end_latency`` per column, to the bit."""
        root = service[0].root
        for node in service[0].nodes():
            if data.draw(st.booleans()):  # empty stages fold as + 0.0
                node.stages.insert(
                    data.draw(st.integers(0, len(node.stages))), []
                )
        graph = DependencyGraph("svc", root)  # compiled after the last edit
        names = graph.microservices()
        points = data.draw(st.integers(min_value=1, max_value=5))
        # + 0.0 turns -0.0 into 0.0: max() and np.maximum may pick either zero
        value = st.floats(min_value=-1e6, max_value=1e6).map(lambda v: v + 0.0)
        row = st.lists(value, min_size=points, max_size=points)
        matrix = np.array(
            data.draw(st.lists(row, min_size=len(names), max_size=len(names)))
        )
        series = graph.end_to_end_series(dict(zip(names, matrix)))
        assert series.shape == (points,)
        for column in range(points):
            latencies = dict(zip(names, matrix[:, column].tolist()))
            scalar = graph.end_to_end_latency(latencies)
            assert float(series[column]).hex() == scalar.hex()

            def response(node):
                total = latencies[node.microservice]
                for stage in node.stages:
                    total += max((response(child) for child in stage), default=0.0)
                return total

            assert scalar.hex() == response(root).hex()


# ----------------------------------------------------------------------
# Flat merge == recursive fold of the two-node rules
# ----------------------------------------------------------------------


@st.composite
def shared_call_trees(draw, max_sites=10):
    """A call tree whose sites draw from a small pool of names (so a
    microservice sits at several call sites) with fan-out factors != 1."""
    sites = draw(st.integers(min_value=1, max_value=max_sites))
    pool = [f"m{i}" for i in range(max(1, sites // 2))]
    fanout = st.sampled_from([1.0, 0.4, 2.5, 3.0])
    nodes = [CallNode(pool[0], calls_per_request=draw(fanout))]
    for _ in range(sites - 1):
        parent = nodes[draw(st.integers(0, len(nodes) - 1))]
        child = CallNode(draw(st.sampled_from(pool)), calls_per_request=draw(fanout))
        if parent.stages and draw(st.booleans()):
            parent.stages[-1].append(child)
        else:
            parent.stages.append([child])
        nodes.append(child)
    positive = st.floats(min_value=0.01, max_value=100.0)
    params = {
        name: (draw(positive), draw(st.floats(min_value=0.0, max_value=50.0)),
               draw(positive))
        for name in pool
    }
    return DependencyGraph("svc", nodes[0]), params


def tree_merge(node, params, factor=1.0):
    """Alg. 1 as a recursion: ``[(VirtualParams, node | merged children)]``,
    the site itself first, then one parallel-merged piece per stage."""
    factor *= node.calls_per_request
    slope, intercept, resource = params[node.microservice]
    pieces = [(VirtualParams(slope * factor, intercept, resource), node)]
    for stage in node.stages:
        children = [tree_merge(child, params, factor) for child in stage]
        merged = children[0][0]
        for other, _ in children[1:]:
            merged = parallel_merge(merged, other)
        pieces.append((merged, children))
    total = pieces[0][0]
    for piece, _ in pieces[1:]:
        total = sequential_merge(total, piece)
    return total, pieces


def tree_assign(merged, target, targets):
    """Fig. 8 as a recursion; keeps each microservice's smallest target."""
    _, pieces = merged
    (own, node), stages = pieces[0], pieces[1:]
    if stages:
        budget = target - sum(piece.intercept for piece, _ in pieces)
        total_key = sum(piece.key for piece, _ in pieces)
        for piece, children in stages:
            for child in children:
                tree_assign(
                    child, piece.key / total_key * budget + piece.intercept, targets
                )
        target = own.key / total_key * budget + own.intercept
    name = node.microservice
    if name not in targets or target < targets[name]:
        targets[name] = target


class TestFlatMergeEqualsTreeMerge:
    @given(shared_call_trees(), st.floats(min_value=0.5, max_value=500.0))
    @settings(max_examples=150, deadline=None)
    def test_merge_and_distribute_by_float_hex(self, tree, slack):
        graph, params = tree
        names = graph.plan().names
        merged = merge_graph(graph, [params[name] for name in names])
        reference = tree_merge(graph.root, params)
        assert (merged.slope.hex(), merged.intercept.hex(), merged.resource.hex()) == (
            reference[0].slope.hex(),
            reference[0].intercept.hex(),
            reference[0].resource.hex(),
        )
        for sla in (merged.intercept + slack, merged.intercept + 3.0 * slack):
            expected = {}
            tree_assign(reference, sla, expected)
            flat = distribute_targets(merged, sla)
            assert set(expected) == set(names)
            assert [t.hex() for t in flat] == [expected[n].hex() for n in names]


class TestBestEffortInvariants:
    @given(
        piecewise_models(),
        st.floats(min_value=1.0, max_value=100_000.0),
        st.floats(min_value=0.1, max_value=500.0),
    )
    @settings(max_examples=150)
    def test_result_is_positive(self, model, workload, target):
        assert best_effort_containers(model, workload, target) >= 1

    @given(
        piecewise_models(),
        st.floats(min_value=1.0, max_value=100_000.0),
        st.floats(min_value=0.1, max_value=500.0),
    )
    @settings(max_examples=150)
    def test_tighter_target_never_fewer_containers(self, model, workload, target):
        looser = best_effort_containers(model, workload, target * 1.5)
        tighter = best_effort_containers(model, workload, target)
        assert tighter >= looser

    @given(
        piecewise_models(),
        st.floats(min_value=1.0, max_value=50_000.0),
        st.floats(min_value=0.1, max_value=500.0),
    )
    @settings(max_examples=150)
    def test_more_workload_never_fewer_containers(self, model, workload, target):
        light = best_effort_containers(model, workload, target)
        heavy = best_effort_containers(model, workload * 2.0, target)
        assert heavy >= light

    @given(piecewise_models(), st.floats(min_value=1.0, max_value=50_000.0))
    @settings(max_examples=100)
    def test_achievable_targets_are_met(self, model, workload):
        """For targets above the knee, the provisioned latency meets them."""
        target = model.latency_at_cutoff() * 1.5
        count = best_effort_containers(model, workload, target)
        load = workload / count
        assert model.latency(load) <= target + 1e-6

    @given(piecewise_models(), st.floats(min_value=1.0, max_value=50_000.0))
    @settings(max_examples=100)
    def test_max_load_respected(self, model, workload):
        target = model.latency_at_cutoff() * 10.0
        count = best_effort_containers(model, workload, target)
        assert workload / count <= model.max_load + 1e-6


# ----------------------------------------------------------------------
# Eqs. 13–14: one running sum per shared microservice
# ----------------------------------------------------------------------
POOL = ["P", "Q", "R"]


def quadratic_reference(specs, priorities):
    """``modified_workloads`` as it was: every service re-sums the map.

    An unknown service is skipped (the original raised ``KeyError`` on it).
    """
    demands = {spec.name: spec.microservice_workloads() for spec in specs}
    result = {spec.name: {} for spec in specs}
    for ms_name, ranks in priorities.items():
        for service, rank in ranks.items():
            total = 0.0
            for other, other_rank in ranks.items():
                if other_rank <= rank and other in demands:
                    total += demands[other].get(ms_name, 0.0)
            if service in demands:
                result[service][ms_name] = total
    return result


@st.composite
def ranked_populations(draw):
    """Services over a small shared pool, and a rank map per pool member
    naming any subset of them (so some ranked services never call it) plus,
    sometimes, a service nobody declared — ranks with ties and gaps, in any
    iteration order."""
    count = draw(st.integers(min_value=1, max_value=7))
    specs = []
    for i in range(count):
        used = draw(st.lists(st.sampled_from(POOL), unique=True, max_size=3))
        leaves = [
            call(name, calls_per_request=draw(st.sampled_from([1.0, 0.3, 2.5])))
            for name in used
        ]
        graph = DependencyGraph(f"s{i}", call(f"own{i}", stages=[leaves] if leaves else []))
        workload = draw(st.floats(min_value=0.1, max_value=1e6))
        specs.append(ServiceSpec(f"s{i}", graph, workload=workload, sla=100.0))
    names = [spec.name for spec in specs] + ["ghost"]
    priorities = {}
    for ms_name in draw(st.lists(st.sampled_from(POOL), unique=True)):
        ranked = draw(st.lists(st.sampled_from(names), unique=True))
        ranks = {svc: draw(st.integers(min_value=0, max_value=9)) for svc in ranked}
        if draw(st.booleans()):
            ranks = dict(sorted(ranks.items(), key=lambda item: item[1]))
        priorities[ms_name] = ranks
    return specs, priorities


class TestModifiedWorkloadsRunningSum:
    @given(ranked_populations())
    @settings(max_examples=200, deadline=None)
    def test_equals_the_quadratic_reference(self, population):
        specs, priorities = population
        got = modified_workloads(specs, priorities)
        expected = quadratic_reference(specs, priorities)
        assert {svc: set(loads) for svc, loads in got.items()} == {
            svc: set(loads) for svc, loads in expected.items()
        }
        for ms_name, ranks in priorities.items():
            in_rank_order = list(ranks.values()) == sorted(ranks.values())
            for service in ranks:
                if service == "ghost":
                    continue
                mine, reference = got[service][ms_name], expected[service][ms_name]
                if in_rank_order:
                    assert mine.hex() == reference.hex()
                else:
                    assert math.isclose(mine, reference, rel_tol=1e-12)


# ----------------------------------------------------------------------
# Host usage: background + the one request sum
# ----------------------------------------------------------------------
class TestHostUsage:
    @given(
        st.dictionaries(
            st.sampled_from(list("abcdefgh")),
            st.tuples(
                st.integers(min_value=1, max_value=400),
                st.floats(min_value=0.05, max_value=16.0),
                st.floats(min_value=16.0, max_value=32_000.0),
            ),
            max_size=8,
        ),
        st.floats(min_value=0.0, max_value=32.0),
        st.floats(min_value=0.0, max_value=64_000.0),
    )
    @settings(max_examples=200)
    def test_used_is_background_plus_requested(self, placed, cpu, memory):
        sizes = {
            name: ContainerSpec(cpu=spec_cpu, memory_mb=spec_memory)
            for name, (_, spec_cpu, spec_memory) in placed.items()
        }
        host = Host(
            "h",
            background_cpu=cpu,
            background_memory_mb=memory,
            containers={name: count for name, (count, _, _) in placed.items()},
        )
        requested_cpu, requested_memory = host.requested(sizes)
        assert host.cpu_used(sizes).hex() == (cpu + requested_cpu).hex()
        assert host.memory_used(sizes).hex() == (memory + requested_memory).hex()
        # ... and the request sum is the plain left-to-right one
        plain_cpu = plain_memory = 0
        for name, count in host.containers.items():
            plain_cpu = plain_cpu + sizes[name].cpu * count
            plain_memory = plain_memory + sizes[name].memory_mb * count
        assert (requested_cpu, requested_memory) == (plain_cpu, plain_memory)
        assert host.cpu_utilization(sizes) == host.cpu_used(sizes) / host.cpu_capacity


class TestSimulatorInvariants:
    @given(
        st.floats(min_value=500.0, max_value=20_000.0),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=15, deadline=None)
    def test_conservation_and_latency_floor(self, rate, containers, seed):
        from repro.graphs import call
        from repro.simulator import (
            ClusterSimulator,
            SimulatedMicroservice,
            SimulationConfig,
        )

        spec = ServiceSpec("svc", DependencyGraph("svc", call("B")), 0.0, 1e9)
        sim = ClusterSimulator(
            [spec],
            {"B": SimulatedMicroservice("B", base_service_ms=4.0, threads=2)},
            containers={"B": containers},
            rates={"svc": rate},
            config=SimulationConfig(duration_min=0.5, warmup_min=0.0, seed=seed),
        )
        result = sim.run()
        # Drain mode: everything generated completes.
        assert result.completed["svc"] == result.generated["svc"]
        latencies = result.latencies("svc")
        if len(latencies):
            # Latency is never negative and includes some processing.
            assert float(latencies.min()) >= 0.0

    @given(random_services(), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_calls_per_minute_counts_the_minute_column(self, service, seed):
        """Warm-up, steady and drain minutes (``slow`` is ten times
        overloaded, so its calls finish long after arrivals stop), and a
        microservice no call reaches."""
        from collections import Counter

        from repro.simulator import (
            ClusterSimulator,
            SimulatedMicroservice,
            SimulationConfig,
        )

        graph, _, _ = service
        simulated = {
            name: SimulatedMicroservice(name, base_service_ms=2.0, threads=4)
            for name in graph.microservices()
        }
        simulated["slow"] = SimulatedMicroservice("slow", 20_000.0, threads=1)
        simulated["idle"] = SimulatedMicroservice("idle")
        specs = [ServiceSpec("svc", graph, 0.0, 1e9)] + [
            ServiceSpec(name, DependencyGraph(name, call(name)), 0.0, 1e9)
            for name in ("slow", "idle")
        ]
        result = ClusterSimulator(
            specs,
            simulated,
            containers={},
            rates={"svc": 600.0, "slow": 30.0, "idle": 0.0},
            config=SimulationConfig(duration_min=1.0, warmup_min=0.25, seed=seed),
        ).run()
        calls = result.calls_per_minute
        assert calls == {
            name: dict(Counter(int(minute) for minute, _ in samples))
            for name, samples in result.own_latency.items()
        }
        assert sum(calls["m0"].values()) == result.completed["svc"] > 0
        assert max(calls["slow"]) > result.duration_min
        assert calls["idle"] == {}


class TestStationRecursion:
    """``ClusterSimulator.run`` on one FCFS station against the event loop.

    ``_run_events`` is the loop half of ``run()``: what every run took
    before the station path, and what any other run still takes.
    """

    @given(
        threads=st.integers(min_value=1, max_value=8),
        base_ms=st.floats(min_value=0.2, max_value=5.0),
        multiplier=st.floats(min_value=0.5, max_value=3.0),
        load=st.floats(min_value=0.02, max_value=4.0),  # × the station's capacity
        expected=st.floats(min_value=0.05, max_value=6_000.0),  # arrivals
        warmup=st.floats(min_value=0.0, max_value=0.9),  # × the duration
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    # 4× capacity for 6 000 arrivals: ≈ 4 500 calls queued, so gap blocks
    # are drawn ahead of service blocks; 0.05 expected arrivals: none.
    @example(threads=1, base_ms=0.5, multiplier=1.0, load=4.0, expected=6_000.0,
             warmup=0.1, seed=0)
    @example(threads=8, base_ms=2.0, multiplier=1.7, load=2.5, expected=6_000.0,
             warmup=0.0, seed=1)
    @example(threads=4, base_ms=2.0, multiplier=1.0, load=0.5, expected=0.05,
             warmup=0.5, seed=2)
    @settings(max_examples=60, deadline=None)
    def test_recursion_leaves_what_the_event_loop_leaves(
        self, threads, base_ms, multiplier, load, expected, warmup, seed
    ):
        from repro.simulator import (
            ClusterSimulator,
            SimulatedMicroservice,
            SimulationConfig,
        )

        rate = load * threads / (base_ms * multiplier) * 60_000.0  # req/min
        duration_min = expected / rate
        spec = ServiceSpec("probe", DependencyGraph("probe", call("M")), 0.0, 1e9)

        def simulator():
            return ClusterSimulator(
                [spec],
                {"M": SimulatedMicroservice("M", base_ms, threads)},
                containers={"M": 1},
                rates={"probe": rate},
                config=SimulationConfig(
                    duration_min=duration_min,
                    warmup_min=warmup * duration_min,
                    seed=seed,
                    record_own_latency=False,
                ),
                container_multipliers={"M": [multiplier]},
            )

        station, loop = simulator(), simulator()
        assert station._single_station() is not None
        recursion, events = station.run(), loop._run_events()
        assert recursion.generated == events.generated
        assert recursion.completed == events.completed
        assert recursion.events_processed == events.events_processed
        assert station.events.now == loop.events.now
        for ours, theirs in zip(recursion._e2e["probe"], events._e2e["probe"]):
            assert ours.tobytes() == theirs.tobytes()
        assert station.rng.bit_generator.state == loop.rng.bit_generator.state
        if events.has_samples("probe"):
            for percentile in (50.0, 95.0, 99.0):
                assert recursion.tail_latency("probe", percentile) == (
                    events.tail_latency("probe", percentile)
                )
        else:
            assert not recursion.has_samples("probe")


def scanned_windows(observations, store, microservice, percentile=95.0):
    """``MetricsStore.profiling_windows`` as it was, kept as the reference:
    one pass over a list of every microservice's observations."""
    latency_by_minute = {}
    for obs in observations:
        if obs.microservice == microservice:
            latency_by_minute.setdefault(int(obs.timestamp), []).append(obs.latency)
    calls_by_minute = {}
    for sample in store.call_counts:
        if sample.microservice == microservice:
            minute = int(sample.timestamp)
            calls, containers = calls_by_minute.get(minute, (0.0, 1))
            calls_by_minute[minute] = (
                calls + sample.calls,
                max(containers, sample.containers),
            )
    util_by_minute = {}
    for sample in store.utilization:
        util_by_minute.setdefault(int(sample.timestamp), []).append(
            (sample.cpu, sample.memory)
        )
    windows = []
    for minute in sorted(latency_by_minute):
        if minute not in calls_by_minute:
            continue
        calls, containers = calls_by_minute[minute]
        utils = util_by_minute.get(minute, [])
        windows.append(
            ProfilingWindow(
                microservice=microservice,
                minute=minute,
                tail_latency=float(
                    np.percentile(latency_by_minute[minute], percentile)
                ),
                per_container_load=calls / containers,
                cpu_utilization=float(np.mean([u[0] for u in utils])) if utils else 0.0,
                memory_utilization=float(np.mean([u[1] for u in utils])) if utils else 0.0,
            )
        )
    return windows


#: Whole minutes now and then, so streams revisit a minute and share one.
_minutes = st.one_of(
    st.integers(0, 4).map(float), st.floats(min_value=0.0, max_value=4.999)
)
_fractions = st.floats(min_value=0.0, max_value=1.5)


class TestColumnarMetricsStore:
    @given(
        latencies=st.lists(
            st.tuples(
                _minutes,
                st.sampled_from("ABC"),
                st.floats(min_value=0.0, max_value=1e4),
            ),
            max_size=60,
        ),
        # "C" is never counted (latencies, no calls); "D" is never timed
        calls=st.lists(
            st.tuples(
                _minutes,
                st.sampled_from("ABD"),
                st.floats(min_value=0.0, max_value=1e5),
                st.integers(1, 8),
            ),
            max_size=20,
        ),
        utilization=st.lists(st.tuples(_minutes, _fractions, _fractions), max_size=12),
        percentile=st.sampled_from([50.0, 95.0, 99.0]),
    )
    @settings(max_examples=200, deadline=None)
    def test_windows_equal_the_list_scan(self, latencies, calls, utilization, percentile):
        store = MetricsStore()
        observations = []
        for minute, name, latency in latencies:
            store.record_latency(minute, name, latency)
            observations.append(LatencyObservation(minute, name, latency))
        for minute, name, count, containers in calls:
            store.record_calls(minute, name, count, containers)
        for minute, cpu, memory in utilization:
            store.record_utilization(minute, "host", cpu, memory)

        view = store.latencies
        assert len(view) == len(observations)
        key = lambda obs: (obs.microservice, obs.timestamp, obs.latency)
        assert sorted(view, key=key) == sorted(observations, key=key)
        # recording order within a microservice, microservices as first seen
        first_seen = list(dict.fromkeys(name for _, name, _ in latencies))
        assert view == sorted(
            observations, key=lambda obs: first_seen.index(obs.microservice)
        )

        for name in ("A", "B", "C", "D", "unknown"):
            got = store.profiling_windows(name, percentile)
            expected = scanned_windows(observations, store, name, percentile)
            assert len(got) == len(expected)
            for window, reference in zip(got, expected):
                assert window.microservice == reference.microservice == name
                assert type(window.minute) is int and window.minute == reference.minute
                assert window.tail_latency.hex() == reference.tail_latency.hex()
                assert window.per_container_load == reference.per_container_load
                assert window.cpu_utilization == reference.cpu_utilization
                assert window.memory_utilization == reference.memory_utilization

    def test_windows_of_one_microservice_read_only_its_columns(self):
        reads = []

        class Watched(dict):
            def get(self, key, default=None):
                reads.append(key)
                return super().get(key, default)

            def __getitem__(self, key):
                reads.append(key)
                return super().__getitem__(key)

            def _everything(self, *args):
                raise AssertionError("walked every microservice's columns")

            __iter__ = keys = values = items = _everything

        store = MetricsStore()
        for minute in range(3):
            for name in "ABC":
                store.record_latency(minute + 0.5, name, 10.0 + minute)
                store.record_calls(float(minute), name, 100.0, 2)
        store._latency = Watched(store._latency)
        assert [w.minute for w in store.profiling_windows("B")] == [0, 1, 2]
        assert reads == ["B"]
        assert store.profiling_windows("unknown") == []
        assert reads == ["B", "unknown"]


def _span_call(ordinal, parent, microservice, start, duration,
               queued=0.0, proc_ms=float("nan"), mult=1.0):
    """One span: the fields of an engine call record, its caller's record
    as ``parent`` (``None`` at the root)."""
    return SimpleNamespace(
        ordinal=ordinal, parent=parent, microservice=microservice,
        start=start, finish=start + duration,
        proc_start=start + queued, proc_ms=proc_ms, mult=mult,
    )


def _rows(calls):
    """``calls`` as the trace buffer ``SpanTable.append_trace`` reads."""
    rows = []
    for c in calls:
        parent = c.parent
        rows.extend((
            c.start, c.finish, c.proc_start, c.proc_ms, c.mult, c.ordinal,
            c.microservice,
            -1 if parent is None else parent.ordinal,
            None if parent is None else parent.microservice,
        ))
    return rows


#: An attempt the client abandoned: its children reach the block, it does not.
_ABANDONED = SimpleNamespace(ordinal=98, microservice="gone")
#: Coarse grids, so equal starts, equal finishes and zero durations are common
#: and the sums still round (0.1 + 0.2).
_starts = st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.5, 0.6])
_durations = st.sampled_from([0.0, 0.0, 0.1, 0.2, 0.3, 0.7, 1.1])


@st.composite
def span_blocks(draw, max_calls=9):
    """One trace's calls in flush order: any call tree, the root last.

    Server spans take even ordinals up to 60 (client ids are the odd ones
    below, so ``"s11" < "s9"`` decides sibling order), parents are earlier
    calls or the abandoned attempt, and rows arrive in any order.
    """
    ordinals = draw(
        st.lists(st.integers(1, 30).map(lambda k: 2 * k), max_size=max_calls - 1, unique=True)
    )
    calls = [_span_call(0, None, "A", draw(_starts), draw(_durations))]
    for ordinal in ordinals:
        index = draw(st.integers(0, len(calls)))
        calls.append(
            _span_call(
                ordinal,
                _ABANDONED if index == len(calls) else calls[index],
                draw(st.sampled_from("ABC")),
                draw(_starts),
                draw(_durations),
                queued=draw(st.sampled_from([0.0, 0.05])),
                proc_ms=draw(st.sampled_from([float("nan"), 0.05, 0.1])),
                mult=draw(st.sampled_from([1.0, 1.5])),
            )
        )
    return list(draw(st.permutations(calls[1:]))) + calls[:1]


class TestSpanForest:
    ANALYSIS = dict(
        slas={"svc": 0.4, "alt": 0.9},
        targets={name: {"A": 0.1, "B": 0.3, "C": 1.0} for name in ("svc", "alt")},
        priorities={"A": {"svc": 0, "alt": 1}, "B": {"alt": 0, "svc": 1}},
        options=AnalysisOptions(window_min=1e-5, top_paths=2),
    )

    @staticmethod
    def table_of(blocks, limit=None):
        table = SpanTable(limit)
        for number, calls in enumerate(blocks):
            table.append_trace(("svc", "alt")[number % 2], number, _rows(calls))
        return table

    def check(self, table):
        """The forest against every trace materialised and taken alone."""
        records = [
            TraceRecord(view.trace_id, view.service, list(view.spans), view.timings)
            for view in table
        ]
        rows, offsets = table.forest().paths()
        for index, (view, record) in enumerate(zip(table, records)):
            names, own = view.own_latencies()
            expected_names, expected = record.own_latencies()
            assert names == expected_names
            assert [x.hex() for x in own] == [x.hex() for x in expected]
            path = extract_critical_path(record)
            assert extract_critical_path(view) == path
            on_path = rows[offsets[index]:offsets[index + 1]].tolist()
            assert [
                f"{view.trace_id}-s{table.ordinal[row]}" for row in on_path
            ] == [segment.span_id for segment in path.segments]
        whole = analyze_run(traces=table, **self.ANALYSIS)
        assert whole.n_traces == len(records)
        assert json.dumps(whole.to_dict()) == json.dumps(
            analyze_run(traces=records, **self.ANALYSIS).to_dict()
        )
        return whole

    @given(blocks=st.lists(span_blocks(), min_size=1, max_size=4), late=span_blocks())
    @settings(max_examples=150, deadline=None)
    def test_forest_equals_the_per_trace_path(self, blocks, late):
        table = self.table_of(blocks)
        self.check(table)
        table.append_trace("svc", len(blocks), _rows(late))  # the forest is rebuilt
        self.check(table)

    def test_named_cases(self):
        root = _span_call(0, None, "A", 0.0, 5.0)
        # client ids "s9" / "s11": as strings the later call sorts first, so
        # the zero-length one joins its stage instead of opening one
        short = _span_call(10, root, "B", 1.0, 0.0)
        long = _span_call(12, root, "C", 1.0, 2.0)
        # a retried call: two attempts under one caller, one after the other
        first_try = _span_call(4, long, "B", 1.0, 0.5, proc_ms=0.25)
        second_try = _span_call(8, long, "B", 1.5, 0.5, queued=0.1, proc_ms=0.25, mult=1.5)
        # equal finishes, and a call whose caller never reached the block
        tied = _span_call(14, root, "B", 3.0, 1.0)
        also_tied = _span_call(16, root, "C", 3.5, 0.5)
        orphan = _span_call(20, _ABANDONED, "C", 0.5, 9.0)
        below_orphan = _span_call(22, orphan, "B", 0.5, 4.0)
        table = self.table_of(
            [
                [short, long, root],
                [second_try, first_try, long, root],
                [also_tied, tied, below_orphan, orphan, short, root],
            ]
        )
        analysis = self.check(table)
        assert [len(path.segments) for path in analysis.slowest] == [2, 4]
        tree = table[2].call_tree()
        assert tree.stages[5] == [[4], [1, 0]] and tree.stages[3] == [[2]]
        assert tree.own_latencies()[3] == 5.0 and table[1].call_tree().stages[2] == [[1], [0]]

    def test_two_roots_raise_the_per_trace_error(self):
        root = _span_call(0, None, "A", 0.0, 2.0)
        table = self.table_of(
            [[root], [_span_call(6, None, "B", 0.0, 1.0), _span_call(2, root, "B", 0.5, 1.0), root]]
        )
        message = "trace alt-t1: expected exactly 1 root span, found 2"
        with pytest.raises(ValueError, match=message):
            extract_critical_path(table[1])
        with pytest.raises(ValueError, match=message):
            analyze_run(traces=table)
        # own latencies need no root, and the table can still grow
        assert table[1].own_latencies()[1] == [1.0, 1.0, 1.0]
        table.append_trace("svc", 2, _rows([root]))

    def test_appended_block_is_seen_and_the_cap_only_hides(self):
        root = _span_call(0, None, "A", 0.0, 2.0)
        table = self.table_of([[root]], limit=2)
        assert analyze_run(traces=table).n_traces == 1
        forest = table.forest()
        assert table.forest() is forest  # kept until the table grows
        table.append_trace("alt", 1, _rows([_span_call(2, root, "B", 0.5, 1.0), root]))
        assert table.forest() is not forest
        analysis = analyze_run(traces=table)
        assert analysis.n_traces == 2
        assert [row["microservice"] for row in analysis.critical_path] == ["A", "B"]
        # past the cap a block is still read (the coordinator holds its view)
        hidden = table.append_trace(
            "svc", 2, _rows([_span_call(2, root, "C", 0.0, 1.5), root])
        )
        assert len(table) == 2 and analyze_run(traces=table).n_traces == 2
        assert hidden.own_latencies() == (["C", "A"], [1.5, 0.5])
        assert [s.microservice for s in extract_critical_path(hidden).segments] == ["A", "C"]

    @pytest.mark.parametrize(
        "build, field",
        [
            (lambda: AnalysisOptions(top_paths=-1), "top_paths"),
            (lambda: SpanTable(limit=-1), "limit"),
        ],
    )
    def test_negative_counts_are_rejected_by_name(self, build, field):
        with pytest.raises(ValueError, match=f"{field} must be non-negative"):
            build()


# ----------------------------------------------------------------------
# One traversal: loops over GraphPlan == the recursive walkers they replaced
# ----------------------------------------------------------------------
#
# The reference bodies below are the recursions the library had before every
# reader of a call graph became a loop over ``GraphPlan``.


def walk_validate(graph):
    from repro.graphs import GraphValidationError

    def visit(node, ancestry):
        if not node.microservice:
            raise GraphValidationError("microservice name must be non-empty")
        if node.calls_per_request <= 0:
            raise GraphValidationError(
                f"calls_per_request of {node.microservice!r} must be positive, "
                f"got {node.calls_per_request}"
            )
        if node.microservice in ancestry:
            cycle = " -> ".join(ancestry + [node.microservice])
            raise GraphValidationError(f"recursive call cycle detected: {cycle}")
        for index, stage in enumerate(node.stages):
            if not stage:
                raise GraphValidationError(
                    f"stage {index} of {node.microservice!r} is empty"
                )
            for child in stage:
                visit(child, ancestry + [node.microservice])

    if not graph.service:
        raise GraphValidationError("service name must be non-empty")
    visit(graph.root, [])


def walk_depth(node):
    return 1 + sum(
        max((walk_depth(child) for child in stage), default=0)
        for stage in node.stages
    )


def walk_paths(node):
    stage_choices = []
    for stage in node.stages:
        choices = []
        for child in stage:
            choices.extend(walk_paths(child))
        stage_choices.append(choices)
    if not stage_choices:
        yield [node.microservice]
        return
    for combo in itertools.product(*stage_choices):
        path = [node.microservice]
        for sub in combo:
            path.extend(sub)
        yield path


def walk_critical_paths(graph, limit=10_000):
    return [tuple(p) for p in itertools.islice(walk_paths(graph.root), limit)]


def walk_edge_set(graph):
    edges = set()

    def visit(node):
        for stage in node.stages:
            for child in stage:
                edges.add((node.microservice, child.microservice))
                visit(child)

    visit(graph.root)
    return edges


def walk_rows(graph, traceid="trace-0", rt=1.0):
    from repro.workloads.traces_io import CallRow

    rows = [CallRow(traceid, graph.service, "0", "USER", graph.root.microservice, rt)]

    def visit(node, rpcid):
        index = 1
        for stage in node.stages:
            for position, child in enumerate(stage):
                child_rpcid = f"{rpcid}.{index}"
                rows.append(
                    CallRow(
                        traceid, graph.service, child_rpcid, node.microservice,
                        child.microservice, rt, position > 0,
                    )
                )
                visit(child, child_rpcid)
                index += 1

    visit(graph.root, "0")
    return rows


def walk_synthesize(graph, latencies, trace_id="trace-0", start=0.0, network_delay=0.0):
    from repro.tracing.spans import Span, SpanKind

    spans = []
    counter = itertools.count()

    def next_id():
        return f"{trace_id}-s{next(counter)}"

    def emit(node, arrival, parent_id):
        own = latencies[node.microservice]
        pre = own / 2.0
        post = own - pre
        server_id = next_id()
        cursor = arrival + pre
        for stage in node.stages:
            stage_end = cursor
            for child in stage:
                client_id = next_id()
                child_server = emit(child, cursor + network_delay, client_id)
                client_end = child_server.end + network_delay
                spans.append(
                    Span(client_id, server_id, node.microservice, SpanKind.CLIENT,
                         cursor, client_end)
                )
                stage_end = max(stage_end, client_end)
            cursor = stage_end
        server_span = Span(
            server_id, parent_id, node.microservice, SpanKind.SERVER,
            arrival, cursor + post,
        )
        spans.append(server_span)
        return server_span

    emit(graph.root, start, None)
    return TraceRecord(trace_id=trace_id, service=graph.service, spans=spans)


def walk_call_node(tree, node):
    call_node = CallNode(tree.names[node])
    for stage in tree.stages.get(node, ()):
        callees = [walk_call_node(tree, n) for n in stage if tree.names[n] is not None]
        if callees:
            call_node.stages.append(callees)
    return call_node


def walk_merge(target, other):
    for index, stage in enumerate(other.stages):
        if index >= len(target.stages):
            target.stages.append([])
        target_stage = target.stages[index]
        by_name = {child.microservice: child for child in target_stage}
        for child in stage:
            existing = by_name.get(child.microservice)
            if existing is None:
                target_stage.append(child)
                by_name[child.microservice] = child
            else:
                walk_merge(existing, child)


def walk_compile(sim, node):
    from repro.simulator.simulation import _CallPlan

    stages = []
    for stage in node.stages:
        calls = []
        for child in stage:
            plan = walk_compile(sim, child)
            calls.extend([plan] * max(1, int(round(child.calls_per_request))))
        if calls:
            stages.append(tuple(calls))
    return _CallPlan(
        node.microservice, sim._microservices[node.microservice], tuple(stages)
    )


def tree_shape(node):
    """A call tree as nested tuples: everything two equal trees share."""
    return (
        node.microservice,
        node.calls_per_request,
        tuple(tuple(tree_shape(child) for child in stage) for stage in node.stages),
    )


def bound_shape(plan):
    """A bound call plan as nested tuples; ``id(state)`` keeps its identity and
    a repeated entry shows as the position of its first occurrence."""
    return (
        plan.microservice,
        id(plan.state),
        tuple(
            tuple(
                stage.index(child) if stage.index(child) < position else bound_shape(child)
                for position, child in enumerate(stage)
            )
            for stage in plan.stages
        ),
    )


def verdict(check, graph):
    from repro.graphs import GraphValidationError

    try:
        check(graph)
    except GraphValidationError as error:
        return str(error)
    return None


@st.composite
def flawed_call_trees(draw):
    """``shared_call_trees`` (a small name pool, so chains repeat a name)
    with, here and there, an empty stage, an empty name or a fan-out <= 0."""
    graph, _ = draw(shared_call_trees())
    dice = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)
    for node in graph.nodes():
        if draw(dice) > 0.75:
            node.stages.insert(draw(st.integers(0, len(node.stages))), [])
        if draw(dice) > 0.96:
            node.microservice = ""
        if draw(dice) > 0.94:
            node.calls_per_request = draw(st.sampled_from([0.0, -1.0]))
    service = "" if draw(dice) > 0.95 else "svc"
    return DependencyGraph(service, graph.root)  # compiled after the last edit


class TestPlanLoopsEqualTreeWalks:
    @given(flawed_call_trees())
    @example(DependencyGraph("svc", call("A", stages=[[call("B", stages=[[call("A")]])]])))
    # an empty stage is met after the subtrees of the stages before it:
    # B's second stage, then A's, then D's fan-out
    @example(DependencyGraph("svc", call("A", stages=[
        [call("B", stages=[[call("C")], []])], [], [call("D", calls_per_request=0.0)]
    ])))
    @example(DependencyGraph("svc", call("A", stages=[
        [call("B", stages=[[call("C")]])], [], [call("D", calls_per_request=0.0)]
    ])))
    @example(DependencyGraph("svc", call("A", stages=[
        [call("B", stages=[[call("C", calls_per_request=-1.0)], []])], []
    ])))
    @settings(max_examples=300, deadline=None)
    def test_validate_verdict_and_message(self, graph):
        from repro.graphs import validate_graph

        assert verdict(validate_graph, graph) == verdict(walk_validate, graph)

    @given(shared_call_trees(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_depth_paths_edges_and_rows(self, tree, data):
        from repro.graphs.clustering import _edge_set
        from repro.workloads.traces_io import graph_to_rows

        root = tree[0].root
        for node in tree[0].nodes():
            if data.draw(st.integers(0, 7)) == 0:  # a site with an empty stage has no path
                node.stages.insert(data.draw(st.integers(0, len(node.stages))), [])
        graph = DependencyGraph("svc", root)
        depth = graph.depth()
        assert (type(depth), depth) == (int, walk_depth(root))
        assert graph.critical_paths() == walk_critical_paths(graph)
        for limit in (0, 1, 2, 3, 7):
            assert graph.critical_paths(limit=limit) == walk_critical_paths(graph, limit)
        assert _edge_set(graph) == walk_edge_set(graph)
        assert graph_to_rows(graph) == walk_rows(graph)
        assert graph_to_rows(graph, traceid="t-9", rt=2.5) == walk_rows(graph, "t-9", 2.5)

    @given(
        shared_call_trees(),
        st.floats(min_value=-1e3, max_value=1e6),
        st.sampled_from([0.0, 0.1, 0.25, 1.7]),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_synthesized_spans_by_id_order_and_float_hex(self, tree, start, delay, data):
        from repro.tracing.spans import synthesize_trace

        graph = tree[0]
        own = st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=1e3))
        latencies = {name: data.draw(own) for name in graph.microservices()}

        def fields(record):
            return [
                (s.span_id, s.parent_id, s.microservice, s.kind, s.start.hex(), s.end.hex())
                for s in record.spans
            ]

        mine = synthesize_trace(graph, latencies, "t-3", start, delay)
        reference = walk_synthesize(graph, latencies, "t-3", start, delay)
        assert (mine.trace_id, mine.service) == (reference.trace_id, reference.service)
        assert fields(mine) == fields(reference)

    @given(st.lists(shared_call_trees(max_sites=8), min_size=1, max_size=4), st.data())
    @settings(max_examples=100, deadline=None)
    def test_extracted_and_merged_graphs_stage_by_stage(self, trees, data):
        from repro.graphs.clustering import merge_variants
        from repro.tracing import TracingCoordinator, synthesize_trace

        variants = [graph for graph, _ in trees]
        before = [tree_shape(graph.root) for graph in variants]

        merged = merge_variants("svc", variants)
        reference = copy.deepcopy(variants[0].root)
        for variant in variants[1:]:
            walk_merge(reference, copy.deepcopy(variant.root))
        assert tree_shape(merged.root) == tree_shape(reference)
        assert [tree_shape(graph.root) for graph in variants] == before
        theirs = {id(node) for graph in variants for node in graph.nodes()}
        assert not theirs & {id(node) for node in merged.nodes()}

        coordinator = TracingCoordinator()
        for number, graph in enumerate(variants):
            own = st.floats(min_value=0.5, max_value=50.0)
            latencies = {name: data.draw(own) for name in graph.microservices()}
            coordinator.offer(synthesize_trace(graph, latencies, f"t-{number}"))
        call_trees = [record.call_tree() for record in coordinator.traces["svc"]]
        reference, *others = [walk_call_node(tree, tree.root) for tree in call_trees]
        for other in others:
            walk_merge(reference, other)
        assert tree_shape(coordinator.extract_graph("svc").root) == tree_shape(reference)

    @given(shared_call_trees(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_bound_call_plans_site_by_site(self, tree, data):
        from repro.simulator import ClusterSimulator, SimulatedMicroservice

        root = tree[0].root
        for node in tree[0].nodes():
            if data.draw(st.integers(0, 5)) == 0:  # empty stages are dropped
                node.stages.insert(data.draw(st.integers(0, len(node.stages))), [])
        graph = DependencyGraph("svc", root)
        sim = ClusterSimulator(
            [ServiceSpec("svc", graph, workload=0.0, sla=1e9)],
            {name: SimulatedMicroservice(name) for name in graph.microservices()},
            containers={},
            rates={"svc": 0.0},
        )
        assert bound_shape(sim._roots["svc"]) == bound_shape(walk_compile(sim, root))


class TestClusteringInvariants:
    @given(
        st.lists(
            st.lists(
                st.sampled_from(["a", "b", "c", "d", "e"]),
                min_size=1,
                max_size=4,
                unique=True,
            ),
            min_size=1,
            max_size=6,
        ),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_partition_and_weight_mass(self, chains, threshold):
        from repro.graphs.clustering import cluster_graphs
        from repro.graphs import call

        variants = []
        for chain in chains:
            node = call(chain[-1])
            for name in reversed(chain[:-1]):
                node = call(name, stages=[[node]])
            variants.append(DependencyGraph("svc", node))
        classes = cluster_graphs(variants, similarity_threshold=threshold)
        members = sorted(i for cls in classes for i in cls.members)
        assert members == list(range(len(variants)))  # exact partition
        assert sum(cls.weight for cls in classes) == pytest.approx(1.0)

"""Tests for repro.simulator: events, queue policies, cluster simulation."""

from collections import namedtuple

import numpy as np
import pytest

from repro.core.model import ServiceSpec
from repro.graphs import DependencyGraph, call
from repro.simulator import (
    ClusterSimulator,
    EventQueue,
    InterferenceModel,
    PriorityQueuePolicy,
    SimulatedMicroservice,
    SimulationConfig,
)


class TestEventQueue:
    def test_events_run_in_time_order(self):
        queue = EventQueue()
        seen = []
        queue.schedule(5.0, lambda t: seen.append(("b", t)))
        queue.schedule(1.0, lambda t: seen.append(("a", t)))
        queue.run_until(10.0)
        assert seen == [("a", 1.0), ("b", 5.0)]

    def test_ties_break_by_insertion_order(self):
        queue = EventQueue()
        seen = []
        queue.schedule(1.0, lambda t: seen.append("first"))
        queue.schedule(1.0, lambda t: seen.append("second"))
        queue.run_until(2.0)
        assert seen == ["first", "second"]

    def test_run_until_leaves_later_events(self):
        queue = EventQueue()
        seen = []
        queue.schedule(1.0, lambda t: seen.append(1))
        queue.schedule(5.0, lambda t: seen.append(5))
        assert queue.run_until(2.0) == 1
        assert len(queue) == 1
        assert queue.now == 2.0

    def test_schedule_in_past_rejected(self):
        queue = EventQueue()
        queue.schedule(5.0, lambda t: None)
        queue.run_until(5.0)
        with pytest.raises(ValueError, match="past"):
            queue.schedule(1.0, lambda t: None)

    def test_events_can_schedule_events(self):
        queue = EventQueue()
        seen = []

        def first(t):
            queue.schedule_in(2.0, lambda t2: seen.append(t2))

        queue.schedule(1.0, first)
        queue.run_until(10.0)
        assert seen == [3.0]

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            EventQueue().schedule_in(-1.0, lambda t: None)

    def test_infinite_drain_leaves_now_at_last_event(self):
        # Regression: run_until(inf) used to leave now == inf, making a
        # drained-then-reused queue reject (or infinitely defer) every
        # later schedule — e.g. the autoscaled loop's follow-up work.
        queue = EventQueue()
        seen = []
        queue.schedule(3.0, lambda t: seen.append(t))
        queue.schedule(7.0, lambda t: seen.append(t))
        assert queue.run_until(float("inf")) == 2
        assert queue.now == 7.0
        # The queue stays usable after the drain.
        queue.schedule(9.0, lambda t: seen.append(t))
        queue.run_until(float("inf"))
        assert seen == [3.0, 7.0, 9.0]
        assert queue.now == 9.0

    def test_infinite_drain_of_empty_queue_keeps_now_finite(self):
        queue = EventQueue()
        queue.schedule(2.0, lambda t: None)
        queue.run_until(5.0)
        assert queue.run_until(float("inf")) == 0
        assert queue.now == 5.0


#: What a queue sees of a waiting call: its service (``tag`` tells calls apart).
Waiting = namedtuple("Waiting", "tag service")


def _tags(queue, count):
    return [queue.popleft().tag for _ in range(count)]


class TestPriorityQueuePolicy:
    def test_strict_priority_at_delta_zero(self):
        queue = PriorityQueuePolicy({"hot": 0, "cold": 1}, delta=0.0)
        queue.append(Waiting("c1", "cold"))
        queue.append(Waiting("h1", "hot"))
        queue.append(Waiting("c2", "cold"))
        assert len(queue) == 3
        assert _tags(queue, 3) == ["h1", "c1", "c2"]
        assert len(queue) == 0

    def test_delta_occasionally_serves_low_priority(self):
        rng = np.random.default_rng(0)
        queue = PriorityQueuePolicy({"hot": 0, "cold": 1}, delta=0.3, rng=rng)
        low_first = 0
        trials = 2000
        for _ in range(trials):
            queue.append(Waiting("h", "hot"))
            queue.append(Waiting("c", "cold"))
            if queue.popleft().tag == "c":
                low_first += 1
            # Drain.
            queue.popleft()
        assert 0.25 < low_first / trials < 0.35

    def test_unknown_service_gets_lowest_priority(self):
        queue = PriorityQueuePolicy({"hot": 0}, delta=0.0)
        queue.append(Waiting("x", "stranger"))
        queue.append(Waiting("h", "hot"))
        assert _tags(queue, 2) == ["h", "x"]

    def test_empty_popleft_raises_like_a_deque(self):
        queue = PriorityQueuePolicy({"hot": 0})
        assert not queue and len(queue) == 0
        with pytest.raises(IndexError):
            queue.popleft()
        assert len(queue) == 0

    def test_invalid_delta(self):
        with pytest.raises(ValueError, match="delta"):
            PriorityQueuePolicy({"a": 0}, delta=1.0)

    def test_fifo_within_class(self):
        queue = PriorityQueuePolicy({"hot": 0}, delta=0.0)
        queue.append(Waiting("h1", "hot"))
        queue.append(Waiting("h2", "hot"))
        assert _tags(queue, 2) == ["h1", "h2"]


def single_node_setup(rate, containers=1, threads=4, base_ms=5.0, **config_kwargs):
    graph = DependencyGraph("svc", call("B"))
    spec = ServiceSpec("svc", graph, workload=rate, sla=100.0)
    ms = {"B": SimulatedMicroservice("B", base_service_ms=base_ms, threads=threads)}
    config = SimulationConfig(
        duration_min=config_kwargs.pop("duration_min", 1.0),
        warmup_min=config_kwargs.pop("warmup_min", 0.2),
        seed=config_kwargs.pop("seed", 1),
        **config_kwargs,
    )
    return ClusterSimulator(
        [spec], ms, containers={"B": containers}, rates={"svc": rate}, config=config
    )


class TestClusterSimulator:
    def test_all_requests_complete(self):
        result = single_node_setup(rate=3000).run()
        assert result.completed["svc"] == result.generated["svc"]
        assert result.generated["svc"] > 0

    def test_arrival_count_tracks_rate(self):
        result = single_node_setup(rate=6000, duration_min=2.0).run()
        # Poisson with mean 12000 arrivals over 2 minutes.
        assert 11_000 <= result.generated["svc"] <= 13_000

    def test_latency_grows_with_load(self):
        light = single_node_setup(rate=10_000).run()
        heavy = single_node_setup(rate=45_000).run()  # near capacity 48k
        assert heavy.tail_latency("svc") > light.tail_latency("svc") * 1.5

    def test_more_containers_reduce_latency(self):
        one = single_node_setup(rate=45_000, containers=1).run()
        four = single_node_setup(rate=45_000, containers=4).run()
        assert four.tail_latency("svc") < one.tail_latency("svc")

    def test_piecewise_shape_of_latency_curve(self):
        """Fig. 3: flat below the cut-off, steep above."""
        loads = [10_000, 25_000, 40_000, 46_000]
        p95 = [
            single_node_setup(rate=load, duration_min=1.5).run().tail_latency("svc")
            for load in loads
        ]
        early_slope = (p95[1] - p95[0]) / (loads[1] - loads[0])
        late_slope = (p95[3] - p95[2]) / (loads[3] - loads[2])
        assert late_slope > 5 * early_slope

    def test_interference_multiplier_slows_service(self):
        graph = DependencyGraph("svc", call("B"))
        spec = ServiceSpec("svc", graph, workload=0.0, sla=100.0)
        ms = {"B": SimulatedMicroservice("B", base_service_ms=5.0, threads=4)}
        calm = ClusterSimulator(
            [spec], ms, {"B": 1}, {"svc": 20_000},
            config=SimulationConfig(duration_min=1.0, seed=2),
            container_multipliers={"B": [1.0]},
        ).run()
        busy = ClusterSimulator(
            [spec], ms, {"B": 1}, {"svc": 20_000},
            config=SimulationConfig(duration_min=1.0, seed=2),
            container_multipliers={"B": [2.0]},
        ).run()
        assert busy.tail_latency("svc") > calm.tail_latency("svc") * 1.4

    def test_end_to_end_sums_chain(self):
        graph = DependencyGraph("svc", call("A", stages=[[call("B")]]))
        spec = ServiceSpec("svc", graph, workload=0.0, sla=100.0)
        ms = {
            "A": SimulatedMicroservice("A", base_service_ms=2.0),
            "B": SimulatedMicroservice("B", base_service_ms=6.0),
        }
        result = ClusterSimulator(
            [spec], ms, {"A": 4, "B": 4}, {"svc": 5000},
            config=SimulationConfig(duration_min=1.0, seed=3),
        ).run()
        mean_e2e = float(np.mean(result.latencies("svc")))
        # Light load: e2e ~ sum of service means (2 + 6), little queueing.
        assert 7.0 < mean_e2e < 12.0

    def test_parallel_stage_takes_max(self):
        parallel_graph = DependencyGraph(
            "par", call("A", stages=[[call("B"), call("C")]])
        )
        sequential_graph = DependencyGraph(
            "seq", call("A", stages=[[call("B")], [call("C")]])
        )
        ms = {
            "A": SimulatedMicroservice("A", base_service_ms=1.0),
            "B": SimulatedMicroservice("B", base_service_ms=5.0),
            "C": SimulatedMicroservice("C", base_service_ms=5.0),
        }
        containers = {"A": 4, "B": 4, "C": 4}

        def run(graph):
            spec = ServiceSpec(graph.service, graph, workload=0.0, sla=100.0)
            return ClusterSimulator(
                [spec], ms, containers, {graph.service: 3000},
                config=SimulationConfig(duration_min=1.0, seed=4),
            ).run()

        par = run(parallel_graph)
        seq = run(sequential_graph)
        par_mean = float(np.mean(par.latencies("par")))
        seq_mean = float(np.mean(seq.latencies("seq")))
        assert par_mean < seq_mean

    def test_deterministic_given_seed(self):
        a = single_node_setup(rate=5000, seed=9).run()
        b = single_node_setup(rate=5000, seed=9).run()
        assert np.array_equal(a.latencies("svc"), b.latencies("svc"))

    def test_priority_scheduling_protects_high_priority(self):
        """The §2.3 effect at a shared microservice under heavy load."""
        g1 = DependencyGraph("hot", call("P"))
        g2 = DependencyGraph("cold", call("P"))
        specs = [
            ServiceSpec("hot", g1, workload=0.0, sla=50.0),
            ServiceSpec("cold", g2, workload=0.0, sla=300.0),
        ]
        ms = {"P": SimulatedMicroservice("P", base_service_ms=5.0, threads=4)}
        rates = {"hot": 22_000, "cold": 22_000}  # combined near capacity 48k

        fcfs = ClusterSimulator(
            specs, ms, {"P": 1}, rates,
            config=SimulationConfig(duration_min=1.5, seed=5, scheduling="fcfs"),
        ).run()
        priority = ClusterSimulator(
            specs, ms, {"P": 1}, rates,
            config=SimulationConfig(
                duration_min=1.5, seed=5, scheduling="priority", delta=0.05
            ),
            priorities={"P": {"hot": 0, "cold": 1}},
        ).run()
        assert priority.tail_latency("hot") < fcfs.tail_latency("hot")

    def test_dynamic_rate_callable(self):
        graph = DependencyGraph("svc", call("B"))
        spec = ServiceSpec("svc", graph, workload=0.0, sla=100.0)
        ms = {"B": SimulatedMicroservice("B", base_service_ms=1.0, threads=8)}

        def rate(minute):
            return 2000.0 if minute < 1.0 else 10_000.0

        result = ClusterSimulator(
            [spec], ms, {"B": 4}, {"svc": rate},
            config=SimulationConfig(duration_min=2.0, warmup_min=0.0, seed=6),
        ).run()
        first = [m for m, _ in result.end_to_end["svc"] if m < 1.0]
        second = [m for m, _ in result.end_to_end["svc"] if m >= 1.0]
        assert len(second) > 3 * len(first)

    def test_calls_per_minute_recorded(self):
        result = single_node_setup(rate=6000, duration_min=1.0).run()
        total = sum(result.calls_per_minute["B"].values())
        assert total == result.completed["svc"]

    def test_missing_microservice_rejected(self):
        graph = DependencyGraph("svc", call("X"))
        spec = ServiceSpec("svc", graph, workload=0.0, sla=1.0)
        with pytest.raises(ValueError, match="no SimulatedMicroservice"):
            ClusterSimulator([spec], {}, {}, {"svc": 100.0})

    def test_zero_rate_service_generates_nothing(self):
        result = single_node_setup(rate=0.0).run()
        assert result.generated["svc"] == 0

    def test_invalid_config(self):
        with pytest.raises(ValueError, match="duration"):
            SimulationConfig(duration_min=0.0)
        with pytest.raises(ValueError, match="warmup"):
            SimulationConfig(duration_min=1.0, warmup_min=1.0)
        with pytest.raises(ValueError, match="scheduling"):
            SimulationConfig(scheduling="lifo")

    def test_invalid_microservice_params(self):
        with pytest.raises(ValueError, match="base_service_ms"):
            SimulatedMicroservice("A", base_service_ms=0.0)
        with pytest.raises(ValueError, match="threads"):
            SimulatedMicroservice("A", threads=0)


class TestInterferenceModel:
    def test_idle_host_multiplier_is_one(self):
        model = InterferenceModel()
        assert model.multiplier_for(0.0, 0.0) == pytest.approx(1.0)
        assert model.multiplier_for(0.2, 0.3) == pytest.approx(1.0)

    def test_multiplier_grows_with_utilization(self):
        model = InterferenceModel()
        assert model.multiplier_for(0.8, 0.2) > 1.0
        assert model.multiplier_for(0.9, 0.9) > model.multiplier_for(0.5, 0.5)

    def test_memory_weighs_more_than_cpu(self):
        """§5.2: memory pressure is at least as harmful as CPU pressure."""
        model = InterferenceModel()
        cpu_only = model.multiplier_for(0.3 + 0.3, 0.4)
        mem_only = model.multiplier_for(0.3, 0.4 + 0.3)
        assert mem_only >= cpu_only

    def test_host_multiplier_uses_cluster_sizes(self):
        from repro.core import Cluster, ContainerSpec

        cluster = Cluster.homogeneous(1, cpu_capacity=10.0, memory_capacity_mb=1000.0)
        cluster.sizes["ms"] = ContainerSpec(cpu=1.0, memory_mb=100.0)
        host = cluster.hosts[0]
        host.background_cpu = 8.0
        host.place("ms", 1)
        model = InterferenceModel()
        assert model.host_multiplier(cluster, host) == pytest.approx(
            model.multiplier_for(0.9, 0.1)
        )


class TestInterferenceSchedule:
    def test_levels_rotate_by_period(self):
        from repro.simulator import InterferenceSchedule

        schedule = InterferenceSchedule(
            levels=((0.1, 0.1), (0.8, 0.8)), period_min=60.0
        )
        assert schedule.level_at(0.0) == (0.1, 0.1)
        assert schedule.level_at(59.9) == (0.1, 0.1)
        assert schedule.level_at(60.0) == (0.8, 0.8)
        assert schedule.level_at(120.0) == (0.1, 0.1)  # wraps around

    def test_multiplier_tracks_level(self):
        from repro.simulator import InterferenceModel, InterferenceSchedule

        schedule = InterferenceSchedule(
            levels=((0.0, 0.0), (0.9, 0.9)), period_min=1.0
        )
        assert schedule(0.5) == pytest.approx(1.0)
        assert schedule(1.5) == pytest.approx(
            InterferenceModel().multiplier_for(0.9, 0.9)
        )

    def test_random_factory_deterministic(self):
        from repro.simulator import InterferenceSchedule

        a = InterferenceSchedule.random(periods=4, seed=7)
        b = InterferenceSchedule.random(periods=4, seed=7)
        assert a.levels == b.levels
        assert len(a.levels) == 4

    def test_validation(self):
        from repro.simulator import InterferenceSchedule

        with pytest.raises(ValueError, match="non-empty"):
            InterferenceSchedule(levels=())
        with pytest.raises(ValueError, match="period_min"):
            InterferenceSchedule(levels=((0.1, 0.1),), period_min=0.0)
        with pytest.raises(ValueError, match="non-negative"):
            InterferenceSchedule(levels=((-0.1, 0.1),))

    def test_injected_schedule_changes_simulated_latency(self):
        """A container under an hourly injection schedule slows down when
        the heavy level is active — the §6.2 profiling protocol."""
        from repro.simulator import InterferenceSchedule

        schedule = InterferenceSchedule(
            levels=((0.0, 0.0), (0.9, 0.9)), period_min=1.0
        )
        graph = DependencyGraph("svc", call("B"))
        spec = ServiceSpec("svc", graph, workload=0.0, sla=1e9)
        sim = ClusterSimulator(
            [spec],
            {"B": SimulatedMicroservice("B", base_service_ms=5.0, threads=4)},
            containers={"B": 1},
            rates={"svc": 10_000.0},
            config=SimulationConfig(duration_min=2.0, warmup_min=0.0, seed=7),
            container_multipliers={"B": [schedule]},
        )
        result = sim.run()
        calm = [lat for minute, lat in result.end_to_end["svc"] if minute < 1.0]
        busy = [lat for minute, lat in result.end_to_end["svc"] if 1.0 <= minute < 2.0]
        assert np.mean(busy) > 1.5 * np.mean(calm)

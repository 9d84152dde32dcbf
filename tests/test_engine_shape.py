"""What the engine does per call, as counts — and the priority policy's
``pop`` against the sort-based implementation it replaced.

Counts, not timings: graphs are resolved into call plans once per
simulator, an idle priority container starts a job without a ``_Job`` or a
``pop``, and nothing in ``simulation.py`` finds its way back to a graph
node through ``id()``.
"""

import inspect
import re
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ServiceSpec
from repro.graphs import CallNode, DependencyGraph, call
from repro.simulator import (
    ClusterSimulator,
    PriorityQueuePolicy,
    SimulatedMicroservice,
    SimulationConfig,
    simulation,
)


def _shared_pair(rate, p_threads, seed=2):
    """Two services sharing priority-scheduled P behind roomy FCFS fronts."""
    specs = [
        ServiceSpec(
            name,
            DependencyGraph(name, call(front, stages=[[call("P")]])),
            workload=0.0,
            sla=1e9,
        )
        for name, front in (("hot", "H"), ("cold", "C"))
    ]
    return ClusterSimulator(
        specs,
        {
            name: SimulatedMicroservice(name, base_service_ms=2.0, threads=threads)
            for name, threads in (("H", 64), ("C", 64), ("P", p_threads))
        },
        containers={"H": 1, "C": 1, "P": 2},
        rates={"hot": rate, "cold": rate},
        config=SimulationConfig(
            duration_min=0.2, warmup_min=0.0, seed=seed, scheduling="priority"
        ),
        priorities={"P": {"hot": 0, "cold": 1}},
    )


class TestEngineShape:
    @pytest.fixture
    def counts(self, monkeypatch):
        """Instances made of the engine's records, calls made of ``pop``."""
        counts = {"_Job": 0, "_CallPlan": 0, "pop": 0}

        def counting(cls):
            class Counted(cls):
                __slots__ = ()

                def __init__(self, *args):
                    counts[cls.__name__] += 1
                    super().__init__(*args)

            monkeypatch.setattr(simulation, cls.__name__, Counted)

        counting(simulation._Job)
        counting(simulation._CallPlan)
        pop = PriorityQueuePolicy.pop

        def counted_pop(self):
            counts["pop"] += 1
            return pop(self)

        monkeypatch.setattr(PriorityQueuePolicy, "pop", counted_pop)
        return counts

    def test_idle_priority_containers_start_jobs_directly(self, counts):
        # 64 threads a container at a few calls a second: never a queue
        sim = _shared_pair(rate=900.0, p_threads=64)
        shared = sim._microservices["P"].containers
        assert all(type(c.queue) is PriorityQueuePolicy for c in shared)
        result = sim.run()
        assert min(result.completed.values()) > 100
        assert result.completed == result.generated
        assert counts["_Job"] == 0
        assert counts["pop"] == 0

    def test_loaded_priority_containers_still_queue(self, counts):
        # P: 2 × 2 threads at 2 ms, 120k calls/min of capacity against 130k
        result = _shared_pair(rate=65_000.0, p_threads=2).run()
        assert result.completed == result.generated
        assert counts["_Job"] > 1_000
        assert counts["pop"] >= counts["_Job"]

    def test_each_call_node_is_compiled_once(self, counts):
        shared = call("S", stages=[[call("T")]])  # one object under two parents
        graph = DependencyGraph(
            "svc",
            call("A", stages=[
                [CallNode("B", stages=[[], [shared]]), call("C", calls_per_request=3)],
                [shared],
            ]),
        )
        nodes = len(graph.nodes())
        assert nodes == 7  # A, B, C and S→T twice: one plan per position
        sim = ClusterSimulator(
            [ServiceSpec("svc", graph, workload=0.0, sla=1e9)],
            {n: SimulatedMicroservice(n, 1.0, 2) for n in graph.microservices()},
            containers={},
            rates={"svc": 6_000.0},
            config=SimulationConfig(duration_min=0.05, warmup_min=0.0, seed=1),
        )
        assert counts["_CallPlan"] == nodes
        root = sim._roots["svc"]
        assert [[p.microservice for p in stage] for stage in root.stages] == [
            ["B", "C", "C", "C"], ["S"]
        ]
        b_plan = root.stages[0][0]
        assert len(b_plan.stages) == 1  # the empty stage is gone
        assert root.stages[0][1] is root.stages[0][3]
        assert b_plan.state is sim._microservices["B"]
        result = sim.run()
        assert result.completed["svc"] > 100
        assert counts["_CallPlan"] == nodes  # running compiles nothing

    def test_no_per_call_graph_resolution_left(self):
        source = inspect.getsource(simulation)
        assert "_stage_cache" not in source
        assert not re.search(r"\bid\(", source)
        assert "multiplier_at" not in source
        assert "._queue" not in source and "._size" not in source


class _SortingPolicy:
    """``PriorityQueuePolicy`` as it was: rank dict, ``sorted`` per ``pop``."""

    def __init__(self, ranks, delta, rng):
        self.ranks = dict(ranks)
        self.delta = delta
        self._rng = rng
        self._default_rank = (max(self.ranks.values()) + 1) if self.ranks else 0
        self._queues = {}
        self._size = 0

    def push(self, job, service):
        rank = self.ranks.get(service, self._default_rank)
        self._queues.setdefault(rank, deque()).append(job)
        self._size += 1

    def pop(self):
        if self._size == 0:
            return None
        non_empty = sorted(rank for rank, queue in self._queues.items() if queue)
        chosen = non_empty[-1]
        for rank in non_empty[:-1]:
            if self._rng.random() < 1.0 - self.delta:
                chosen = rank
                break
        job = self._queues[chosen].popleft()
        self._size -= 1
        return job

    def __len__(self):
        return self._size


_SERVICES = ["a", "b", "c", "d", "unlisted"]


class TestPriorityPopMatchesTheSort:
    @given(
        ranks=st.dictionaries(
            st.sampled_from(_SERVICES[:-1]), st.integers(0, 5), max_size=4
        ),
        delta=st.sampled_from([0.0, 0.05, 0.5, 0.95]),
        seed=st.integers(0, 2**32 - 1),
        ops=st.lists(
            st.one_of(st.sampled_from(_SERVICES), st.just(None)), max_size=60
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_same_job_same_rng_state_after_every_step(self, ranks, delta, seed, ops):
        """``None`` pops, a service name pushes a job from that service."""
        new_rng, old_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        new = PriorityQueuePolicy(ranks, delta=delta, rng=new_rng)
        old = _SortingPolicy(ranks, delta, old_rng)
        for step, service in enumerate(ops):
            if service is None:
                assert new.pop() == old.pop()
            else:
                new.push((step, service), service)
                old.push((step, service), service)
            assert len(new) == len(old)
            assert new_rng.bit_generator.state == old_rng.bit_generator.state
        while len(old):
            assert new.pop() == old.pop()
            assert new_rng.bit_generator.state == old_rng.bit_generator.state
        assert new.pop() is None and len(new) == 0

    def test_draws_happen_only_between_contending_ranks(self):
        rng = np.random.default_rng(7)
        untouched = np.random.default_rng(7).bit_generator.state
        queue = PriorityQueuePolicy({"hot": 0, "cold": 1}, delta=0.3, rng=rng)
        for step in range(5):
            queue.push(step, "cold")
        assert [queue.pop() for _ in range(5)] == list(range(5))
        assert rng.bit_generator.state == untouched
        queue.push("c", "cold")
        queue.push("h", "hot")
        assert {queue.pop(), queue.pop()} == {"c", "h"}
        assert rng.bit_generator.state != untouched

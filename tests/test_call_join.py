"""A call joins its own stages exactly as per-stage join frames did.

``ClusterSimulator`` keeps one ``_Call`` record from a call's arrival at
its container to its response: after the thread release the record is the
join point of its downstream stages, and it goes back to the free list only
once its response is delivered.  ``StageFrameSimulator`` below restores the
engine before that — a record recycled at its thread release, one
``_StageFrame`` per stage fanned out, ``_execute_node`` per call — as a
differential oracle.  Under hypothesis both replay two services drawn from
``tests/test_properties.py``'s ``shared_call_trees`` (parallel stages,
``calls_per_request`` 0.4 / 2.5 / 3, microservices shared by several sites
and by both services), optionally under δ-priority queues, a mid-run
container kill, a span-recording sink and a resilience bundle, and must
leave the same counts, sample columns (as bytes), events, generator states
and spans.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ServiceSpec
from repro.graphs import DependencyGraph
from repro.resilience import (
    ChaosSchedule,
    CircuitBreakerPolicy,
    CrashEvent,
    ErrorWindow,
    ResiliencePolicies,
    RetryPolicy,
    TimeoutPolicy,
)
from repro.simulator import (
    ClusterSimulator,
    SimulatedMicroservice,
    SimulationConfig,
    simulation,
)
from repro.telemetry import TelemetrySink
from tests.test_engine_equivalence import _social_simulator
from tests.test_properties import shared_call_trees
from tests.test_span_equivalence import _sha, trace_lines

_MS_PER_MINUTE = 60_000.0


class _StageFrame:
    """Join point for one stage's parallel calls (fired as child-done)."""

    __slots__ = ("sim", "service", "node", "next_stage", "pending", "latest", "done")

    def __init__(self, sim, service, node, next_stage, pending, latest, done):
        self.sim = sim
        self.service = service
        self.node = node
        self.next_stage = next_stage
        self.pending = pending
        self.latest = latest
        self.done = done

    def fire(self, finish):
        if finish > self.latest:
            self.latest = finish
        pending = self.pending - 1
        self.pending = pending
        if pending == 0:
            self.sim._run_stages(
                self.service, self.node, self.next_stage, self.latest, self.done
            )


class _ThreadCall:
    """The call record recycled at its thread release."""

    __slots__ = ("sim", "container", "service", "node", "arrival", "done")

    def __init__(self, sim, container, service, node, arrival, done):
        self.sim = sim
        self.container = container
        self.service = service
        self.node = node
        self.arrival = arrival
        self.done = done

    def fire(self, finish):
        sim = self.sim
        container = self.container
        node = self.node
        done = self.done
        sim._call_pool.append(self)
        container.free_threads += 1
        state = node.state
        if state.own_min is not None:
            state.own_min.append(finish / _MS_PER_MINUTE)
            state.own_lat.append(finish - self.arrival)
        if node.stages:
            sim._run_stages(self.service, node, 0, finish, done)
        else:
            done.fire(finish)
        if container.queue:
            sim._dispatch(container)


class StageFrameSimulator(ClusterSimulator):
    """The engine with one join frame per stage and a call per entry."""

    def _execute(self, service, calls, t, done, caller=None):
        # arrivals and resilience attempts; stages go through _run_stages
        for node in calls:
            self._execute_node(service, node, t, done)

    def _execute_node(self, service, node, t, done):
        container = node.state.pick()
        pool = self._call_pool
        if pool:
            call = pool.pop()
            call.container = container
            call.service = service
            call.node = node
            call.arrival = t
            call.done = done
        else:
            call = _ThreadCall(self, container, service, node, t, done)
        queue = container.queue
        free = container.free_threads
        if free > 0 and not queue:
            self._start(call, self.events.now)
        else:
            queue.append(call)
            if free > 0:
                self._dispatch(container)

    def _run_stages(self, service, node, stage_index, t, done):
        stages = node.stages
        if stage_index >= len(stages):
            done.fire(t)
            return
        calls = stages[stage_index]
        frame = _StageFrame(self, service, node, stage_index + 1, len(calls), t, done)
        if self._resilience is not None:
            self._resilience.submit_children(service, calls, t, frame, done)
            return
        tele = self._telemetry
        for child in calls:
            self._execute_node(
                service,
                child,
                t,
                frame if tele is None else tele.wrap_call(done, child, t, frame),
            )


def _calls_per_request(node):
    """Engine calls one request makes below and at ``node``."""
    return 1 + sum(
        max(1, int(round(child.calls_per_request))) * _calls_per_request(child)
        for stage in node.stages
        for child in stage
    )


#: What a case may switch on; each test run forces one of them on.
HOOKS = ("priority", "kill", "sink", "resilience")


@st.composite
def join_cases(draw, force):
    """A simulator factory for one replay, plus the kill to schedule.

    ``force`` names the hook that is on whatever is drawn.  A kill takes a
    container of ``m0`` — the root of ``svc`` — halfway through, with one
    thread per container there, so it finds calls waiting.
    """
    on = {hook: hook == force or draw(st.booleans()) for hook in HOOKS}
    svc, _ = draw(shared_call_trees(max_sites=8))
    other, _ = draw(shared_call_trees(max_sites=5))
    graphs = [svc, DependencyGraph("other", other.root)]
    names = sorted({name for graph in graphs for name in graph.microservices()})
    seed = draw(st.integers(0, 2**16))
    duration = 0.03
    simulated = {
        name: SimulatedMicroservice(
            name,
            base_service_ms=draw(st.sampled_from([0.5, 1.0, 2.0, 4.0])),
            threads=draw(st.integers(1, 3)),
        )
        for name in names
    }
    containers = {name: draw(st.integers(1, 3)) for name in names}
    kill = None
    if on["kill"]:
        kill = "m0"
        simulated[kill] = SimulatedMicroservice(kill, simulated[kill].base_service_ms, 1)
        containers[kill] = max(containers[kill], 2)
    priority = on["priority"]
    resilience = draw(st.sampled_from(["default", "tight"])) if on["resilience"] else None
    arguments = dict(
        services=[ServiceSpec(g.service, g, 0.0, 1e9) for g in graphs],
        microservices=simulated,
        containers=containers,
        # engine calls per minute, whatever the fan-out
        rates={
            g.service: draw(st.sampled_from([20_000.0, 80_000.0, 200_000.0]))
            / _calls_per_request(g.root)
            for g in graphs
        },
        config=SimulationConfig(
            duration_min=duration,
            warmup_min=0.0,
            seed=seed,
            scheduling="priority" if priority else "fcfs",
            delta=draw(st.sampled_from([0.0, 0.05, 0.5])),
        ),
        priorities={name: {"svc": 0, "other": 1} for name in names} if priority else None,
    )
    if resilience == "default":
        arguments["resilience"] = ResiliencePolicies.default(seed=seed)
    elif resilience == "tight":
        arguments["resilience"] = ResiliencePolicies(
            retry=RetryPolicy(max_attempts=3),
            timeout=TimeoutPolicy(call_timeout_ms=6.0),
            breaker=CircuitBreakerPolicy(failure_threshold=3, cooldown_ms=100.0),
            seed=seed,
        )
        arguments["chaos"] = ChaosSchedule(
            error_windows=[ErrorWindow(names[0], 0.0, duration, 0.2)], seed=seed
        )
    retry = draw(st.booleans())

    def build():
        return ClusterSimulator(
            **arguments, telemetry=TelemetrySink() if on["sink"] else None
        )

    return build, (kill, 0.5 * duration * _MS_PER_MINUTE, retry)


def _replay(sim, kill):
    """Run ``sim`` and ``kill``: everything the two engines must agree on."""
    name, at, retry = kill
    affected = []
    if name is not None:
        sim.events.schedule(
            at, lambda now: affected.append(sim.inject_container_failure(name, retry))
        )
    result = sim.run()
    sink, res = sim._telemetry, sim._resilience
    return {
        "generated": result.generated,
        "completed": result.completed,
        "dropped": result.dropped_requests,
        "failed": result.failed_requests,
        "resilience": result.resilience,
        "affected": affected,
        "e2e": {k: (m.tobytes(), v.tobytes()) for k, (m, v) in result._e2e.items()},
        "own": {k: (m.tobytes(), v.tobytes()) for k, (m, v) in result._own.items()},
        "events": result.events_processed,
        "rng": sim.rng.bit_generator.state,
        "resilience_rng": None if res is None else res.rng.bit_generator.state,
        "spans": None if sink is None else _sha(trace_lines(sink.traces)),
    }


def _assert_same(build, kill):
    oracle = build()
    oracle.__class__ = StageFrameSimulator  # same state, the join frames' path
    theirs = _replay(oracle, kill)
    # A broken join can fan a stage out again on every child it joins,
    # for ever: the engine under test gets a bounded number of record
    # events (a thread release and a join per call at most).
    limit = 2 * theirs["events"] + 100
    fired = [0]

    class Bounded(simulation._Call):
        __slots__ = ()

        def fire(self, finish):
            fired[0] += 1
            assert fired[0] <= limit, "the join never settles"
            super().fire(finish)

    original, simulation._Call = simulation._Call, Bounded
    try:
        ours = _replay(build(), kill)
    finally:
        simulation._Call = original
    for key in theirs:
        assert ours[key] == theirs[key], key
    return ours


class TestCallJoinsItsStages:
    @pytest.mark.parametrize("force", HOOKS)
    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_same_replay_as_join_frames(self, force, data):
        _assert_same(*data.draw(join_cases(force)))

    def test_everything_at_once(self):
        """Social Network under priorities with a sink, the default bundle,
        a crash with retry and an error window: what each part moves."""
        duration = 0.06

        def build():
            return _social_simulator(
                30_000.0,
                duration,
                seed=3,
                telemetry=TelemetrySink(),
                resilience=ResiliencePolicies.default(seed=3),
                chaos=ChaosSchedule(
                    crashes=[
                        CrashEvent(0.3 * duration, "post-storage-mongodb", retry=True)
                    ],
                    error_windows=[
                        ErrorWindow(
                            "post-storage-service", 0.4 * duration, 0.6 * duration, 0.05
                        )
                    ],
                    seed=3,
                ),
            )

        kill = ("compose-post-service", 0.5 * duration * _MS_PER_MINUTE, True)
        ours = _assert_same(build, kill)
        assert ours["affected"][0] > 0  # the kill moved waiting calls
        stats = ours["resilience"]
        assert stats["crashes"] == 1 and stats["retries"] > 0
        assert sum(ours["completed"].values()) > 1_000
        assert ours["spans"] is not None

"""What the engine does per call, as counts — and the priority policy's
``popleft`` against the sort-based implementation it replaced.

Counts, not timings: graphs are resolved into call plans once per
simulator, an idle priority container starts a call without an ``append``
or a ``popleft``, every call that gets a thread — idle, queued or
moved to another container — passes a start block once, a finished or
failed request leaves no object for the cycle collector to find, an
attempt that finishes in time through a closed breaker costs no heap event
and no breaker call, a bare replay builds no object per stage and makes
a pinned number of Python-level calls and no ``len()`` per call, an
observed replay builds one resilience record per attempt, and a run that
is one FCFS station pushes no event and builds no call record while
every other run still does.
"""

import gc
import weakref
from collections import Counter, deque, namedtuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ServiceSpec
from repro.graphs import CallNode, DependencyGraph, call
from repro.resilience import (
    ChaosSchedule,
    CircuitBreaker,
    ErrorWindow,
    ResiliencePolicies,
    manager,
)
from repro.simulator import (
    ClusterSimulator,
    PriorityQueuePolicy,
    SimulatedMicroservice,
    SimulationConfig,
    simulation,
)
from repro.simulator import events as engine_events
from repro.simulator.events import EventQueue
from repro.telemetry import (
    TelemetryConfig,
    TelemetrySink,
    TimeSeriesConfig,
    TimeSeriesStore,
)
from repro.telemetry import hooks as telemetry_hooks
from tests.helpers import count_calls, counted_run, gc_residue
from tests.pinned import expected
from tests.test_engine_equivalence import _social_simulator


def _shared_pair(rate, p_threads, seed=2, containers=2, telemetry=None):
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
        containers={"H": 1, "C": 1, "P": containers},
        rates={"hot": rate, "cold": rate},
        config=SimulationConfig(
            duration_min=0.2, warmup_min=0.0, seed=seed, scheduling="priority"
        ),
        priorities={"P": {"hot": 0, "cold": 1}},
        telemetry=telemetry,
    )


class TestEngineShape:
    @pytest.fixture
    def counts(self, monkeypatch):
        """Call plans compiled; calls made of the policy's queue operations."""
        counts = {"_CallPlan": 0, "append": 0, "popleft": 0}
        count_calls(monkeypatch, simulation._CallPlan, "__init__", counts, "_CallPlan")
        count_calls(monkeypatch, PriorityQueuePolicy, "append", counts)
        count_calls(monkeypatch, PriorityQueuePolicy, "popleft", counts)
        return counts

    def test_idle_priority_containers_start_jobs_directly(self, counts):
        # 64 threads a container at a few calls a second: never a queue
        sim = _shared_pair(rate=900.0, p_threads=64)
        shared = sim._microservices["P"].containers
        assert all(type(c.queue) is PriorityQueuePolicy for c in shared)
        # FCFS has no class of its own: the queue is the deque
        assert all(type(c.queue) is deque for c in sim._microservices["H"].containers)
        result = sim.run()
        assert min(result.completed.values()) > 100
        assert result.completed == result.generated
        assert counts["append"] == 0
        assert counts["popleft"] == 0

    def test_loaded_priority_containers_still_queue(self, counts):
        # P: 2 × 2 threads at 2 ms, 120k calls/min of capacity against 130k
        result = _shared_pair(rate=65_000.0, p_threads=2).run()
        assert result.completed == result.generated
        assert counts["append"] > 1_000
        assert counts["popleft"] == counts["append"]

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

    def test_every_finished_call_was_started_once(self, counts):
        """Idle, queued and re-queued starts all stamp their span's
        processing time, and each finished call is one own-latency sample."""
        sink = TelemetrySink()
        # P near saturation on 4 × 2 threads; H and C (64 threads) stay idle
        sim = _shared_pair(rate=100_000.0, p_threads=2, containers=4, telemetry=sink)
        moved = {}
        sim.events.schedule(
            4_000.0,
            lambda t: moved.update(killed=sim.inject_container_failure("P", retry=True)),
        )

        def scale_down(t):
            moved["scaled"] = sum(
                len(c.queue) for c in sim._microservices["P"].containers[2:]
            )
            sim.scale_container_count("P", 2)

        sim.events.schedule(8_000.0, scale_down)
        result = sim.run()
        assert result.completed == result.generated
        assert not result.dropped_requests
        assert moved["killed"] > 0 and moved["scaled"] > 0  # both paths re-queued
        assert counts["append"] > 1_000  # and calls queued where they arrived
        samples = sum(len(minutes) for minutes, _ in result._own.values())
        stamped = int(np.isfinite(sink.traces.column("proc_ms")).sum())
        assert stamped == samples
        assert samples == 2 * sum(result.completed.values())


def _observed_simulator(duration, sink, faults):
    """Social Network under Erms with ``des_observed``'s hooks on, and its sink.

    Four windows and four scrapes whatever the duration.  ``faults ==
    "failing"`` fails half the calls to post-storage-service over the
    middle of the run under policies that retry nothing, so requests fail.
    """
    telemetry = None
    attached = {}
    if sink:
        telemetry = attached["telemetry"] = TelemetrySink(
            config=TelemetryConfig(window_min=duration / 4),
            timeseries=TimeSeriesStore(
                TimeSeriesConfig(scrape_interval_min=duration / 4)
            ),
        )
    if faults == "failing":
        attached["chaos"] = ChaosSchedule(
            error_windows=[
                ErrorWindow("post-storage-service", 0.2 * duration, 0.8 * duration, 0.5)
            ]
        )
        attached["resilience"] = ResiliencePolicies(seed=0)
    elif faults:
        attached["chaos"] = ChaosSchedule(
            error_windows=[
                ErrorWindow("post-storage-service", 0.4 * duration, 0.6 * duration, 0.05)
            ]
        )
        attached["resilience"] = ResiliencePolicies.default()
    return _social_simulator(10_000.0, duration, seed=0, **attached), telemetry


def _observed_replay(duration, sink, faults):
    """``_observed_simulator`` run.  Returns the simulator too: it outlives
    its run, as under ``--serve``."""
    simulator, telemetry = _observed_simulator(duration, sink, faults)
    return simulator, telemetry, simulator.run()


class TestNoResidue:
    """Per-call records die by reference count when their request does.

    Counted with the collector off (``gc_residue``): what is left
    unreachable is a handful of per-service ``_RequestDone`` free lists,
    and what stays alive — spans and own latencies sit in ``array``
    columns — does not grow with the number of calls.  Two schedules
    retry calls and fail no request; "sink+failures" fails requests.  A
    failed request never fires its root continuation, so its
    ``_TraceCtx`` is never closed and its spans are never flushed (what
    a failed request should emit is a separate question), but its rows
    are values, so nothing of it is left for the collector either.
    """

    @pytest.mark.parametrize(
        "sink, faults",
        [(True, True), (True, False), (False, True), (True, "failing")],
        ids=["sink+resilience", "sink", "resilience", "sink+failures"],
    )
    def test_nothing_scales_with_the_number_of_calls(self, sink, faults):
        _observed_replay(0.01, sink, faults)  # lazy imports, interned names
        runs = []
        for duration in (0.03, 0.06):
            kept = []
            unreachable, growth = gc_residue(
                lambda: kept.extend(_observed_replay(duration, sink, faults))
            )
            _, telemetry, result = kept
            assert unreachable <= 200
            assert growth <= 5_000
            stats = result.resilience
            if faults == "failing":
                assert stats["failed"] > 0
            elif faults:
                assert stats["retries"] > 0 and stats["failed"] == 0
            if sink:
                assert telemetry.kept_traces == sum(result.completed.values())
                assert len(telemetry.metrics.latencies) > 5_000
            runs.append((result.events_processed, growth))
        (short_events, short_growth), (long_events, long_growth) = runs
        assert long_events - short_events > 10_000
        # the parent kept ≈ 0.4 tracked objects per event of extra replay
        assert long_growth - short_growth <= 0.02 * (long_events - short_events)

    def test_a_finished_run_pins_no_trace_context(self, monkeypatch):
        """Recycled ``_Call`` records named their last continuation, so the
        simulator kept the closed contexts of its last calls (and their
        spans, attempts and join frames) for as long as it lived."""
        contexts = []

        class Watched(telemetry_hooks._TraceCtx):
            __slots__ = ("__weakref__",)

            def __init__(self, *args):
                super().__init__(*args)
                contexts.append(weakref.ref(self))

        monkeypatch.setattr(telemetry_hooks, "_TraceCtx", Watched)
        simulator, sink, result = _observed_replay(0.03, True, True)
        assert len(contexts) == sink.sampled_traces > 100
        del sink
        gc.collect()
        assert simulator.result is result  # the simulator is alive
        assert sum(ref() is not None for ref in contexts) == 0


class TestResilienceShape:
    """What the resilience layer adds to a replay, as counts.

    Social Network with an error window under the default policies against
    the same seed with no resilience: the same traffic, so the extra events
    are the retries — one ``_Retry`` each plus the engine events of the
    executions it repeats — and the deadline timers that fired.  An attempt
    that finishes in time through a closed breaker pushes nothing and calls
    no breaker method.
    """

    def test_an_attempt_in_time_costs_no_event(self, monkeypatch):
        counts = dict.fromkeys(
            ("executed", "_breaker_for", "allow", "record_success", "record_failure"), 0
        )
        execute = ClusterSimulator._execute

        def counted(self, service, calls, *args):
            counts["executed"] += len(calls)  # engine calls sent to a container
            return execute(self, service, calls, *args)

        monkeypatch.setattr(ClusterSimulator, "_execute", counted)
        bare = _observed_replay(0.06, sink=False, faults=False)[2]
        executed_bare, counts["executed"] = counts["executed"], 0

        built = {"attempts": 0, "first": 0}

        class Counted(manager._Attempt):
            __slots__ = ()

            def __init__(self, *args):
                super().__init__(*args)
                built["attempts"] += 1
                built["first"] += self.number == 1  # one per logical call

        monkeypatch.setattr(manager, "_Attempt", Counted)
        fired = {"fire": 0}
        count_calls(monkeypatch, manager._DeadlineLane, "fire", fired)
        count_calls(monkeypatch, manager.ResilienceManager, "_breaker_for", counts)
        for name in ("allow", "record_success", "record_failure"):
            count_calls(monkeypatch, CircuitBreaker, name, counts)
        pushed = Counter()
        push = EventQueue.push

        def tallied(self, time, callback):
            if type(callback).__module__ == manager.__name__:
                pushed[type(callback).__name__] += 1
            push(self, time, callback)

        monkeypatch.setattr(EventQueue, "push", tallied)
        simulator, _, result = _observed_replay(0.06, sink=False, faults=True)

        stats = result.resilience
        assert result.generated == bare.generated and result.completed == bare.completed
        assert stats["retries"] > 0 and stats["breaker_opens"] == 0
        assert stats["shed"] == stats["timeouts"] == stats["failed"] == 0
        firings, attempts = fired["fire"], built["attempts"]
        assert result.events_processed - bare.events_processed == (
            stats["retries"] + firings + counts["executed"] - executed_bare
        )
        assert 0 < firings <= 0.01 * attempts
        # one record per attempt, on the heap only a timer per firing
        assert attempts == counts["executed"]
        assert attempts == built["first"] + stats["retries"]
        assert pushed == {"_DeadlineLane": firings, "_Retry": stats["retries"]}
        # one breaker lookup per call site; a closed breaker is never asked
        sites, plans = set(), list(simulator._roots.values())
        while plans:
            plan = plans.pop()
            if plan not in sites:
                sites.add(plan)
                plans.extend(child for stage in plan.stages for child in stage)
        assert 0 < counts["_breaker_for"] <= len(sites) < built["first"]
        assert counts["allow"] == counts["record_success"] == 0
        assert counts["record_failure"] == stats["errors_injected"]


def _counted_replay(simulator, modules, repro_only=False):
    """``simulator.run()`` counted (``tests.helpers.counted_run``), with
    the heap pushes before and during it, the events processed and the
    requests completed."""
    before = simulator.events._counter
    result, counts = counted_run(simulator.run, modules, repro_only)
    return {
        **counts,
        "pushed_before": before,
        "pushed": simulator.events._counter,
        "events": result.events_processed,
        "completed": sum(result.completed.values()),
    }


def counted_call_path(rate=20_000.0, duration=0.05):
    """One seed-0 bare Social Network replay, counted (``_counted_replay``):
    records of ``repro.simulator.simulation`` and ``.events``, every frame."""
    return _counted_replay(
        _social_simulator(rate, duration, seed=0), (simulation, engine_events)
    )


def counted_sink_off_path(rate=20_000.0, duration=0.05):
    """``counted_call_path``'s replay with the cheapest sink attached — no
    spans, no retained trace, four windows — counted (``_counted_replay``):
    records of the simulation, event queue and telemetry hooks modules,
    frames of ``repro`` code only.  A short run first does the lazy
    imports, whatever ran before."""

    def simulator(duration):
        sink = TelemetrySink(
            config=TelemetryConfig(window_min=duration / 4, spans=False, max_traces=0)
        )
        return _social_simulator(rate, duration, seed=0, telemetry=sink)

    simulator(0.01).run()
    return _counted_replay(
        simulator(duration), (simulation, engine_events, telemetry_hooks), repro_only=True
    )


def counted_observed_path(sink):
    """One seed-0 ``_observed_replay(0.06, sink, faults=True)``, counted
    (``_counted_replay``): records of the event queue, simulation, resilience
    manager and telemetry hooks modules, frames of ``repro`` code only.  A
    short run first does the lazy imports, whatever ran before."""
    _observed_replay(0.01, sink, faults=True)
    simulator, _ = _observed_simulator(0.06, sink, faults=True)
    return _counted_replay(
        simulator,
        (engine_events, simulation, manager, telemetry_hooks),
        repro_only=True,
    )


def peak_calls_in_flight(rate=20_000.0, duration=0.05):
    """Most calls between arrival at a container and response at once.

    Read off the same replay's spans: a call's server span runs from its
    arrival at the container to its subtree's completion; at equal times
    arrivals count first.
    """
    sink = TelemetrySink()
    _social_simulator(rate, duration, seed=0, telemetry=sink).run()
    table = sink.traces
    times = np.concatenate((table.column("start"), table.column("finish")))
    rows = len(times) // 2
    closes = np.repeat((0, 1), rows)
    order = np.lexsort((closes, times))
    return int(np.cumsum(1 - 2 * closes[order]).max())


class TestCallPathShape:
    """The engine's counted run (ROADMAP item 2, engine slice).

    ``counted_call_path()`` pinned for equality (``record("bare")``).  The
    parent engine — one
    ``_StageFrame`` per stage fanned out, ``_execute_node`` per call, the
    record recycled at its thread release — made 353 415 Python-level
    calls and built 30 494 ``_StageFrame``, 121 ``_Call``, 123
    ``_RequestDone`` and 3 ``_Arrival`` on this replay, pushing and
    processing 50 178 events for 2 965 requests.  A record now lives until
    its response, so more ``_Call`` are built, never more than the peak
    of calls in flight (324 here).  Records are entered through ``fire``
    (one frame each, as ``__call__`` was), so ``python_calls`` held; the
    engine that sized every stage, container list and draw buffer with
    ``len()`` made 205 596 calls of the builtin on this replay, and the
    one left is the run's ``len(self.services)``.  No ``_Fire`` adapter
    (``repro.simulator.events``) is built: every event is a record.
    Regenerate with ``PYTHONPATH=src python -m tests.pinned engine_shape``.
    """

    def test_a_call_is_one_record_from_arrival_to_response(self):
        counted = counted_call_path()
        assert counted["len_calls"] <= 100
        assert counted == expected(__name__)["bare"]
        assert counted["pushed"] == counted["pushed_before"] + counted["events"]
        assert counted["built"]["_Call"] <= peak_calls_in_flight()

    def test_the_cheapest_sink_costs_a_pinned_amount(self):
        """``counted_sink_off_path()`` pinned for equality
        (``record("sink-off")``): the same traffic as the bare replay, one
        ``_E2EDone`` per request, and one event and ``_Fire`` per window
        tick on top of the bare replay's events.  It made 253 238
        Python-level calls of ``repro`` code (the bare replay makes
        226 075 counting every frame) and 459 ``len()`` calls, nearly all
        from the window ticks' per-container snapshots."""
        counted = counted_sink_off_path()
        assert counted == expected(__name__)["sink-off"]
        bare = expected(__name__)["bare"]
        assert counted["completed"] == counted["built"]["_E2EDone"] == bare["completed"]
        assert counted["events"] == bare["events"] + counted["built"]["_Fire"]
        assert counted["pushed"] == counted["pushed_before"] + counted["events"]


class TestObservedCallPathShape:
    """The observed replay's counted run (ROADMAP item 2, second slice).

    ``counted_observed_path(sink)`` at the "resilience" and "sink +
    resilience" rungs: records built, pushes and events pinned for
    equality (``record(rung)``), Python-level calls and ``len()`` calls
    held under bounds.
    Only frames of ``repro`` code are counted: numpy's Python-level functions
    (``np.unique`` when the sink finalizes) vary with the numpy release.
    The parent resilience layer — one ``_ResilientCall`` per logical call
    driving one ``_AttemptDone`` per attempt, a breaker lookup per logical
    call and an error-window lookup per completion — made 356 770 and
    490 067 calls, building 27 172 ``_ResilientCall`` and 27 187
    ``_AttemptDone``, over the same events.  The parent sink gave every
    attempt a second record for its span (``_SpanDone``: built by
    ``wrap_call``, stamped by ``note_processing``, fired once) and made
    381 524 calls on the sink rung, building 27 187 of them.  A span is
    now fields on the engine's call record, written as one row when the
    call finishes: this layer makes 248 211 and 276 212 calls on CPython
    3.11; the call counts become exact pins once 3.10 and 3.12 are shown
    to agree.  The sink's timers — four window ticks, four TSDB scrapes —
    are bound methods, so the sink rung builds one ``_Fire`` adapter per
    timer event, two frames each.
    The engine that sized its stages, container lists and draw buffers
    with ``len()`` made 144 823 and 151 783 calls of the builtin from
    ``repro`` frames; this one makes 16 824 and 23 460, nearly all from
    admission control reading queue depths (``_MicroserviceState.load``)
    once per request.  Regenerate the pins with ``PYTHONPATH=src python -m
    tests.pinned engine_shape``; print the bounded counts with
    ``PYTHONPATH=src python -c "from tests.test_engine_shape import
    counted_observed_path as c; print(c(False)); print(c(True))"``.
    """

    MAX_CALLS = {"resilience": 255_000, "sink+resilience": 280_000}
    MAX_LEN = {"resilience": 20_000, "sink+resilience": 30_000}

    @pytest.mark.parametrize("rung", sorted(MAX_CALLS))
    def test_one_record_per_attempt(self, rung):
        counted = CASES[rung]()
        assert counted.pop("python_calls") <= self.MAX_CALLS[rung]
        assert counted.pop("len_calls") <= self.MAX_LEN[rung]
        assert counted == expected(__name__)[rung]
        assert counted["pushed"] == counted["pushed_before"] + counted["events"]


#: The counted runs pinned in ``tests/fixtures/engine_shape.json``: the
#: bare replay, the same replay with the cheapest sink attached and the
#: observed replay's rungs.
CASES = {
    "bare": counted_call_path,
    "sink-off": counted_sink_off_path,
    "resilience": lambda: counted_observed_path(sink=False),
    "sink+resilience": lambda: counted_observed_path(sink=True),
}


def record(case):
    """What ``case``'s counted run pins for equality: everything, except
    the observed rungs' Python-level and ``len()`` calls, held under
    bounds in ``TestObservedCallPathShape``."""
    counted = CASES[case]()
    if case in TestObservedCallPathShape.MAX_CALLS:
        del counted["python_calls"], counted["len_calls"]
    return counted


def _probe(seed=4, **changes):
    """A profiling probe's system — one service, one call, one container.

    ``changes`` replace constructor arguments; ``config`` entries are
    merged into the probe's ``SimulationConfig``.
    """
    config = dict(
        duration_min=0.05, warmup_min=0.01, seed=seed, record_own_latency=False
    )
    config.update(changes.pop("config", {}))
    arguments = dict(
        services=[
            ServiceSpec("probe", DependencyGraph("probe", call("M")), 0.0, 1e9)
        ],
        microservices={
            name: SimulatedMicroservice(name, base_service_ms=2.0, threads=4)
            for name in ("M", "N")
        },
        containers={"M": 1},
        rates={"probe": 60_000.0},
        config=SimulationConfig(**config),
        container_multipliers={"M": [1.5]},
    )
    arguments.update(changes)
    return ClusterSimulator(**arguments)


def _two_services():
    specs = [
        ServiceSpec(name, DependencyGraph(name, call("M")), 0.0, 1e9)
        for name in ("probe", "other")
    ]
    return _probe(services=specs, rates={"probe": 30_000.0, "other": 30_000.0})


def _staged_root():
    graph = DependencyGraph("probe", call("M", stages=[[call("N")]]))
    return _probe(services=[ServiceSpec("probe", graph, 0.0, 1e9)])


def _event_scheduled():
    simulator = _probe()
    simulator.events.schedule(1_000.0, lambda t: None)
    return simulator


#: What takes a run off the station path (``simulation`` docstring, "One
#: station"), one probe-shaped simulator each; all serve requests bar the
#: zero rate.
_KEEPS_THE_EVENT_LOOP = {
    "two services": _two_services,
    "a root with a stage": _staged_root,
    "two containers": lambda: _probe(container_multipliers={"M": [1.5, 1.5]}),
    "a priority queue": lambda: _probe(
        config={"scheduling": "priority"}, priorities={"M": {"probe": 0}}
    ),
    "callable rate": lambda: _probe(rates={"probe": lambda minute: 60_000.0}),
    "callable multiplier": lambda: _probe(
        container_multipliers={"M": [lambda minute: 1.5]}
    ),
    "rate 0": lambda: _probe(rates={"probe": 0.0}),
    "a sink": lambda: _probe(
        telemetry=TelemetrySink(config=TelemetryConfig(max_traces=0))
    ),
    "chaos": lambda: _probe(
        chaos=ChaosSchedule(error_windows=[ErrorWindow("M", 0.0, 0.01, 0.5)])
    ),
    "resilience": lambda: _probe(resilience=ResiliencePolicies.default()),
    "an event scheduled before run()": _event_scheduled,
    "own latencies recorded": lambda: _probe(config={"record_own_latency": True}),
}


class TestOneStation:
    """A probe-shaped run never enters the event loop; any other run does."""

    @pytest.fixture
    def built(self, monkeypatch):
        """Per-call records constructed, by class name."""
        built = {"_Call": 0, "_RequestDone": 0}
        for cls in (simulation._Call, simulation._RequestDone):
            count_calls(monkeypatch, cls, "__init__", built, cls.__name__)
        return built

    def test_a_probe_pushes_no_event_and_builds_no_record(self, built):
        simulator = _probe()
        result = simulator.run()
        assert result.completed["probe"] == result.generated["probe"] > 2_000
        assert result.events_processed == 2 * result.completed["probe"]
        assert len(result.latencies("probe", include_warmup=True)) == (
            result.completed["probe"]
        )
        assert simulator.events._counter == 0  # entries ever pushed on the heap
        assert built == {"_Call": 0, "_RequestDone": 0}

    @pytest.mark.parametrize("condition", sorted(_KEEPS_THE_EVENT_LOOP))
    def test_anything_else_takes_the_event_loop(self, condition, built):
        result = _KEEPS_THE_EVENT_LOOP[condition]().run()
        if condition == "rate 0":  # nothing to build; the recursion divides by it
            assert result.generated == {"probe": 0}
        else:
            assert result.generated["probe"] > 500
            assert built["_Call"] > 0


class _SortingPolicy:
    """``PriorityQueuePolicy`` as it was: rank dict, ``sorted`` per ``pop``."""

    def __init__(self, ranks, delta, rng):
        self.ranks = dict(ranks)
        self.delta = delta
        self._rng = rng
        self._default_rank = (max(self.ranks.values()) + 1) if self.ranks else 0
        self._queues = {}
        self._size = 0

    def push(self, job):
        rank = self.ranks.get(job.service, self._default_rank)
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

#: What a queue sees of a waiting call: its service (``step`` tells calls apart).
Waiting = namedtuple("Waiting", "step service")


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
        """``None`` pops, a service name appends a call from that service."""
        new_rng, old_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        new = PriorityQueuePolicy(ranks, delta=delta, rng=new_rng)
        old = _SortingPolicy(ranks, delta, old_rng)
        for step, service in enumerate(ops):
            if service is None:
                # the engine asks a queue for a call only when it has one
                assert (new.popleft() if new else None) == old.pop()
            else:
                new.append(Waiting(step, service))
                old.push(Waiting(step, service))
            assert len(new) == len(old)
            assert new_rng.bit_generator.state == old_rng.bit_generator.state
        while len(old):
            assert new.popleft() == old.pop()
            assert new_rng.bit_generator.state == old_rng.bit_generator.state
        assert not new and len(new) == 0

    def test_draws_happen_only_between_contending_ranks(self):
        rng = np.random.default_rng(7)
        untouched = np.random.default_rng(7).bit_generator.state
        queue = PriorityQueuePolicy({"hot": 0, "cold": 1}, delta=0.3, rng=rng)
        for step in range(5):
            queue.append(Waiting(step, "cold"))
        assert [queue.popleft().step for _ in range(5)] == list(range(5))
        assert rng.bit_generator.state == untouched
        queue.append(Waiting("c", "cold"))
        queue.append(Waiting("h", "hot"))
        assert {queue.popleft().step, queue.popleft().step} == {"c", "h"}
        assert rng.bit_generator.state != untouched

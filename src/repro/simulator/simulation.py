"""The cluster simulator: request lifecycles over dependency graphs.

One simulation run models a fixed allocation (containers per microservice,
optionally with per-container interference multipliers from a placement)
serving one or more services whose requests arrive as a Poisson process.

Request lifecycle at a call node:

1. the request joins the queue of one of the microservice's containers
   (round-robin across containers, like an L4 load balancer);
2. when a thread frees, the container's queue (FCFS or δ-priority) hands
   out the next call; the thread is held for an exponentially distributed
   processing time with mean ``base_service_ms × host multiplier``;
3. the thread is released, downstream stages execute (all calls of a stage
   in parallel, stages in sequence), and the response propagates upward.

The *own latency* of a microservice — queueing plus processing — matches
the quantity the tracing coordinator extracts via paper Eq. 1, and its
P95-vs-load curve has the paper's piecewise-linear shape.

Engine fast path
----------------

What can be resolved once is resolved at construction.  Each site of a
service's :class:`~repro.graphs.GraphPlan` — the form the allocator reads —
is bound to a *call plan* (:class:`_CallPlan`; ``_compile``, one loop from
the last site up): the callee's live state instead of its name, and its
downstream stages as tuples with ``calls_per_request`` expanded into
repeated entries and empty stages dropped.  Arrivals and calls carry
plans, so running a call is attribute reads on the plan — no name lookup,
no per-node cache.  A response climbs its call chain as nested calls (one
record, ≈ 2 frames, a level): a chain the recursion limit cannot hold is a
:class:`~repro.graphs.GraphValidationError` from ``_run_events``.

A call is one record from its arrival at a container to its response
(:class:`_Call`, recycled through a free list).  ``_execute``, the one
fan-out loop (arrivals, resilience attempts, stage fan-outs), takes it
from the free list; it waits in the container's queue if it must, goes on
the event heap when it gets a thread, is its own thread-release event —
own latency, the first downstream stage, then ``_dispatch`` for the next
waiting call — and then the join point of its stages, freed once it has
delivered its response.  A call starts in one of two blocks, the only code
that evaluates a callable multiplier, draws a service time, stamps
telemetry and pushes a completion.  A call that finds a free thread and
nothing queued starts in place in ``_execute``, whatever the discipline
(the *idle start*: no queue roundtrip); for δ-priority containers this is
exact, not approximate:
:class:`~repro.simulator.scheduler.PriorityQueuePolicy` consults the RNG
only to choose between two or more non-empty ranks, so the draw order is
the one ``append`` + ``popleft`` would have produced.  Every other call
waits and is started by ``_start`` from the ``_dispatch`` loop, which asks
the queue (``popleft``) while threads are free.  Scale-down and
kill-with-retry move waiting records to surviving containers through
``_requeue``.

The hot loop avoids per-event closure allocation: arrivals and calls
are ``__slots__`` records, and every event and continuation is entered
through its ``fire(t)`` method — the
:class:`~repro.simulator.events.EventQueue` run loop calls
``record.fire(time)``, a finished call ``done.fire(finish)``.  No
``len()`` is called on the per-call path: a plan carries its stage count
and stage sizes, a microservice its container count, and each batched
draw buffer its index, which starts at ``_RNG_BLOCK`` so the first draw
refills.  RNG draws are batched: unit exponentials per microservice
(service times) and pre-scaled inter-arrival gaps per service (static
rates) are drawn in vectorized numpy blocks, refilled on exhaustion.
Containers with a static interference multiplier precompute their mean
service time so the ``callable()`` check never touches the per-call
path.  Latency samples append to flat ``array('d')`` column buffers; the
tuple-list views (``end_to_end``, ``own_latency``) are built
lazily.  For a fixed seed the engine is fully deterministic; its sample
streams are pinned by ``tests/test_determinism_golden.py`` and, case by
case against the engine before call plans, by
``tests/test_engine_equivalence.py``.

One station
-----------

Offline profiling (§5.2, ``experiments.harness.simulate_profiling_sweep``)
drives one container of one microservice at a fixed rate and reads
nothing but end-to-end latency: an M/M/c station (:mod:`repro.queueing`),
whose start and finish times follow from the arrival and service draws
by the Kiefer–Wolfowitz recursion — a call starts at the later of its arrival
and the earliest time a thread is free — with no event heap, no ``_Call``
and no ``_RequestDone``.  ``run()`` decides once, from state it can read
when called, whether the run is that system (``_single_station``):

* one service, whose compiled root plan has no stages;
* exactly one container in rotation, FCFS (its queue is a ``deque``) with
  a static multiplier (``mean_ms is not None``);
* a static positive arrival rate;
* no telemetry sink and no resilience manager (so no chaos either);
* nothing already on ``self.events`` — an autoscaler tick, a delayed
  scale-up, a scheduled kill;
* ``record_own_latency`` off.

If so, ``_run_station`` replays it; every other run takes the event loop
(``_run_events``: everything described above), which is also the
reference the recursion is tested against
(``tests/test_properties.py::TestStationRecursion``).  Both leave the
same bytes: ``generated``, ``completed``, the end-to-end columns in
completion order, ``events_processed`` (one arrival and one completion
per request), ``events.now`` and the generator's state.  That holds
because the recursion draws the same ``_RNG_BLOCK`` blocks from the same
generator in the event loop's order.  Gap block *j* is drawn as arrival
1024 *j* − 1 fires (block 0 at the initial kick; an arrival past the
end of the run is never scheduled, so it draws nothing), service block
*m* as call 1024 *m* starts; a station with more than a block of calls
queued therefore draws gap blocks ahead of service blocks.  The refill
rule: before drawing a service block, draw every gap block whose due
arrival is *earlier* than that call's start.  Arrival times are the
sequential running sum ``now + gap`` (``np.cumsum``), cut at the end of
the run; completions fire in (time, push count) order and calls start in
arrival order, so the samples are written in stable finish order.

One thing is not reproduced: an exact floating-point tie between the
arrival that refills the gap block and the completion that starts the
call refilling the service block.  The heap would break it by push order
(whichever of the two was scheduled first); the recursion always draws
the service block first.  An arrival whose own call starts at once is
not such a tie — there the event loop, too, draws service before gap —
and both times are sums of continuous draws, so the case has probability
zero and no seed is known to hit it.

Live telemetry
--------------

Passing a :class:`~repro.telemetry.TelemetrySink` as ``telemetry=``
instruments the run: a sampled request's call record is also its
CLIENT/SERVER span (``ctx``, ``ordinal``, the ``parent`` ordinal and
``caller`` microservice set when it is sent, the processing stamp when
it gets a thread), and when its subtree completes it appends one row of
values to its trace, flushed per finished request into the sink's
columnar span table (``sink.traces``: lazy ``TraceView`` items, no
per-span objects; ``analyze_run`` reads it as one forest — stages, Eq. 1
and critical trees of all blocks in one pass over the columns — not
view by view); a finished call is recorded once, in the run's
own-latency columns (kept whenever a sink is attached), from which the
sink fills its ``MetricsStore`` at ``finalize``; a per-window tick
snapshots engine health, closes SLA windows and notes the containers
each flushed minute's calls divide by, and each container kill or
restart goes into its decision log (a ``scale_container_count`` is
recorded by the control loop that calls it).  The sink never touches
the engine RNG, so the pinned golden streams hold with telemetry on or
off.  With ``telemetry=None`` and no resilience manager (the defaults)
the hooks cost nine ``is not None`` tests, each where its hook acts:
``wrap_root`` per request (``_Arrival``); the span parent per fan-out and
the span fields per call sent (``_execute``); the processing stamp per
call started (``_execute``'s idle start, and ``_start`` for a queued
call) and the row per call finished (``_Call``), both on the call's
``ctx``, which no call has without a sink; for resilience, shed and
start per request (``_Arrival``) and ``submit_children`` per stage
(``_Call``).
``benchmarks/e2e`` measures both sides (``des_replay``,
``des_observed``).
"""

from __future__ import annotations

import math
import sys
from array import array
from collections import deque
from dataclasses import dataclass
from heapq import heappush, heapreplace
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.core.model import ServiceSpec
from repro.graphs import GraphPlan, GraphValidationError
from repro.simulator.events import EventQueue
from repro.simulator.scheduler import PriorityQueuePolicy

if TYPE_CHECKING:  # avoid a runtime import cycle; the sink is duck-typed
    from repro.resilience.chaos import ChaosSchedule
    from repro.resilience.policies import ResiliencePolicies
    from repro.telemetry.hooks import TelemetrySink

#: Request arrival rate: requests/minute, constant or a function of the
#: current minute (for dynamic workloads).
RateSpec = Union[float, Callable[[float], float]]

_MS_PER_MINUTE = 60_000.0
_RNG_BLOCK = 1024  # exponential draws per vectorized refill


@dataclass(frozen=True)
class SimulatedMicroservice:
    """Ground-truth performance parameters of one microservice.

    Attributes:
        name: Microservice name (must match graph node names).
        base_service_ms: Mean processing time on an idle host.
        threads: Worker threads per container (the paper's explanation for
            the cut-off point: beyond thread saturation, queueing begins).
    """

    name: str
    base_service_ms: float = 2.0
    threads: int = 4

    def __post_init__(self) -> None:
        if not 0 < self.base_service_ms < math.inf:
            raise ValueError(
                f"base_service_ms of {self.name!r} must be positive and "
                f"finite, got {self.base_service_ms}"
            )
        if self.threads < 1:
            raise ValueError(f"threads of {self.name!r} must be >= 1")


@dataclass
class SimulationConfig:
    """Run-level knobs."""

    duration_min: float = 5.0
    warmup_min: float = 0.5
    seed: int = 0
    delta: float = 0.05
    scheduling: str = "fcfs"  # "fcfs" | "priority"
    #: Keep every call's own latency; always on while a sink is attached.
    record_own_latency: bool = True

    def __post_init__(self) -> None:
        if not 0 < self.duration_min < math.inf:
            raise ValueError(
                f"duration_min must be positive and finite, got {self.duration_min}"
            )
        if not 0 <= self.warmup_min < self.duration_min:
            raise ValueError("warmup_min must be in [0, duration_min)")
        if not 0.0 <= self.delta < 1.0:
            raise ValueError(f"delta must be in [0, 1), got {self.delta}")
        if self.scheduling not in ("fcfs", "priority"):
            raise ValueError(
                f"scheduling must be 'fcfs' or 'priority', got {self.scheduling!r}"
            )


class _CallPlan:
    """One site of a service's graph plan, bound for the engine.

    Bound once per simulator (``ClusterSimulator._compile``): the
    callee's live state in place of its name, and the downstream stages
    with ``calls_per_request`` already expanded into repeated entries and
    empty stages dropped, so executing a call looks nothing up.  The
    telemetry and resilience hooks receive plans where they used to
    receive :class:`~repro.graphs.CallNode` and read ``microservice``.
    ``n_stages`` and ``sizes`` (calls per stage) spare the engine a
    ``len()`` per call.
    """

    __slots__ = ("microservice", "state", "stages", "n_stages", "sizes")

    def __init__(
        self,
        microservice: str,
        state: "_MicroserviceState",
        stages: Tuple[Tuple["_CallPlan", ...], ...],
    ):
        self.microservice = microservice
        self.state = state
        self.stages = stages
        self.n_stages = len(stages)
        self.sizes = tuple(len(calls) for calls in stages)


class _Container:
    """A container: thread pool + queue + interference multiplier.

    ``queue`` holds the calls waiting for a thread: a ``deque`` under
    FCFS, a :class:`~repro.simulator.scheduler.PriorityQueuePolicy` under
    δ-priority — the engine uses ``append`` / ``popleft`` / ``len`` and
    nothing else.  ``multiplier`` may be a float (static colocation
    level) or a callable of the current simulation minute (iBench-style
    injection schedules, paper §6.2 fixes a level per hour).  The static
    case precomputes ``mean_ms`` so starting a call never re-checks
    ``callable()``.
    """

    __slots__ = ("queue", "free_threads", "multiplier", "static_mult", "mean_ms")

    def __init__(self, queue, threads: int, base_ms: float, multiplier):
        self.queue = queue
        self.free_threads = threads
        if callable(multiplier):
            self.multiplier = multiplier
            self.static_mult = None
            self.mean_ms = None
        else:
            self.multiplier = float(multiplier)
            self.static_mult = float(multiplier)
            self.mean_ms = base_ms * float(multiplier)


class _MicroserviceState:
    """All containers of one microservice plus dispatch bookkeeping.

    ``n`` is ``len(containers)``, kept by :meth:`add` and
    :meth:`remove_last`, the only writers of ``containers``.
    """

    __slots__ = (
        "spec",
        "containers",
        "n",
        "_next",
        "base_ms",
        "exp_buf",
        "exp_i",
        "own_min",
        "own_lat",
    )

    def __init__(self, spec: SimulatedMicroservice, containers: List[_Container]):
        self.spec = spec
        self.containers = containers
        self.n = len(containers)
        self._next = 0
        self.base_ms = spec.base_service_ms
        self.exp_buf: List[float] = []  # unit exponentials (service times)
        self.exp_i = _RNG_BLOCK  # exhausted: the first draw refills
        self.own_min: Optional[array] = None  # wired when recording
        self.own_lat: Optional[array] = None

    def pick(self) -> _Container:
        index = self._next
        if index >= self.n:
            index = 0
        self._next = index + 1
        return self.containers[index]

    def add(self, container: _Container) -> None:
        self.containers.append(container)
        self.n += 1

    def remove_last(self) -> _Container:
        """Take one container out of rotation (it keeps finishing work)."""
        if self.n <= 1:
            raise ValueError("cannot remove the last container")
        self.n -= 1
        return self.containers.pop()

    def load(self) -> Tuple[int, int, int]:
        """``(queued calls, busy threads, threads)`` over containers in rotation.

        What the telemetry snapshot, the TSDB scrape and admission
        control read of the engine's state.
        """
        threads = self.spec.threads
        queued = busy = 0
        for container in self.containers:
            queued += len(container.queue)
            busy += threads - container.free_threads
        return queued, busy, threads * self.n


class SimulationResult:
    """Everything measured during one run.

    The recording hot path appends to flat ``array('d')`` column buffers;
    ``end_to_end`` and ``own_latency`` build the familiar
    ``{name: [(minute, latency_ms), ...]}`` views lazily on access, and
    ``latencies()`` reads the columns directly without building tuples.
    """

    def __init__(self, duration_min: float, warmup_min: float):
        self.duration_min = duration_min
        self.warmup_min = warmup_min
        self.generated: Dict[str, int] = {}
        self.completed: Dict[str, int] = {}
        self.containers: Dict[str, int] = {}
        #: Events the engine processed to produce this result (perf metric).
        self.events_processed: int = 0
        #: Per service: queued calls lost to a ``retry=False`` container
        #: kill (an upper bound on lost requests — a fan-out request can
        #: lose several calls).  Previously only inferable from
        #: ``generated > completed``.
        self.dropped_requests: Dict[str, int] = {}
        #: Per service: requests rejected at arrival by admission control.
        self.shed_requests: Dict[str, int] = {}
        #: Per service: requests that failed after exhausting resilience
        #: policies (injected errors / timeouts / open breakers).
        self.failed_requests: Dict[str, int] = {}
        #: Resilience-layer counters (``ResilienceStats.to_dict``) when a
        #: chaos schedule or policy bundle was attached; ``None`` otherwise.
        self.resilience: Optional[Dict[str, int]] = None
        self._e2e: Dict[str, Tuple[array, array]] = {}
        self._own: Dict[str, Tuple[array, array]] = {}

    def __repr__(self) -> str:
        return (
            f"SimulationResult(duration_min={self.duration_min}, "
            f"warmup_min={self.warmup_min}, generated={self.generated}, "
            f"completed={self.completed}, containers={self.containers})"
        )

    # -- column buffers (engine-internal) ------------------------------
    def _e2e_buffers(self, service: str) -> Tuple[array, array]:
        pair = self._e2e.get(service)
        if pair is None:
            pair = self._e2e[service] = (array("d"), array("d"))
        return pair

    def _own_buffers(self, name: str) -> Tuple[array, array]:
        pair = self._own.get(name)
        if pair is None:
            pair = self._own[name] = (array("d"), array("d"))
        return pair

    # -- tuple-list views (lazy; same shape as the pre-fast-path engine)
    @property
    def end_to_end(self) -> Dict[str, List[Tuple[float, float]]]:
        """Per service: (completion minute, end-to-end latency ms) pairs."""
        return {
            service: list(zip(minutes, values))
            for service, (minutes, values) in self._e2e.items()
        }

    @property
    def own_latency(self) -> Dict[str, List[Tuple[float, float]]]:
        """Per microservice: (minute, own latency ms) pairs."""
        return {
            name: list(zip(minutes, values))
            for name, (minutes, values) in self._own.items()
        }

    @property
    def calls_per_minute(self) -> Dict[str, Dict[int, int]]:
        """Per microservice: calls finished per minute index (a view of
        the own-latency minute column; ``{}`` where no call finished)."""
        view = {}
        for name, (minutes, _) in self._own.items():
            index, calls = np.unique(
                np.frombuffer(minutes, dtype=np.float64).astype(np.int64),
                return_counts=True,
            )
            view[name] = dict(zip(index.tolist(), calls.tolist()))
        return view

    # -- measurements ---------------------------------------------------
    def latencies(self, service: str, include_warmup: bool = False) -> np.ndarray:
        """End-to-end latency samples of one service (post-warmup)."""
        pair = self._e2e.get(service)
        if pair is None:
            return np.array([])
        minutes_arr, values_arr = pair
        values = np.frombuffer(values_arr, dtype=np.float64)
        if include_warmup:
            return values.copy()
        minutes = np.frombuffer(minutes_arr, dtype=np.float64)
        return values[minutes >= self.warmup_min]

    def has_samples(self, service: str) -> bool:
        """Whether ``service`` has a post-warmup sample to measure.

        :meth:`tail_latency` and :meth:`sla_violation_rate` raise without
        one.  ``completed`` counts warm-up requests too, so a service can
        have completed requests and still nothing to measure.
        """
        return len(self.latencies(service)) > 0

    def tail_latency(self, service: str, percentile: float = 95.0) -> float:
        """P-th percentile end-to-end latency of one service."""
        values = self.latencies(service)
        if len(values) == 0:
            raise ValueError(f"no completed requests for service {service!r}")
        return float(np.percentile(values, percentile))

    def sla_violation_rate(self, service: str, sla: float) -> float:
        """Fraction of post-warmup requests exceeding ``sla`` ms."""
        values = self.latencies(service)
        if len(values) == 0:
            raise ValueError(f"no completed requests for service {service!r}")
        return float(np.mean(values > sla))

    def violation_rate_by_window(
        self,
        service: str,
        sla: float,
        window_min: float = 1.0,
        include_warmup: bool = True,
    ) -> Dict[int, float]:
        """Per-window fraction of requests exceeding ``sla`` ms.

        The windowed counterpart of :meth:`sla_violation_rate`: requests
        are bucketed by ``int(completion_minute / window_min)`` — the
        same rule the live :class:`~repro.telemetry.SLAMonitor` applies,
        so the two agree window for window on the same run.  By default
        every recorded request is bucketed (the live monitor sees warmup
        traffic too); with ``include_warmup=False`` only post-warmup
        samples count, and the count-weighted average over the returned
        windows equals :meth:`sla_violation_rate` exactly.

        Returns:
            ``{window_index: violation_fraction}`` for every non-empty
            window, in ascending window order.
        """
        if window_min <= 0:
            raise ValueError("window_min must be positive")
        pair = self._e2e.get(service)
        if pair is None or len(pair[0]) == 0:
            raise ValueError(f"no completed requests for service {service!r}")
        minutes = np.frombuffer(pair[0], dtype=np.float64)
        values = np.frombuffer(pair[1], dtype=np.float64)
        if not include_warmup:
            mask = minutes >= self.warmup_min
            minutes, values = minutes[mask], values[mask]
        windows = (minutes / window_min).astype(int)
        rates: Dict[int, float] = {}
        for window in np.unique(windows):
            in_window = values[windows == window]
            rates[int(window)] = float(np.mean(in_window > sla))
        return rates

    def to_metrics_store(
        self,
        cpu_utilization: float = 0.0,
        memory_utilization: float = 0.0,
        host_id: str = "sim-host",
    ):
        """Export the run's telemetry as a Prometheus-like MetricsStore.

        Bridges the simulator to the offline-profiling pipeline (§5.2):
        per-request own latencies become latency observations, per-minute
        completion counts become call-count samples (normalized by the
        final container count), and the given host utilization is
        recorded once per minute.  Raises ``ValueError`` for a run made
        with ``record_own_latency=False`` and no sink, which has neither
        series.
        """
        from repro.tracing.metrics import MetricsStore

        if not self._own:
            raise ValueError(
                "to_metrics_store() needs a run with record_own_latency=True"
            )
        store = MetricsStore()
        self._fill_steady(
            store, lambda minute: self.containers,
            cpu_utilization, memory_utilization, host_id,
        )
        return store

    def _fill_steady(
        self,
        store,
        containers: Callable[[int], Mapping[str, int]],
        cpu_utilization: float = 0.0,
        memory_utilization: float = 0.0,
        host_id: str = "sim-host",
    ) -> None:
        """Write the run's steady-state samples into ``store``.

        Own latencies and call counts of minutes in [warmup, duration)
        only: warmup transients and the drain tail would corrupt the
        piecewise fit.  A minute's calls divide by ``containers(minute)``;
        the host utilization is recorded for every minute 0 .. int(duration).
        """
        first = self.warmup_min
        last = self.duration_min
        for name, (minutes_arr, values_arr) in self._own.items():
            minutes = np.frombuffer(minutes_arr, dtype=np.float64)
            steady = (first <= minutes) & (minutes < last)
            store.extend_latencies(
                name,
                minutes[steady],
                np.frombuffer(values_arr, dtype=np.float64)[steady],
            )
        for name, per_minute in self.calls_per_minute.items():
            for minute, calls in per_minute.items():
                if first <= minute < last:
                    count = max(containers(minute).get(name, 1), 1)
                    store.record_calls(float(minute), name, float(calls), count)
        for minute in range(int(last) + 1):
            store.record_utilization(
                float(minute), host_id, cpu_utilization, memory_utilization
            )


class _RequestDone:
    """End-of-request continuation: counts completion, records latency.

    Recycled through its arrival process's free list: all fields except
    ``start`` are per-service constants, so reuse is a pop plus one store.
    The pool is bounded by the peak number of in-flight requests.
    """

    __slots__ = ("pool", "completed", "name", "minutes", "values", "start")

    def __init__(self, pool, completed, name, minutes, values, start):
        self.pool = pool
        self.completed = completed
        self.name = name
        self.minutes = minutes
        self.values = values
        self.start = start

    def fire(self, finish: float) -> None:
        self.completed[self.name] += 1
        self.minutes.append(finish / _MS_PER_MINUTE)
        self.values.append(finish - self.start)
        self.pool.append(self)


class _Call:
    """One call, from its arrival at a container to its response.

    Taken from the free list in ``_execute``, it waits in the container's
    queue if it has to, is on the event heap while it holds a thread and
    is itself the thread-release event; then it joins its stages, each
    child completing into it: ``pending`` children of ``stage`` are out
    (0 before the release), ``latest`` is the stage's last finish.
    Scale-down and kills move a waiting call by re-pointing ``container``.

    A call of a sampled request is also its span (``ctx``, its trace, is
    ``None`` otherwise): ``ordinal`` and the ``parent`` ordinal and
    ``caller`` microservice it hangs under are set when it is sent,
    ``proc_start`` / ``proc_ms`` / ``mult`` when it gets a thread, and
    when its subtree completes it appends one row of values to its trace.
    """

    __slots__ = ("sim", "container", "service", "node", "arrival", "done",
                 "pending", "latest", "stage", "ctx", "ordinal", "parent",
                 "caller", "proc_start", "proc_ms", "mult")

    def __init__(self, sim, container, service, node, arrival, done):
        self.sim = sim
        self.container = container
        self.service = service
        self.node = node
        self.arrival = arrival
        self.done = done
        self.pending = 0
        self.ctx = None

    def fire(self, finish: float) -> None:
        pending = self.pending
        if pending:  # a child returned
            if finish > self.latest:
                self.latest = finish
            self.pending = pending = pending - 1
            if pending:
                return
            stage = self.stage + 1
            finish = self.latest
            container = None
        else:  # the thread release
            container = self.container
            container.free_threads += 1
            state = self.node.state
            own_min = state.own_min
            if own_min is not None:
                own_min.append(finish / _MS_PER_MINUTE)
                state.own_lat.append(finish - self.arrival)
            stage = 0
        sim = self.sim
        node = self.node
        if stage < node.n_stages:
            calls = node.stages[stage]  # never empty: plans drop empty stages
            self.stage = stage
            self.latest = finish
            self.pending = node.sizes[stage]
            res = sim._resilience
            if res is not None:  # resilient logical RPCs
                res.submit_children(self.service, calls, finish, self, self.done)
            else:
                sim._execute(self.service, calls, finish, self, self)
        else:
            ctx = self.ctx
            if ctx is not None:  # the span's row, as SpanTable.append_trace reads it
                rows = ctx.rows
                if rows is None:  # its attempt was abandoned and outlived the trace
                    ctx.sink.drop_late_span()
                else:
                    rows.extend((
                        self.arrival, finish, self.proc_start, self.proc_ms,
                        self.mult, self.ordinal, node.microservice, self.parent,
                        self.caller,
                    ))
            done = self.done
            sim._call_pool.append(self)  # bounded by peak calls in flight
            done.fire(finish)
        if container is not None and container.queue:
            sim._dispatch(container)


class _Arrival:
    """Self-rescheduling Poisson arrival process of one service.

    Static positive rates pre-draw inter-arrival gaps (already scaled by
    the mean gap) in numpy blocks; dynamic rates re-evaluate the rate
    callable per arrival and scale a shared unit-exponential draw.
    """

    __slots__ = (
        "sim",
        "spec",
        "name",
        "root",
        "end_ms",
        "events",
        "rate_spec",
        "mean_gap",
        "gap_buf",
        "gap_i",
        "generated",
        "completed",
        "e2e_minutes",
        "e2e_values",
        "done_pool",
        "tele",
        "res",
    )

    def __init__(self, sim: "ClusterSimulator", spec: ServiceSpec, end_ms: float):
        self.sim = sim
        self.spec = spec
        self.name = spec.name
        self.root = sim._roots[spec.name]
        self.end_ms = end_ms
        self.events = sim.events
        rate_spec = sim._rates.get(spec.name, 0.0)
        if callable(rate_spec):
            self.rate_spec = rate_spec
            self.mean_gap = None
        else:
            self.rate_spec = None
            rate = float(rate_spec)
            self.mean_gap = _MS_PER_MINUTE / rate if rate > 0.0 else None
        self.gap_buf: List[float] = []
        self.gap_i = _RNG_BLOCK  # exhausted: the first draw refills
        result = sim.result
        self.generated = result.generated
        self.completed = result.completed
        self.e2e_minutes, self.e2e_values = result._e2e_buffers(spec.name)
        self.done_pool: List[_RequestDone] = []
        self.tele = sim._telemetry
        self.res = sim._resilience

    def fire(self, t: float) -> None:
        name = self.name
        self.generated[name] += 1
        res = self.res
        if res is not None and res.should_shed(name, t):
            res.shed(name, t)  # admission control at the front door
        else:
            pool = self.done_pool
            if pool:
                done = pool.pop()
                done.start = t
            else:
                done = _RequestDone(
                    pool, self.completed, name, self.e2e_minutes, self.e2e_values, t
                )
            tele = self.tele
            if tele is not None:
                done = tele.wrap_root(name, self.root, t, done)
            if res is not None:
                # The request runs as resilient logical calls (timeouts,
                # retries, breakers) managed off the engine fast path.
                res.start_request(name, self.root, t, done)
            else:  # a sampled request's root call hangs under its trace
                self.sim._execute(name, (self.root,), t, done, done)
        self.schedule_next(t)

    def schedule_next(self, now: float) -> None:
        """Schedule the next arrival after ``now`` (also the initial kick)."""
        mean_gap = self.mean_gap
        if mean_gap is not None:
            # Static positive rate: batched, pre-scaled gap draws.
            index = self.gap_i
            if index >= _RNG_BLOCK:
                self.gap_buf = self.sim.rng.exponential(
                    mean_gap, _RNG_BLOCK
                ).tolist()
                index = 0
            self.gap_i = index + 1
            arrival = now + self.gap_buf[index]
            if arrival <= self.end_ms:
                self.events.push(arrival, self)
            return
        self._schedule_dynamic(now)

    def _schedule_dynamic(self, now: float) -> None:
        rate_spec = self.rate_spec
        if rate_spec is None:
            return  # static zero rate: no arrivals, ever
        rate = float(rate_spec(now / _MS_PER_MINUTE))
        if rate <= 0.0:
            # Re-probe one minute later (a dynamic rate may become positive).
            if now + _MS_PER_MINUTE <= self.end_ms:
                self.events.schedule(now + _MS_PER_MINUTE, self.schedule_next)
            return
        gap = self.sim._draw_unit() * (_MS_PER_MINUTE / rate)
        arrival = now + gap
        if arrival <= self.end_ms:
            self.events.push(arrival, self)


class ClusterSimulator:
    """Simulates a fixed allocation serving several services.

    Args:
        services: Service specs (graph + SLA); arrival rates come from
            ``rates`` so the same specs can be replayed at many workloads.
        microservices: Ground-truth performance parameters by name.
        containers: Containers per microservice (or per-container
            multiplier lists via ``container_multipliers``).
        rates: Per-service arrival rate (req/min), constant or callable.
        config: Run configuration.
        priorities: Per shared microservice, service priority ranks
            (required when ``config.scheduling == "priority"``).
        container_multipliers: Optional explicit per-container service-time
            multipliers, e.g. derived from a placement via
            :func:`~repro.simulator.interference.host_multiplier`;
            overrides ``containers`` counts for listed microservices.
        telemetry: Optional live :class:`~repro.telemetry.TelemetrySink`;
            when given, the run emits spans, windowed metrics, SLA
            alerts, and container kill/restart records as it executes.
        chaos: Optional :class:`~repro.resilience.ChaosSchedule` of
            deterministic faults (container crashes with restart
            recovery, per-RPC error windows, latency spikes) replayed
            inside the event loop.
        resilience: Optional :class:`~repro.resilience.ResiliencePolicies`
            bundle (timeouts, retries, circuit breakers, admission
            control) woven into the request path.  Attaching either
            ``chaos`` or ``resilience`` activates the resilience manager;
            with both ``None`` (the default) the engine is untouched and
            the golden determinism fingerprints hold bit-for-bit.
    """

    def __init__(
        self,
        services: Sequence[ServiceSpec],
        microservices: Mapping[str, SimulatedMicroservice],
        containers: Mapping[str, int],
        rates: Mapping[str, RateSpec],
        config: Optional[SimulationConfig] = None,
        priorities: Optional[Mapping[str, Mapping[str, int]]] = None,
        container_multipliers: Optional[Mapping[str, Sequence[float]]] = None,
        telemetry: Optional["TelemetrySink"] = None,
        chaos: Optional["ChaosSchedule"] = None,
        resilience: Optional["ResiliencePolicies"] = None,
    ):
        self.services = list(services)
        self.config = config or SimulationConfig()
        self._telemetry = telemetry
        self._resilience = None
        #: microservice -> ((start_min, end_min, multiplier), ...) chaos
        #: latency-spike windows; applied to every container of the
        #: microservice, including ones created later (scale-ups, restarts).
        self._spikes: Dict[str, Tuple[Tuple[float, float, float], ...]] = {}
        if chaos is not None:
            for spike in chaos.latency_spikes:
                self._spikes[spike.microservice] = self._spikes.get(
                    spike.microservice, ()
                ) + ((spike.start_min, spike.end_min, spike.multiplier),)
        self.priorities = {k: dict(v) for k, v in (priorities or {}).items()}
        self.rng = np.random.default_rng(self.config.seed)
        self.events = EventQueue()
        self.result = SimulationResult(
            duration_min=self.config.duration_min,
            warmup_min=self.config.warmup_min,
        )
        self._rates: Dict[str, RateSpec] = dict(rates)
        self._arrivals_open = True
        self._call_pool: List[_Call] = []
        self._unit_buf: List[float] = []
        self._unit_i = _RNG_BLOCK  # exhausted: the first draw refills
        self._microservices: Dict[str, _MicroserviceState] = {}
        needed = {
            name for spec in self.services for name in spec.graph.microservices()
        }
        for name in sorted(needed):
            if name not in microservices:
                raise ValueError(f"no SimulatedMicroservice for {name!r}")
            spec = microservices[name]
            multipliers = None
            if container_multipliers and name in container_multipliers:
                multipliers = [
                    m if callable(m) else float(m)
                    for m in container_multipliers[name]
                ]
                if not multipliers:
                    raise ValueError(
                        f"container_multipliers for {name!r} is empty"
                    )
            else:
                count = containers.get(name, 1)
                if count < 1:
                    raise ValueError(
                        f"container count for {name!r} must be >= 1, got {count}"
                    )
                multipliers = [1.0] * count
            container_objs = [
                _Container(
                    self._make_queue(name),
                    spec.threads,
                    spec.base_service_ms,
                    self._wrap_multiplier(name, multiplier),
                )
                for multiplier in multipliers
            ]
            self._microservices[name] = _MicroserviceState(spec, container_objs)
            self.result.containers[name] = len(container_objs)
        #: service -> call plan of its graph's root (what arrivals execute)
        self._roots: Dict[str, _CallPlan] = {
            spec.name: self._compile(spec.graph.plan()) for spec in self.services
        }
        if chaos is not None or resilience is not None:
            from repro.resilience.manager import ResilienceManager

            self._resilience = ResilienceManager(self, resilience, chaos)

    def _compile(self, plan: GraphPlan) -> _CallPlan:
        """Bind every site of ``plan`` to its live state; the root's binding."""
        nodes = plan.nodes
        bound: List = [None] * len(nodes)  # per site; callees come first
        for site in range(len(nodes) - 1, -1, -1):
            stages = []
            for stage in plan.stages[site]:
                calls = []
                for child in stage:
                    repeats = max(1, int(round(nodes[child].calls_per_request)))
                    calls.extend([bound[child]] * repeats)
                if calls:
                    stages.append(tuple(calls))
            name = nodes[site].microservice
            bound[site] = _CallPlan(name, self._microservices[name], tuple(stages))
        return bound[0]

    def _wrap_multiplier(self, microservice: str, multiplier):
        """Compose chaos latency-spike windows onto a container multiplier."""
        windows = self._spikes.get(microservice) if self._spikes else None
        if not windows:
            return multiplier
        from repro.resilience.chaos import SpikeMultiplier

        return SpikeMultiplier(multiplier, windows)

    def _make_queue(self, microservice: str):
        """A new container's queue: ``append`` / ``popleft`` / ``len``."""
        if self.config.scheduling == "priority":
            ranks = self.priorities.get(microservice)
            if ranks:
                return PriorityQueuePolicy(
                    ranks, delta=self.config.delta, rng=self.rng
                )
        return deque()

    def _draw_unit(self) -> float:
        """One unit-exponential draw from the shared batched stream."""
        index = self._unit_i
        if index >= _RNG_BLOCK:
            self._unit_buf = self.rng.exponential(1.0, _RNG_BLOCK).tolist()
            index = 0
        self._unit_i = index + 1
        return self._unit_buf[index]

    # ------------------------------------------------------------------
    # Dynamic scaling (used by the in-simulation autoscaling loop)
    # ------------------------------------------------------------------
    def container_count(self, microservice: str) -> int:
        """Containers currently in rotation for one microservice."""
        return len(self._microservices[microservice].containers)

    def scale_container_count(
        self,
        microservice: str,
        target: int,
        startup_delay_ms: float = 0.0,
        multiplier: float = 1.0,
    ) -> None:
        """Scale a microservice to ``target`` containers at runtime.

        New containers join the rotation after ``startup_delay_ms`` (cold
        start).  Removed containers leave the rotation immediately: their
        queued jobs are redistributed and in-flight work finishes.  The
        floor is one container.  An actuator, not a decision: the caller
        records why (:class:`~repro.core.controller.ControlLoop`,
        :meth:`inject_container_failure`).
        """
        if target < 1:
            raise ValueError(f"target must be >= 1, got {target}")
        state = self._microservices[microservice]
        delta = target - len(state.containers)
        for _ in range(max(delta, 0)):
            container = _Container(
                self._make_queue(microservice),
                state.spec.threads,
                state.base_ms,
                self._wrap_multiplier(microservice, multiplier),
            )

            def _join(_t: float, c: _Container = container) -> None:
                state.add(c)
                self.result.containers[microservice] = len(state.containers)

            if startup_delay_ms > 0:
                self.events.schedule_in(startup_delay_ms, _join)
            else:
                _join(self.events.now)
        for _ in range(max(-delta, 0)):
            if len(state.containers) <= 1:
                break
            waiting = state.remove_last().queue
            while waiting:
                self._requeue(waiting.popleft())
        self.result.containers[microservice] = len(state.containers)

    def inject_container_failure(
        self,
        microservice: str,
        retry: bool = True,
        restart_after_ms: Optional[float] = None,
        actor: str = "failure-injection",
    ) -> int:
        """Kill one container (crash/OOM/node loss).

        The container leaves the rotation immediately; requests already
        being processed finish (connection-drain approximation).  With
        ``retry`` (the default — microservice RPC clients retry), its
        queued jobs are re-enqueued on surviving containers; without it
        they are dropped, counted in ``result.dropped_requests`` per
        service, and the affected requests never complete.

        With ``restart_after_ms`` set, a fresh container re-joins the
        rotation after that delay through the startup machinery of
        :meth:`scale_container_count` (crash-with-recovery).  The
        replacement starts clean — a static interference multiplier
        carries over, a time-varying one does not (fresh host).

        With telemetry attached, the kill and any restart are recorded in
        the decision log under ``actor``.  Returns the number of queued
        jobs affected.  The last container of a microservice cannot be
        killed.
        """
        state = self._microservices[microservice]
        removed = state.remove_last()
        if self._telemetry is not None:
            decisions = self._telemetry.decisions
            minute = self.events.now / _MS_PER_MINUTE
            left = len(state.containers)
            decisions.record(
                minute=minute,
                actor=actor,
                microservice=microservice,
                before=left + 1,
                after=left,
                reason="container killed"
                + (" (queued jobs retried)" if retry else " (queued jobs lost)"),
            )
            if restart_after_ms is not None:
                decisions.record(
                    minute=minute,
                    actor=actor,
                    microservice=microservice,
                    before=left,
                    after=left + 1,
                    reason=f"container restart in {restart_after_ms:g} ms",
                )
        waiting = removed.queue
        affected = len(waiting)
        dropped = self.result.dropped_requests
        while waiting:
            call = waiting.popleft()
            if retry:
                self._requeue(call)
            else:
                dropped[call.service] = dropped.get(call.service, 0) + 1
        self.result.containers[microservice] = len(state.containers)
        if restart_after_ms is not None:
            self.scale_container_count(
                microservice,
                len(state.containers) + 1,
                startup_delay_ms=restart_after_ms,
                multiplier=(
                    removed.static_mult
                    if removed.static_mult is not None
                    else 1.0
                ),
            )
        return affected

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        """Generate arrivals, process all events, return the result.

        A run that is one FCFS station (module docstring, "One station")
        is replayed as a recursion; every other run takes the event loop.
        """
        station = self._single_station()
        if station is None:
            return self._run_events()
        return self._run_station(station)

    def _single_station(self) -> Optional[_Container]:
        """The one container this run drives, if that is all the run is."""
        if (
            len(self.services) != 1
            or self._telemetry is not None
            or self._resilience is not None
            or len(self.events) != 0
            or self.config.record_own_latency
        ):
            return None
        name = self.services[0].name
        root = self._roots[name]
        rate = self._rates.get(name, 0.0)
        if (
            root.stages
            or len(root.state.containers) != 1
            or callable(rate)
            or not float(rate) > 0.0
        ):
            return None
        container = root.state.containers[0]
        if type(container.queue) is not deque or container.mean_ms is None:
            return None
        return container

    def _run_station(self, container: _Container) -> SimulationResult:
        """Replay one FCFS station by the Kiefer–Wolfowitz recursion.

        Same generator, same ``_RNG_BLOCK`` blocks in the event loop's
        draw order (module docstring, "One station"); ``result`` and
        ``events.now`` end as :meth:`_run_events` would leave them.
        """
        name = self.services[0].name
        end_ms = self.config.duration_min * _MS_PER_MINUTE
        mean_gap = _MS_PER_MINUTE / float(self._rates[name])
        mean_ms = container.mean_ms
        rng = self.rng
        free = [0.0] * container.free_threads  # when each thread is next idle
        arrivals: List[float] = []
        finishes: List[float] = []
        finished = finishes.append
        # Gap block j is drawn as arrival 1024 j - 1 fires, at ``due``
        # (block 0: the initial kick); an arrival past ``end_ms`` is never
        # scheduled, so it draws nothing more.
        due = 0.0
        while True:
            first = len(finishes)  # the call whose start draws a service block
            while due <= end_ms and (
                first == len(arrivals) or due < max(arrivals[first], free[0])
            ):
                times = rng.exponential(mean_gap, _RNG_BLOCK)
                times[0] += due
                times = np.cumsum(times)  # the loop's running ``now + gap``
                due = float(times[-1])
                arrivals.extend(
                    times[: times.searchsorted(end_ms, side="right")].tolist()
                )
            if first == len(arrivals):
                break
            service = (rng.exponential(1.0, _RNG_BLOCK) * mean_ms).tolist()
            for arrival, processing in zip(
                arrivals[first : first + _RNG_BLOCK], service
            ):
                start = free[0]
                if arrival > start:
                    start = arrival
                finish = start + processing
                heapreplace(free, finish)
                finished(finish)
        # Completions fire in (time, push count) order and calls start in
        # arrival order: a stable sort on the finish time.
        finish_ms = np.array(finishes, dtype=np.float64)
        order = np.argsort(finish_ms, kind="stable")
        finish_ms = finish_ms[order]
        result = self.result
        minutes, values = result._e2e_buffers(name)
        minutes.frombytes((finish_ms / _MS_PER_MINUTE).tobytes())
        values.frombytes(
            (finish_ms - np.array(arrivals, dtype=np.float64)[order]).tobytes()
        )
        count = len(arrivals)
        result.generated[name] = result.completed[name] = count
        result.events_processed += 2 * count  # one arrival, one completion
        self.events.now = max(end_ms, float(finish_ms[-1])) if count else end_ms
        return result

    def _run_events(self) -> SimulationResult:
        """The event loop: any services, graphs, policies and hooks."""
        duration_ms = self.config.duration_min * _MS_PER_MINUTE
        result = self.result
        if self.config.record_own_latency or self._telemetry is not None:
            for name, state in self._microservices.items():
                state.own_min, state.own_lat = result._own_buffers(name)
        if self._telemetry is not None:
            self._telemetry.begin_run(self)
        if self._resilience is not None:
            self._resilience.install()
        for spec in self.services:
            result.generated[spec.name] = 0
            result.completed[spec.name] = 0
            result._e2e_buffers(spec.name)
            _Arrival(self, spec, duration_ms).schedule_next(0.0)

        try:
            processed = self.events.run_until(duration_ms)
            self._arrivals_open = False
            # Let in-flight requests finish after arrivals stop.
            processed += self.events.run_until(float("inf"))
        except RecursionError:
            # the response path: nested calls up the deepest call chain
            depth, name = max((s.graph.depth(), s.name) for s in self.services)
            raise GraphValidationError(
                f"service {name!r} is {depth} calls deep: its responses cannot "
                f"climb that chain within the recursion limit of "
                f"{sys.getrecursionlimit()}"
            ) from None
        result.events_processed += processed
        # A recycled record still names its last continuation, and through
        # it the finished request's spans, attempts and caller records.
        self._call_pool.clear()
        if self._resilience is not None:
            result.resilience = self._resilience.stats.to_dict()
        if self._telemetry is not None:
            self._telemetry.finalize(self)
        return result

    # ------------------------------------------------------------------
    # Request lifecycle
    # ------------------------------------------------------------------
    def _execute(
        self,
        service: str,
        calls: Sequence[_CallPlan],
        t: float,
        done,
        caller=None,
    ) -> None:
        """Send ``calls`` to their containers at ``t``, each completing into
        ``done``: an arrival's root, an attempt, or a stage of the record
        ``done``.  With a sink, their spans hang under ``caller``: a sampled
        ``_Call``, a sampled request's ``_TraceCtx`` (its root call; under
        resilience, its root's stages) — anything else sends no span."""
        pool = self._call_pool
        tele = self._telemetry
        events = self.events
        now = events.now
        trace = None
        if tele is not None and caller is not None:
            if type(caller) is _Call:
                trace = caller.ctx
                if trace is not None:
                    parent = caller.ordinal
                    parent_ms = caller.node.microservice
            else:
                parent = caller.ordinal  # None: an unsampled request's root
                if parent is not None:
                    trace = caller
                    parent_ms = caller.microservice
        for node in calls:
            state = node.state
            index = state._next
            if index >= state.n:
                index = 0
            state._next = index + 1
            container = state.containers[index]
            if pool:
                call = pool.pop()
                call.container = container
                call.service = service
                call.node = node
                call.arrival = t
                call.done = done
            else:
                call = _Call(self, container, service, node, t, done)
            if tele is not None:
                call.ctx = trace
                if trace is not None:
                    n = trace.n
                    trace.n = n + 2  # n: the caller's client span
                    call.ordinal = n + 1
                    call.parent = parent
                    call.caller = parent_ms
            queue = container.queue
            free = container.free_threads
            if free > 0 and not queue:
                # Idle start, any policy (module docstring): a thread is
                # free and nothing is queued — no queue roundtrip, and the
                # RNG draws append + dispatch would have made.
                container.free_threads = free - 1
                mean_ms = container.mean_ms
                if mean_ms is None:
                    mean_ms = state.base_ms * float(
                        container.multiplier(now / _MS_PER_MINUTE)
                    )
                index = state.exp_i
                if index >= _RNG_BLOCK:
                    state.exp_buf = self.rng.exponential(1.0, _RNG_BLOCK).tolist()
                    index = 0
                state.exp_i = index + 1
                processing = state.exp_buf[index] * mean_ms
                if trace is not None:
                    call.proc_start = now
                    call.proc_ms = processing
                    call.mult = mean_ms / state.base_ms
                count = events._counter
                events._counter = count + 1
                heappush(events._heap, (now + processing, count, call))
            else:
                queue.append(call)
                if free > 0:
                    self._dispatch(container)

    def _start(self, call: _Call, now: float) -> None:
        """Give a waiting ``call`` a thread of its container."""
        container = call.container
        container.free_threads -= 1
        state = call.node.state
        mean_ms = container.mean_ms
        if mean_ms is None:
            mean_ms = state.base_ms * float(
                container.multiplier(now / _MS_PER_MINUTE)
            )
        index = state.exp_i
        if index >= _RNG_BLOCK:
            state.exp_buf = self.rng.exponential(1.0, _RNG_BLOCK).tolist()
            index = 0
        state.exp_i = index + 1
        processing = state.exp_buf[index] * mean_ms
        if call.ctx is not None:
            call.proc_start = now
            call.proc_ms = processing
            call.mult = mean_ms / state.base_ms
        events = self.events
        count = events._counter
        events._counter = count + 1
        heappush(events._heap, (now + processing, count, call))

    def _dispatch(self, container: _Container) -> None:
        """Start waiting calls, in the queue's order, while threads are free."""
        queue = container.queue
        now = self.events.now
        while queue and container.free_threads > 0:
            self._start(queue.popleft(), now)

    def _requeue(self, call: _Call) -> None:
        """Move a waiting call to the next container in rotation."""
        container = call.container = call.node.state.pick()
        container.queue.append(call)
        self._dispatch(container)

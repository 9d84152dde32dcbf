"""The resilience runtime woven into the simulator's request path.

A :class:`ResilienceManager` is created by the
:class:`~repro.simulator.simulation.ClusterSimulator` whenever a chaos
schedule or a policy bundle is attached.  It owns:

* the **fault side** — scheduling the chaos schedule's container crashes
  (with restart recovery), drawing per-RPC error outcomes inside error
  windows, and reporting every fault to the DecisionLog (actor
  ``chaos``);
* the **policy side** — per-call timeouts that abandon stragglers,
  bounded retries with exponential backoff + jitter, per-(service,
  microservice) circuit breakers with half-open probing (DecisionLog
  actor ``circuit-breaker``), and queue-depth / latency-aware admission
  control that sheds low-priority requests first.

Every attempt of a logical RPC is one :class:`_Attempt` record: it
carries the call's state, runs one engine execution and is that
execution's continuation, standing between the engine and the caller's
call record, so a timed-out attempt's late completion is ignored and a
failed attempt is retried (a fresh record) without the join noticing.
A call site's breaker, deadline lane and error windows are resolved the
first time the site is seen.  References run one way, from a call up to
what it completes into: attempt → the caller's call record and span, and
a sampled attempt's own span wraps the attempt (``_SpanDone.inner``).
Nothing points back down — ``submit_children`` reads the span the
children attach to off the continuation it is handed — so a finished
call's records are freed by reference count, not left as cycles for the
collector.  The one other holder of a pending attempt is the manager's
:class:`_DeadlineLane` for its timeout length, until the attempt finishes
or times out; a deadline that never fires costs no heap event.  All
randomness (error draws, backoff jitter) comes from the manager's
dedicated RNG — the engine's pinned draw order is never touched, and with
the manager absent the engine pays one ``is not None`` branch per arrival
and per stage fan-out.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.resilience.chaos import ChaosSchedule
from repro.resilience.policies import (
    BREAKER_CLOSED,
    BREAKER_OPEN,
    CircuitBreaker,
    ResiliencePolicies,
)
from repro.telemetry.hooks import _SpanDone

if TYPE_CHECKING:  # runtime import would cycle through the simulator
    from repro.simulator.simulation import ClusterSimulator

_MS_PER_MINUTE = 60_000.0
_RNG_BLOCK = 256

_STATE_NAMES = {0: "closed", 1: "open", 2: "half-open"}

__all__ = ["ResilienceManager", "ResilienceStats"]


@dataclass
class ResilienceStats:
    """Run-level fault and policy counters (mirrored into the registry)."""

    requests: int = 0
    succeeded: int = 0
    failed: int = 0
    shed: int = 0
    retries: int = 0
    timeouts: int = 0
    errors_injected: int = 0
    breaker_fast_fails: int = 0
    breaker_opens: int = 0
    breaker_closes: int = 0
    late_completions: int = 0
    crashes: int = 0
    restarts: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {
            "requests": self.requests,
            "succeeded": self.succeeded,
            "failed": self.failed,
            "shed": self.shed,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "errors_injected": self.errors_injected,
            "breaker_fast_fails": self.breaker_fast_fails,
            "breaker_opens": self.breaker_opens,
            "breaker_closes": self.breaker_closes,
            "late_completions": self.late_completions,
            "crashes": self.crashes,
            "restarts": self.restarts,
        }


class _RequestCtx:
    """Per-request resilience context: outcome flag + final continuation."""

    __slots__ = ("service", "start", "final", "failed")

    def __init__(self, service: str, start: float, final):
        self.service = service
        self.start = start
        self.final = final
        self.failed = False


class _DeadlineLane:
    """The pending attempts of one timeout length, oldest deadline first.

    The lane is its own timer: at most one heap entry, at the deadline of
    its oldest live attempt when armed.  Firing times out every live
    attempt due by then, in start order, and re-arms at the next live
    deadline, so a deadline that never fires costs no event.

    Two other places write the deque, both in :class:`_Attempt`, inlined
    there because they run once per attempt: ``start`` appends the
    attempt and arms an idle lane (attempts start in time order and share
    the length, so appending keeps the deque sorted by deadline), and a
    completing head pops itself and the finished attempts behind it.
    """

    __slots__ = ("mgr", "length", "pending", "armed")

    def __init__(self, mgr: "ResilienceManager", length: float):
        self.mgr = mgr
        self.length = length
        self.pending: Deque[_Attempt] = deque()
        self.armed = False

    def fire(self, now: float) -> None:
        mgr, pending = self.mgr, self.pending
        while pending:
            attempt = pending[0]
            if attempt.alive and attempt.deadline > now:
                mgr.events.push(attempt.deadline, self)
                return
            pending.popleft()
            if attempt.alive:
                attempt.alive = False
                mgr.stats.timeouts += 1
                mgr._count("resilience_timeouts")
                attempt.failed(now, "timeout")
        self.armed = False


class _Retry:
    """Scheduled start of a logical call's next attempt, after backoff."""

    __slots__ = ("attempt",)

    def __init__(self, attempt: "_Attempt"):
        self.attempt = attempt

    def fire(self, now: float) -> None:
        self.attempt.start(now)


class _Site:
    """What one call site's attempts share, resolved the first time it is seen."""

    __slots__ = ("plan", "breaker", "lane", "windows")

    def __init__(self, plan, breaker, lane, windows):
        self.plan = plan  # the callee's compiled call plan
        self.breaker = breaker
        self.lane = lane
        self.windows = windows


class _Attempt:
    """One attempt of one logical RPC, and the engine's continuation for it.

    It carries the logical call's state — request, caller's continuation
    (``downstream``) and span, attempt ``number`` — and its call
    :class:`_Site`.  :meth:`start` gates the attempt on the breaker and
    sends it to the engine; :meth:`fire`, the engine's continuation,
    settles the race with the timeout: ``alive`` is cleared by whichever
    of completion and lane fires first, and the loser no-ops (late
    completions are counted — stragglers the client abandoned).  A retry
    is a fresh attempt with ``number + 1``.  The telemetry span covering
    a sampled attempt wraps it (``_SpanDone.inner``); the attempt holds
    no reference back.
    """

    __slots__ = (
        "mgr",
        "req",
        "service",
        "site",
        "downstream",
        "span",
        "is_root",
        "number",
        "alive",
        "deadline",
    )

    def __init__(
        self, mgr: "ResilienceManager", req: _RequestCtx, service: str,
        site: _Site, downstream, span, is_root: bool = False, number: int = 1,
    ):
        self.mgr = mgr
        self.req = req
        self.service = service
        self.site = site
        self.downstream = downstream
        #: telemetry span context (``None`` when the request is unsampled):
        #: the request's own span at the root, the calling span below it
        self.span = span
        self.is_root = is_root
        self.number = number
        self.alive = True

    def start(self, t: float) -> None:
        mgr = self.mgr
        site = self.site
        breaker = site.breaker
        # a closed breaker admits every attempt: ``allow`` would change nothing
        if breaker is not None and breaker.state != BREAKER_CLOSED:
            before = breaker.state
            allowed, transition = breaker.allow(t)
            if transition is not None:
                mgr._breaker_transition(self, before, transition, t, "cooldown elapsed")
            if not allowed:
                # Fast fail: no engine work, no breaker feedback (nothing
                # was probed), straight to the retry/fail decision.  The
                # fast fail consumes an attempt — otherwise a call facing
                # an open breaker would loop retry -> fast-fail on every
                # backoff for as long as the breaker stays open.
                mgr.stats.breaker_fast_fails += 1
                mgr._count("breaker_fast_fails")
                self._after_failure(t, "breaker-open")
                return
        inner = self
        if self.span is not None and not self.is_root:
            # every attempt of the call is its own span under the caller's
            inner = mgr.tele.wrap_call(self.span, site.plan, t, self)
        lane = site.lane
        if lane is not None:  # wait in the lane until finished or timed out
            self.deadline = deadline = t + lane.length
            lane.pending.append(self)
            if not lane.armed:
                lane.armed = True
                mgr.events.push(deadline, lane)
        mgr.sim._execute(self.service, (site.plan,), t, inner)

    def fire(self, finish: float) -> None:
        mgr = self.mgr
        if not self.alive:
            mgr.stats.late_completions += 1
            return
        self.alive = False
        site = self.site
        lane = site.lane
        if lane is not None:
            pending = lane.pending
            if pending[0] is self:  # release it and the finished behind it
                pending.popleft()
                while pending and not pending[0].alive:
                    pending.popleft()
        windows = site.windows
        if windows is not None:
            minute = finish / _MS_PER_MINUTE
            for start_min, end_min, rate in windows:
                if start_min <= minute < end_min:
                    if mgr._draw_unit() < rate:
                        mgr.stats.errors_injected += 1
                        mgr._count("chaos_errors")
                        self.failed(finish, "error")
                        return
                    break
        breaker = site.breaker
        if breaker is not None:
            if breaker.state == BREAKER_CLOSED:
                breaker.consecutive_failures = 0  # all record_success does
            else:
                before = breaker.state
                transition = breaker.record_success(finish)
                if transition is not None:
                    mgr._breaker_transition(
                        self, before, transition, finish, "probe successes"
                    )
        if self.is_root:
            mgr._finish_request(self.req, finish)
        else:
            self.downstream.fire(finish)

    def failed(self, t: float, kind: str) -> None:
        breaker = self.site.breaker
        if breaker is not None:
            before = breaker.state
            transition = breaker.record_failure(t)
            if transition is not None:
                self.mgr._breaker_transition(self, before, transition, t, kind)
        self._after_failure(t, kind)

    def _after_failure(self, t: float, kind: str) -> None:
        mgr = self.mgr
        retry = mgr._retry
        number = self.number
        if retry is not None and number < retry.max_attempts:
            mgr.stats.retries += 1
            mgr._count("resilience_retries")
            delay = retry.backoff_ms(number, mgr._draw_unit())
            again = _Attempt(
                mgr, self.req, self.service, self.site,
                self.downstream, self.span, self.is_root, number + 1,
            )
            mgr.events.push(t + delay, _Retry(again))
            return
        # Retries exhausted (or no retry policy): the logical call fails.
        if self.is_root:
            mgr._fail_request(self.req, t, kind)
        else:
            # Mark the request failed but keep the join machinery moving:
            # sibling calls and later stages still execute (servers finish
            # work for clients that already saw the error).
            self.req.failed = True
            self.downstream.fire(t)


class ResilienceManager:
    """Fault injection + client-side policies for one simulation run."""

    def __init__(
        self,
        sim: "ClusterSimulator",
        policies: Optional[ResiliencePolicies],
        chaos: Optional[ChaosSchedule],
    ):
        self.sim = sim
        self.policies = policies or ResiliencePolicies.disabled()
        self.chaos = chaos
        self.events = sim.events
        self.tele = sim._telemetry
        self.stats = ResilienceStats()
        self._retry = self.policies.retry
        self._timeout = self.policies.timeout
        self._admission = self.policies.admission
        seed = self.policies.seed
        if chaos is not None:
            # Mix both seeds so (policy seed, chaos seed) pairs are
            # independent streams; pure-Python arithmetic keeps it exact.
            seed = (seed * 1_000_003 + chaos.seed) % (2**63)
        self.rng = np.random.default_rng(seed)
        self._unit_buf: List[float] = []
        self._unit_i = _RNG_BLOCK  # exhausted: the first draw refills
        #: microservice -> ((start_min, end_min, rate), ...) error windows
        self._error_windows: Dict[str, Tuple[Tuple[float, float, float], ...]] = {}
        if chaos is not None:
            for window in chaos.error_windows:
                existing = self._error_windows.get(window.microservice, ())
                self._error_windows[window.microservice] = existing + (
                    (window.start_min, window.end_min, window.error_rate),
                )
        self._breakers: Dict[Tuple[str, str], CircuitBreaker] = {}
        #: microservice -> the deadline lane of its timeout length
        self._lanes: Dict[str, _DeadlineLane] = {}
        if self._timeout is not None:
            by_length: Dict[float, _DeadlineLane] = {}
            for name in sim._microservices:
                length = self._timeout.timeout_for(name)
                if length not in by_length:
                    by_length[length] = _DeadlineLane(self, length)
                self._lanes[name] = by_length[length]
        #: call plan -> its site, resolved at first use
        self._sites: Dict[object, _Site] = {}
        self._ranks: Dict[str, int] = {}
        self._graph_states: Dict[str, List] = {}
        self._root_ms: Dict[str, str] = {}
        self._ewma: Dict[str, float] = {}
        self._shed_logged: set = set()
        self._derive_ranks()
        self._installed = False

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def _derive_ranks(self) -> None:
        """Service priority ranks for admission shedding.

        Explicit ``AdmissionPolicy.ranks`` win; otherwise the rank is the
        minimum over the simulator's per-microservice priority maps (the
        Eqs. 13–14 ordering), with unlisted services one past the worst
        listed rank — matching the priority queue's default.  With no
        priority information at all every service is rank 0 and nothing
        is ever shed.
        """
        explicit = dict(self._admission.ranks) if self._admission else {}
        listed: Dict[str, int] = {}
        worst = -1
        for ranks in self.sim.priorities.values():
            for service, rank in ranks.items():
                listed[service] = min(listed.get(service, rank), rank)
                worst = max(worst, rank)
        for spec in self.sim.services:
            name = spec.name
            if name in explicit:
                self._ranks[name] = explicit[name]
            elif name in listed:
                self._ranks[name] = listed[name]
            else:
                self._ranks[name] = worst + 1 if worst >= 0 else 0
            # Admission inspects every microservice on the service's
            # graph, so pressure at a shared downstream dependency sheds
            # best-effort load just like pressure at the root.
            self._graph_states[name] = [
                self.sim._microservices[ms]
                for ms in sorted(spec.graph.microservices())
            ]
            self._root_ms[name] = spec.graph.root.microservice

    def install(self) -> None:
        """Schedule the chaos plan (called once, at run start)."""
        if self._installed:
            return
        self._installed = True
        chaos = self.chaos
        if chaos is None:
            return
        known = self.sim._microservices
        unknown = sorted(
            {
                event.microservice
                for group in (
                    chaos.crashes, chaos.error_windows, chaos.latency_spikes
                )
                for event in group
                if event.microservice not in known
            }
        )
        if unknown:
            raise ValueError(
                f"chaos schedule targets unknown microservices: {unknown}"
            )
        for crash in chaos.crashes:
            self.events.schedule(
                crash.at_min * _MS_PER_MINUTE, _CrashFire(self, crash)
            )
        tele = self.tele
        if tele is not None:
            # Continuous faults are logged once at install; crashes log at
            # fire time with their live container counts.
            for window in chaos.error_windows:
                count = self.sim.container_count(window.microservice)
                tele.decisions.record(
                    minute=0.0,
                    actor="chaos",
                    microservice=window.microservice,
                    before=count,
                    after=count,
                    reason=(
                        f"error window [{window.start_min:g}, "
                        f"{window.end_min:g}) min at rate "
                        f"{window.error_rate:g}"
                    ),
                )
            for spike in chaos.latency_spikes:
                count = self.sim.container_count(spike.microservice)
                tele.decisions.record(
                    minute=0.0,
                    actor="chaos",
                    microservice=spike.microservice,
                    before=count,
                    after=count,
                    reason=(
                        f"latency spike [{spike.start_min:g}, "
                        f"{spike.end_min:g}) min x{spike.multiplier:g}"
                    ),
                )

    # ------------------------------------------------------------------
    # Request path (called from _Arrival / _Call)
    # ------------------------------------------------------------------
    def should_shed(self, service: str, t: float) -> bool:
        admission = self._admission
        if admission is None:
            return False
        if self._ranks.get(service, 0) < admission.shed_rank_floor:
            return False
        threshold = admission.latency_threshold_ms
        if threshold is not None:
            ewma = self._ewma.get(service)
            if ewma is not None and ewma > threshold:
                return True
        limit = admission.max_queue_per_thread
        for state in self._graph_states[service]:
            queued, _, threads = state.load()
            if threads and queued / threads > limit:
                return True
        return False

    def shed(self, service: str, t: float) -> None:
        stats = self.stats
        stats.requests += 1
        stats.shed += 1
        result = self.sim.result
        result.shed_requests[service] = result.shed_requests.get(service, 0) + 1
        tele = self.tele
        if tele is not None:
            tele.record_request_error(service, t, "shed")
            tele.registry.counter("requests_shed").inc()
            minute = int(t / _MS_PER_MINUTE)
            key = (service, minute)
            if key not in self._shed_logged:
                self._shed_logged.add(key)
                root_ms = self._root_ms[service]
                count = self.sim.container_count(root_ms)
                tele.decisions.record(
                    minute=t / _MS_PER_MINUTE,
                    actor="admission",
                    microservice=root_ms,
                    before=count,
                    after=count,
                    reason=(
                        f"shedding {service} (rank "
                        f"{self._ranks.get(service, 0)}) under pressure"
                    ),
                )

    def start_request(self, service: str, node, t: float, final) -> None:
        self.stats.requests += 1
        site = self._sites.get(node) or self._site(service, node)
        span = final if type(final) is _SpanDone else None
        _Attempt(
            self, _RequestCtx(service, t, final), service, site, final, span, True
        ).start(t)

    def submit_children(self, service: str, calls, t: float, record, done) -> None:
        """Fan one stage's calls out as resilient RPCs completing into ``record``.

        ``done`` is the parent node's continuation: the telemetry span
        wrapping its attempt — the span the children attach to — or the
        bare attempt (the root call, whose span is the request's; any call
        of an unsampled request, which has none).
        """
        parent = done.inner if type(done) is _SpanDone else done
        span = parent.span if parent is done else done
        req = parent.req
        sites = self._sites
        for child in calls:
            site = sites.get(child) or self._site(service, child)
            _Attempt(self, req, service, site, record, span).start(t)

    def _site(self, service: str, node) -> _Site:
        """Resolve a call site's breaker, deadline lane and error windows.

        Keyed by the call plan alone: each service compiles its own plans.
        """
        microservice = node.microservice
        site = self._sites[node] = _Site(
            node,
            self._breaker_for(service, microservice),
            self._lanes.get(microservice),
            self._error_windows.get(microservice),
        )
        return site

    # ------------------------------------------------------------------
    # Outcomes
    # ------------------------------------------------------------------
    def _finish_request(self, req: _RequestCtx, finish: float) -> None:
        if req.failed:
            self._fail_request(req, finish, "downstream failure")
            return
        self.stats.succeeded += 1
        admission = self._admission
        if admission is not None and admission.latency_threshold_ms is not None:
            alpha = admission.ewma_alpha
            previous = self._ewma.get(req.service)
            sample = finish - req.start
            self._ewma[req.service] = (
                sample
                if previous is None
                else alpha * sample + (1.0 - alpha) * previous
            )
        req.final.fire(finish)

    def _fail_request(self, req: _RequestCtx, t: float, kind: str) -> None:
        self.stats.failed += 1
        result = self.sim.result
        result.failed_requests[req.service] = (
            result.failed_requests.get(req.service, 0) + 1
        )
        tele = self.tele
        if tele is not None:
            tele.record_request_error(req.service, t, kind)
            tele.registry.counter("requests_failed").inc()

    # ------------------------------------------------------------------
    # Breakers
    # ------------------------------------------------------------------
    def _breaker_for(self, service: str, microservice: str):
        policy = self.policies.breaker
        if policy is None:
            return None
        key = (service, microservice)
        breaker = self._breakers.get(key)
        if breaker is None:
            breaker = self._breakers[key] = CircuitBreaker(policy)
        return breaker

    def _breaker_transition(
        self, attempt: _Attempt, before: int, state: int, t: float, cause: str
    ) -> None:
        service, microservice = attempt.service, attempt.site.plan.microservice
        if state == BREAKER_OPEN:
            self.stats.breaker_opens += 1
        elif state == BREAKER_CLOSED:
            self.stats.breaker_closes += 1
        tele = self.tele
        if tele is not None:
            tele.registry.gauge(
                f"breaker_state.{service}.{microservice}"
            ).set(state)
            tele.decisions.record(
                minute=t / _MS_PER_MINUTE,
                actor="circuit-breaker",
                microservice=microservice,
                before=before,
                after=state,
                reason=(
                    f"{service}->{microservice}: "
                    f"{_STATE_NAMES[before]} -> {_STATE_NAMES[state]} "
                    f"({cause})"
                ),
            )

    # ------------------------------------------------------------------
    # Utilities
    # ------------------------------------------------------------------
    def _draw_unit(self) -> float:
        """One uniform [0,1) draw from the manager's batched stream."""
        index = self._unit_i
        if index >= _RNG_BLOCK:
            self._unit_buf = self.rng.random(_RNG_BLOCK).tolist()
            index = 0
        self._unit_i = index + 1
        return self._unit_buf[index]

    def _count(self, name: str) -> None:
        tele = self.tele
        if tele is not None:
            tele.registry.counter(name).inc()


class _CrashFire:
    """Scheduled chaos crash: kill a container, optionally with restart."""

    __slots__ = ("mgr", "crash")

    def __init__(self, mgr: ResilienceManager, crash):
        self.mgr = mgr
        self.crash = crash

    def fire(self, now: float) -> None:
        mgr = self.mgr
        crash = self.crash
        sim = mgr.sim
        if sim.container_count(crash.microservice) <= 1:
            # Never kill the last container; record the skip so the
            # schedule's intent stays visible.
            tele = mgr.tele
            if tele is not None:
                tele.decisions.record(
                    minute=now / _MS_PER_MINUTE,
                    actor="chaos",
                    microservice=crash.microservice,
                    before=1,
                    after=1,
                    reason="crash skipped (last container)",
                )
            return
        mgr.stats.crashes += 1
        mgr._count("chaos_crashes")
        sim.inject_container_failure(
            crash.microservice,
            retry=crash.retry,
            restart_after_ms=crash.restart_after_ms,
            actor="chaos",
        )
        if crash.restart_after_ms is not None:
            mgr.stats.restarts += 1
            mgr._count("chaos_restarts")

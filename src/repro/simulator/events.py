"""Minimal discrete-event engine.

A binary-heap event queue keyed by (time, sequence): ties are broken by
insertion order, which makes simulations fully deterministic for a fixed
RNG seed.  Every heap entry is an event *record*: an object whose
``fire(t)`` method runs it at simulation time ``t`` — the simulator's
``__slots__`` records (arrivals, calls, resilience timers), which the run
loop enters as ``record.fire(time)`` without allocating a closure per
event.

:meth:`EventQueue.push` is the hot path: it takes a record and checks
nothing.  :meth:`EventQueue.schedule` / :meth:`EventQueue.schedule_in`
accept any callable of the time: a record (its type defines ``fire``) is
stored as itself, anything else — a plain function, a bound method, a
lambda — is wrapped in a one-slot :class:`_Fire` adapter record.  They
reject non-finite times and times in the past.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, List, Tuple

Callback = Callable[[float], None]

_INF = float("inf")


class _Fire:
    """Adapter record: fires a plain callable of the time."""

    __slots__ = ("fn",)

    def __init__(self, fn: Callback):
        self.fn = fn

    def fire(self, t: float) -> None:
        self.fn(t)


class EventQueue:
    """Time-ordered record queue driving the simulation."""

    __slots__ = ("_heap", "_counter", "now")

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, object]] = []
        self._counter = 0
        self.now: float = 0.0

    def schedule(self, time: float, callback) -> None:
        """Schedule ``callback`` to run at absolute time ``time`` (ms).

        ``callback`` is a record (its type defines ``fire``) or any
        callable of the time, which is wrapped in an adapter record.
        """
        if not math.isfinite(time):
            raise ValueError(f"event time must be finite, got {time}")
        if time < self.now:
            raise ValueError(
                f"cannot schedule in the past: {time} < now {self.now}"
            )
        if not hasattr(type(callback), "fire"):
            callback = _Fire(callback)
        count = self._counter
        self._counter = count + 1
        heapq.heappush(self._heap, (time, count, callback))

    def push(self, time: float, record) -> None:
        """Fast-path schedule of a record: no checks, no adapter.

        The simulator's hot path computes ``time`` as ``now + delay`` with
        a finite non-negative delay, so the guards in :meth:`schedule` are
        redundant there.
        """
        count = self._counter
        self._counter = count + 1
        heapq.heappush(self._heap, (time, count, record))

    def schedule_in(self, delay: float, callback) -> None:
        """Schedule ``callback`` after ``delay`` ms from now."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        self.schedule(self.now + delay, callback)

    def __len__(self) -> int:
        return len(self._heap)

    def run_until(self, end_time: float) -> int:
        """Process events until the queue drains or ``end_time`` passes.

        Returns the number of events processed.  Events scheduled exactly
        at ``end_time`` are still processed; later ones remain queued.

        Draining with ``end_time=inf`` leaves ``now`` at the time of the
        last processed event (not at infinity), so a drained queue can be
        reused — e.g. the autoscaled loop scheduling follow-up work after
        a drain.
        """
        heap = self._heap
        pop = heapq.heappop
        processed = 0
        while heap:
            entry = pop(heap)
            time, _, record = entry
            if time > end_time:
                heapq.heappush(heap, entry)
                break
            self.now = time
            record.fire(time)
            processed += 1
        if end_time != _INF and end_time > self.now:
            self.now = end_time
        return processed

"""The benchmark's own span recorder.

Spans are recorded from *outside* the program: :meth:`Tracer.instrument`
replaces a public function or method with a wrapper that times the call,
so ``src/`` carries no benchmark code.  One span is
``[name, start, end, parent, iteration]`` — ``parent`` is the index of the
span that was open when this one started (``-1`` for a root), and every
span of one benchmark iteration shares its ``iteration`` id (``-1`` during
set-up and probes).  Spans stay in memory and are written out by
:meth:`Tracer.dump` when the workload ends.

A span's *self time* is its duration minus the time its children cover.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional

NAME, START, END, PARENT, ITERATION = range(5)


class Tracer:
    """In-memory span list plus per-iteration counters."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        #: (iteration, counter name) -> accumulated value
        self.counts: Dict[tuple, float] = {}
        self.iteration = -1
        self._stack: List[int] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def start(self, name: str) -> list:
        stack = self._stack
        record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.iteration]
        stack.append(len(self.spans))
        self.spans.append(record)
        record[START] = perf_counter()
        return record

    def stop(self, record: list) -> None:
        record[END] = perf_counter()
        self._stack.pop()

    def span(self, name: str) -> "_SpanContext":
        """``with tracer.span("layer.stage"):`` around benchmark-owned code."""
        return _SpanContext(self, name)

    def count(self, name: str, value: float) -> None:
        key = (self.iteration, name)
        self.counts[key] = self.counts.get(key, 0) + value

    def wrap(
        self,
        func: Callable,
        name: Optional[str] = None,
        name_of: Optional[Callable[..., str]] = None,
        after: Optional[Callable[..., Dict[str, float]]] = None,
    ) -> Callable:
        """A wrapper recording one span per call of ``func``.

        ``name_of(*args)`` picks the span name per call (one class whose
        instances are different schemes); ``after(result, *args)`` returns
        counters to add at the same boundary.
        """

        @functools.wraps(func)
        def traced(*args, **kwargs):
            record = self.start(name_of(*args) if name_of else name)
            try:
                result = func(*args, **kwargs)
            finally:
                self.stop(record)
            if after is not None:
                for key, value in after(result, *args).items():
                    self.count(key, value)
            return result

        return traced

    # ------------------------------------------------------------------
    # instrumentation from outside
    # ------------------------------------------------------------------
    # The wrappers stay for the life of the process: a traced workload
    # runs in a subprocess of its own.
    def instrument_method(self, owner: type, attr: str, name=None, **opts) -> None:
        setattr(owner, attr, self.wrap(owner.__dict__[attr], name, **opts))

    def instrument_function(self, func: Callable, name: str, **opts) -> None:
        """Rebind ``func`` in every loaded module of the program or the
        benchmark that imported it.

        ``from x import f`` copies the reference into the importing
        module, so patching only the defining module would miss callers.
        """
        traced = self.wrap(func, name, **opts)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith(("repro", "benchmarks.e2e")):
                continue
            for attr, value in list(vars(module).items()):
                if value is func:
                    setattr(module, attr, traced)

    def span_cost_s(self, calls: int = 20_000) -> float:
        """Measured cost of recording one span: a wrapped no-op call minus
        a bare one, on a scratch tracer so nothing is added here."""
        def noop():
            pass

        traced = Tracer().wrap(noop, "calibration")
        start = perf_counter()
        for _ in range(calls):
            noop()
        bare = perf_counter() - start
        start = perf_counter()
        for _ in range(calls):
            traced()
        return max(perf_counter() - start - bare, 0.0) / calls

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def iterations(self) -> List[int]:
        return sorted({s[ITERATION] for s in self.spans if s[ITERATION] >= 0})

    def iteration_span_count(self) -> int:
        return sum(1 for s in self.spans if s[ITERATION] >= 0)

    def select(self, name: str, iteration: Optional[int] = None) -> Iterator[list]:
        for span in self.spans:
            if span[NAME] == name and (
                iteration is None or span[ITERATION] == iteration
            ):
                yield span

    def durations(self, name: str, iteration: Optional[int] = None) -> List[float]:
        return [s[END] - s[START] for s in self.select(name, iteration)]

    def total(self, name: str, iteration: Optional[int] = None) -> float:
        """Summed duration of ``name`` spans, not counting one nested in
        another of the same name twice."""
        spans = self.spans
        total = 0.0
        for span in self.select(name, iteration):
            parent = span[PARENT]
            while parent >= 0 and spans[parent][NAME] != name:
                parent = spans[parent][PARENT]
            if parent < 0:
                total += span[END] - span[START]
        return total

    def children_of(self, name: str, parent_name: str, iteration=None) -> List[list]:
        """``name`` spans whose direct parent span is a ``parent_name``."""
        spans = self.spans
        return [
            s
            for s in self.select(name, iteration)
            if s[PARENT] >= 0 and spans[s[PARENT]][NAME] == parent_name
        ]

    def self_times(self, iteration: Optional[int] = None) -> Dict[str, float]:
        """Self time per span name: duration minus direct children."""
        spans = self.spans
        result: Dict[str, float] = {}
        for span in spans:
            if iteration is not None and span[ITERATION] != iteration:
                continue
            duration = span[END] - span[START]
            result[span[NAME]] = result.get(span[NAME], 0.0) + duration
            if span[PARENT] >= 0:
                parent = spans[span[PARENT]]
                if iteration is None or parent[ITERATION] == iteration:
                    result[parent[NAME]] = result.get(parent[NAME], 0.0) - duration
        return result

    def counter(self, name: str, iteration: int) -> float:
        return self.counts.get((iteration, name), 0)

    def dump(self, path, meta: Optional[dict] = None) -> None:
        """Write every span (times relative to the first) and counter."""
        origin = self.spans[0][START] if self.spans else 0.0
        payload = {
            "meta": meta or {},
            "columns": ["name", "start_s", "end_s", "parent", "iteration"],
            "spans": [
                [s[NAME], round(s[START] - origin, 7), round(s[END] - origin, 7),
                 s[PARENT], s[ITERATION]]
                for s in self.spans
            ],
            "counts": [
                {"iteration": it, "name": name, "value": value}
                for (it, name), value in sorted(self.counts.items())
            ],
            "self_time_s": {
                name: round(value, 7)
                for name, value in sorted(self.self_times().items())
            },
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


class _SpanContext:
    __slots__ = ("_tracer", "_name", "_record")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> list:
        self._record = self._tracer.start(self._name)
        return self._record

    def __exit__(self, *exc) -> None:
        self._tracer.stop(self._record)

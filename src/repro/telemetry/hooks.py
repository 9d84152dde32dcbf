"""Live in-simulation telemetry: span emission, windowed metrics, SLA watch.

The paper's control loop runs on *online* telemetry: Jaeger spans and
Prometheus utilization, joined per-minute by the Tracing Coordinator
(§5.1–§5.2).  This module closes that loop for the DES: a
:class:`TelemetrySink` attached to a
:class:`~repro.simulator.simulation.ClusterSimulator` observes the run as
it happens —

* every completed request emits a CLIENT/SERVER span pair per call (zero
  network delay, matching the engine's timing exactly).  A sampled
  call's span is fields on the engine's own call record, which lives
  for exactly the SERVER span's interval; when the call finishes it
  appends one row of values to its request's :class:`_TraceCtx`, and a
  finished, retained request is flushed as one block of rows into the
  columnar :class:`~repro.tracing.spans.SpanTable` that is
  ``sink.traces``, whose :class:`~repro.tracing.spans.TraceView` items
  (also what a :class:`~repro.tracing.coordinator.TracingCoordinator` is
  offered) build ``Span`` objects only when ``spans`` / ``timings`` are
  read;
* every processed call is recorded once, by the engine, in its own-latency
  columns; ``finalize`` fills a :class:`~repro.tracing.metrics.MetricsStore`
  from them, so the profiler consumes *observed* telemetry — what
  :meth:`SimulationResult.to_metrics_store` builds, but each minute's
  calls divided by the containers in rotation when it was flushed;
* a self-rescheduling *window tick* (one event per window — off the hot
  path) closes SLA windows, snapshots queue depth / busy fraction /
  event throughput into the metrics registry, and flushes completed
  minutes: it notes the container counts their calls divide by.

The disabled path is a null check: the engine tests ``telemetry is not
None`` where it calls :meth:`TelemetrySink.wrap_root` and where it
stamps a sent call's span fields, and a call's ``ctx`` (its trace, never
set without a sink) where it stamps the processing time and writes the
row; it touches nothing else, so a run without a sink pays a single
predictable branch per hook (``tests/test_engine_shape.py`` pins the
counted run of the bare replay and of the same replay with the cheapest
attached sink; the ``des_replay`` / ``des_observed`` ladder of
``benchmarks/e2e`` tracks what each enabled layer adds).

Who owns what, per request: references point from a call up to its
trace and never back.  A sampled call record holds its
:class:`_TraceCtx` and copies its caller's ordinal and microservice as
values when it is sent; the trace holds its sink, the request's end
continuation (``inner``) and rows of values.  Nothing holds a call, so
there is no loop: the records of a request die by reference count with
it and the cycle collector finds nothing (counted in
``tests/test_engine_shape.py``).  That holds for a request the
resilience layer *fails* too: it never fires its root continuation, so
its trace stays open and its rows are never flushed, and they are freed
with it.

Span timing contract (kept in lockstep with the engine): a call's SERVER
span runs from the call entering its container's queue to the call's
whole subtree completing; the caller's CLIENT span covers the same
interval (zero transmission delay).  Eq. 1 then recovers exactly the own
latency the engine recorded — server duration minus the per-stage max of
child server durations telescopes to (thread release − queue entry) —
and calls of one stage share a start timestamp, so the overlap rule
(:class:`~repro.tracing.spans.SpanForest` over the table's rows)
regroups them into the original stages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.telemetry.monitor import DecisionLog, SLAMonitor
from repro.telemetry.registry import MetricsRegistry
from repro.tracing.metrics import MetricsStore
from repro.tracing.spans import SpanTable

_MS_PER_MINUTE = 60_000.0
_NAN = float("nan")

__all__ = ["TelemetryConfig", "TelemetrySink"]


@dataclass
class TelemetryConfig:
    """Knobs of the live telemetry layer.

    Attributes:
        window_min: Observation window length in minutes (the paper joins
            telemetry at one-minute windows).
        spans: Emit spans per request.  Off, the sink still tracks
            windowed metrics, the SLA monitor, and the MetricsStore.
        sampling_rate: Fraction of requests that produce spans (head
            sampling, decided at request start so unsampled requests
            allocate nothing; Jaeger's 10 % would be ``0.1``).
        seed: Seed of the sampling decision stream — deliberately a
            *separate* RNG so enabling telemetry never perturbs the
            engine's pinned draw order.
        tail_threshold_ms: When set, switch trace retention to
            *tail-based* sampling: every (head-sampled) request buffers
            its calls, but only requests whose end-to-end latency exceeds
            this threshold — plus a uniform ``tail_floor`` of baseline
            traffic — are flushed into the span table.  With a threshold
            at/below the SLA, every violating request keeps its trace
            while the bulk of healthy traffic is dropped without writing
            a row.  ``None`` (default) keeps every buffered trace (head
            sampling only).
        tail_floor: Uniform keep probability for requests under the tail
            threshold (a small healthy-baseline sample, like production
            tail samplers retain).  Drawn from the sink's own RNG.
        max_traces: Retain at most this many assembled traces on the sink
            (``None`` = unbounded).  Traces are still offered to the
            coordinator after the cap.
        percentile: Tail percentile the SLA monitor watches.
        error_budget: When set, the SLA monitor raises an
            :class:`~repro.telemetry.monitor.ErrorBudgetAlert` for any
            window whose failed/shed request fraction (fed by the
            resilience layer) exceeds this budget.
    """

    window_min: float = 1.0
    spans: bool = True
    sampling_rate: float = 1.0
    seed: int = 0
    tail_threshold_ms: Optional[float] = None
    tail_floor: float = 0.01
    max_traces: Optional[int] = None
    percentile: float = 95.0
    error_budget: Optional[float] = None

    def __post_init__(self) -> None:
        if not 0 < self.window_min < math.inf:
            raise ValueError(
                f"window_min must be positive and finite, got {self.window_min}"
            )
        if not 0.0 < self.sampling_rate <= 1.0:
            raise ValueError(
                f"sampling_rate must be in (0, 1], got {self.sampling_rate}"
            )
        if self.tail_threshold_ms is not None and not (
            0 < self.tail_threshold_ms < math.inf
        ):
            raise ValueError(
                "tail_threshold_ms must be positive and finite, "
                f"got {self.tail_threshold_ms}"
            )
        if not 0.0 <= self.tail_floor <= 1.0:
            raise ValueError(
                f"tail_floor must be in [0, 1], got {self.tail_floor}"
            )
        if self.max_traces is not None and self.max_traces < 0:
            raise ValueError(
                f"max_traces must be non-negative or None, got {self.max_traces}"
            )
        if self.error_budget is not None and not 0.0 < self.error_budget < 1.0:
            raise ValueError(
                f"error_budget must be in (0, 1), got {self.error_budget}"
            )


class _TraceCtx:
    """A sampled request's trace, and the continuation of its root.

    Each sampled call appends its span to ``rows`` as one row of values
    when its subtree completes (``simulation._Call.fire``), in completion
    order; ``rows`` is ``None`` once the trace closed.  A call sent under
    the trace takes ``n + 1`` as its SERVER span's ordinal and ``n`` as
    its caller's CLIENT span's.  ``ordinal`` / ``microservice`` are the
    span that calls sent directly under the trace hang under: -1 /
    ``None`` when the root call is the root span (it takes ordinal 0), 0
    and the root's microservice when the request is — under resilience,
    whose root attempts are no spans — and then :meth:`fire` writes the
    request's row, the block's last.  :meth:`fire` closes the trace and
    fires the request's end continuation (``inner``).
    """

    __slots__ = (
        "sink", "number", "service", "start", "inner", "rows", "n",
        "ordinal", "microservice",
    )

    def __init__(self, sink: "TelemetrySink", number: int, service: str,
                 start: float, inner, microservice: Optional[str]):
        self.sink = sink
        self.number = number
        self.service = service
        self.start = start
        self.inner = inner
        self.rows: Optional[list] = []
        self.microservice = microservice
        if microservice is None:  # the root call takes ordinal 0
            self.ordinal, self.n = -1, -1
        else:  # the request is span 0
            self.ordinal, self.n = 0, 1

    def fire(self, finish: float) -> None:
        if self.ordinal == 0:
            self.rows.extend((
                self.start, finish, self.start, _NAN, 1.0,
                0, self.microservice, -1, None,
            ))
        self.sink._complete_trace(self, finish)
        self.inner.fire(finish)


class _E2EDone:
    """Root continuation for unsampled requests: e2e recording only."""

    __slots__ = ("sink", "service", "start", "inner")

    #: No span for the request's calls to hang under (``_TraceCtx.ordinal``).
    ordinal = None

    def __init__(self, sink, service, start, inner):
        self.sink = sink
        self.service = service
        self.start = start
        self.inner = inner

    def fire(self, finish: float) -> None:
        self.sink.record_e2e(self.service, self.start, finish)
        self.inner.fire(finish)


@dataclass
class TelemetrySink:
    """Everything one instrumented simulation run observes.

    Attach by passing as ``telemetry=`` to
    :class:`~repro.simulator.simulation.ClusterSimulator` (or through
    ``evaluate_allocation`` / :class:`AutoscaledSimulation`); the
    simulator calls :meth:`begin_run` / :meth:`finalize` around the event
    loop.  One sink serves exactly one run.
    """

    config: TelemetryConfig = field(default_factory=TelemetryConfig)
    coordinator: Optional[object] = None  # TracingCoordinator, duck-typed
    registry: MetricsRegistry = field(default_factory=MetricsRegistry)
    monitor: SLAMonitor = field(default=None)  # type: ignore[assignment]
    decisions: DecisionLog = field(default_factory=DecisionLog)
    metrics: MetricsStore = field(default_factory=MetricsStore)
    #: Retained traces: a columnar table that reads as a sequence of
    #: :class:`~repro.tracing.spans.TraceView` items (its first ``max_traces`` blocks).
    traces: SpanTable = field(init=False)
    #: One row per closed window: engine/queue health over time.
    window_series: List[Dict] = field(default_factory=list)
    #: Optional embedded TSDB
    #: (:class:`~repro.telemetry.timeseries.TimeSeriesStore`): scrapes
    #: the registry / SLA monitor / engine state on its own sim-clock
    #: cadence and evaluates recording+alert rules.  ``None`` (default)
    #: costs nothing — no events are scheduled.
    timeseries: Optional[object] = None

    def __post_init__(self) -> None:
        if self.monitor is None:
            self.monitor = SLAMonitor(
                percentile=self.config.percentile,
                error_budget=self.config.error_budget,
            )
        self.traces = SpanTable(self.config.max_traces)
        #: Requests that buffered spans (before any tail/``max_traces`` cap).
        self.sampled_traces = 0
        #: Traces the tail-sampling decision kept (``max_traces`` caps
        #: retention after this count) and dropped.
        self.kept_traces = self.tail_dropped = 0
        #: Spans of abandoned attempts that finished after their trace closed.
        self.late_spans = 0
        self._rng = np.random.default_rng(self.config.seed)
        self._sim = None
        #: A request is its trace's root span (``_TraceCtx``): resilience on.
        self._request_spans = False
        self._trace_n = 0
        self._window_ms = self.config.window_min * _MS_PER_MINUTE
        self._duration_min = 0.0
        #: minute -> containers in rotation when it was flushed
        self._divisors: Dict[int, Dict[str, int]] = {}
        self._flushed_minute = 0
        self._last_event_counter = 0

    # ------------------------------------------------------------------
    # Run lifecycle (called by ClusterSimulator)
    # ------------------------------------------------------------------
    def begin_run(self, simulator) -> None:
        if self._sim is not None:
            raise RuntimeError("a TelemetrySink serves exactly one run")
        self._sim = simulator
        self._request_spans = simulator._resilience is not None
        self._duration_min = simulator.config.duration_min
        for spec in simulator.services:
            self.monitor.slas.setdefault(spec.name, spec.sla)
        self._last_event_counter = simulator.events._counter
        duration_ms = self._duration_min * _MS_PER_MINUTE
        if self._window_ms <= duration_ms:
            simulator.events.schedule(self._window_ms, self._on_window)
        if self.timeseries is not None:
            self.timeseries.attach(self, simulator)

    def finalize(self, simulator) -> None:
        """Close remaining windows, flush the tail (post-drain) and fill
        :attr:`metrics` from the engine's own-latency columns."""
        self.monitor.close_all(self.config.window_min)
        self._flush_minutes(int(self._duration_min) + 1)
        simulator.result._fill_steady(self.metrics, self._divisors.__getitem__)
        self._snapshot_engine(simulator)
        self.registry.gauge("events_processed").set(
            simulator.result.events_processed
        )
        if self.timeseries is not None:
            # After close_all: the final scrape sees every SLA window.
            self.timeseries.finalize(simulator)

    # ------------------------------------------------------------------
    # Hot-path hooks (engine side guards with `telemetry is not None`)
    # ------------------------------------------------------------------
    def wrap_root(self, service: str, node, t: float, inner):
        """Wrap a request's end continuation at arrival time ``t``: in a
        :class:`_TraceCtx` when the request is sampled."""
        if self.config.spans and (
            self.config.sampling_rate >= 1.0
            or self._rng.random() < self.config.sampling_rate
        ):
            self.sampled_traces += 1
            ctx = _TraceCtx(
                self, self._trace_n, service, t, inner,
                node.microservice if self._request_spans else None,
            )
            self._trace_n += 1
            return ctx
        return _E2EDone(self, service, t, inner)

    def drop_late_span(self) -> None:
        """A span finished after its trace closed: its attempt was abandoned."""
        self.late_spans += 1
        self.registry.counter("spans_dropped_late").inc()

    def record_e2e(self, service: str, start: float, finish: float) -> None:
        """One completed request: SLA window sample + latency histogram."""
        e2e = finish - start
        minute = finish / _MS_PER_MINUTE
        self.monitor.observe(
            service, int(minute / self.config.window_min), e2e
        )
        self.registry.histogram(f"e2e_latency_ms.{service}").observe(e2e)
        self.registry.counter("requests_completed").inc()

    def record_request_error(self, service: str, t: float, kind: str) -> None:
        """One failed or shed request (resilience layer).

        Feeds the SLA monitor's error-budget accounting for the window
        containing ``t`` and counts the error by kind (``error`` /
        ``timeout`` / ``breaker-open`` / ``shed`` / ``downstream
        failure``) in the metrics registry.
        """
        minute = t / _MS_PER_MINUTE
        self.monitor.observe_error(
            service, int(minute / self.config.window_min)
        )
        self.registry.counter(f"request_errors.{service}.{kind}").inc()

    # ------------------------------------------------------------------
    # Window machinery (one event per window; off the hot path)
    # ------------------------------------------------------------------
    def _on_window(self, now_ms: float) -> None:
        index = int(round(now_ms / self._window_ms))
        self.monitor.close_windows(index, self.config.window_min)
        self._flush_minutes(int(now_ms / _MS_PER_MINUTE))
        self._snapshot_engine(self._sim, window_end_min=now_ms / _MS_PER_MINUTE)
        next_tick = (index + 1) * self._window_ms
        if next_tick <= self._duration_min * _MS_PER_MINUTE:
            self._sim.events.schedule(next_tick, self._on_window)

    def _flush_minutes(self, through: int) -> None:
        """Flush completed integer minutes < ``through``.

        Their calls are divided by the containers in rotation now, at
        the first window tick after the minute ends (or post-drain).
        """
        containers = dict(self._sim.result.containers)
        while self._flushed_minute < through:
            self._divisors[self._flushed_minute] = containers
            self._flushed_minute += 1

    def _snapshot_engine(self, simulator, window_end_min: Optional[float] = None) -> None:
        """Gauge queue depth, busy fraction, and event throughput."""
        if simulator is None:
            return
        depth = 0
        busy = 0
        total_threads = 0
        containers = 0
        for state in simulator._microservices.values():
            queued, busy_threads, threads = state.load()
            depth += queued
            busy += busy_threads
            total_threads += threads
            containers += len(state.containers)
        busy_fraction = busy / total_threads if total_threads else 0.0
        registry = self.registry
        registry.gauge("queue_depth").set(depth)
        registry.gauge("busy_threads").set(busy)
        registry.gauge("busy_fraction").set(busy_fraction)
        registry.gauge("containers").set(containers)
        counter = simulator.events._counter
        delta = counter - self._last_event_counter
        self._last_event_counter = counter
        registry.counter("events_scheduled").inc(delta)
        if window_end_min is not None:
            events_per_sec = delta / (self.config.window_min * 60.0)
            registry.gauge("events_per_sec").set(events_per_sec)
            self.window_series.append(
                {
                    "end_min": round(window_end_min, 6),
                    "queue_depth": depth,
                    "busy_fraction": round(busy_fraction, 6),
                    "containers": containers,
                    "events_per_sec": round(events_per_sec, 2),
                }
            )

    # ------------------------------------------------------------------
    # Trace assembly
    # ------------------------------------------------------------------
    def _complete_trace(self, ctx: _TraceCtx, finish: float) -> None:
        rows, ctx.rows = ctx.rows, None  # closed: later spans are dropped
        self.record_e2e(ctx.service, ctx.start, finish)
        config = self.config
        threshold = config.tail_threshold_ms
        if threshold is not None and finish - ctx.start <= threshold:
            # Tail decision: under the latency threshold, keep only the
            # uniform floor (drawn from the sink's RNG, never the
            # engine's).  Dropped traces never write a row.
            if config.tail_floor <= 0.0 or self._rng.random() >= config.tail_floor:
                self.tail_dropped += 1
                return
        self.kept_traces += 1
        # Kept traces exemplify their latency bucket: the /metrics
        # exposition links the histogram to a trace id an operator can
        # actually pull up.  Off the e2e hot path (kept traces only),
        # no RNG, one dict write.
        self.registry.histogram(f"e2e_latency_ms.{ctx.service}").attach_exemplar(
            finish - ctx.start, f"{ctx.service}-t{ctx.number}"
        )
        traces = self.traces
        retain = traces.limit is None or len(traces) < traces.limit
        coordinator = self.coordinator
        if retain or coordinator is not None:
            # Past the cap, blocks are written for the coordinator alone
            # (``traces`` shows only its first ``max_traces`` blocks).
            trace = traces.append_trace(ctx.service, ctx.number, rows)
            if coordinator is not None:
                coordinator.offer(trace)

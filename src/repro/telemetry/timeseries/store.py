"""Embedded deterministic time-series store for the telemetry layer.

The paper's management loop (§5) runs on *windowed* telemetry — latency
percentiles, workload, and utilization joined per minute.  The
:class:`MetricsRegistry` answers "what is the value now", but not "what
did p95 look like over time, and when did the breaker open relative to
the chaos window".  :class:`TimeSeriesStore` closes that gap: a tiny
embedded TSDB driven entirely by the *simulation* clock —

* a self-rescheduling scrape tick (one event per scrape interval, off
  the hot path, no RNG draws) samples the sink's
  :class:`~repro.telemetry.registry.MetricsRegistry` (counters, gauges,
  and *delta-windowed* histogram percentiles), the
  :class:`~repro.telemetry.monitor.SLAMonitor`'s freshly closed windows,
  and live engine state (queue depth, busy fraction, per-microservice
  container counts — which also covers the resilience layer's
  ``breaker_state`` gauges);
* every sample lands in its :class:`Series` and stays there for the
  whole run, at the one resolution it was scraped at: a run's duration
  bounds the store (one sample per series per scrape), so it neither
  evicts nor downsamples;
* dotted registry names (``e2e_latency_ms.<service>``,
  ``request_errors.<service>.<kind>``, ``breaker_state.<service>.<ms>``)
  are split into a metric *family* plus labels, giving the query layer
  (:mod:`repro.telemetry.timeseries.query`) Prometheus-style label
  selectors over the existing naming convention.

Determinism contract: the store never draws randomness and only ever
*reads* engine state, so attaching it cannot perturb the engine's pinned
RNG streams — golden fingerprints hold with the TSDB enabled, and the
disabled path costs nothing at all (no sink field, no events).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

_MS_PER_MINUTE = 60_000.0

#: Delta-window quantiles scraped from each histogram.
_QUANTILES = (0.50, 0.95, 0.99)

__all__ = [
    "Series",
    "TimeSeriesConfig",
    "TimeSeriesStore",
    "parse_metric_name",
    "series_key",
]

#: Label schema of known dotted registry names: family -> label keys for
#: the remaining dot-separated parts (the last key absorbs any extra
#: dots).  Unknown families with a dotted suffix default to ``service``.
_LABEL_SCHEMA: Dict[str, Tuple[str, ...]] = {
    "request_errors": ("service", "kind"),
    "breaker_state": ("service", "microservice"),
    "e2e_latency_ms": ("service",),
    "containers": ("microservice",),
}

#: Registry gauges shadowed by the store's own (fresher, scrape-cadence)
#: engine snapshot; skipped while a simulator is attached so one series
#: never mixes window-tick and scrape-tick samples.
_ENGINE_SHADOWED_GAUGES = frozenset(
    {"queue_depth", "busy_threads", "busy_fraction", "containers"}
)


def parse_metric_name(raw: str) -> Tuple[str, Dict[str, str]]:
    """Split a dotted registry name into ``(family, labels)``.

    ``e2e_latency_ms.social-network`` becomes ``("e2e_latency_ms",
    {"service": "social-network"})``; families in the known schema get
    their declared label keys (``request_errors.<service>.<kind>``,
    ``breaker_state.<service>.<microservice>``); a name without a dot has
    no labels.
    """
    if "." not in raw:
        return raw, {}
    family, rest = raw.split(".", 1)
    keys = _LABEL_SCHEMA.get(family)
    if keys is None:
        return family, {"service": rest}
    parts = rest.split(".", len(keys) - 1)
    if len(parts) < len(keys):
        return family, {keys[0]: rest}
    return family, dict(zip(keys, parts))


def series_key(name: str, labels: Dict[str, str]) -> Tuple:
    """Canonical hashable identity of one series."""
    return (name, tuple(sorted(labels.items())))


class Series:
    """One sample stream: every ``(time, value)`` of its run.

    Samples live in two flat columns, ``times`` and ``values``; a run's
    length bounds them (one sample per scrape), so nothing is evicted or
    downsampled.  Appends must be time-ordered (the scrape loop runs on
    the simulation clock, so they are).
    """

    __slots__ = ("name", "labels", "key", "times", "values")

    def __init__(self, name: str, labels: Dict[str, str]):
        self.name = name
        self.labels = dict(labels)
        self.key = series_key(name, labels)
        self.times: List[float] = []
        self.values: List[float] = []

    def __len__(self) -> int:
        return len(self.times)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Series({self.name!r}, {self.labels!r}, n={len(self)})"

    # -- ingest ---------------------------------------------------------
    def append(self, t: float, value: float) -> None:
        if not math.isfinite(t):
            raise ValueError(f"series {self.key!r}: non-finite sample time {t}")
        if self.times and t < self.times[-1]:
            raise ValueError(
                f"series {self.key!r}: out-of-order sample at t={t} "
                f"(last t={self.times[-1]})"
            )
        self.times.append(t)
        self.values.append(value)

    # -- reads ----------------------------------------------------------
    def window(self, start: float, end: float) -> List[Tuple[float, float]]:
        """Samples with ``start <= t <= end`` (time-ordered)."""
        return [
            (t, v)
            for t, v in zip(self.times, self.values)
            if start <= t <= end
        ]

    def last(self, at: Optional[float] = None) -> Optional[Tuple[float, float]]:
        """Latest sample at or before ``at`` (latest overall if None)."""
        if not self.times:
            return None
        if at is None:
            return (self.times[-1], self.values[-1])
        for t, v in zip(reversed(self.times), reversed(self.values)):
            if t <= at:
                return (t, v)
        return None

    def to_dict(self, max_points: Optional[int] = None) -> Dict:
        points = list(zip(self.times, self.values))
        if max_points is not None and len(points) > max_points:
            points = points[-max_points:]
        return {
            "name": self.name,
            "labels": dict(self.labels),
            "points": [[round(t, 6), v] for t, v in points],
        }


@dataclass
class TimeSeriesConfig:
    """Knobs of the embedded TSDB.

    Attributes:
        scrape_interval_min: Sim-time cadence of the scrape tick.
    """

    scrape_interval_min: float = 0.25

    def __post_init__(self) -> None:
        if not 0 < self.scrape_interval_min < math.inf:
            raise ValueError(
                "scrape_interval_min must be positive and finite, "
                f"got {self.scrape_interval_min}"
            )


def _delta_quantile(
    bounds: Sequence[float], delta_counts: Sequence[int], total: int, q: float
) -> float:
    """Bucket-upper-bound quantile over an interval's bucket deltas.

    The same estimate :meth:`Histogram.quantile` gives, but computed
    from the *difference* between two scrapes' cumulative bucket counts
    — i.e. the quantile of observations that landed in the interval.
    """
    rank = q * total
    seen = 0
    for index, count in enumerate(delta_counts):
        seen += count
        if seen >= rank and count:
            if index < len(bounds):
                return bounds[index]
            return bounds[-1]
    return bounds[-1]


class TimeSeriesStore:
    """Scrapes one :class:`TelemetrySink` into its series.

    Attach by passing as ``timeseries=`` to the sink; the sink calls
    :meth:`attach` from ``begin_run`` (which schedules the sim-clock
    scrape tick) and :meth:`finalize` after the run drains (final
    scrape at the run's end).  For tests and offline use, :meth:`bind`
    plus explicit :meth:`scrape` calls drive the store manually.

    ``rules`` accepts a :class:`~repro.telemetry.timeseries.rules.RuleSet`
    (or a plain dict in that shape); recording and alert rules are then
    evaluated on every scrape, firing through the sink's ``SLAMonitor``
    (``rule_alerts``) and ``DecisionLog`` (actor ``rules-engine``).
    """

    def __init__(
        self,
        config: Optional[TimeSeriesConfig] = None,
        rules=None,
    ):
        self.config = config or TimeSeriesConfig()
        self.series: Dict[Tuple, Series] = {}
        self.scrapes = 0
        self.last_scrape_min: Optional[float] = None
        self.engine = None  # RuleEngine, set below when rules given
        self._sink = None
        self._sim = None
        self._duration_min = 0.0
        #: previous cumulative (counts, count, sum) per histogram name
        self._prev_hist: Dict[str, Tuple[List[int], int, float]] = {}
        self._windows_seen = 0
        if rules is not None:
            from repro.telemetry.timeseries.rules import RuleEngine, RuleSet

            if isinstance(rules, dict):
                rules = RuleSet.from_dict(rules)
            self.engine = RuleEngine(self, rules)

    # ------------------------------------------------------------------
    # Lifecycle (driven by TelemetrySink)
    # ------------------------------------------------------------------
    def attach(self, sink, simulator) -> None:
        """Bind to a live run and schedule the first scrape tick."""
        if self._sim is not None:
            raise RuntimeError("a TimeSeriesStore serves exactly one run")
        self._sink = sink
        self._sim = simulator
        self._duration_min = simulator.config.duration_min
        interval_ms = self.config.scrape_interval_min * _MS_PER_MINUTE
        if interval_ms <= self._duration_min * _MS_PER_MINUTE:
            simulator.events.schedule(interval_ms, self._on_scrape)

    def bind(self, sink) -> None:
        """Bind to a sink without a simulator (manual scrape mode)."""
        self._sink = sink

    def finalize(self, simulator) -> None:
        """Final scrape at the run's end (monitor windows are closed)."""
        end = self._duration_min or (
            simulator.events.now / _MS_PER_MINUTE if simulator is not None else 0.0
        )
        if self.last_scrape_min is None or self.last_scrape_min < end:
            self.scrape(end)

    def _on_scrape(self, now_ms: float) -> None:
        self.scrape(now_ms / _MS_PER_MINUTE)
        interval_ms = self.config.scrape_interval_min * _MS_PER_MINUTE
        tick = int(round(now_ms / interval_ms))
        next_tick = (tick + 1) * interval_ms
        if next_tick <= self._duration_min * _MS_PER_MINUTE:
            self._sim.events.schedule(next_tick, self._on_scrape)

    # ------------------------------------------------------------------
    # Scraping
    # ------------------------------------------------------------------
    def scrape(self, now_min: float) -> None:
        """Sample registry, SLA monitor, and engine state at ``now_min``."""
        sink = self._sink
        if sink is None:
            raise RuntimeError("TimeSeriesStore is not bound to a TelemetrySink")
        if self.last_scrape_min is not None and now_min < self.last_scrape_min:
            raise ValueError("scrape times must be non-decreasing")
        interval = (
            now_min - self.last_scrape_min
            if self.last_scrape_min is not None
            else now_min
        )
        if interval <= 0.0:
            interval = self.config.scrape_interval_min
        registry = sink.registry
        for name, counter in sorted(registry.counters.items()):
            family, labels = parse_metric_name(name)
            self.record(family, labels, now_min, counter.value)
        for name, gauge in sorted(registry.gauges.items()):
            if self._sim is not None and name in _ENGINE_SHADOWED_GAUGES:
                continue
            family, labels = parse_metric_name(name)
            self.record(family, labels, now_min, gauge.value)
        for name, hist in sorted(registry.histograms.items()):
            self._scrape_histogram(name, hist, now_min, interval)
        self._scrape_monitor(sink, now_min)
        self._scrape_engine(now_min)
        self.scrapes += 1
        self.last_scrape_min = now_min
        if self.engine is not None:
            self.engine.evaluate(
                now_min, monitor=sink.monitor, decisions=sink.decisions
            )

    def _scrape_histogram(self, name, hist, now_min: float, interval: float) -> None:
        """Delta-windowed percentiles: what did p95 look like *this* interval."""
        counts = list(hist.counts)
        prev = self._prev_hist.get(name)
        if prev is None:
            delta_counts, delta_count = counts, hist.count
            delta_sum = hist.sum
        else:
            prev_counts, prev_count, prev_sum = prev
            delta_counts = [c - p for c, p in zip(counts, prev_counts)]
            delta_count = hist.count - prev_count
            delta_sum = hist.sum - prev_sum
        self._prev_hist[name] = (counts, hist.count, hist.sum)
        family, base = parse_metric_name(name)
        self.record(
            family, {**base, "stat": "count"}, now_min, float(delta_count)
        )
        if delta_count <= 0:
            return
        self.record(
            family,
            {**base, "stat": "rate_per_min"},
            now_min,
            delta_count / interval,
        )
        self.record(
            family, {**base, "stat": "mean"}, now_min, delta_sum / delta_count
        )
        for q in _QUANTILES:
            self.record(
                family,
                {**base, "stat": f"p{q * 100:g}"},
                now_min,
                _delta_quantile(hist.bounds, delta_counts, delta_count, q),
            )

    def _scrape_monitor(self, sink, now_min: float) -> None:
        """Ingest SLA windows closed since the previous scrape.

        Each closed :class:`WindowStats` lands as one sample per derived
        series, timestamped at the window's *end* — so the
        ``sla_miss_rate`` series is exactly the monitor's (and hence
        ``SimulationResult.violation_rate_by_window``'s) per-window
        values, window for window.
        """
        windows = sink.monitor.windows
        window_min = sink.config.window_min
        for stats in windows[self._windows_seen :]:
            t = stats.start_min + window_min
            labels = {"service": stats.service}
            self.record("sla_miss_rate", labels, t, stats.violation_rate)
            self.record("sla_p95_ms", labels, t, stats.p95_ms)
            self.record("sla_window_count", labels, t, float(stats.count))
            if stats.errors:
                self.record(
                    "sla_window_errors", labels, t, float(stats.errors)
                )
        self._windows_seen = len(windows)

    def _scrape_engine(self, now_min: float) -> None:
        """Live engine state at scrape cadence (read-only, no gauges touched)."""
        sim = self._sim
        if sim is None:
            return
        depth = 0
        busy = 0
        total_threads = 0
        for name, state in sim._microservices.items():
            self.record(
                "containers",
                {"microservice": name},
                now_min,
                float(len(state.containers)),
            )
            queued, busy_threads, threads = state.load()
            depth += queued
            busy += busy_threads
            total_threads += threads
        self.record("queue_depth", {}, now_min, float(depth))
        self.record(
            "busy_fraction",
            {},
            now_min,
            busy / total_threads if total_threads else 0.0,
        )

    # ------------------------------------------------------------------
    # Writes & reads
    # ------------------------------------------------------------------
    def record(
        self, name: str, labels: Optional[Dict[str, str]], t: float, value: float
    ) -> Series:
        """Append one sample, creating the series on first touch.

        With ``labels=None`` the dotted registry-name convention is
        parsed into (family, labels) via :func:`parse_metric_name`.
        """
        if labels is None:
            name, labels = parse_metric_name(name)
        key = series_key(name, labels)
        series = self.series.get(key)
        if series is None:
            series = self.series[key] = Series(name, labels)
        series.append(t, value)
        return series

    def select(
        self, name: Optional[str] = None, labels: Optional[Dict[str, str]] = None
    ) -> List[Series]:
        """Series matching an exact name and/or label subset (sorted)."""
        out = []
        for key in sorted(self.series):
            series = self.series[key]
            if name is not None and series.name != name:
                continue
            if labels and any(
                series.labels.get(k) != v for k, v in labels.items()
            ):
                continue
            out.append(series)
        return out

    def get(self, name: str, labels: Optional[Dict[str, str]] = None) -> Optional[Series]:
        """The single series with this exact identity, or ``None``."""
        return self.series.get(series_key(name, labels or {}))

    def query(self, expr: str, at: Optional[float] = None):
        """Evaluate a query expression; see :mod:`.query`.

        Returns ``[(series, value)]`` for every matching series, with
        ``at`` defaulting to the latest scrape time.
        """
        from repro.telemetry.timeseries.query import evaluate

        if at is None:
            if self.last_scrape_min is not None:
                at = self.last_scrape_min
            else:  # manual-record mode: latest sample anywhere
                at = max(
                    (s.times[-1] for s in self.series.values() if s.times),
                    default=0.0,
                )
        return evaluate(self, expr, at)

    @property
    def total_samples(self) -> int:
        return sum(len(s) for s in self.series.values())

    def to_dict(self, max_points: Optional[int] = None) -> Dict:
        """JSON-ready summary (bounded by ``max_points`` per series)."""
        return {
            "scrape_interval_min": self.config.scrape_interval_min,
            "scrapes": self.scrapes,
            "series": len(self.series),
            "samples": self.total_samples,
            "rule_alerts": (
                [a.to_dict() for a in self.engine.alerts]
                if self.engine is not None
                else []
            ),
            "series_data": [
                self.series[key].to_dict(max_points)
                for key in sorted(self.series)
            ],
        }

    @classmethod
    def from_dict(cls, dump: Dict) -> "TimeSeriesStore":
        """Rebuild a store from :meth:`to_dict` output (no rules attached).

        Every dumped point is recorded again, so each series holds what
        the dump holds; ``last_scrape_min`` is the latest dumped time.
        """
        store = cls(
            TimeSeriesConfig(scrape_interval_min=dump["scrape_interval_min"])
        )
        for entry in dump["series_data"]:
            for t, value in entry["points"]:
                store.record(entry["name"], entry["labels"], t, value)
        store.scrapes = dump["scrapes"]
        store.last_scrape_min = max(
            (s.times[-1] for s in store.series.values()), default=None
        )
        return store

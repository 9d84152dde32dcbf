"""Low-overhead metrics registry: counters, gauges, latency histograms.

The live telemetry layer mirrors what Prometheus client libraries give a
real deployment (paper §5.1): monotonically increasing counters, sampled
gauges, and fixed-bucket latency histograms that answer percentile
queries without retaining raw samples.  Everything is plain-Python and
allocation-free on the observation path — an ``observe()`` is one bisect
over a precomputed bucket table plus two float adds — so the enabled
telemetry path stays cheap and the disabled path costs nothing at all.
"""

from __future__ import annotations

import hashlib
import re
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "default_latency_buckets",
    "expose_snapshot",
    "parse_prometheus_text",
]

#: Characters legal in a Prometheus metric name; everything else maps to "_".
_NAME_ILLEGAL = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str) -> str:
    """Sanitize a registry metric name into a Prometheus metric name."""
    sanitized = _NAME_ILLEGAL.sub("_", name)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def _prom_float(value: float) -> str:
    """Render a sample value the way Prometheus clients do."""
    if value == float("inf"):
        return "+Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _exemplar_suffix(exemplar: Optional[Sequence]) -> str:
    """OpenMetrics exemplar suffix for one bucket line ('' when absent)."""
    if exemplar is None:
        return ""
    value, trace_id = exemplar
    escaped = trace_id.replace("\\", "\\\\").replace('"', '\\"')
    return f' # {{trace_id="{escaped}"}} {_prom_float(value)}'


_EXEMPLAR_RE = re.compile(
    r'\s+#\s+\{trace_id="(?P<trace>(?:[^"\\]|\\.)*)"\}\s+(?P<value>\S+)\s*$'
)


def default_latency_buckets() -> List[float]:
    """Log-spaced latency bucket upper bounds in milliseconds.

    Covers 0.5 ms to ~53 s with ~24 % resolution steps — the same shape
    Prometheus' ``histogram_buckets`` idiom uses for request latencies.
    """
    bounds = []
    bound = 0.5
    while bound < 60_000.0:
        bounds.append(round(bound, 4))
        bound *= 1.25
    return bounds


class Counter:
    """Monotonic event counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Gauge:
    """Last-written-value metric (queue depth, busy threads, ...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Fixed-bucket latency histogram.

    Bucket ``i`` counts observations ``<= bounds[i]``; one overflow
    bucket catches the rest.  ``quantile()`` answers with the upper bound
    of the bucket containing the requested rank — the standard
    Prometheus ``histogram_quantile`` estimate, biased at most one
    bucket width high.

    Buckets can carry OpenMetrics-style *exemplars*: one representative
    ``(value, trace_id)`` per bucket (latest wins), attached out-of-band
    via :meth:`attach_exemplar` so the ``observe()`` hot path stays a
    bisect plus two adds.  Exemplar storage is lazy — a histogram that
    never sees one allocates nothing extra.
    """

    __slots__ = ("name", "bounds", "counts", "count", "sum", "exemplars")

    def __init__(self, name: str, bounds: Optional[Sequence[float]] = None):
        self.name = name
        self.bounds = list(bounds) if bounds is not None else default_latency_buckets()
        if sorted(self.bounds) != self.bounds or not self.bounds:
            raise ValueError("histogram bounds must be a non-empty sorted list")
        self.counts = [0] * (len(self.bounds) + 1)  # +1: overflow bucket
        self.count = 0
        self.sum = 0.0
        #: bucket index -> (value, trace_id); lazily created.
        self.exemplars: Optional[Dict[int, Tuple[float, str]]] = None

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value

    def attach_exemplar(self, value: float, trace_id: str) -> None:
        """Link the bucket containing ``value`` to a trace (latest wins)."""
        if self.exemplars is None:
            self.exemplars = {}
        self.exemplars[bisect_left(self.bounds, value)] = (value, trace_id)

    def quantile(self, q: float) -> float:
        """Upper-bound estimate of the ``q``-quantile (``q`` in [0, 1])."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        if self.count == 0:
            raise ValueError(f"histogram {self.name!r} is empty")
        rank = q * self.count
        seen = 0
        for index, bucket_count in enumerate(self.counts):
            seen += bucket_count
            if seen >= rank and bucket_count:
                if index < len(self.bounds):
                    return self.bounds[index]
                return self.bounds[-1]  # overflow: best available bound
        return self.bounds[-1]

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


class MetricsRegistry:
    """Named metric namespace: one flat dict per metric kind.

    Metrics are created on first touch (``counter("events")`` both
    registers and returns), so instrumentation sites never need set-up
    code.  ``snapshot()`` renders everything JSON-ready for run reports.
    """

    def __init__(self, latency_bounds: Optional[Sequence[float]] = None):
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}
        self._latency_bounds = (
            list(latency_bounds) if latency_bounds is not None else None
        )

    def counter(self, name: str) -> Counter:
        metric = self.counters.get(name)
        if metric is None:
            metric = self.counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self.gauges.get(name)
        if metric is None:
            metric = self.gauges[name] = Gauge(name)
        return metric

    def histogram(self, name: str) -> Histogram:
        metric = self.histograms.get(name)
        if metric is None:
            metric = self.histograms[name] = Histogram(name, self._latency_bounds)
        return metric

    def snapshot(self) -> Dict:
        """JSON-ready view of every registered metric.

        Each histogram entry keeps its rounded summary (``count``,
        ``sum``, ``mean``, ``p50`` / ``p95`` / ``p99``) and adds its
        exact state under ``buckets``: bounds, per-bucket counts, the
        unrounded sum and exemplars keyed by bucket index — enough for
        :func:`expose_snapshot` to render the same exposition after a
        JSON round trip.
        """
        report: Dict = {
            "counters": {n: c.value for n, c in sorted(self.counters.items())},
            "gauges": {n: g.value for n, g in sorted(self.gauges.items())},
            "histograms": {},
        }
        for name, hist in sorted(self.histograms.items()):
            entry = {"count": hist.count, "sum": round(hist.sum, 6)}
            if hist.count:
                entry["mean"] = round(hist.mean, 6)
                entry["p50"] = hist.quantile(0.50)
                entry["p95"] = hist.quantile(0.95)
                entry["p99"] = hist.quantile(0.99)
            entry["buckets"] = {
                "bounds": list(hist.bounds),
                "counts": list(hist.counts),
                "sum": hist.sum,
                "exemplars": {
                    str(index): list(exemplar)
                    for index, exemplar in sorted((hist.exemplars or {}).items())
                },
            }
            report["histograms"][name] = entry
        return report

    def expose_text(self) -> str:
        """This registry in Prometheus text exposition format.

        ``expose_snapshot(self.snapshot())``: a live scrape, a replayed
        run report and ``repro report --format prom`` share one renderer.
        """
        return expose_snapshot(self.snapshot())


def _exposed_families(snapshot: Dict) -> Dict[Tuple[str, str], str]:
    """Collision-free exposed family name per (kind, registry name).

    Distinct registry names can sanitize to the same Prometheus name
    (``e2e_latency_ms.svc-a`` and ``e2e_latency_ms.svc_a`` both
    become ``e2e_latency_ms_svc_a``), which would emit duplicate
    ``# TYPE`` lines and silently merge series.  Walking metrics in
    exposition order (counters, gauges, histograms; each sorted by
    registry name), the first claimant keeps the plain sanitized
    name and every later collider gets a stable ``_<sha1[:8]>``
    suffix of its *original* name — deterministic regardless of
    registration order.
    """
    entries: List[Tuple[str, str, str]] = (
        [("counter", n, _prom_name(n) + "_total") for n in sorted(snapshot["counters"])]
        + [("gauge", n, _prom_name(n)) for n in sorted(snapshot["gauges"])]
        + [("histogram", n, _prom_name(n)) for n in sorted(snapshot["histograms"])]
    )

    def reserved(kind: str, family: str) -> List[str]:
        # A histogram family also owns its derived sample names — a
        # gauge literally named ``req_sum`` must not share a line
        # name with histogram ``req``'s ``req_sum`` sample.
        if kind == "histogram":
            return [family, f"{family}_bucket", f"{family}_sum",
                    f"{family}_count"]
        return [family]

    families: Dict[Tuple[str, str], str] = {}
    claimed: Dict[str, Tuple[str, str]] = {}
    for kind, raw, prom in entries:
        unique = prom
        digest = hashlib.sha1(raw.encode("utf-8")).hexdigest()
        length = 8
        while any(name in claimed for name in reserved(kind, unique)):
            unique = f"{prom}_{digest[:length]}"
            length *= 2
            if length > len(digest):
                raise ValueError(
                    f"cannot disambiguate metric name {raw!r}"
                )
        for name in reserved(kind, unique):
            claimed[name] = (kind, raw)
        families[(kind, raw)] = unique
    return families


def expose_snapshot(snapshot: Dict) -> str:
    """Render a :meth:`MetricsRegistry.snapshot` in Prometheus text format.

    Counters are suffixed ``_total``; histograms emit cumulative
    ``_bucket{le="..."}`` series plus ``_sum`` and ``_count``, ending
    with the mandatory ``le="+Inf"`` bucket — the exact layout
    ``promtool`` and any Prometheus scraper accept.  Registry names
    containing characters illegal in Prometheus metric names (the
    sink's ``e2e_latency_ms.<service>`` histograms) are sanitized to
    underscores; sanitized-name collisions are disambiguated
    deterministically (see :func:`_exposed_families`).
    """
    families = _exposed_families(snapshot)
    lines: List[str] = []
    for name, value in sorted(snapshot["counters"].items()):
        prom = families[("counter", name)]
        lines.append(f"# TYPE {prom} counter")
        lines.append(f"{prom} {_prom_float(value)}")
    for name, value in sorted(snapshot["gauges"].items()):
        prom = families[("gauge", name)]
        lines.append(f"# TYPE {prom} gauge")
        lines.append(f"{prom} {_prom_float(value)}")
    for name, entry in sorted(snapshot["histograms"].items()):
        prom = families[("histogram", name)]
        buckets = entry["buckets"]
        bounds = buckets["bounds"]
        exemplars = buckets["exemplars"]
        lines.append(f"# TYPE {prom} histogram")
        cumulative = 0
        for index, (bound, count) in enumerate(zip(bounds, buckets["counts"])):
            cumulative += count
            lines.append(
                f'{prom}_bucket{{le="{_prom_float(bound)}"}} {cumulative}'
                + _exemplar_suffix(exemplars.get(str(index)))
            )
        lines.append(
            f'{prom}_bucket{{le="+Inf"}} {entry["count"]}'
            + _exemplar_suffix(exemplars.get(str(len(bounds))))
        )
        lines.append(f"{prom}_sum {_prom_float(buckets['sum'])}")
        lines.append(f"{prom}_count {entry['count']}")
    return "\n".join(lines) + "\n" if lines else ""


def parse_prometheus_text(text: str) -> Dict[str, Dict]:
    """Parse Prometheus text exposition back into a structured dict.

    The inverse of :func:`expose_snapshot` (for round-trip
    tests and downstream tooling): returns ``{metric_name: {"type": ...,
    "value": ...}}`` for counters/gauges and ``{"type": "histogram",
    "buckets": {le: cumulative_count}, "sum": ..., "count": ...}`` for
    histograms.  Counter names keep their ``_total`` suffix, matching the
    exposition.

    OpenMetrics-style exemplar suffixes (``... # {trace_id="..."} 12.5``)
    on bucket lines are accepted and surfaced under the histogram's
    ``"exemplars"`` key as ``{le: {"trace_id": ..., "value": ...}}``;
    lines without one parse exactly as before.
    """
    metrics: Dict[str, Dict] = {}
    types: Dict[str, str] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 4 and parts[1] == "TYPE":
                types[parts[2]] = parts[3]
            continue
        exemplar = None
        exemplar_match = _EXEMPLAR_RE.search(line)
        if exemplar_match is not None:
            exemplar = {
                "trace_id": exemplar_match.group("trace")
                .replace('\\"', '"')
                .replace("\\\\", "\\"),
                "value": float(exemplar_match.group("value")),
            }
            line = line[: exemplar_match.start()]
        name_part, _, value_part = line.rpartition(" ")
        value = float(value_part)
        if "{" in name_part:
            base, _, label_part = name_part.partition("{")
            labels = label_part.rstrip("}")
            metric = base[: -len("_bucket")] if base.endswith("_bucket") else base
            entry = metrics.setdefault(
                metric,
                {"type": types.get(metric, "histogram"), "buckets": {}},
            )
            if base.endswith("_bucket") and labels.startswith('le="'):
                le = float(labels[4:-1])
                entry["buckets"][le] = value
                if exemplar is not None:
                    entry.setdefault("exemplars", {})[le] = exemplar
        else:
            base = name_part
            declared = types.get(base)
            if declared is not None and declared != "histogram":
                # A standalone counter/gauge whose name literally ends
                # in _sum/_count: its own exact # TYPE declaration wins
                # over suffix-stripping into an unrelated histogram
                # sharing the prefix.
                metrics[base] = {"type": declared, "value": value}
                continue
            for suffix in ("_sum", "_count"):
                prefix = base[: -len(suffix)] if base.endswith(suffix) else None
                if prefix and types.get(prefix) == "histogram":
                    entry = metrics.setdefault(
                        prefix,
                        {"type": "histogram", "buckets": {}},
                    )
                    entry[suffix[1:]] = value
                    break
            else:
                metrics[base] = {
                    "type": types.get(base, "untyped"),
                    "value": value,
                }
    return metrics

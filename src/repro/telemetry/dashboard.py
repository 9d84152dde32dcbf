"""Self-contained HTML dashboard of one instrumented run.

``python -m repro dashboard`` renders one dependency-free HTML file —
inline SVG charts, inline CSS, no scripts, no external URLs — showing
what the paper's §5 monitoring loop sees over a run:

* per-service **latency percentiles over time** (p50/p95/p99 from the
  TSDB's delta-windowed histogram scrapes) with the service's SLA as a
  target line (the input Eq. 5 decomposes into per-microservice
  targets);
* **SLA miss rate per window**, sourced from the
  :class:`~repro.telemetry.monitor.SLAMonitor` windows — so the plotted
  series matches ``SimulationResult.violation_rate_by_window`` window
  for window — with the Eq. 5 tail budget (1 − P, e.g. 5 % at P95) as a
  target line;
* **circuit-breaker state** step charts with chaos-event overlays
  (error windows, latency spikes, crash markers);
* **container-allocation timelines** per microservice, reconstructed
  exactly from the :class:`~repro.telemetry.monitor.DecisionLog`.

Split in two layers so tests can assert on data rather than markup:
:func:`dashboard_data` assembles a plain dict from the run state
(:func:`~repro.telemetry.export.run_state`, or an archived run report)
and the TSDB, and :func:`render_dashboard` turns that dict into HTML.  Chart styling
follows a fixed design spec (categorical series slots, status colors
reserved for state, text in ink tokens, 2 px lines, hairline solid
gridlines, legends for multi-series charts, a data table per chart).
"""

from __future__ import annotations

import html
import math
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "dashboard_css",
    "dashboard_data",
    "render_dashboard",
    "render_dashboard_body",
    "write_dashboard",
]

_RULES_ACTOR = "rules-engine"

# ----------------------------------------------------------------------
# Data assembly
# ----------------------------------------------------------------------


def dashboard_data(
    state: Dict,
    store=None,
    meta: Optional[Dict] = None,
    targets: Optional[Dict] = None,
    chaos=None,
) -> Dict:
    """Assemble the dashboard's plain-dict model from one run's state.

    Args:
        state: The run state — :func:`~repro.telemetry.export.run_state`
            of a live run, or an archived run report.
        store: Optional :class:`~repro.telemetry.timeseries.TimeSeriesStore`
            for the latency and breaker series (the sink's live, or one
            rebuilt from a report's dump).
        meta: Optional run description (app/scheme/workload/seed/...).
        targets: Optional Eq. 5 latency targets,
            ``{service: {microservice: target_ms}}``.
        chaos: Optional :class:`~repro.resilience.ChaosSchedule`.
    """
    window_min = state["window_min"]
    tail_budget = round(1.0 - state["percentile"] / 100.0, 6)
    windows_all = state["windows"]

    services: Dict[str, Dict] = {}
    for service in sorted({w["service"] for w in windows_all}):
        windows = [w for w in windows_all if w["service"] == service]
        sla = state["services"].get(service, {}).get("sla_ms")
        entry: Dict = {
            "sla_ms": sla if sla not in (None, float("inf")) else None,
            "tail_budget": tail_budget,
            "windows": [
                {
                    "window": w["window"],
                    "start_min": w["start_min"],
                    "end_min": round(w["start_min"] + window_min, 6),
                    "miss_rate": w["violation_rate"],
                    "p95_ms": w["p95_ms"],
                    "count": w["count"],
                    "errors": w.get("errors", 0),
                }
                for w in windows
            ],
            "latency": {},
        }
        if store is not None:
            for stat in ("p50", "p95", "p99"):
                series = store.get(
                    "e2e_latency_ms", {"service": service, "stat": stat}
                )
                if series is not None and len(series):
                    entry["latency"][stat] = [
                        [round(t, 6), v]
                        for t, v in zip(series.times, series.values)
                    ]
        services[service] = entry

    breakers: List[Dict] = []
    if store is not None:
        for series in store.select("breaker_state"):
            points = [
                [round(t, 6), v] for t, v in zip(series.times, series.values)
            ]
            if any(v for _, v in points):  # only breakers that ever left CLOSED
                breakers.append(
                    {
                        "service": series.labels.get("service", ""),
                        "microservice": series.labels.get("microservice", ""),
                        "points": points,
                    }
                )

    duration = float(state["duration_min"])
    chaos_dict = None
    if chaos is not None and not chaos.is_empty():
        chaos_dict = chaos.to_dict()

    total_count = sum(w["count"] for w in windows_all)
    total_violations = sum(w["violations"] for w in windows_all)
    summary = {
        "duration_min": duration,
        "window_min": window_min,
        "completed": sum(s["completed"] for s in state["services"].values()),
        "generated": sum(s["generated"] for s in state["services"].values()),
        "events_processed": int(state["events_processed"]),
        "containers": sum(state["containers"].values()),
        "miss_rate": round(
            total_violations / total_count if total_count else 0.0, 6
        ),
        "sla_alerts": len(state["alerts"]),
        "error_alerts": len(state["error_alerts"]),
        "rule_alerts": len(state["rule_alerts"]),
        "decisions": len(state["decisions"]),
    }
    if store is not None:
        summary["tsdb_series"] = len(store.series)
        summary["tsdb_samples"] = store.total_samples
        summary["tsdb_scrapes"] = store.scrapes

    return {
        "meta": dict(meta or {}),
        "summary": summary,
        "services": services,
        "targets": {
            svc: {ms: round(t, 4) for ms, t in by_ms.items()}
            for svc, by_ms in (targets or {}).items()
        },
        "breakers": breakers,
        "containers": _container_timelines(state, duration),
        "chaos": chaos_dict,
        "alerts": {
            "sla": state["alerts"],
            "error_budget": state["error_alerts"],
            "rules": state["rule_alerts"],
        },
    }


def _container_timelines(state: Dict, duration: float) -> Dict[str, List]:
    """Exact per-microservice container step series from the DecisionLog."""
    records: Dict[str, List] = {}
    for rec in state["decisions"]:
        if rec["actor"] == _RULES_ACTOR:
            continue  # rule firings carry 0/1 markers, not container counts
        records.setdefault(rec["microservice"], []).append(rec)
    timelines: Dict[str, List] = {}
    for name, count in sorted(state["containers"].items()):
        events = records.get(name, [])
        initial = events[0]["before"] if events else count
        points: List[List[float]] = [[0.0, float(initial)]]
        for rec in events:
            points.append([rec["minute"], float(rec["after"])])
        if duration > 0 and points[-1][0] < duration:
            points.append([duration, points[-1][1]])
        timelines[name] = points
    return timelines


# ----------------------------------------------------------------------
# SVG chart rendering
# ----------------------------------------------------------------------

_W = 720
_H = 240
_ML, _MR, _MT, _MB = 52, 14, 14, 30


def _esc(text) -> str:
    return html.escape(str(text), quote=True)


def _fmt(value: float) -> str:
    """Compact, trailing-zero-free number rendering."""
    if value is None:
        return "-"
    if isinstance(value, float) and value == int(value) and abs(value) < 1e12:
        value = int(value)
    if isinstance(value, int):
        return f"{value:,}"
    if abs(value) >= 100:
        return f"{value:,.0f}"
    if abs(value) >= 1:
        return f"{value:,.2f}".rstrip("0").rstrip(".")
    return f"{value:.4f}".rstrip("0").rstrip(".") or "0"


def _nice_step(raw: float) -> float:
    if raw <= 0:
        return 1.0
    magnitude = 10 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * magnitude
        if step >= raw - 1e-12:
            return step
    return 10.0 * magnitude


def _ticks(vmax: float, target: int = 4) -> List[float]:
    if vmax <= 0:
        vmax = 1.0
    step = _nice_step(vmax / target)
    top = step * math.ceil(vmax / step - 1e-9)
    count = int(round(top / step))
    return [round(i * step, 10) for i in range(count + 1)]


class _Chart:
    """One inline-SVG line/step chart with the fixed mark specs."""

    def __init__(
        self,
        x_max: float,
        y_max: float,
        height: int = _H,
        y_ticks: Optional[Sequence[float]] = None,
        y_tick_labels: Optional[Dict[float, str]] = None,
        y_fmt=_fmt,
        x_label: str = "sim minutes",
    ):
        self.x_max = max(x_max, 1e-9)
        self.y_ticks = list(y_ticks) if y_ticks is not None else _ticks(y_max)
        self.y_top = max(self.y_ticks[-1], 1e-9)
        self.y_tick_labels = y_tick_labels or {}
        self.y_fmt = y_fmt
        self.h = height
        self.x_label = x_label
        self.parts: List[str] = []

    def x(self, v: float) -> float:
        return _ML + (v / self.x_max) * (_W - _ML - _MR)

    def y(self, v: float) -> float:
        return self.h - _MB - (v / self.y_top) * (self.h - _MT - _MB)

    def band(self, x0: float, x1: float, color: str, title: str) -> None:
        x0p, x1p = self.x(max(0.0, x0)), self.x(min(self.x_max, x1))
        if x1p <= x0p:
            return
        self.parts.append(
            f'<rect x="{x0p:.1f}" y="{_MT}" width="{x1p - x0p:.1f}" '
            f'height="{self.h - _MT - _MB:.1f}" fill="{color}" '
            f'opacity="0.12"><title>{_esc(title)}</title></rect>'
        )

    def vline(self, xv: float, color: str, title: str) -> None:
        xp = self.x(xv)
        self.parts.append(
            f'<line x1="{xp:.1f}" y1="{_MT}" x2="{xp:.1f}" '
            f'y2="{self.h - _MB}" stroke="{color}" stroke-width="2" '
            f'opacity="0.8"><title>{_esc(title)}</title></line>'
        )

    def ref_line(self, yv: float, color: str, label: str) -> None:
        if yv > self.y_top:
            return
        yp = self.y(yv)
        self.parts.append(
            f'<line x1="{_ML}" y1="{yp:.1f}" x2="{_W - _MR}" y2="{yp:.1f}" '
            f'stroke="{color}" stroke-width="1.5" opacity="0.75"/>'
        )
        self.parts.append(
            f'<text x="{_W - _MR}" y="{yp - 4:.1f}" text-anchor="end" '
            f'class="ref-label">{_esc(label)}</text>'
        )

    def series(
        self,
        points: Sequence[Sequence[float]],
        color: str,
        label: str,
        step: bool = False,
        markers: bool = False,
        unit: str = "",
    ) -> None:
        if not points:
            return
        coords = [(self.x(px), self.y(min(py, self.y_top))) for px, py in points]
        if len(coords) > 1:
            if step:
                path = f"M{coords[0][0]:.1f} {coords[0][1]:.1f}"
                for (x0, _), (x1, y1) in zip(coords, coords[1:]):
                    path += f" H{x1:.1f} V{y1:.1f}"
            else:
                path = "M" + " L".join(f"{xp:.1f} {yp:.1f}" for xp, yp in coords)
            self.parts.append(
                f'<path d="{path}" fill="none" stroke="{color}" '
                f'stroke-width="2" stroke-linejoin="round" '
                f'stroke-linecap="round"/>'
            )
        if markers or len(coords) == 1:
            for (px, py), (xv, yv) in zip(coords, points):
                title = f"{label} @ {_fmt(xv)} min: {self.y_fmt(yv)}{unit}"
                self.parts.append(
                    f'<circle cx="{px:.1f}" cy="{py:.1f}" r="4" '
                    f'fill="{color}" stroke="var(--surface-1)" '
                    f'stroke-width="2"><title>{_esc(title)}</title></circle>'
                )

    def render(self) -> str:
        grid: List[str] = []
        for tick in self.y_ticks:
            yp = self.y(tick)
            if tick > 0:
                grid.append(
                    f'<line x1="{_ML}" y1="{yp:.1f}" x2="{_W - _MR}" '
                    f'y2="{yp:.1f}" stroke="var(--gridline)" stroke-width="1"/>'
                )
            label = self.y_tick_labels.get(tick, self.y_fmt(tick))
            grid.append(
                f'<text x="{_ML - 8}" y="{yp + 4:.1f}" text-anchor="end" '
                f'class="tick">{_esc(label)}</text>'
            )
        baseline_y = self.y(0.0)
        grid.append(
            f'<line x1="{_ML}" y1="{baseline_y:.1f}" x2="{_W - _MR}" '
            f'y2="{baseline_y:.1f}" stroke="var(--baseline)" stroke-width="1"/>'
        )
        for tick in _ticks(self.x_max, target=6):
            if tick > self.x_max + 1e-9:
                continue
            xp = self.x(tick)
            grid.append(
                f'<text x="{xp:.1f}" y="{self.h - _MB + 16}" '
                f'text-anchor="middle" class="tick">{_fmt(tick)}</text>'
            )
        grid.append(
            f'<text x="{(_ML + _W - _MR) / 2:.1f}" y="{self.h - 2}" '
            f'text-anchor="middle" class="tick">{_esc(self.x_label)}</text>'
        )
        return (
            f'<svg viewBox="0 0 {_W} {self.h}" role="img" '
            f'preserveAspectRatio="xMidYMid meet">'
            + "".join(grid)
            + "".join(self.parts)
            + "</svg>"
        )


def _legend(entries: Sequence[Tuple[str, str]]) -> str:
    """Legend row (always for >= 2 series; never for one)."""
    if len(entries) < 2:
        return ""
    keys = "".join(
        f'<span class="key"><span class="swatch" '
        f'style="background:{color}"></span>{_esc(label)}</span>'
        for label, color in entries
    )
    return f'<div class="legend">{keys}</div>'


def _table(headers: Sequence[str], rows: Sequence[Sequence], summary: str) -> str:
    head = "".join(f"<th>{_esc(h)}</th>" for h in headers)
    body = "".join(
        "<tr>" + "".join(f"<td>{_esc(_fmt(c) if isinstance(c, (int, float)) else c)}</td>" for c in row) + "</tr>"
        for row in rows
    )
    return (
        f"<details><summary>{_esc(summary)}</summary>"
        f"<table><thead><tr>{head}</tr></thead>"
        f"<tbody>{body}</tbody></table></details>"
    )


def _chaos_overlays(chart: _Chart, chaos: Optional[Dict], microservice: Optional[str] = None) -> None:
    """Paint chaos windows/crashes onto a chart (status colors + tooltips)."""
    if not chaos:
        return
    for window in chaos.get("error_windows", []):
        if microservice and window["microservice"] != microservice:
            continue
        chart.band(
            window["start_min"],
            window["end_min"],
            "var(--serious)",
            f"error window: {window['microservice']} "
            f"rate {window['error_rate']:g}",
        )
    for spike in chaos.get("latency_spikes", []):
        if microservice and spike["microservice"] != microservice:
            continue
        chart.band(
            spike["start_min"],
            spike["end_min"],
            "var(--warning)",
            f"latency spike: {spike['microservice']} "
            f"x{spike['multiplier']:g}",
        )
    for crash in chaos.get("crashes", []):
        if microservice and crash["microservice"] != microservice:
            continue
        restart = crash.get("restart_after_ms")
        note = f", restart after {restart:g} ms" if restart else ""
        chart.vline(
            crash["at_min"],
            "var(--critical)",
            f"crash: {crash['microservice']}{note}",
        )


# ----------------------------------------------------------------------
# Page rendering
# ----------------------------------------------------------------------

_CSS = """
:root { color-scheme: light; }
body {
  margin: 0; padding: 24px;
  background: var(--page); color: var(--ink);
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  font-size: 14px; line-height: 1.45;
}
.viz-root {
  --page: #f9f9f7; --surface-1: #fcfcfb;
  --ink: #0b0b0b; --ink-2: #52514e; --muted: #898781;
  --gridline: #e1e0d9; --baseline: #c3c2b7;
  --border: rgba(11,11,11,0.10);
  --s1: #2a78d6; --s2: #eb6834; --s3: #1baf7a; --s4: #eda100;
  --s5: #e87ba4; --s6: #008300; --s7: #4a3aa7; --s8: #e34948;
  --good: #0ca30c; --warning: #fab219; --serious: #ec835a;
  --critical: #d03b3b;
}
@media (prefers-color-scheme: dark) {
  :root { color-scheme: dark; }
  .viz-root {
    --page: #0d0d0d; --surface-1: #1a1a19;
    --ink: #ffffff; --ink-2: #c3c2b7; --muted: #898781;
    --gridline: #2c2c2a; --baseline: #383835;
    --border: rgba(255,255,255,0.10);
    --s1: #3987e5; --s2: #d95926; --s3: #199e70; --s4: #c98500;
    --s5: #d55181; --s6: #008300; --s7: #9085e9; --s8: #e66767;
  }
}
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 16px; margin: 28px 0 10px; }
h3 { font-size: 14px; margin: 0 0 2px; font-weight: 600; }
.meta { color: var(--ink-2); margin: 0 0 18px; }
.tiles { display: flex; flex-wrap: wrap; gap: 12px; margin: 16px 0; }
.tile {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 10px 16px; min-width: 120px;
}
.tile .label { color: var(--ink-2); font-size: 12px; }
.tile .value { font-size: 24px; font-weight: 600; }
.chart {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 14px 16px 8px; margin: 12px 0;
  max-width: 780px;
}
.chart .sub { color: var(--muted); font-size: 12px; margin: 0 0 8px; }
.grid2 { display: flex; flex-wrap: wrap; gap: 12px; }
.grid2 .chart { flex: 1 1 340px; max-width: 380px; }
.grid2 .chart svg { width: 100%; height: auto; }
svg { display: block; width: 100%; height: auto; }
svg text.tick, svg text.ref-label {
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  font-size: 11px; fill: var(--muted);
}
svg text.ref-label { fill: var(--ink-2); }
.legend { display: flex; flex-wrap: wrap; gap: 14px; margin: 8px 0 4px; color: var(--ink-2); font-size: 12px; }
.legend .key { display: inline-flex; align-items: center; gap: 6px; }
.legend .swatch { width: 12px; height: 3px; border-radius: 2px; display: inline-block; }
details { margin: 8px 0 4px; }
summary { color: var(--ink-2); font-size: 12px; cursor: pointer; }
table { border-collapse: collapse; margin-top: 8px; font-size: 12px; }
th, td { padding: 3px 10px; text-align: right; font-variant-numeric: tabular-nums; }
th:first-child, td:first-child { text-align: left; }
thead th { color: var(--ink-2); font-weight: 600; border-bottom: 1px solid var(--baseline); }
tbody tr:nth-child(even) { background: var(--page); }
.status { display: inline-flex; align-items: center; gap: 6px; }
.status .dot { width: 8px; height: 8px; border-radius: 50%; display: inline-block; }
.footnote { color: var(--muted); font-size: 12px; margin-top: 24px; }
"""

_SLOTS = ["var(--s1)", "var(--s2)", "var(--s3)", "var(--s4)",
          "var(--s5)", "var(--s6)", "var(--s7)", "var(--s8)"]


def _tile(label: str, value: str) -> str:
    return (
        f'<div class="tile"><div class="label">{_esc(label)}</div>'
        f'<div class="value">{_esc(value)}</div></div>'
    )


def _latency_section(name: str, entry: Dict, duration: float, chaos) -> str:
    latency = entry.get("latency", {})
    sla = entry.get("sla_ms")
    windows = entry["windows"]
    stats = [s for s in ("p50", "p95", "p99") if latency.get(s)]
    values = [v for s in stats for _, v in latency[s]]
    if not values:  # no TSDB: fall back to the monitor's per-window p95
        stats = []
        values = [w["p95_ms"] for w in windows]
    y_max = max(values + ([sla] if sla else []) + [1.0]) * 1.1
    chart = _Chart(duration, y_max, y_fmt=_fmt)
    _chaos_overlays(chart, chaos)
    legend_entries: List[Tuple[str, str]] = []
    if stats:
        for slot, stat in enumerate(stats):
            chart.series(
                latency[stat], _SLOTS[slot], stat, markers=len(latency[stat]) <= 48,
                unit=" ms",
            )
            legend_entries.append((stat, _SLOTS[slot]))
    else:
        points = [[min(w["end_min"], duration), w["p95_ms"]] for w in windows]
        chart.series(points, _SLOTS[0], "window p95", step=True, markers=True, unit=" ms")
    if sla:
        chart.ref_line(sla, "var(--critical)", f"SLA {_fmt(sla)} ms (Eq. 5 input)")
    rows = [
        [f"[{_fmt(w['start_min'])}, {_fmt(w['end_min'])})", w["count"],
         w["p95_ms"], w["miss_rate"], w["errors"]]
        for w in windows
    ]
    return (
        f'<figure class="chart"><h3>{_esc(name)} · latency percentiles over time</h3>'
        f'<p class="sub">delta-windowed percentiles per TSDB scrape'
        f'{" · no TSDB attached: monitor window p95" if not stats else ""}</p>'
        + chart.render()
        + _legend(legend_entries)
        + _table(
            ["window", "count", "p95 ms", "miss rate", "errors"],
            rows,
            "Window data",
        )
        + "</figure>"
    )


def _miss_section(name: str, entry: Dict, duration: float, chaos) -> str:
    windows = entry["windows"]
    budget = entry.get("tail_budget") or 0.0
    # A request finishing exactly at the duration opens one last window
    # whose nominal end lies past the run — clamp its plot position.
    points = [
        [min(w["end_min"], duration), w["miss_rate"]] for w in windows
    ]
    y_max = max([p[1] for p in points] + [budget, 0.1]) * 1.15
    chart = _Chart(duration, y_max, y_fmt=lambda v: f"{v * 100:.3g}%")
    _chaos_overlays(chart, chaos)
    chart.series(points, _SLOTS[0], "miss rate", step=True, markers=True)
    if budget:
        chart.ref_line(
            budget,
            "var(--critical)",
            f"Eq. 5 tail budget {budget * 100:g}%",
        )
    rows = [[w["window"], f"{w['miss_rate'] * 100:.3f}%", w["count"]] for w in windows]
    return (
        f'<figure class="chart"><h3>{_esc(name)} · SLA miss rate per window</h3>'
        f'<p class="sub">fraction of requests over the SLA, per '
        f'{_fmt(windows[0]["end_min"] - windows[0]["start_min"]) if windows else "1"}-minute window '
        f"(matches violation_rate_by_window)</p>"
        + chart.render()
        + _table(["window #", "miss rate", "count"], rows, "Miss-rate data")
        + "</figure>"
    )


_BREAKER_STATES = {0.0: "closed", 1.0: "open", 2.0: "half-open"}


def _breaker_section(breakers: List[Dict], duration: float, chaos) -> str:
    charts = []
    for index, breaker in enumerate(breakers[:8]):
        chart = _Chart(
            duration,
            2.0,
            height=170,
            y_ticks=[0.0, 1.0, 2.0],
            y_tick_labels=_BREAKER_STATES,
        )
        _chaos_overlays(chart, chaos, microservice=breaker["microservice"])
        label = f"{breaker['service']} -> {breaker['microservice']}"
        chart.series(
            breaker["points"], _SLOTS[index % len(_SLOTS)], label, step=True,
            markers=len(breaker["points"]) <= 32,
        )
        charts.append(
            f'<figure class="chart"><h3>breaker · {_esc(label)}</h3>'
            + chart.render()
            + "</figure>"
        )
    dropped = len(breakers) - 8
    note = f"<p class='sub'>… and {dropped} more breakers (see run report)</p>" if dropped > 0 else ""
    return (
        "<h2>Circuit breakers &amp; chaos</h2>"
        '<div class="grid2">' + "".join(charts) + "</div>" + note
    )


def _containers_section(containers: Dict[str, List], duration: float, chaos) -> str:
    # Small multiples, one per microservice: single series each (no
    # legend needed), scaling activity first, capped at 12 charts with
    # the full data in the table.
    def activity(item):
        name, points = item
        return (-(len(points)), name)

    ordered = sorted(containers.items(), key=activity)
    charts = []
    for name, points in ordered[:12]:
        y_max = max(v for _, v in points) * 1.25 + 0.5
        chart = _Chart(duration, y_max, height=150)
        _chaos_overlays(chart, chaos, microservice=name)
        chart.series(points, _SLOTS[0], name, step=True, markers=len(points) <= 24)
        charts.append(
            f'<figure class="chart"><h3>{_esc(name)}</h3>' + chart.render() + "</figure>"
        )
    rows = [
        [name, points[0][1], points[-1][1], len(points) - 2]
        for name, points in sorted(containers.items())
    ]
    note = (
        f"<p class='sub'>showing {min(12, len(ordered))} of {len(ordered)} "
        f"microservices (most scaling activity first); all in the table</p>"
        if len(ordered) > 12
        else ""
    )
    return (
        "<h2>Container allocation timelines</h2>"
        + note
        + '<div class="grid2">'
        + "".join(charts)
        + "</div>"
        + _table(
            ["microservice", "initial", "final", "changes"],
            rows,
            "Container allocation data",
        )
    )


def _alerts_section(alerts: Dict) -> str:
    parts = ["<h2>Alerts</h2>"]
    sla = alerts.get("sla", [])
    if sla:
        rows = [
            [a["service"], a["window"], a["p95_ms"], a["sla_ms"], a["violations"], a["count"]]
            for a in sla
        ]
        parts.append(_table(
            ["service", "window", "p95 ms", "SLA ms", "violations", "count"],
            rows, f"SLA alerts ({len(sla)})",
        ))
    budget = alerts.get("error_budget", [])
    if budget:
        rows = [
            [a["service"], a["window"], a["errors"], a["count"], a["error_rate"], a["budget"]]
            for a in budget
        ]
        parts.append(_table(
            ["service", "window", "errors", "count", "error rate", "budget"],
            rows, f"Error-budget alerts ({len(budget)})",
        ))
    rules = alerts.get("rules", [])
    if rules:
        rows = [
            [a["rule"], a["minute"],
             ", ".join(f"{k}={v}" for k, v in sorted(a.get("labels", {}).items())),
             a["value"], f"{a['op']} {_fmt(a['threshold'])}", a["severity"]]
            for a in rules
        ]
        parts.append(_table(
            ["rule", "minute", "labels", "value", "condition", "severity"],
            rows, f"Rule alerts ({len(rules)})",
        ))
    if len(parts) == 1:
        parts.append('<p class="sub status"><span class="dot" style="background:var(--good)"></span>no alerts fired</p>')
    return "".join(parts)


def _targets_section(targets: Dict) -> str:
    if not targets:
        return ""
    rows = [
        [svc, ms, t]
        for svc in sorted(targets)
        for ms, t in sorted(targets[svc].items())
    ]
    return (
        "<h2>Eq. 5 latency targets</h2>"
        '<p class="sub">per-microservice latency targets the allocation '
        "decomposed each SLA into (the target lines' input)</p>"
        + _table(["service", "microservice", "target ms"], rows, "Targets")
    )


def dashboard_css() -> str:
    """The dashboard's inline stylesheet (shared with the live server)."""
    return _CSS


def render_dashboard_body(data: Dict) -> str:
    """Render the page *body* of one :func:`dashboard_data` dict.

    The static artifact (:func:`render_dashboard`) wraps this in a full
    HTML document; the live observability server re-renders just this
    fragment on every SSE tick and swaps it into its shell page, so both
    views share one chart pipeline.
    """
    meta = data.get("meta", {})
    summary = data.get("summary", {})
    duration = float(summary.get("duration_min") or 1.0)
    chaos = data.get("chaos")
    title = meta.get("title") or "repro run dashboard"
    meta_line = " · ".join(
        f"{key}={value}" for key, value in meta.items() if key != "title"
    )

    tiles = [
        _tile("Requests completed", _fmt(summary.get("completed", 0))),
        _tile("Overall SLA miss rate", f"{summary.get('miss_rate', 0.0) * 100:.2f}%"),
        _tile("Containers (final)", _fmt(summary.get("containers", 0))),
        _tile(
            "Alerts (SLA / budget / rules)",
            f"{summary.get('sla_alerts', 0)} / "
            f"{summary.get('error_alerts', 0)} / "
            f"{summary.get('rule_alerts', 0)}",
        ),
        _tile("Events processed", _fmt(summary.get("events_processed", 0))),
    ]
    if "tsdb_samples" in summary:
        tiles.append(
            _tile(
                "TSDB series · samples",
                f"{_fmt(summary['tsdb_series'])} · {_fmt(summary['tsdb_samples'])}",
            )
        )

    body: List[str] = [
        f"<h1>{_esc(title)}</h1>",
        f'<p class="meta">{_esc(meta_line)}</p>' if meta_line else "",
        '<div class="tiles">' + "".join(tiles) + "</div>",
    ]
    services = data.get("services", {})
    for name in sorted(services):
        entry = services[name]
        body.append(f"<h2>Service · {_esc(name)}</h2>")
        body.append(_latency_section(name, entry, duration, chaos))
        body.append(_miss_section(name, entry, duration, chaos))
    if data.get("breakers"):
        body.append(_breaker_section(data["breakers"], duration, chaos))
    if data.get("containers"):
        body.append(_containers_section(data["containers"], duration, chaos))
    body.append(_alerts_section(data.get("alerts", {})))
    body.append(_targets_section(data.get("targets", {})))
    body.append(
        '<p class="footnote">Self-contained report: inline SVG, no '
        "scripts, no external resources.  Deterministic for a fixed "
        "seed and configuration.</p>"
    )
    return "\n".join(part for part in body if part)


def render_dashboard(data: Dict) -> str:
    """Render one :func:`dashboard_data` dict as self-contained HTML."""
    meta = data.get("meta", {})
    title = meta.get("title") or "repro run dashboard"
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en"><head><meta charset="utf-8">\n'
        f"<title>{_esc(title)}</title>\n"
        f"<style>{_CSS}</style>\n"
        '</head><body class="viz-root">\n'
        + render_dashboard_body(data)
        + "\n</body></html>\n"
    )


def write_dashboard(data: Dict, path: str) -> str:
    """Render and write the dashboard; returns the HTML."""
    html_text = render_dashboard(data)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(html_text)
    return html_text

"""Live observability plane: in-process HTTP scrape/query server + SSE.

Erms's management loop is *online* — the controller and the operator
share one live monitoring plane (§5).  Every earlier surface in this
package (registry, TSDB, rules, dashboard, run reports) is post-hoc;
this module makes a running simulation observable like a production
service: an :class:`ObservabilityServer` attaches to a live run in a
background thread (stdlib ``http.server`` only, zero new deps) and
serves read-only snapshots of the run's telemetry:

=====================  ==================================================
``GET /metrics``       Prometheus text exposition (with OpenMetrics
                       exemplars linking buckets to trace ids)
``GET /api/query``     ``?expr=`` PromQL-shaped query over the live TSDB
``GET /api/series``    raw series dump with label filters
``GET /api/alerts``    SLA / error-budget / rule alert tails
``GET /api/decisions`` DecisionLog tail (autoscaler, chaos, breakers)
``GET /api/summary``   one-fetch run state (powers ``repro top``)
``GET /healthz``       liveness
``GET /readyz``        readiness (a source is bound)
``GET /events``        SSE stream: progress, alert fires, decision
                       records (breaker transitions, chaos injections)
``GET /``              live dashboard shell (re-renders on SSE ticks)
``GET /dashboard``     server-side-rendered dashboard body fragment
``POST /shutdown``     clean shutdown handshake
=====================  ==================================================

Determinism contract (the hard bar): the serving thread only ever
*reads* snapshots — append-only lists (monitor windows/alerts, decision
records), registry dicts, and TSDB deques.  It never takes a lock the
simulation needs, never writes sink state, and the sim clock never
blocks on it, so golden fingerprints are bit-identical with the server
attached (pinned in ``tests/test_serve.py``).  Concurrent mutation of a
dict/deque mid-iteration can raise ``RuntimeError`` in the *reader*;
:func:`_snapshot` retries the read — the writer is never disturbed.

One source serves the endpoint surface: a :class:`RunSource` reads one
run-state dict — :func:`~repro.telemetry.export.run_state` of a live
:class:`~repro.telemetry.hooks.TelemetrySink` per request, or an archived
``repro report --output`` JSON, which extends it — so ``repro serve
--replay`` puts the full plane (minus live progress) in front of any
saved run and answers as the live run did at completion.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional
from urllib.parse import parse_qs, urlparse

from repro.telemetry.dashboard import (
    _BREAKER_STATES,
    dashboard_css,
    dashboard_data,
    render_dashboard,
    render_dashboard_body,
)
from repro.telemetry.diff import load_run_report
from repro.telemetry.export import run_state
from repro.telemetry.registry import expose_snapshot
from repro.telemetry.timeseries.store import TimeSeriesStore, parse_metric_name

__all__ = [
    "ObservabilityServer",
    "RunSource",
    "load_replay_source",
    "render_top",
]

_MS_PER_MINUTE = 60_000.0


def _snapshot(fn, retries: int = 10):
    """Run a read-only snapshot, retrying if the writer mutated mid-read.

    CPython raises ``RuntimeError`` when a dict or deque changes size
    during iteration; the simulation thread owns all writes, so the
    serving thread just backs off and re-reads.
    """
    for attempt in range(retries):
        try:
            return fn()
        except RuntimeError:
            if attempt == retries - 1:
                raise
            time.sleep(0.002)


class RunSource:
    """The endpoint surface over one run's state.

    Every endpoint reads one run-state dict (:meth:`state`): live, the
    :func:`~repro.telemetry.export.run_state` of ``sink`` and the
    result, taken per request through :func:`_snapshot`; replayed
    (``report=``), the archived run report.  Only ``/api/query``,
    ``/api/series`` and the dashboard's latency and breaker series read
    :attr:`store` — the sink's TSDB live, one rebuilt from the report's
    dump on replay — and only live progress reads the simulator clock.
    """

    def __init__(
        self,
        sink=None,
        simulator=None,
        result=None,
        meta: Optional[Dict] = None,
        targets: Optional[Dict] = None,
        chaos=None,
        report: Optional[Dict] = None,
    ):
        self.sink = sink
        self.simulator = simulator
        if result is None and simulator is not None:
            result = simulator.result
        if result is None and report is None:
            # No simulation to read (the aggregate source of a `compare
            # --serve` sweep): an empty result keeps every reader on its
            # normal path.
            from repro.simulator.simulation import SimulationResult

            result = SimulationResult(0.0, 0.0)
        self.result = result
        self.meta = dict(meta or {})
        self.targets = targets
        self.chaos = chaos
        self.mode = "live" if report is None else "replay"
        self.complete = report is not None
        # A report omits empty error alerts; the run state always has them.
        self.report = None if report is None else {"error_alerts": [], **report}
        if report is None:
            self.store = sink.timeseries
        elif "timeseries" in report:
            self.store = TimeSeriesStore.from_dict(report["timeseries"])
        else:
            self.store = None

    def mark_complete(self, result=None) -> None:
        """The run finished; freeze progress on its final result."""
        if result is not None:
            self.result = result
        self.complete = True

    def state(self) -> Dict:
        """The run state every endpoint reads."""
        if self.report is not None:
            return self.report
        return _snapshot(lambda: run_state(self.sink, self.result))

    # -- views ----------------------------------------------------------
    def expose_metrics(self) -> str:
        return expose_snapshot(self.state()["registry"])

    def progress(self, state: Dict) -> Dict:
        """Progress of the run whose state is ``state``."""
        duration = float(state["duration_min"])
        live = self.simulator is not None and not self.complete
        now_min = (
            min(self.simulator.events.now / _MS_PER_MINUTE, duration)
            if live
            else duration
        )
        events = state["events_processed"]
        if not events and self.simulator is not None:
            events = self.simulator.events._counter
        services = state["services"].values()
        return {
            "mode": self.mode,
            "complete": bool(self.complete),
            "now_min": round(now_min, 6),
            "duration_min": duration,
            "progress_pct": round(100.0 * now_min / duration, 2)
            if duration
            else 0.0,
            "events_processed": int(events),
            "completed": int(sum(s["completed"] for s in services)),
            "generated": int(sum(s["generated"] for s in services)),
            "alerts": {
                "sla": len(state["alerts"]),
                "error_budget": len(state["error_alerts"]),
                "rules": len(state["rule_alerts"]),
            },
            "decisions": len(state["decisions"]),
        }

    def summary(self) -> Dict:
        state = self.state()
        return {
            "schema": 1,
            "meta": dict(self.meta),
            "progress": self.progress(state),
            "services": _service_rows(state),
            "breakers": _breaker_rows(state),
            "containers": dict(state["containers"]),
        }

    def alerts(self, limit: Optional[int] = None) -> Dict:
        def tail(items):
            return items[-limit:] if limit else items

        state = self.state()
        return {
            "sla": tail(state["alerts"]),
            "error_budget": tail(state["error_alerts"]),
            "rules": tail(state["rule_alerts"]),
        }

    def decision_tail(
        self, limit: Optional[int] = None, actor: Optional[str] = None
    ) -> Dict:
        records = self.state()["decisions"]
        if actor:
            records = [r for r in records if r["actor"] == actor]
        total = len(records)
        if limit:
            records = records[-limit:]
        return {"total": total, "decisions": records}

    def query(self, expr: str, at: Optional[float] = None) -> Dict:
        store = self.store
        if store is None:
            return {"expr": expr, "at": at, "results": []}

        def build():
            results = store.query(expr, at=at)
            return {
                "expr": expr,
                "at": at if at is not None else store.last_scrape_min,
                "results": [
                    {
                        "name": series.name,
                        "labels": dict(series.labels),
                        "value": value,
                    }
                    for series, value in results
                ],
            }

        return _snapshot(build)

    def series(
        self,
        name: Optional[str] = None,
        labels: Optional[Dict[str, str]] = None,
        max_points: Optional[int] = None,
    ) -> Dict:
        store = self.store
        if store is None:
            return {"series": []}

        def build():
            matched = store.select(name=name, labels=labels or None)
            return {"series": [s.to_dict(max_points) for s in matched]}

        return _snapshot(build)

    def dashboard_payload(self) -> Dict:
        state = self.state()
        return _snapshot(
            lambda: dashboard_data(
                state,
                self.store,
                meta=self.meta,
                targets=self.targets,
                chaos=self.chaos,
            )
        )


def _service_rows(state: Dict) -> List[Dict]:
    """Per-service rows of ``/api/summary`` (and ``repro top``)."""
    histograms = state["registry"]["histograms"]
    services = state["services"]
    names = {
        name for name, entry in services.items() if entry["sla_ms"] is not None
    }
    for name in histograms:
        family, labels = parse_metric_name(name)
        if family == "e2e_latency_ms" and labels.get("service"):
            names.add(labels["service"])
    rows: List[Dict] = []
    for service in sorted(names):
        row: Dict = {
            "service": service,
            "sla_ms": services.get(service, {}).get("sla_ms"),
        }
        hist = histograms.get(f"e2e_latency_ms.{service}")
        if hist is not None and hist["count"]:
            row["completed"] = hist["count"]
            row["p50_ms"] = hist["p50"]
            row["p95_ms"] = hist["p95"]
            row["p99_ms"] = hist["p99"]
        else:
            row["completed"] = 0
        windows = [w for w in state["windows"] if w["service"] == service]
        total = sum(w["count"] for w in windows)
        row["windows"] = len(windows)
        row["miss_rate"] = round(
            sum(w["violations"] for w in windows) / total, 6
        ) if total else 0.0
        row["errors"] = sum(w.get("errors", 0) for w in windows)
        rows.append(row)
    return rows


def _breaker_rows(state: Dict) -> List[Dict]:
    """Current circuit-breaker states from the registry's gauges."""
    rows = []
    for name, value in sorted(state["registry"]["gauges"].items()):
        family, labels = parse_metric_name(name)
        if family != "breaker_state":
            continue
        rows.append(
            {
                "service": labels.get("service", ""),
                "microservice": labels.get("microservice", ""),
                "state": _BREAKER_STATES.get(value, str(value)),
                "value": value,
            }
        )
    return rows


def load_replay_source(path: str) -> RunSource:
    """Load an archived ``repro report`` JSON as a servable source."""
    report = load_run_report(path)
    histograms = report.get("registry", {}).get("histograms", {})
    if "percentile" not in report or any(
        "buckets" not in entry for entry in histograms.values()
    ):
        raise ValueError(
            f"{path}: run report has no histogram buckets; "
            f"write it again with `repro report --output`"
        )
    return RunSource(report=report, meta={"replay": path})


# ----------------------------------------------------------------------
# `repro top` frame rendering
# ----------------------------------------------------------------------
def render_top(summary: Dict, clear: bool = True) -> str:
    """One ``repro top`` terminal frame from an ``/api/summary`` payload.

    Curses-free: a full-screen ANSI clear-and-redraw (suppressed with
    ``clear=False`` for plain appending output / tests).
    """
    progress = summary.get("progress", {})
    lines: List[str] = []
    mode = progress.get("mode", "?")
    state = "complete" if progress.get("complete") else "running"
    lines.append(
        f"repro top · {mode} ({state}) · "
        f"{progress.get('now_min', 0):.2f}/{progress.get('duration_min', 0):g} min "
        f"({progress.get('progress_pct', 0):.0f}%) · "
        f"events {progress.get('events_processed', 0):,} · "
        f"completed {progress.get('completed', 0):,}"
    )
    lines.append("")
    header = (
        f"{'SERVICE':<22}{'P50':>8}{'P95':>8}{'P99':>8}{'SLA':>8}"
        f"{'MISS%':>8}{'COMPL':>9}{'ERR':>6}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for row in summary.get("services", []):
        def fmt(key):
            value = row.get(key)
            return f"{value:.1f}" if isinstance(value, (int, float)) else "-"

        lines.append(
            f"{row.get('service', '?'):<22}"
            f"{fmt('p50_ms'):>8}{fmt('p95_ms'):>8}{fmt('p99_ms'):>8}"
            f"{fmt('sla_ms'):>8}"
            f"{row.get('miss_rate', 0.0) * 100:>7.2f}%"
            f"{row.get('completed', 0):>9,}"
            f"{row.get('errors', 0):>6,}"
        )
    breakers = summary.get("breakers", [])
    open_breakers = [b for b in breakers if b.get("state") != "closed"]
    if breakers:
        lines.append("")
        if open_breakers:
            lines.append(
                "BREAKERS: "
                + "  ".join(
                    f"{b['service']}->{b['microservice']}:{b['state']}"
                    for b in open_breakers
                )
            )
        else:
            lines.append(f"BREAKERS: all {len(breakers)} closed")
    containers = summary.get("containers", {})
    if containers:
        lines.append(
            f"CONTAINERS: total {sum(containers.values())} ("
            + " ".join(f"{k}:{v}" for k, v in sorted(containers.items()))
            + ")"
        )
    alerts = progress.get("alerts", {})
    lines.append(
        f"ALERTS: sla {alerts.get('sla', 0)} · "
        f"budget {alerts.get('error_budget', 0)} · "
        f"rules {alerts.get('rules', 0)} · "
        f"decisions {progress.get('decisions', 0)}"
    )
    frame = "\n".join(lines) + "\n"
    if clear:
        frame = "\x1b[2J\x1b[H" + frame
    return frame


# ----------------------------------------------------------------------
# HTTP layer
# ----------------------------------------------------------------------
_LIVE_SHELL = """<!DOCTYPE html>
<html lang="en"><head><meta charset="utf-8">
<title>{title}</title>
<style>{css}</style>
</head><body class="viz-root">
<p class="meta" id="live-status">connecting to /events ...</p>
<div id="dash"><p class="meta">loading dashboard ...</p></div>
<script>
(function () {{
  var dash = document.getElementById('dash');
  var status = document.getElementById('live-status');
  var pending = false;
  function refresh() {{
    if (pending) return;
    pending = true;
    fetch('/dashboard').then(function (r) {{ return r.text(); }})
      .then(function (html) {{ dash.innerHTML = html; }})
      .finally(function () {{ pending = false; }});
  }}
  var es = new EventSource('/events');
  es.addEventListener('progress', function (e) {{
    var p = JSON.parse(e.data);
    status.textContent = 'live · ' + p.now_min.toFixed(2) + ' / ' +
      p.duration_min + ' min (' + p.progress_pct.toFixed(0) + '%) · ' +
      p.completed + ' completed · ' + p.events_processed + ' events';
    refresh();
  }});
  es.addEventListener('complete', function () {{
    status.textContent += ' · run complete';
    es.close();
    refresh();
  }});
  refresh();
}})();
</script>
</body></html>
"""


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.0"

    # -- plumbing -------------------------------------------------------
    @property
    def obs(self) -> "ObservabilityServer":
        return self.server.observability  # type: ignore[attr-defined]

    def log_message(self, fmt, *args):  # stdlib default is stderr noise
        logger = self.obs.logger
        if logger is not None:
            logger.log(
                "http_access",
                actor="serve",
                method=getattr(self, "command", "?"),
                path=getattr(self, "path", "?"),
                detail=fmt % args,
            )

    def _send(self, body: bytes, content_type: str, status: int = 200) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, payload, status: int = 200) -> None:
        self._send(
            json.dumps(payload).encode("utf-8"),
            "application/json; charset=utf-8",
            status,
        )

    def _qs(self) -> Dict[str, List[str]]:
        return parse_qs(urlparse(self.path).query)

    # -- routes ---------------------------------------------------------
    def do_GET(self) -> None:
        path = urlparse(self.path).path
        try:
            handler = {
                "/healthz": self._get_healthz,
                "/readyz": self._get_readyz,
                "/metrics": self._get_metrics,
                "/api/query": self._get_query,
                "/api/series": self._get_series,
                "/api/alerts": self._get_alerts,
                "/api/decisions": self._get_decisions,
                "/api/summary": self._get_summary,
                "/events": self._get_events,
                "/dashboard": self._get_dashboard,
                "/": self._get_index,
            }.get(path)
            if handler is None:
                self._send_json({"error": f"no such path: {path}"}, 404)
                return
            handler()
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-response
        except ValueError as error:
            self._send_json({"error": str(error)}, 400)
        except Exception as error:  # read-side bug: report, don't crash
            self._send_json({"error": f"{type(error).__name__}: {error}"}, 500)

    def do_POST(self) -> None:
        path = urlparse(self.path).path
        if path == "/shutdown":
            self._send_json({"status": "shutting down"})
            self.obs.request_shutdown()
        else:
            self._send_json({"error": f"no such path: {path}"}, 404)

    def _get_healthz(self) -> None:
        self._send_json({"status": "ok", "mode": self.obs.source.mode})

    def _get_readyz(self) -> None:
        ready = self.obs.source is not None
        self._send_json(
            {"ready": ready, "mode": self.obs.source.mode},
            200 if ready else 503,
        )

    def _get_metrics(self) -> None:
        text = self.obs.source.expose_metrics()
        self._send(
            text.encode("utf-8"), "text/plain; version=0.0.4; charset=utf-8"
        )

    def _get_query(self) -> None:
        qs = self._qs()
        exprs = qs.get("expr")
        if not exprs:
            raise ValueError("missing ?expr= query parameter")
        at = float(qs["at"][0]) if "at" in qs else None
        self._send_json(self.obs.source.query(exprs[0], at=at))

    def _get_series(self) -> None:
        qs = self._qs()
        name = qs.get("name", [None])[0]
        max_points = (
            int(qs["max_points"][0]) if "max_points" in qs else 500
        )
        labels = {
            key: values[0]
            for key, values in qs.items()
            if key not in ("name", "max_points")
        }
        self._send_json(
            self.obs.source.series(
                name=name, labels=labels, max_points=max_points
            )
        )

    def _get_alerts(self) -> None:
        qs = self._qs()
        limit = int(qs["limit"][0]) if "limit" in qs else None
        self._send_json(self.obs.source.alerts(limit=limit))

    def _get_decisions(self) -> None:
        qs = self._qs()
        limit = int(qs["limit"][0]) if "limit" in qs else 100
        actor = qs.get("actor", [None])[0]
        self._send_json(self.obs.source.decision_tail(limit=limit, actor=actor))

    def _get_summary(self) -> None:
        self._send_json(self.obs.source.summary())

    def _get_dashboard(self) -> None:
        body = render_dashboard_body(self.obs.source.dashboard_payload())
        self._send(body.encode("utf-8"), "text/html; charset=utf-8")

    def _get_index(self) -> None:
        source = self.obs.source
        if source.mode == "replay":
            # Archived run: nothing will change — serve the static,
            # script-free artifact directly.
            html = render_dashboard(source.dashboard_payload())
        else:
            title = source.meta.get("title") or "repro live dashboard"
            html = _LIVE_SHELL.format(title=title, css=dashboard_css())
        self._send(html.encode("utf-8"), "text/html; charset=utf-8")

    # -- SSE ------------------------------------------------------------
    def _get_events(self) -> None:
        qs = self._qs()
        limit = int(qs["limit"][0]) if "limit" in qs else None
        obs = self.obs
        source = obs.source
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        self.end_headers()

        sent = 0

        def emit(event: str, data) -> bool:
            nonlocal sent
            payload = f"event: {event}\ndata: {json.dumps(data)}\n\n"
            self.wfile.write(payload.encode("utf-8"))
            self.wfile.flush()
            sent += 1
            return limit is None or sent < limit

        state = source.state()
        seen = {
            "alerts": len(state["alerts"]),
            "error_alerts": len(state["error_alerts"]),
            "rule_alerts": len(state["rule_alerts"]),
            "decisions": len(state["decisions"]),
        }
        try:
            if not emit("progress", source.progress(state)):
                return
            while not obs.stopping:
                time.sleep(obs.poll_interval_s)
                complete = source.complete  # before the state: none missed
                state = source.state()
                for key, kind in (
                    ("alerts", "sla"),
                    ("error_alerts", "error_budget"),
                    ("rule_alerts", "rules"),
                ):
                    for alert in state[key][seen[key]:]:
                        seen[key] += 1
                        if not emit("alert", {"kind": kind, **alert}):
                            return
                for record in state["decisions"][seen["decisions"]:]:
                    seen["decisions"] += 1
                    if not emit("decision", record):
                        return
                if not emit("progress", source.progress(state)):
                    return
                if complete:
                    emit("complete", source.progress(state))
                    return
        except (BrokenPipeError, ConnectionResetError):
            return


class ObservabilityServer:
    """Background-thread HTTP plane over one :class:`RunSource`.

    ``port=0`` binds an ephemeral port (read it back from
    :attr:`port` / :attr:`url`).  ``start()`` returns immediately; the
    handler threads are daemons, so a crashed main thread never hangs
    on the server.  ``wait_for_shutdown()`` blocks until a client
    ``POST /shutdown`` (or :meth:`request_shutdown` /
    ``KeyboardInterrupt``), then tears the server down.
    """

    def __init__(
        self,
        source: RunSource,
        host: str = "127.0.0.1",
        port: int = 0,
        logger=None,
        poll_interval_s: float = 0.25,
    ):
        self.source = source
        self.logger = logger
        self.poll_interval_s = poll_interval_s
        self.stopping = False
        self._shutdown_requested = threading.Event()
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.observability = self  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ObservabilityServer":
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-observability",
            daemon=True,
        )
        self._thread.start()
        if self.logger is not None:
            self.logger.log(
                "serve_start", actor="serve", url=self.url,
                mode=self.source.mode,
            )
        return self

    def request_shutdown(self) -> None:
        """Flag shutdown (from a handler thread or the owner)."""
        self._shutdown_requested.set()

    def wait_for_shutdown(self, timeout: Optional[float] = None) -> bool:
        """Block until shutdown is requested, then stop.  True if it was."""
        try:
            requested = self._shutdown_requested.wait(timeout)
        except KeyboardInterrupt:
            requested = True
        self.stop()
        return bool(requested)

    def stop(self) -> None:
        if self.stopping:
            return
        self.stopping = True  # unblocks SSE loops
        self._shutdown_requested.set()
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        if self.logger is not None:
            self.logger.log("serve_stop", actor="serve", url=self.url)

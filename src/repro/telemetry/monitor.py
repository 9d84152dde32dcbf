"""SLA violation monitor and autoscaler decision audit log.

Two structured event streams that make a run explainable after the fact:

* :class:`SLAMonitor` — closes one :class:`WindowStats` per (service,
  window) with the window's request count, violation count, and tail
  latency, and raises an :class:`AlertEvent` whenever a window's P95
  exceeds the service's SLA.  Its per-window violation counts agree
  exactly with the post-hoc
  :meth:`~repro.simulator.simulation.SimulationResult.violation_rate_by_window`
  API — both bucket a request by ``int(finish_minute / window)`` (true
  division, then truncation: ``int(1.0 / 0.1) == 10`` where
  ``1.0 // 0.1 == 9.0``).
* :class:`DecisionLog` — every container-count change (each move of a
  :class:`~repro.core.controller.ControlLoop` period, in the DES or on
  the deployment; each container kill or restart) appends a
  :class:`DecisionRecord` carrying the observed workload, the
  latency/SLA context, the container delta, and a human-readable
  reason, so "why did it scale?" has an answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

__all__ = [
    "AlertEvent",
    "DecisionLog",
    "DecisionRecord",
    "ErrorBudgetAlert",
    "SLAMonitor",
    "WindowStats",
]


@dataclass(frozen=True)
class WindowStats:
    """One closed observation window of one service.

    ``count`` / ``violations`` / ``p95_ms`` cover *completed* requests;
    ``errors`` counts requests that failed or were shed in the window
    (resilience layer) — a window can close with errors and no
    completions, in which case ``p95_ms`` is 0.
    """

    service: str
    window: int  # window index: int(minute / window_min)
    start_min: float
    count: int
    violations: int
    p95_ms: float
    sla_ms: float
    errors: int = 0

    @property
    def violation_rate(self) -> float:
        return self.violations / self.count if self.count else 0.0

    @property
    def error_rate(self) -> float:
        """Errors over all requests the window saw (completed + errored)."""
        total = self.count + self.errors
        return self.errors / total if total else 0.0

    def to_dict(self) -> Dict:
        entry = {
            "service": self.service,
            "window": self.window,
            "start_min": round(self.start_min, 6),
            "count": self.count,
            "violations": self.violations,
            "violation_rate": round(self.violation_rate, 6),
            "p95_ms": round(self.p95_ms, 4),
            "sla_ms": self.sla_ms,
        }
        if self.errors:
            entry["errors"] = self.errors
            entry["error_rate"] = round(self.error_rate, 6)
        return entry


@dataclass(frozen=True)
class AlertEvent:
    """A window whose tail latency broke the service's SLA."""

    service: str
    window: int
    start_min: float
    p95_ms: float
    sla_ms: float
    violations: int
    count: int

    def to_dict(self) -> Dict:
        return {
            "service": self.service,
            "window": self.window,
            "start_min": round(self.start_min, 6),
            "p95_ms": round(self.p95_ms, 4),
            "sla_ms": self.sla_ms,
            "violations": self.violations,
            "count": self.count,
        }


@dataclass(frozen=True)
class ErrorBudgetAlert:
    """A window whose error fraction exhausted the service's error budget.

    Raised by the :class:`SLAMonitor` when failed/shed requests (fed via
    :meth:`SLAMonitor.observe_error` by the resilience layer) exceed
    ``error_budget`` as a fraction of all requests the window saw.
    """

    service: str
    window: int
    start_min: float
    errors: int
    count: int
    error_rate: float
    budget: float

    def to_dict(self) -> Dict:
        return {
            "service": self.service,
            "window": self.window,
            "start_min": round(self.start_min, 6),
            "errors": self.errors,
            "count": self.count,
            "error_rate": round(self.error_rate, 6),
            "budget": self.budget,
        }


class SLAMonitor:
    """Watches windowed tail latency against per-service SLAs.

    The telemetry sink feeds it raw end-to-end samples via
    :meth:`observe` (and, with the resilience layer attached, failed/shed
    requests via :meth:`observe_error`); window closing is driven
    externally (by the sink's window ticks and run finalization), so the
    monitor itself holds no clock.  Services without a registered SLA are
    tracked but never latency-alerted; with ``error_budget`` set, any
    window whose error fraction exceeds it raises an
    :class:`ErrorBudgetAlert`.
    """

    def __init__(
        self,
        slas: Optional[Dict[str, float]] = None,
        percentile: float = 95.0,
        error_budget: Optional[float] = None,
    ):
        if error_budget is not None and not 0.0 < error_budget < 1.0:
            raise ValueError(
                f"error_budget must be in (0, 1), got {error_budget}"
            )
        self.slas: Dict[str, float] = dict(slas or {})
        self.percentile = percentile
        self.error_budget = error_budget
        self.windows: List[WindowStats] = []
        self.alerts: List[AlertEvent] = []
        self.error_alerts: List[ErrorBudgetAlert] = []
        #: Alerts fired by the TSDB rules engine
        #: (:class:`~repro.telemetry.timeseries.RuleAlert` entries) —
        #: declarative alert rules deliver through the same monitor the
        #: built-in SLA/error-budget alerts use.
        self.rule_alerts: List = []
        #: open window buffers: service -> window index -> raw samples (ms)
        self._open: Dict[str, Dict[int, List[float]]] = {}
        #: open error counts: service -> window index -> errored requests
        self._open_errors: Dict[str, Dict[int, int]] = {}

    # -- ingest ---------------------------------------------------------
    def observe(self, service: str, window: int, latency_ms: float) -> None:
        """Record one end-to-end latency sample into an open window."""
        by_window = self._open.get(service)
        if by_window is None:
            by_window = self._open[service] = {}
        samples = by_window.get(window)
        if samples is None:
            samples = by_window[window] = []
        samples.append(latency_ms)

    def observe_error(self, service: str, window: int) -> None:
        """Record one failed/shed request into an open window."""
        by_window = self._open_errors.get(service)
        if by_window is None:
            by_window = self._open_errors[service] = {}
        by_window[window] = by_window.get(window, 0) + 1

    def close_windows(self, before: int, window_min: float) -> List[WindowStats]:
        """Close (and return) every open window with index < ``before``."""
        closed: List[WindowStats] = []
        for service in sorted(set(self._open) | set(self._open_errors)):
            by_window = self._open.get(service, {})
            by_errors = self._open_errors.get(service, {})
            indices = sorted(
                {w for w in by_window if w < before}
                | {w for w in by_errors if w < before}
            )
            for index in indices:
                closed.append(
                    self._close(
                        service,
                        index,
                        by_window.pop(index, []),
                        window_min,
                        errors=by_errors.pop(index, 0),
                    )
                )
        return closed

    def close_all(self, window_min: float) -> List[WindowStats]:
        """Close every remaining open window (run finalization)."""
        closed = self.close_windows(before=1 << 62, window_min=window_min)
        return closed

    def _close(
        self,
        service: str,
        index: int,
        samples: List[float],
        window_min: float,
        errors: int = 0,
    ) -> WindowStats:
        sla = self.slas.get(service, float("inf"))
        count = len(samples)
        if count:
            values = np.asarray(samples, dtype=float)
            violations = int(np.count_nonzero(values > sla))
            p95 = float(np.percentile(values, self.percentile))
        else:  # errors-only window: every request failed or was shed
            violations = 0
            p95 = 0.0
        stats = WindowStats(
            service=service,
            window=index,
            start_min=index * window_min,
            count=count,
            violations=violations,
            p95_ms=p95,
            sla_ms=sla if sla != float("inf") else 0.0,
            errors=errors,
        )
        self.windows.append(stats)
        if sla != float("inf") and count and stats.p95_ms > sla:
            self.alerts.append(
                AlertEvent(
                    service=service,
                    window=index,
                    start_min=stats.start_min,
                    p95_ms=stats.p95_ms,
                    sla_ms=sla,
                    violations=stats.violations,
                    count=stats.count,
                )
            )
        budget = self.error_budget
        if budget is not None and errors and stats.error_rate > budget:
            self.error_alerts.append(
                ErrorBudgetAlert(
                    service=service,
                    window=index,
                    start_min=stats.start_min,
                    errors=errors,
                    count=count,
                    error_rate=stats.error_rate,
                    budget=budget,
                )
            )
        return stats

    # -- queries --------------------------------------------------------
    def windows_of(self, service: str) -> List[WindowStats]:
        return [w for w in self.windows if w.service == service]

    def violation_rate(
        self, service: str, min_window: Optional[int] = None
    ) -> float:
        """Aggregate violation fraction over closed windows of a service."""
        windows = [
            w
            for w in self.windows_of(service)
            if min_window is None or w.window >= min_window
        ]
        total = sum(w.count for w in windows)
        if total == 0:
            raise ValueError(f"no closed windows for service {service!r}")
        return sum(w.violations for w in windows) / total


@dataclass(frozen=True)
class DecisionRecord:
    """One audited scaling decision."""

    minute: float
    actor: str  # "simulator" | "autoscaler" | "controller" | ...
    microservice: str
    before: int
    after: int
    reason: str
    workload: Optional[float] = None  # req/min the decision was based on
    latency_target_ms: Optional[float] = None

    @property
    def delta(self) -> int:
        return self.after - self.before

    def to_dict(self) -> Dict:
        entry = {
            "minute": round(self.minute, 6),
            "actor": self.actor,
            "microservice": self.microservice,
            "before": self.before,
            "after": self.after,
            "delta": self.delta,
            "reason": self.reason,
        }
        if self.workload is not None:
            entry["workload"] = round(self.workload, 4)
        if self.latency_target_ms is not None:
            entry["latency_target_ms"] = round(self.latency_target_ms, 4)
        return entry


class DecisionLog:
    """Append-only audit trail of scaling decisions.

    Set ``logger`` (a
    :class:`~repro.telemetry.logging.StructuredLogger`) to mirror every
    record to stderr as one structured line carrying the run's
    ``run_id`` plus the decision's actor — the CLI wires this up under
    ``--log-format json`` so autoscaler/chaos/breaker activity and the
    observability server's access log share correlation fields.
    """

    def __init__(self, logger=None) -> None:
        self.records: List[DecisionRecord] = []
        self.logger = logger

    def record(
        self,
        minute: float,
        actor: str,
        microservice: str,
        before: int,
        after: int,
        reason: str,
        workload: Optional[float] = None,
        latency_target_ms: Optional[float] = None,
    ) -> DecisionRecord:
        entry = DecisionRecord(
            minute=minute,
            actor=actor,
            microservice=microservice,
            before=before,
            after=after,
            reason=reason,
            workload=workload,
            latency_target_ms=latency_target_ms,
        )
        self.records.append(entry)
        if self.logger is not None:
            self.logger.log(
                "decision",
                actor=actor,
                minute=round(minute, 6),
                microservice=microservice,
                before=before,
                after=after,
                reason=reason,
                workload=workload,
                latency_target_ms=latency_target_ms,
            )
        return entry

    def __len__(self) -> int:
        return len(self.records)

    def to_dicts(self) -> List[Dict]:
        return [r.to_dict() for r in self.records]

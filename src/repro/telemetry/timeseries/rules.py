"""Declarative recording and alert rules over the embedded TSDB.

A :class:`RuleSet` is a plain data structure (JSON-loadable via
:func:`load_rules`) with two rule kinds, both evaluated on the
*simulation* clock at every scrape tick:

* **Recording rules** — ``{"record": "svc_p95_rate", "expr":
  "rate(requests_completed[1m])"}`` write each matching series' value
  back into the store under the recorded name (source labels
  preserved), so derived signals are kept and queried like scraped
  ones.
* **Alert rules** — ``{"alert": "HighMissRate", "expr":
  "avg_over_time(sla_miss_rate{service=\"A\"}[1m])", "op": ">",
  "threshold": 0.05, "for": 0.5, "severity": "page"}`` compare each
  matching series' value against a threshold; once the condition has
  held continuously for ``for`` minutes the rule *fires*: a
  :class:`RuleAlert` is appended to the engine (and to
  ``SLAMonitor.rule_alerts``), and a ``rules-engine`` actor entry lands
  in the :class:`~repro.telemetry.monitor.DecisionLog` — firing
  (``0 -> 1``) and resolving (``1 -> 0``) both leave an audit record,
  mirroring how the paper's §5 monitoring loop turns windowed signals
  into actions.

Everything is deterministic: rules run on scrape timestamps, draw no
randomness, and iterate series in canonical key order.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.telemetry.timeseries.query import Expr, evaluate, parse_expr

__all__ = [
    "AlertRule",
    "RecordingRule",
    "RuleAlert",
    "RuleEngine",
    "RuleSet",
    "load_rules",
]

_OPS = {
    ">": operator.gt,
    ">=": operator.ge,
    "<": operator.lt,
    "<=": operator.le,
}

#: Actor name rule firings/resolutions use in the DecisionLog.
RULES_ACTOR = "rules-engine"


@dataclass(frozen=True)
class RecordingRule:
    """Precompute an expression into a named derived series."""

    record: str
    expr: str

    def to_dict(self) -> Dict:
        return {"record": self.record, "expr": self.expr}


@dataclass(frozen=True)
class AlertRule:
    """Fire when ``expr <op> threshold`` holds for ``for_min`` minutes."""

    name: str
    expr: str
    op: str
    threshold: float
    for_min: float = 0.0
    severity: str = "warning"

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ValueError(
                f"alert {self.name!r}: op must be one of {sorted(_OPS)}, "
                f"got {self.op!r}"
            )
        if self.for_min < 0:
            raise ValueError(f"alert {self.name!r}: for must be >= 0")

    def to_dict(self) -> Dict:
        return {
            "alert": self.name,
            "expr": self.expr,
            "op": self.op,
            "threshold": self.threshold,
            "for": self.for_min,
            "severity": self.severity,
        }


@dataclass(frozen=True)
class RuleAlert:
    """One alert-rule firing against one series."""

    rule: str
    minute: float
    value: float
    threshold: float
    op: str
    severity: str
    labels: Tuple[Tuple[str, str], ...] = ()

    def to_dict(self) -> Dict:
        return {
            "rule": self.rule,
            "minute": round(self.minute, 6),
            "value": round(self.value, 6),
            "threshold": self.threshold,
            "op": self.op,
            "severity": self.severity,
            "labels": dict(self.labels),
        }


@dataclass
class RuleSet:
    """All recording and alert rules of one run."""

    recording: List[RecordingRule] = field(default_factory=list)
    alerts: List[AlertRule] = field(default_factory=list)

    @classmethod
    def from_dict(cls, data: Dict) -> "RuleSet":
        """Build from ``{"rules": [{...}, ...]}`` (or a bare rule list).

        Each entry is either a recording rule (``record`` key) or an
        alert rule (``alert`` key); anything else is an error.
        """
        entries = data.get("rules", []) if isinstance(data, dict) else data
        ruleset = cls()
        for entry in entries:
            if "record" in entry:
                ruleset.recording.append(
                    RecordingRule(record=entry["record"], expr=entry["expr"])
                )
            elif "alert" in entry:
                ruleset.alerts.append(
                    AlertRule(
                        name=entry["alert"],
                        expr=entry["expr"],
                        op=entry.get("op", ">"),
                        threshold=float(entry["threshold"]),
                        for_min=float(entry.get("for", 0.0)),
                        severity=entry.get("severity", "warning"),
                    )
                )
            else:
                raise ValueError(
                    f"rule entry needs 'record' or 'alert': {entry!r}"
                )
        return ruleset

    def to_dict(self) -> Dict:
        return {
            "rules": [r.to_dict() for r in self.recording]
            + [a.to_dict() for a in self.alerts]
        }

    def __len__(self) -> int:
        return len(self.recording) + len(self.alerts)


def load_rules(path: str) -> RuleSet:
    """Load a JSON rules file (``{"rules": [...]}``)."""
    with open(path, "r", encoding="utf-8") as handle:
        return RuleSet.from_dict(json.load(handle))


class RuleEngine:
    """Evaluates a :class:`RuleSet` against a store on every scrape.

    Holds the alert state machine: per (rule, series) the engine tracks
    when the condition first held (``pending``) and whether the alert is
    currently firing; ``for``-durations are measured on scrape
    timestamps, so behaviour is identical across runs of the same seed.
    """

    def __init__(self, store, ruleset: RuleSet):
        self.store = store
        self.ruleset = ruleset
        self.alerts: List[RuleAlert] = []
        #: (rule name, series key) -> minute the condition started holding
        self._pending: Dict[Tuple, float] = {}
        self._firing: set = set()
        # Parse every expression up front so a malformed rules file
        # fails at construction, not minutes into a run.
        self._compiled: Dict[str, Expr] = {}
        for rule in ruleset.recording:
            self._compiled[f"record:{rule.record}"] = parse_expr(rule.expr)
        for rule in ruleset.alerts:
            self._compiled[f"alert:{rule.name}"] = parse_expr(rule.expr)

    @property
    def firing(self) -> List[Tuple]:
        """Currently-firing (rule name, series key) pairs, sorted."""
        return sorted(self._firing)

    def evaluate(self, at_min: float, monitor=None, decisions=None) -> List[RuleAlert]:
        """Run all rules at ``at_min``; returns alerts fired this round."""
        store = self.store
        for rule in self.ruleset.recording:
            expr = self._compiled[f"record:{rule.record}"]
            # Materialize matches before recording: writes may create
            # new series and must not feed this same evaluation.
            for series, value in list(evaluate(store, expr, at_min)):
                if value is None:
                    continue
                store.record(rule.record, series.labels, at_min, value)
        fired: List[RuleAlert] = []
        for rule in self.ruleset.alerts:
            expr = self._compiled[f"alert:{rule.name}"]
            compare = _OPS[rule.op]
            for series, value in evaluate(store, expr, at_min):
                key = (rule.name, series.key)
                breached = value is not None and compare(value, rule.threshold)
                if breached:
                    since = self._pending.setdefault(key, at_min)
                    ready = at_min - since >= rule.for_min - 1e-9
                    if ready and key not in self._firing:
                        self._firing.add(key)
                        alert = RuleAlert(
                            rule=rule.name,
                            minute=at_min,
                            value=float(value),
                            threshold=rule.threshold,
                            op=rule.op,
                            severity=rule.severity,
                            labels=tuple(sorted(series.labels.items())),
                        )
                        self.alerts.append(alert)
                        fired.append(alert)
                        if monitor is not None:
                            monitor.rule_alerts.append(alert)
                        if decisions is not None:
                            decisions.record(
                                minute=at_min,
                                actor=RULES_ACTOR,
                                microservice=self._target(series),
                                before=0,
                                after=1,
                                reason=(
                                    f"alert {rule.name}: {rule.expr} "
                                    f"{rule.op} {rule.threshold:g} "
                                    f"(value {value:.6g}, severity "
                                    f"{rule.severity})"
                                ),
                            )
                else:
                    if key in self._firing and decisions is not None:
                        decisions.record(
                            minute=at_min,
                            actor=RULES_ACTOR,
                            microservice=self._target(series),
                            before=1,
                            after=0,
                            reason=f"alert {rule.name} resolved",
                        )
                    self._firing.discard(key)
                    self._pending.pop(key, None)
        return fired

    @staticmethod
    def _target(series) -> str:
        """Best-effort subject of an alert for the DecisionLog entry."""
        labels = series.labels
        return (
            labels.get("microservice")
            or labels.get("service")
            or series.name
        )

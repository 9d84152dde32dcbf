"""Cross-run regression diff over JSON run reports.

``repro report --diff A B`` compares two
:func:`~repro.telemetry.export.build_run_report` files (run A as the
baseline, run B as the candidate) and produces a verdict table:
per-service latency (p95), SLA violation rate, completion counts,
error/resilience counters, alert counts, and the container bill.  Each
row carries a three-way verdict — ``ok`` / ``improved`` /
``regression`` — under explicit tolerances, so two runs of the *same*
seed diff to zero regressions (the determinism contract) while a real
latency or SLA drift between builds fails loudly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = ["DiffRow", "DiffTolerances", "RunDiff", "diff_run_reports", "load_run_report"]

OK = "ok"
IMPROVED = "improved"
REGRESSION = "regression"


@dataclass(frozen=True)
class DiffTolerances:
    """How much drift between runs is considered noise.

    Attributes:
        p95_pct: Relative p95 drift tolerated, in percent.
        miss_rate: Absolute SLA violation-rate drift tolerated.
        completed_pct: Relative completed-request drift tolerated.
        errors_pct: Relative failed/shed/dropped drift tolerated (with
            an absolute floor of ``errors_floor`` events).
        errors_floor: Absolute error-count drift always tolerated.
        containers_pct: Relative container-bill drift tolerated.
    """

    p95_pct: float = 5.0
    miss_rate: float = 0.01
    completed_pct: float = 2.0
    errors_pct: float = 10.0
    errors_floor: float = 2.0
    containers_pct: float = 10.0


@dataclass(frozen=True)
class DiffRow:
    """One compared metric of one subject (service or run-wide)."""

    metric: str
    subject: str  # service name, or "run" for run-wide metrics
    a: Optional[float]
    b: Optional[float]
    verdict: str  # ok | improved | regression
    note: str = ""

    @property
    def delta(self) -> Optional[float]:
        if self.a is None or self.b is None:
            return None
        return self.b - self.a

    def to_dict(self) -> Dict:
        entry: Dict = {
            "metric": self.metric,
            "subject": self.subject,
            "a": self.a,
            "b": self.b,
            "verdict": self.verdict,
        }
        if self.delta is not None:
            entry["delta"] = round(self.delta, 6)
        if self.note:
            entry["note"] = self.note
        return entry


@dataclass
class RunDiff:
    """The full verdict of one A-vs-B comparison."""

    rows: List[DiffRow] = field(default_factory=list)
    tolerances: DiffTolerances = field(default_factory=DiffTolerances)

    @property
    def regressions(self) -> List[DiffRow]:
        return [r for r in self.rows if r.verdict == REGRESSION]

    @property
    def improvements(self) -> List[DiffRow]:
        return [r for r in self.rows if r.verdict == IMPROVED]

    @property
    def verdict(self) -> str:
        return REGRESSION if self.regressions else OK

    def to_dict(self) -> Dict:
        return {
            "verdict": self.verdict,
            "regressions": len(self.regressions),
            "improvements": len(self.improvements),
            "rows": [r.to_dict() for r in self.rows],
        }

    def table_rows(self) -> List[Dict]:
        """Rows shaped for :func:`repro.experiments.format_table`."""
        out = []
        for row in self.rows:
            delta = row.delta
            out.append(
                {
                    "metric": row.metric,
                    "subject": row.subject,
                    "run_a": row.a if row.a is not None else "-",
                    "run_b": row.b if row.b is not None else "-",
                    "delta": delta if delta is not None else "-",
                    "verdict": row.verdict,
                }
            )
        return out


def load_run_report(path: str) -> Dict:
    """Read one JSON run report, validating the schema version and the
    shape of what the diff and the replay read: ``services`` an object of
    objects, ``registry`` an object.  Raises ``ValueError`` naming
    ``path`` otherwise."""
    with open(path, "r", encoding="utf-8") as handle:
        report = json.load(handle)
    schema = report.get("schema") if isinstance(report, dict) else None
    if schema != 1:
        raise ValueError(f"{path}: unsupported run-report schema {schema!r}")
    services = report.get("services", {})
    if not isinstance(services, dict) or not all(
        isinstance(entry, dict) for entry in services.values()
    ):
        raise ValueError(f"{path}: run-report 'services' is not an object of objects")
    if not isinstance(report.get("registry", {}), dict):
        raise ValueError(f"{path}: run-report 'registry' is not an object")
    return report


def _relative_verdict(
    a: Optional[float], b: Optional[float], tol_pct: float, up_is_bad: bool = True
) -> str:
    """Three-way verdict on a relative tolerance (percent of baseline)."""
    if a is None or b is None:
        return OK
    band = abs(a) * tol_pct / 100.0
    if b > a + band:
        return REGRESSION if up_is_bad else IMPROVED
    if b < a - band:
        return IMPROVED if up_is_bad else REGRESSION
    return OK


def _absolute_verdict(
    a: Optional[float], b: Optional[float], tol: float, up_is_bad: bool = True
) -> str:
    if a is None or b is None:
        return OK
    if b > a + tol:
        return REGRESSION if up_is_bad else IMPROVED
    if b < a - tol:
        return IMPROVED if up_is_bad else REGRESSION
    return OK


def _service_errors(report: Dict, service: str) -> float:
    """Failed/shed/dropped requests of one service, from registry counters."""
    counters = report.get("registry", {}).get("counters", {})
    prefix = f"request_errors.{service}."
    return float(
        sum(v for k, v in counters.items() if k.startswith(prefix))
    )


def diff_run_reports(
    report_a: Dict,
    report_b: Dict,
    tolerances: Optional[DiffTolerances] = None,
) -> RunDiff:
    """Compare two run reports; A is the baseline, B the candidate."""
    tol = tolerances or DiffTolerances()
    diff = RunDiff(tolerances=tol)
    rows = diff.rows

    services_a = report_a.get("services", {})
    services_b = report_b.get("services", {})
    only_a = sorted(set(services_a) - set(services_b))
    only_b = sorted(set(services_b) - set(services_a))
    for name in only_a:
        rows.append(
            DiffRow("present", name, 1.0, 0.0, REGRESSION, "service missing in B")
        )
    for name in only_b:
        rows.append(DiffRow("present", name, 0.0, 1.0, OK, "service new in B"))

    for name in sorted(set(services_a) & set(services_b)):
        a, b = services_a[name], services_b[name]
        p95_a, p95_b = a.get("p95_ms"), b.get("p95_ms")
        rows.append(
            DiffRow(
                "p95_ms", name, p95_a, p95_b,
                _relative_verdict(p95_a, p95_b, tol.p95_pct),
                f"tol {tol.p95_pct:g}%",
            )
        )
        miss_a, miss_b = a.get("violation_rate"), b.get("violation_rate")
        rows.append(
            DiffRow(
                "violation_rate", name, miss_a, miss_b,
                _absolute_verdict(miss_a, miss_b, tol.miss_rate),
                f"tol {tol.miss_rate:g}",
            )
        )
        comp_a = a.get("completed")
        comp_b = b.get("completed")
        rows.append(
            DiffRow(
                "completed", name,
                float(comp_a) if comp_a is not None else None,
                float(comp_b) if comp_b is not None else None,
                _relative_verdict(
                    float(comp_a) if comp_a is not None else None,
                    float(comp_b) if comp_b is not None else None,
                    tol.completed_pct,
                    up_is_bad=False,
                ),
                f"tol {tol.completed_pct:g}%",
            )
        )
        err_a = _service_errors(report_a, name)
        err_b = _service_errors(report_b, name)
        if err_a or err_b:
            band = max(tol.errors_floor, err_a * tol.errors_pct / 100.0)
            rows.append(
                DiffRow(
                    "errors", name, err_a, err_b,
                    _absolute_verdict(err_a, err_b, band),
                    f"tol max({tol.errors_floor:g}, {tol.errors_pct:g}%)",
                )
            )

    alerts_a = float(len(report_a.get("alerts", [])))
    alerts_b = float(len(report_b.get("alerts", [])))
    rows.append(
        DiffRow(
            "sla_alerts", "run", alerts_a, alerts_b,
            _absolute_verdict(alerts_a, alerts_b, 0.0),
        )
    )
    containers_a = float(sum(report_a.get("containers", {}).values()))
    containers_b = float(sum(report_b.get("containers", {}).values()))
    rows.append(
        DiffRow(
            "containers", "run", containers_a, containers_b,
            _relative_verdict(containers_a, containers_b, tol.containers_pct),
            f"tol {tol.containers_pct:g}%",
        )
    )
    events_a = report_a.get("events_processed")
    events_b = report_b.get("events_processed")
    rows.append(
        DiffRow(
            "events_processed", "run",
            float(events_a) if events_a is not None else None,
            float(events_b) if events_b is not None else None,
            OK,
            "informational",
        )
    )
    return diff

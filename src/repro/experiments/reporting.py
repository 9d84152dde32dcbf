"""Plain-text table formatting for benchmark output.

The paper's figures become printed tables in this reproduction; every
benchmark prints the rows it would plot, so `pytest benchmarks/ -s` shows
the paper-style numbers.  :func:`render_run_report` turns a telemetry
run report (:func:`repro.telemetry.build_run_report`) into the same
table style for ``python -m repro report``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Sequence


def format_table(
    rows: Sequence[Mapping[str, Any]],
    title: str = "",
    float_format: str = "{:.2f}",
) -> str:
    """Render dict rows as an aligned text table.

    Args:
        rows: Sequence of dicts with identical keys (column order follows
            the first row's key order).
        title: Optional heading printed above the table.
        float_format: Format applied to float cells.

    Returns:
        The rendered table as one string.
    """
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    columns = list(rows[0].keys())

    def _cell(value: Any) -> str:
        if isinstance(value, float):
            return float_format.format(value)
        return str(value)

    rendered = [[_cell(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(col), *(len(r[i]) for r in rendered))
        for i, col in enumerate(columns)
    ]
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(col.ljust(widths[i]) for i, col in enumerate(columns))
    lines.append(header)
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(columns))))
    return "\n".join(lines)


def render_run_report(report: Mapping[str, Any]) -> str:
    """Render a telemetry run report as readable text tables.

    Sections (each skipped when empty): per-service outcomes, the SLA
    monitor's window timeline, alerts, and the scaling decision audit
    log.  ``report`` is a :func:`repro.telemetry.build_run_report` dict.
    """
    sections: List[str] = []

    service_rows = [
        {
            "service": name,
            "generated": entry.get("generated", 0),
            "completed": entry.get("completed", 0),
            "sla_ms": entry.get("sla_ms", ""),
            "p95_ms": entry.get("p95_ms", ""),
            "violation_rate": entry.get("violation_rate", ""),
        }
        for name, entry in report.get("services", {}).items()
    ]
    if service_rows:
        sections.append(format_table(service_rows, title="Services"))

    window_rows = [
        {
            "service": w["service"],
            "window": w["window"],
            "start_min": w["start_min"],
            "count": w["count"],
            "violations": w["violations"],
            "p95_ms": w["p95_ms"],
            "sla_ms": w["sla_ms"],
        }
        for w in report.get("windows", [])
    ]
    if window_rows:
        sections.append(format_table(window_rows, title="SLA windows"))

    alert_rows: List[Dict[str, Any]] = list(report.get("alerts", []))
    if alert_rows:
        sections.append(format_table(alert_rows, title="Alerts"))
    else:
        sections.append("Alerts\n(none)")

    decision_rows = [
        {
            "minute": d["minute"],
            "actor": d["actor"],
            "microservice": d["microservice"],
            "before": d["before"],
            "after": d["after"],
            "delta": d["delta"],
            "workload": d.get("workload", ""),
            "reason": d["reason"],
        }
        for d in report.get("decisions", [])
    ]
    if decision_rows:
        sections.append(format_table(decision_rows, title="Scaling decisions"))

    analysis = report.get("analysis")
    if analysis:
        sections.extend(render_analysis_sections(analysis))

    summary = (
        f"events={report.get('events_processed', 0)}  "
        f"traces={report.get('traces_collected', 0)}/"
        f"{report.get('traces_sampled', 0)} kept/sampled  "
        f"duration={report.get('duration_min', 0):g} min"
    )
    if report.get("late_spans"):
        summary += f"  late_spans={report['late_spans']} dropped"
    sections.append(summary)
    return "\n\n".join(sections)


def render_analysis_sections(analysis: Mapping[str, Any]) -> List[str]:
    """Render a ``RunAnalysis.to_dict()`` payload as text-table sections.

    Shared by ``python -m repro analyze`` and ``render_run_report`` (when
    a run report carries an ``"analysis"`` section).  Sections: critical-
    path attribution, SLA blame ranking, priority inversions, drift
    verdicts, and a sampling summary line.
    """
    sections: List[str] = []

    cp_rows = analysis.get("critical_path", [])
    if cp_rows:
        sections.append(
            format_table(cp_rows, title="Critical-path attribution")
        )

    blame = analysis.get("blame")
    if blame:
        entries = blame.get("entries", [])
        if entries:
            sections.append(
                format_table(
                    entries,
                    title=(
                        f"SLA blame (P{blame.get('percentile', 95):g} vs "
                        f"targets, {len(blame.get('violating_windows', []))} "
                        f"violating windows)"
                    ),
                )
            )
        else:
            sections.append("SLA blame\n(no violating windows)")
        inversions = blame.get("inversions", [])
        if inversions:
            sections.append(
                format_table(inversions, title="Priority inversions")
            )

    drift_rows = [
        {
            "microservice": d["microservice"],
            "drifted": d["drifted"],
            "n_windows": d["n_windows"],
            "median_rel_error": d["median_rel_error"],
            "observed_p95_ms": d["observed_p95_ms"],
            "predicted_p95_ms": d["predicted_p95_ms"],
            "reason": d["reason"],
        }
        for d in analysis.get("drift", [])
    ]
    if drift_rows:
        sections.append(format_table(drift_rows, title="Profile drift"))

    sampling = analysis.get("sampling")
    if sampling:
        threshold = sampling.get("tail_threshold_ms")
        mode = (
            f"tail>{threshold:g}ms" if threshold is not None else "head-only"
        )
        sections.append(
            f"Sampling: {mode}  "
            f"buffered={sampling.get('sampled_traces', 0)}  "
            f"kept={sampling.get('kept_traces', 0)}  "
            f"tail_dropped={sampling.get('tail_dropped', 0)}"
        )
    return sections

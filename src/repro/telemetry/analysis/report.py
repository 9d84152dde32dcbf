"""One-call run analysis: critical paths + blame + drift + sampling stats.

:func:`analyze_run` is the front door of the trace analytics engine — the
``python -m repro analyze`` subcommand and the run-report exporter both
call it.  It consumes either a live :class:`~repro.telemetry.TelemetrySink`
(traces, metrics store, SLA monitor, and decision log all in one) or the
equivalent pieces passed explicitly for post-hoc analysis, and returns a
:class:`RunAnalysis` whose ``to_dict()`` is JSON-ready.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.core.model import PiecewiseLatencyModel
from repro.telemetry.analysis.blame import BlameReport, attribute_blame
from repro.telemetry.analysis.critical_path import (
    CriticalPath,
    PathColumns,
    extract_critical_path,
)
from repro.telemetry.analysis.drift import (
    DriftReport,
    DriftThresholds,
    detect_profile_drift,
)
from repro.tracing.metrics import MetricsStore
from repro.tracing.spans import SpanTable, TraceRecord

__all__ = ["AnalysisOptions", "RunAnalysis", "analyze_run"]


@dataclass(frozen=True)
class AnalysisOptions:
    """Knobs of :func:`analyze_run`."""

    window_min: float = 1.0
    percentile: float = 95.0
    #: How many slowest traces get a full per-segment breakdown.
    top_paths: int = 5
    drift_thresholds: DriftThresholds = field(default_factory=DriftThresholds)

    def __post_init__(self) -> None:
        if self.top_paths < 0:
            raise ValueError(f"top_paths must be non-negative, got {self.top_paths}")


@dataclass
class RunAnalysis:
    """Everything the trace analytics engine extracted from one run."""

    n_traces: int
    #: Per-microservice critical-path attribution rows (see
    #: :func:`~repro.telemetry.analysis.critical_path.critical_path_summary`).
    critical_path: List[Dict] = field(default_factory=list)
    #: The ``top_paths`` slowest traces, with full segment breakdowns.
    slowest: List[CriticalPath] = field(default_factory=list)
    #: Largest |sum(own) − e2e| across all decomposed traces — an audit of
    #: the exactness identity (float association noise only).
    decomposition_max_abs_error_ms: float = 0.0
    blame: Optional[BlameReport] = None
    drift: List[DriftReport] = field(default_factory=list)
    #: Trace-retention accounting (sampled/kept/tail_dropped/threshold).
    sampling: Dict = field(default_factory=dict)

    def to_dict(self) -> Dict:
        entry: Dict = {
            "n_traces": self.n_traces,
            "critical_path": self.critical_path,
            "slowest": [path.to_dict() for path in self.slowest],
            "decomposition_max_abs_error_ms": round(
                self.decomposition_max_abs_error_ms, 9
            ),
        }
        if self.blame is not None:
            entry["blame"] = self.blame.to_dict()
        if self.drift:
            entry["drift"] = [report.to_dict() for report in self.drift]
        if self.sampling:
            entry["sampling"] = self.sampling
        return entry


def analyze_run(
    *,
    sink=None,
    traces: Optional[Sequence[TraceRecord]] = None,
    store: Optional[MetricsStore] = None,
    slas: Optional[Mapping[str, float]] = None,
    targets: Optional[Mapping[str, Mapping[str, float]]] = None,
    priorities: Optional[Mapping[str, Mapping[str, int]]] = None,
    profiles: Optional[Mapping[str, PiecewiseLatencyModel]] = None,
    options: Optional[AnalysisOptions] = None,
) -> RunAnalysis:
    """Run the full analytics pipeline over one run's telemetry.

    Args:
        sink: A finalized :class:`~repro.telemetry.TelemetrySink`; supplies
            defaults for ``traces`` (retained traces), ``store`` (live
            metrics), and ``slas`` (the monitor's registry), and receives
            drift alerts/audit records through its monitor and decision
            log.
        traces: Traces to analyze (overrides the sink's).  A
            :class:`~repro.tracing.spans.SpanTable` is aggregated off its
            forest; any other sequence goes trace by trace.
        store: Live profiling windows for drift detection.
        slas: End-to-end SLA per service — enables blame attribution when
            ``targets`` is also given.
        targets: Per-service latency targets per microservice (Eq. 5
            split), e.g. ``Allocation.targets``.
        priorities: Shared-microservice priority ranks (Eqs. 13–14), e.g.
            ``Allocation.priorities`` — enables inversion detection.
        profiles: Offline piecewise models — enables drift detection.
        options: Analysis knobs; defaults to :class:`AnalysisOptions`.

    Returns:
        A populated :class:`RunAnalysis`.
    """
    options = options or AnalysisOptions()
    if sink is not None:
        if traces is None:
            traces = sink.traces
        if store is None:
            store = sink.metrics
        if slas is None:
            slas = dict(sink.monitor.slas)
    if isinstance(traces, SpanTable):
        columns = PathColumns.of_table(traces)

        def path_of(index: int) -> CriticalPath:  # only the ones shown are built
            return extract_critical_path(traces[index])
    else:
        traces = list(traces or [])
        paths = [extract_critical_path(trace) for trace in traces]
        columns, path_of = PathColumns.of_paths(paths), paths.__getitem__
    own_sums = np.bincount(columns.trace, columns.own, len(columns.e2e))
    max_err = float(np.abs(own_sums - columns.e2e).max(initial=0.0))
    order = np.argsort(-columns.e2e, kind="stable")[: options.top_paths]
    slowest = [path_of(index) for index in order.tolist()]

    blame: Optional[BlameReport] = None
    if targets is not None and slas:
        blame = attribute_blame(
            traces,
            targets=targets,
            slas=slas,
            priorities=priorities,
            window_min=options.window_min,
            percentile=options.percentile,
        )

    drift: List[DriftReport] = []
    if profiles is not None and store is not None:
        drift = detect_profile_drift(
            store,
            profiles,
            thresholds=options.drift_thresholds,
            monitor=sink.monitor if sink is not None else None,
            decisions=sink.decisions if sink is not None else None,
        )

    sampling: Dict = {}
    if sink is not None:
        sampling = {
            "sampled_traces": sink.sampled_traces,
            "kept_traces": sink.kept_traces,
            "tail_dropped": sink.tail_dropped,
            "tail_threshold_ms": sink.config.tail_threshold_ms,
            "sampling_rate": sink.config.sampling_rate,
        }

    return RunAnalysis(
        n_traces=len(traces),
        critical_path=columns.summary(),
        slowest=slowest,
        decomposition_max_abs_error_ms=max_err,
        blame=blame,
        drift=drift,
        sampling=sampling,
    )

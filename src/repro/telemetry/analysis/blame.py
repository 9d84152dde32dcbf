"""SLA blame attribution (tentpole part 2).

For every observation window in which a service broke its SLA, compare
each microservice's *observed* own latency tail (Eq. 1 over the window's
traces) against the latency target Erms assigned it (the Eq. 5 KKT
split), and rank the offenders by how far past their budget they ran.
A microservice over its target in a violating window is where the SLA
went missing; one under its target is exonerated even if slow in
absolute terms.

At shared microservices the priority assignment of Eqs. 13–14 adds a
second check: a *priority inversion* is flagged when, in the same window
and at the same shared microservice, a higher-priority service blew its
target while a lower-priority one met its own — the scheduling order the
allocation paid for did not hold on the floor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.tracing.spans import SpanTable

_MS_PER_MINUTE = 60_000.0

__all__ = ["BlameEntry", "BlameReport", "PriorityInversion", "attribute_blame"]


@dataclass(frozen=True)
class BlameEntry:
    """One microservice's showing against its target in one violating window."""

    service: str
    window: int
    microservice: str
    observed_ms: float  # tail own latency over the window's traces
    target_ms: float  # KKT-assigned latency target (Eq. 5)
    excess_ms: float  # observed - target (positive = over budget)
    excess_ratio: float  # excess / target
    samples: int

    def to_dict(self) -> Dict:
        return {
            "service": self.service,
            "window": self.window,
            "microservice": self.microservice,
            "observed_ms": round(self.observed_ms, 4),
            "target_ms": round(self.target_ms, 4),
            "excess_ms": round(self.excess_ms, 4),
            "excess_ratio": round(self.excess_ratio, 4),
            "samples": self.samples,
        }


@dataclass(frozen=True)
class PriorityInversion:
    """A window where priority order failed at a shared microservice."""

    microservice: str
    window: int
    victim: str  # higher-priority service that missed its target
    victim_rank: int
    victim_excess_ms: float
    offender: str  # lower-priority service that met its own target
    offender_rank: int
    offender_headroom_ms: float  # target - observed of the offender

    def to_dict(self) -> Dict:
        return {
            "microservice": self.microservice,
            "window": self.window,
            "victim": self.victim,
            "victim_rank": self.victim_rank,
            "victim_excess_ms": round(self.victim_excess_ms, 4),
            "offender": self.offender,
            "offender_rank": self.offender_rank,
            "offender_headroom_ms": round(self.offender_headroom_ms, 4),
        }


@dataclass
class BlameReport:
    """Ranked blame entries plus flagged priority inversions."""

    window_min: float
    percentile: float
    #: (service, window) pairs that contained at least one SLA-violating
    #: trace — the windows the entries were computed for.
    violating_windows: List[Tuple[str, int]] = field(default_factory=list)
    #: All entries across violating windows, worst excess first.
    entries: List[BlameEntry] = field(default_factory=list)
    inversions: List[PriorityInversion] = field(default_factory=list)

    def offenders(
        self,
        service: Optional[str] = None,
        window: Optional[int] = None,
    ) -> List[BlameEntry]:
        """Entries over their target (excess > 0), optionally filtered."""
        return [
            entry
            for entry in self.entries
            if entry.excess_ms > 0.0
            and (service is None or entry.service == service)
            and (window is None or entry.window == window)
        ]

    def top_offender(self, service: Optional[str] = None) -> Optional[BlameEntry]:
        offenders = self.offenders(service=service)
        return offenders[0] if offenders else None

    def to_dict(self) -> Dict:
        return {
            "window_min": self.window_min,
            "percentile": self.percentile,
            "violating_windows": [
                {"service": service, "window": window}
                for service, window in self.violating_windows
            ],
            "entries": [entry.to_dict() for entry in self.entries],
            "inversions": [inv.to_dict() for inv in self.inversions],
        }


def _table_samples(table: SpanTable):
    """A table's traces as the flat columns :func:`attribute_blame` reads.

    Names (services and microservices) by id; per trace its service id and
    its root's finish and duration (a block's root is its last row, and
    a block without exactly one root raises ``ValueError``); per call its
    trace, microservice id and Eq. 1 own latency, off the forest.
    """
    blocks, column, forest = len(table), table.column, table.rooted_forest()
    last = column("trace_offset")[:blocks] + column("trace_rows")[:blocks] - 1
    rows = int(last[-1]) + 1 if blocks else 0
    finish = column("finish")[last]
    return (
        table.names, column("trace_service")[:blocks], finish,
        finish - column("start")[last],
        forest.trace[:rows], column("ms")[:rows], forest.own[:rows],
    )


def attribute_blame(
    traces: SpanTable,
    targets: Mapping[str, Mapping[str, float]],
    slas: Mapping[str, float],
    priorities: Optional[Mapping[str, Mapping[str, int]]] = None,
    window_min: float = 1.0,
    percentile: float = 95.0,
) -> BlameReport:
    """Attribute SLA violations to microservices over their targets.

    Args:
        traces: Collected traces, read off the
            :class:`~repro.tracing.spans.SpanTable`'s forest (its first
            ``limit`` blocks).
        targets: Per service, the latency target per microservice — e.g.
            ``Allocation.targets`` from an Erms scaling decision.
        slas: End-to-end SLA per service (ms).
        priorities: Per shared microservice, the service priority ranks
            (rank 0 = highest) — e.g. ``Allocation.priorities``; enables
            priority-inversion detection.
        window_min: Observation window length in minutes (same bucketing
            as the live SLA monitor: ``int(finish_minute / window_min)``).
        percentile: Tail percentile compared against the targets.

    Returns:
        A :class:`BlameReport` with entries ranked worst-excess-first.

    A window is *violating* when any of its traces exceeded the service's
    SLA — a presence test rather than a rate estimate, so it stays
    correct under tail-based sampling, which keeps every violating trace
    but only a floor of healthy ones.
    """
    if window_min <= 0:
        raise ValueError("window_min must be positive")
    names, service_of, end, e2e, trace_of, ms_of, own_of = _table_samples(traces)
    ids = {name: index for index, name in enumerate(names)}
    windows = (end / _MS_PER_MINUTE / window_min).astype(np.int64)
    limits = np.array([np.inf if slas.get(name) is None else slas[name] for name in names])
    late = e2e > limits[service_of]
    violating = sorted(
        {
            (names[service], window)
            for service, window in zip(service_of[late].tolist(), windows[late].tolist())
        }
    )
    entries: List[BlameEntry] = []
    # (service, window) -> its calls' microservices and own latencies
    buckets: Dict[Tuple[str, int], Tuple[np.ndarray, np.ndarray]] = {}
    tails: Dict[Tuple[str, int, str], Optional[Tuple[float, int]]] = {}

    def _tail(service: str, window: int, name: str) -> Optional[Tuple[float, int]]:
        cache_key = (service, window, name)
        if cache_key not in tails:
            bucket = buckets.get((service, window))
            if bucket is None:
                member = (service_of == ids.get(service, -1)) & (windows == window)
                calls = np.flatnonzero(member[trace_of])
                bucket = buckets[service, window] = ms_of[calls], own_of[calls]
            own = bucket[1][bucket[0] == ids.get(name, -1)]
            tails[cache_key] = (
                (float(np.percentile(own, percentile)), len(own)) if len(own) else None
            )
        return tails[cache_key]

    for service, window in violating:
        for name, target in sorted(targets.get(service, {}).items()):
            observed = _tail(service, window, name)
            if observed is None:
                continue
            observed_ms, samples = observed
            excess = observed_ms - target
            entries.append(
                BlameEntry(
                    service=service,
                    window=window,
                    microservice=name,
                    observed_ms=observed_ms,
                    target_ms=target,
                    excess_ms=excess,
                    excess_ratio=excess / target if target > 0 else float("inf"),
                    samples=samples,
                )
            )
    entries.sort(key=lambda entry: entry.excess_ms, reverse=True)

    inversions: List[PriorityInversion] = []
    if priorities:
        for service, window in violating:
            for name, ranks in sorted(priorities.items()):
                victim_rank = ranks.get(service)
                victim_target = targets.get(service, {}).get(name)
                if victim_rank is None or victim_target is None:
                    continue
                victim = _tail(service, window, name)
                if victim is None or victim[0] <= victim_target:
                    continue  # the high-priority class met its target here
                for other, other_rank in sorted(ranks.items()):
                    if other == service or other_rank <= victim_rank:
                        continue  # only lower-priority services can invert
                    other_target = targets.get(other, {}).get(name)
                    if other_target is None:
                        continue
                    observed = _tail(other, window, name)
                    if observed is None or observed[0] > other_target:
                        continue  # the low-priority class suffered too
                    inversions.append(
                        PriorityInversion(
                            microservice=name,
                            window=window,
                            victim=service,
                            victim_rank=victim_rank,
                            victim_excess_ms=victim[0] - victim_target,
                            offender=other,
                            offender_rank=other_rank,
                            offender_headroom_ms=other_target - observed[0],
                        )
                    )

    return BlameReport(
        window_min=window_min,
        percentile=percentile,
        violating_windows=violating,
        entries=entries,
        inversions=inversions,
    )

"""Prometheus-like metrics store (paper §5.1, §5.2).

Prometheus supplies the OS-level half of Erms' telemetry: CPU and memory
utilization per host, and call counts per deployed container.  Erms'
offline profiler joins these with Jaeger latencies at one-minute windows to
form samples :math:`d_i^j = (L_i^j, \\gamma_i^j, C_i^j, M_i^j)` (Eq. 15's
training data).  This module provides that windowed join.

What is stored: the one per-call series, own latencies, sits in two flat
``array('d')`` columns per microservice (timestamps, latencies) — no
object per observation, nothing the cycle collector tracks, and
:meth:`MetricsStore.profiling_windows` reads the two columns of the
microservice it is asked about.  :attr:`MetricsStore.latencies` is a
read-only view that builds :class:`LatencyObservation` records while it is
iterated.  The per-minute series (call counts, host utilization: tens of
rows a run) are lists of records.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field
from itertools import repeat
from typing import Dict, Iterator, List, Tuple

import numpy as np


@dataclass(frozen=True)
class UtilizationSample:
    """One host utilization observation."""

    timestamp: float  # minutes since epoch
    host_id: str
    cpu: float  # fraction in [0, 1+]
    memory: float  # fraction in [0, 1+]


@dataclass(frozen=True)
class CallCountSample:
    """Calls processed by one microservice's containers in one window."""

    timestamp: float
    microservice: str
    calls: float
    containers: int


@dataclass(frozen=True)
class LatencyObservation:
    """One own-latency observation of a microservice."""

    timestamp: float
    microservice: str
    latency: float


@dataclass(frozen=True)
class ProfilingWindow:
    """One per-minute joined sample: the paper's d_i^j.

    Attributes:
        microservice: Microservice name.
        minute: Window index (floor of the timestamp).
        tail_latency: P95 of latency observations in the window (ms).
        per_container_load: Calls per container in the window.
        cpu_utilization: Mean host CPU utilization in the window.
        memory_utilization: Mean host memory utilization in the window.
    """

    microservice: str
    minute: int
    tail_latency: float
    per_container_load: float
    cpu_utilization: float
    memory_utilization: float


class LatencyView(SequenceABC):
    """``MetricsStore.latencies``: the columns read as observations.

    A read-only sequence over the store's per-microservice columns,
    microservice by microservice in first-recorded order and in recording
    order within one; a :class:`LatencyObservation` exists only while
    someone iterates.  Equal to any sequence of the same observations.
    """

    def __init__(self, columns: Dict[str, Tuple[array, array]]) -> None:
        self._columns = columns

    def __len__(self) -> int:
        return sum(len(minutes) for minutes, _ in self._columns.values())

    def __iter__(self) -> Iterator[LatencyObservation]:
        for name, (minutes, values) in self._columns.items():
            yield from map(LatencyObservation, minutes, repeat(name), values)

    def __getitem__(self, index):
        return list(self)[index]

    def __eq__(self, other) -> bool:
        if not isinstance(other, SequenceABC):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))


@dataclass
class MetricsStore:
    """Collects utilization, call-count, and latency time series."""

    utilization: List[UtilizationSample] = field(default_factory=list)
    call_counts: List[CallCountSample] = field(default_factory=list)
    #: microservice -> (timestamps, own latencies): the per-call series
    _latency: Dict[str, Tuple[array, array]] = field(
        default_factory=dict, init=False, repr=False
    )

    @property
    def latencies(self) -> LatencyView:
        """Every latency observation, as a read-only sequence."""
        return LatencyView(self._latency)

    def _columns(self, microservice: str) -> Tuple[array, array]:
        columns = self._latency.get(microservice)
        if columns is None:
            columns = self._latency[microservice] = (array("d"), array("d"))
        return columns

    def record_utilization(
        self, timestamp: float, host_id: str, cpu: float, memory: float
    ) -> None:
        self.utilization.append(UtilizationSample(timestamp, host_id, cpu, memory))

    def record_calls(
        self, timestamp: float, microservice: str, calls: float, containers: int
    ) -> None:
        if containers < 1:
            raise ValueError(f"containers must be >= 1, got {containers}")
        self.call_counts.append(
            CallCountSample(timestamp, microservice, calls, containers)
        )

    def record_latency(
        self, timestamp: float, microservice: str, latency: float
    ) -> None:
        timestamps, latencies = self._columns(microservice)
        timestamps.append(timestamp)
        latencies.append(latency)

    def extend_latencies(
        self, microservice: str, timestamps: np.ndarray, latencies: np.ndarray
    ) -> None:
        """:meth:`record_latency` for one microservice's float64 arrays."""
        columns = self._columns(microservice)
        columns[0].frombytes(timestamps.tobytes())
        columns[1].frombytes(latencies.tobytes())

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def profiling_windows(
        self, microservice: str, percentile: float = 95.0
    ) -> List[ProfilingWindow]:
        """Join the three series into per-minute profiling samples.

        Windows lacking either latency observations or call counts are
        skipped — the profiler needs both coordinates.
        """
        columns = self._latency.get(microservice)
        if columns is None:
            return []
        latencies = np.frombuffer(columns[1], dtype=np.float64)
        minutes = np.frombuffer(columns[0], dtype=np.float64).astype(np.int64)
        calls_by_minute: Dict[int, Tuple[float, int]] = {}
        for sample in self.call_counts:
            if sample.microservice == microservice:
                minute = int(sample.timestamp)
                calls, containers = calls_by_minute.get(minute, (0.0, 1))
                calls_by_minute[minute] = (
                    calls + sample.calls,
                    max(containers, sample.containers),
                )
        util_by_minute: Dict[int, List[Tuple[float, float]]] = {}
        for sample in self.utilization:
            util_by_minute.setdefault(int(sample.timestamp), []).append(
                (sample.cpu, sample.memory)
            )

        windows: List[ProfilingWindow] = []
        for minute in np.unique(minutes).tolist():
            if minute not in calls_by_minute:
                continue
            calls, containers = calls_by_minute[minute]
            utils = util_by_minute.get(minute, [])
            cpu = float(np.mean([u[0] for u in utils])) if utils else 0.0
            mem = float(np.mean([u[1] for u in utils])) if utils else 0.0
            windows.append(
                ProfilingWindow(
                    microservice=microservice,
                    minute=minute,
                    tail_latency=float(
                        np.percentile(latencies[minutes == minute], percentile)
                    ),
                    per_container_load=calls / containers,
                    cpu_utilization=cpu,
                    memory_utilization=mem,
                )
            )
        return windows

"""Reproduction of Erms (ASPLOS 2023).

Erms: Efficient Resource Management for Shared Microservices with SLA
Guarantees — Luo et al., ASPLOS '23.

Package layout:

* :mod:`repro.graphs` — microservice dependency graphs.
* :mod:`repro.tracing` — span model and tracing coordinator.
* :mod:`repro.profiling` — piecewise-linear latency profiling and the
  interference-aware model, plus GBRT/MLP baselines.
* :mod:`repro.core` — the Erms contribution: graph merge, optimal latency
  targets, priority scheduling at shared microservices, interference-aware
  provisioning.
* :mod:`repro.simulator` — discrete-event cluster simulator standing in for
  the paper's 20-host Kubernetes testbed.
* :mod:`repro.workloads` — arrival processes, DeathStarBench-like app
  topologies, and a synthetic Alibaba trace generator.
* :mod:`repro.baselines` — GrandSLAm, Rhythm, and Firm autoscalers.
* :mod:`repro.experiments` — the per-figure experiment harness.
"""

__version__ = "1.0.0"

from repro.core import (
    Allocation,
    ErmsScaler,
    LatencySegment,
    MicroserviceProfile,
    PiecewiseLatencyModel,
    ServiceSpec,
)
from repro.graphs import DependencyGraph, call

__all__ = [
    "__version__",
    "Allocation",
    "ErmsScaler",
    "LatencySegment",
    "MicroserviceProfile",
    "PiecewiseLatencyModel",
    "ServiceSpec",
    "DependencyGraph",
    "call",
]

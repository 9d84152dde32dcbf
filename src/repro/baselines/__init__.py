"""Baseline autoscalers the paper compares Erms against (§6.1).

* :class:`GrandSLAm` — latency targets proportional to each microservice's
  mean latency across workloads (Kannan et al., EuroSys'19).
* :class:`Rhythm` — targets proportional to the normalized product of mean
  latency, latency variance, and the correlation between microservice and
  end-to-end latency (Zhao et al., EuroSys'20).
* :class:`Firm` — localizes one critical microservice per critical path and
  iteratively tunes only those (Qiu et al., OSDI'20; the reinforcement-
  learning tuner is modeled by a greedy bottleneck-chasing loop with the
  same observable behaviour: good steady-state, late reaction, and
  over-allocation under high load).

All share the :class:`~repro.core.scaling.Autoscaler` interface, convert
latency targets to container counts through the *same* profiled models as
Erms (only the target-allocation rule differs, as in the paper's
evaluation), and treat shared microservices with default FCFS min-target
scaling.
"""

from repro.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "base": (
        "MicroserviceStats", "ProfileStatisticsError", "stats_from_profiles",
    ),
    "grandslam": ("GrandSLAm",),
    "rhythm": ("Rhythm",),
    "firm": ("Firm",),
})

"""Workloads: arrival processes and benchmark application topologies.

* :mod:`repro.workloads.arrival` — static, stepped, and diurnal
  (Alibaba-like) request arrival-rate processes.
* :mod:`repro.workloads.deathstarbench` — synthetic stand-ins for the three
  DeathStarBench applications the paper evaluates (Social Network, Media
  Service, Hotel Reservation) with the same microservice/service/shared
  counts.
* :mod:`repro.workloads.alibaba` — a seeded generator of Alibaba-trace-like
  workloads: the microservice-sharing distribution of Fig. 2 and
  Taobao-scale service populations for the Fig. 16 simulations.
"""

from repro.workloads.arrival import (
    DiurnalRate,
    StaticRate,
    SteppedRate,
    TraceRate,
)
from repro.workloads.deathstarbench import (
    Application,
    analytic_profile,
    hotel_reservation,
    media_service,
    social_network,
)
from repro.workloads.alibaba import (
    TaobaoWorkload,
    generate_taobao,
    sharing_counts,
)
from repro.workloads.prediction import (
    HoltPredictor,
    LastValuePredictor,
    WorkloadPredictor,
)

__all__ = [
    "DiurnalRate",
    "StaticRate",
    "SteppedRate",
    "TraceRate",
    "Application",
    "analytic_profile",
    "hotel_reservation",
    "media_service",
    "social_network",
    "TaobaoWorkload",
    "generate_taobao",
    "sharing_counts",
    "HoltPredictor",
    "LastValuePredictor",
    "WorkloadPredictor",
]

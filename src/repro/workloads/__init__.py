"""Workloads: arrival processes and benchmark application topologies.

* :mod:`repro.workloads.arrival` — stepped and diurnal (Alibaba-like)
  request arrival-rate processes.
* :mod:`repro.workloads.deathstarbench` — synthetic stand-ins for the three
  DeathStarBench applications the paper evaluates (Social Network, Media
  Service, Hotel Reservation) with the same microservice/service/shared
  counts.
* :mod:`repro.workloads.alibaba` — a seeded generator of Alibaba-trace-like
  workloads: the microservice-sharing distribution of Fig. 2 and
  Taobao-scale service populations for the Fig. 16 simulations.
"""

from repro.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "arrival": ("DiurnalRate", "SteppedRate"),
    "deathstarbench": (
        "Application", "analytic_profile", "hotel_reservation",
        "media_service", "social_network",
    ),
    "alibaba": ("TaobaoWorkload", "generate_taobao", "sharing_counts"),
    "prediction": ("HoltPredictor", "LastValuePredictor", "WorkloadPredictor"),
})

"""Analytic queueing models (paper §2.3's M/M/1 analysis, generalized).

The paper builds an M/M/1 queue to compare the *mean processing time* at a
shared microservice under sharing vs. non-sharing, concluding that sharing
is better at fixed resources — yet worse under SLA-driven scaling, which
motivates priority scheduling.  This package provides the closed-form
M/M/1 and M/M/c results used for that analysis, the non-preemptive
two-class priority queue, and the sharing-vs-partitioning comparison,
cross-validated against the discrete-event simulator in the test suite.
"""

from repro.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "mmc": ("MMc", "erlang_c", "mm1_mean_response", "mm1_mean_wait"),
    "priority": ("MM1Priority",),
    "sharing": ("sharing_vs_partitioning", "SharingComparison"),
})

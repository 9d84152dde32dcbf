"""Resilience layer: deterministic chaos + client-side recovery policies.

Two halves, composable independently:

* :mod:`repro.resilience.chaos` — a seedable, fully explicit
  :class:`ChaosSchedule` of container crashes (with restart recovery),
  per-RPC error windows, and transient latency spikes, replayed
  deterministically inside the event loop;
* :mod:`repro.resilience.policies` — client-side
  :class:`ResiliencePolicies` (timeouts, bounded retries with backoff +
  jitter, per-(service, microservice) circuit breakers, priority-aware
  admission control) the :class:`ResilienceManager` weaves into the
  simulator's request path.

Attach either (or both) via ``ClusterSimulator(..., chaos=schedule,
resilience=policies)``.  With neither attached the engine is untouched —
golden determinism fingerprints are bit-identical.
"""

from repro.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "chaos": (
        "ChaosSchedule", "CrashEvent", "ErrorWindow", "LatencySpike",
        "SpikeMultiplier",
    ),
    "manager": ("ResilienceManager", "ResilienceStats"),
    "policies": (
        "BREAKER_CLOSED", "BREAKER_HALF_OPEN", "BREAKER_OPEN",
        "AdmissionPolicy", "CircuitBreaker", "CircuitBreakerPolicy",
        "ResiliencePolicies", "RetryPolicy", "TimeoutPolicy",
    ),
})

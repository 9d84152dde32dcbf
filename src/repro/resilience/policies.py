"""Client-side resilience policies and the circuit-breaker state machine.

The policy dataclasses are frozen, picklable configuration — what a
service mesh would read from a retry/timeout/outlier-detection config —
and the :class:`CircuitBreaker` is the per-(service, microservice)
runtime the :class:`~repro.resilience.manager.ResilienceManager` drives.
``ResiliencePolicies.disabled()`` attaches the resilience machinery
without any policy (observation-only: chaos faults still fire, nothing
recovers), which is the no-policy baseline of the resilience sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

__all__ = [
    "AdmissionPolicy",
    "CircuitBreaker",
    "CircuitBreakerPolicy",
    "ResiliencePolicies",
    "RetryPolicy",
    "TimeoutPolicy",
    "BREAKER_CLOSED",
    "BREAKER_OPEN",
    "BREAKER_HALF_OPEN",
]

#: Breaker states (ints so they gauge directly into the metrics registry).
BREAKER_CLOSED = 0
BREAKER_OPEN = 1
BREAKER_HALF_OPEN = 2


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff + jitter.

    ``max_attempts`` counts the first try: 3 means one call plus at most
    two retries.  Backoff for attempt *k* (1-based, after the k-th
    failure) is ``base · factor^(k-1)`` capped at ``max_backoff_ms``,
    stretched by a uniform jitter in ``[0, jitter]`` drawn from the
    resilience manager's dedicated RNG.
    """

    max_attempts: int = 3
    backoff_base_ms: float = 20.0
    backoff_factor: float = 2.0
    max_backoff_ms: float = 2_000.0
    jitter: float = 0.2

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base_ms < 0 or self.max_backoff_ms < 0:
            raise ValueError("backoff bounds must be non-negative")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    def backoff_ms(self, attempt: int, unit_jitter: float) -> float:
        """Delay before retry number ``attempt`` (1-based)."""
        base = self.backoff_base_ms * self.backoff_factor ** (attempt - 1)
        return min(base, self.max_backoff_ms) * (1.0 + self.jitter * unit_jitter)


@dataclass(frozen=True)
class TimeoutPolicy:
    """Per-call client timeout: abandon stragglers after this long.

    The abandoned subtree keeps executing (servers finish work for
    disconnected clients); only the caller stops waiting.  Optional
    per-microservice overrides tighten or loosen individual dependencies.
    """

    call_timeout_ms: float = 500.0
    overrides: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.call_timeout_ms <= 0:
            raise ValueError("call_timeout_ms must be positive")
        for name, value in self.overrides.items():
            if value <= 0:
                raise ValueError(f"timeout override for {name!r} must be positive")

    def timeout_for(self, microservice: str) -> float:
        return self.overrides.get(microservice, self.call_timeout_ms)


@dataclass(frozen=True)
class CircuitBreakerPolicy:
    """Per-(service, microservice) breaker knobs.

    ``failure_threshold`` consecutive failures trip the breaker OPEN;
    after ``cooldown_ms`` it admits up to ``half_open_probes`` concurrent
    trial calls (HALF_OPEN); ``success_to_close`` probe successes close
    it, any probe failure re-opens it for another cooldown.

    The default threshold is deliberately high: a *partial* error rate
    (say 25 %) is the retry policy's job and should not trip the breaker
    — runs of 10 consecutive failures are vanishingly rare below ~50 %
    error rates — while a hard-down dependency (every call failing)
    still trips within 10 calls.
    """

    failure_threshold: int = 10
    cooldown_ms: float = 2_000.0
    half_open_probes: int = 2
    success_to_close: int = 2

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if self.cooldown_ms <= 0:
            raise ValueError("cooldown_ms must be positive")
        if self.half_open_probes < 1:
            raise ValueError("half_open_probes must be >= 1")
        if self.success_to_close < 1:
            raise ValueError("success_to_close must be >= 1")


@dataclass(frozen=True)
class AdmissionPolicy:
    """Queue-depth / latency-aware admission control (graceful degradation).

    Requests of services with priority rank >= ``shed_rank_floor`` are
    rejected at arrival ("503, retry later") whenever the root
    microservice's queued jobs per worker thread exceed
    ``max_queue_per_thread``, or — when ``latency_threshold_ms`` is set —
    the service's own EWMA end-to-end latency exceeds it.  Rank 0
    (highest priority, the paper's Eqs. 13–14 ordering) is never shed, so
    high-priority services keep their Eq. 5 targets while best-effort
    load degrades first.  ``ranks`` overrides the ranks derived from the
    simulator's priority configuration.
    """

    max_queue_per_thread: float = 8.0
    shed_rank_floor: int = 1
    latency_threshold_ms: Optional[float] = None
    ewma_alpha: float = 0.1
    ranks: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.max_queue_per_thread <= 0:
            raise ValueError("max_queue_per_thread must be positive")
        if self.shed_rank_floor < 1:
            raise ValueError(
                "shed_rank_floor must be >= 1 (rank 0 is never shed)"
            )
        if self.latency_threshold_ms is not None and self.latency_threshold_ms <= 0:
            raise ValueError("latency_threshold_ms must be positive")
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ValueError("ewma_alpha must be in (0, 1]")


@dataclass(frozen=True)
class ResiliencePolicies:
    """The full client-side policy bundle attached to one run.

    Every member is optional; ``None`` disables that mechanism.  ``seed``
    drives the policy RNG (backoff jitter) — a dedicated stream, like the
    telemetry sampling RNG, so policies never touch the engine's draws.
    """

    retry: Optional[RetryPolicy] = None
    timeout: Optional[TimeoutPolicy] = None
    breaker: Optional[CircuitBreakerPolicy] = None
    admission: Optional[AdmissionPolicy] = None
    seed: int = 0

    @classmethod
    def default(cls, seed: int = 0) -> "ResiliencePolicies":
        """All four mechanisms at their default settings."""
        return cls(
            retry=RetryPolicy(),
            timeout=TimeoutPolicy(),
            breaker=CircuitBreakerPolicy(),
            admission=AdmissionPolicy(),
            seed=seed,
        )

    @classmethod
    def disabled(cls, seed: int = 0) -> "ResiliencePolicies":
        """Observation-only: no retries, timeouts, breaker, or shedding.

        Chaos faults still fire; failed calls fail the request on first
        error.  The no-policy baseline of the resilience sweep.
        """
        return cls(seed=seed)

    def label(self) -> str:
        parts = [
            name
            for name, member in (
                ("retry", self.retry),
                ("timeout", self.timeout),
                ("breaker", self.breaker),
                ("admission", self.admission),
            )
            if member is not None
        ]
        return "+".join(parts) if parts else "no-policy"


class CircuitBreaker:
    """One breaker instance; transitions are returned for audit logging.

    The caller (the resilience manager) invokes :meth:`allow` before each
    attempt and :meth:`record_success` / :meth:`record_failure` after;
    each returns the new state when a transition happened (else ``None``)
    so every state change lands in the DecisionLog and the breaker-state
    gauge exactly once.
    """

    __slots__ = (
        "policy",
        "state",
        "consecutive_failures",
        "open_until",
        "probes_in_flight",
        "probe_successes",
        "opens",
    )

    def __init__(self, policy: CircuitBreakerPolicy):
        self.policy = policy
        self.state = BREAKER_CLOSED
        self.consecutive_failures = 0
        self.open_until = 0.0
        self.probes_in_flight = 0
        self.probe_successes = 0
        self.opens = 0  # lifetime count of CLOSED/HALF_OPEN -> OPEN trips

    def allow(self, now_ms: float):
        """(admitted, transition): may this attempt proceed?"""
        state = self.state
        if state == BREAKER_CLOSED:
            return True, None
        if state == BREAKER_OPEN:
            if now_ms < self.open_until:
                return False, None
            # Cooldown elapsed: admit a probe.
            self.state = BREAKER_HALF_OPEN
            self.probes_in_flight = 1
            self.probe_successes = 0
            return True, BREAKER_HALF_OPEN
        # HALF_OPEN: bounded concurrent probes.
        if self.probes_in_flight < self.policy.half_open_probes:
            self.probes_in_flight += 1
            return True, None
        return False, None

    def record_success(self, now_ms: float):
        """Outcome of an admitted attempt; returns a transition or None."""
        if self.state == BREAKER_HALF_OPEN:
            self.probes_in_flight = max(0, self.probes_in_flight - 1)
            self.probe_successes += 1
            if self.probe_successes >= self.policy.success_to_close:
                self.state = BREAKER_CLOSED
                self.consecutive_failures = 0
                return BREAKER_CLOSED
            return None
        self.consecutive_failures = 0
        return None

    def record_failure(self, now_ms: float):
        """Outcome of an admitted attempt; returns a transition or None."""
        if self.state == BREAKER_HALF_OPEN:
            # A failed probe re-opens immediately.
            self.probes_in_flight = max(0, self.probes_in_flight - 1)
            self.state = BREAKER_OPEN
            self.open_until = now_ms + self.policy.cooldown_ms
            self.opens += 1
            return BREAKER_OPEN
        if self.state == BREAKER_CLOSED:
            self.consecutive_failures += 1
            if self.consecutive_failures >= self.policy.failure_threshold:
                self.state = BREAKER_OPEN
                self.open_until = now_ms + self.policy.cooldown_ms
                self.opens += 1
                return BREAKER_OPEN
        return None

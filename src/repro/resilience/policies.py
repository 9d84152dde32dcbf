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

import math
from dataclasses import dataclass
from typing import Optional, Tuple

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

#: Retry backoff: growth per attempt, cap (ms), and the largest uniform
#: stretch the jitter draw applies.
BACKOFF_FACTOR = 2.0
MAX_BACKOFF_MS = 2_000.0
JITTER = 0.2
#: Concurrent trial calls a HALF_OPEN breaker admits, and the probe
#: successes that close it.
HALF_OPEN_PROBES = 2
SUCCESS_TO_CLOSE = 2
#: Services of this priority rank or worse may be shed; rank 0 never is.
SHED_RANK_FLOOR = 1


def _freeze_pairs(policy, name: str) -> None:
    """Store the mapping (or pairs) ``policy.<name>`` as name-sorted pairs."""
    pairs = tuple(sorted(dict(getattr(policy, name)).items()))
    object.__setattr__(policy, name, pairs)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff + jitter.

    ``max_attempts`` counts the first try: 3 means one call plus at most
    two retries.  Backoff for attempt *k* (1-based, after the k-th
    failure) is ``base · BACKOFF_FACTOR^(k-1)`` capped at
    ``MAX_BACKOFF_MS``, stretched by a uniform jitter in ``[0, JITTER]``
    drawn from the resilience manager's dedicated RNG.
    """

    max_attempts: int = 3
    backoff_base_ms: float = 20.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if not 0 <= self.backoff_base_ms < math.inf:
            raise ValueError(
                "backoff_base_ms must be non-negative and finite, "
                f"got {self.backoff_base_ms}"
            )

    def backoff_ms(self, attempt: int, unit_jitter: float) -> float:
        """Delay before retry number ``attempt`` (1-based)."""
        base = self.backoff_base_ms * BACKOFF_FACTOR ** (attempt - 1)
        return min(base, MAX_BACKOFF_MS) * (1.0 + JITTER * unit_jitter)


@dataclass(frozen=True)
class TimeoutPolicy:
    """Per-call client timeout: abandon stragglers after this long.

    The abandoned subtree keeps executing (servers finish work for
    disconnected clients); only the caller stops waiting.  Optional
    per-microservice overrides tighten or loosen individual dependencies
    (a mapping, held as name-sorted pairs so the policy hashes).
    """

    call_timeout_ms: float = 500.0
    overrides: Tuple[Tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        _freeze_pairs(self, "overrides")
        if not 0 < self.call_timeout_ms < math.inf:
            raise ValueError(
                "call_timeout_ms must be positive and finite, "
                f"got {self.call_timeout_ms}"
            )
        for name, value in self.overrides:
            if not 0 < value < math.inf:
                raise ValueError(
                    f"timeout override for {name!r} must be positive and "
                    f"finite, got {value}"
                )

    def timeout_for(self, microservice: str) -> float:
        return dict(self.overrides).get(microservice, self.call_timeout_ms)


@dataclass(frozen=True)
class CircuitBreakerPolicy:
    """Per-(service, microservice) breaker knobs.

    ``failure_threshold`` consecutive failures trip the breaker OPEN;
    after ``cooldown_ms`` it admits up to ``HALF_OPEN_PROBES`` concurrent
    trial calls (HALF_OPEN); ``SUCCESS_TO_CLOSE`` probe successes close
    it, any probe failure re-opens it for another cooldown.

    The default threshold is deliberately high: a *partial* error rate
    (say 25 %) is the retry policy's job and should not trip the breaker
    — runs of 10 consecutive failures are vanishingly rare below ~50 %
    error rates — while a hard-down dependency (every call failing)
    still trips within 10 calls.
    """

    failure_threshold: int = 10
    cooldown_ms: float = 2_000.0

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if not 0 < self.cooldown_ms < math.inf:
            raise ValueError(
                f"cooldown_ms must be positive and finite, got {self.cooldown_ms}"
            )


@dataclass(frozen=True)
class AdmissionPolicy:
    """Queue-depth admission control (graceful degradation).

    Requests of services with priority rank >= ``SHED_RANK_FLOOR`` are
    rejected at arrival ("503, retry later") whenever the root
    microservice's queued jobs per worker thread exceed
    ``max_queue_per_thread``.  Rank 0 (highest priority, the paper's
    Eqs. 13–14 ordering) is never shed, so high-priority services keep
    their Eq. 5 targets while best-effort load degrades first.  ``ranks``
    overrides the ranks derived from the simulator's priority
    configuration (a mapping, held as name-sorted pairs so the policy
    hashes).
    """

    max_queue_per_thread: float = 8.0
    ranks: Tuple[Tuple[str, int], ...] = ()

    def __post_init__(self) -> None:
        _freeze_pairs(self, "ranks")
        if not 0 < self.max_queue_per_thread < math.inf:
            raise ValueError(
                "max_queue_per_thread must be positive and finite, "
                f"got {self.max_queue_per_thread}"
            )


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
        if self.probes_in_flight < HALF_OPEN_PROBES:
            self.probes_in_flight += 1
            return True, None
        return False, None

    def record_success(self, now_ms: float):
        """Outcome of an admitted attempt; returns a transition or None."""
        if self.state == BREAKER_HALF_OPEN:
            self.probes_in_flight = max(0, self.probes_in_flight - 1)
            self.probe_successes += 1
            if self.probe_successes >= SUCCESS_TO_CLOSE:
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

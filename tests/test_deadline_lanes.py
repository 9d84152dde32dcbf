"""Deadline lanes time out exactly what one heap event per attempt did.

``ResilienceManager`` files each pending attempt in the deadline lane of
its timeout length, and a lane is one timer at its oldest live deadline.
The oracle below restores the schedule the lanes replaced: every attempt
pushes its own timeout event at ``start + timeout``, which fires unless
the attempt finished first.  Both run the cases where timeouts do fire —
the span suite's ``tight_timeout``, a 2 ms timeout against a 10 ms
service, two override lengths under one default, a ``calls_per_request=3``
fan-out whose siblings share a start and a deadline, and a breaker with
``failure_threshold=2`` that opens and half-opens — and must leave the
same resilience counters, failed / shed / dropped requests, end-to-end
and own-latency streams, decision log and spans.
"""

import pytest

from repro.core import ServiceSpec
from repro.graphs import DependencyGraph, call
from repro.resilience import (
    ChaosSchedule,
    CircuitBreakerPolicy,
    ErrorWindow,
    ResiliencePolicies,
    RetryPolicy,
    TimeoutPolicy,
    manager,
)
from repro.simulator import ClusterSimulator, SimulatedMicroservice, SimulationConfig
from repro.telemetry import TelemetrySink
from repro.telemetry.hooks import _SpanDone
from tests.test_engine_equivalence import _digest
from tests.test_resilience import make_sim
from tests.test_span_equivalence import _sha, observe, trace_lines


class _AttemptTimeout:
    """Scheduled abandonment of one attempt (fires unless it completed)."""

    __slots__ = ("attempt",)

    def __init__(self, attempt):
        self.attempt = attempt

    def fire(self, now):
        attempt = self.attempt
        if attempt.alive:
            attempt.alive = False
            mgr = attempt.mgr
            mgr.fired.append(now)
            mgr.stats.timeouts += 1
            mgr._count("resilience_timeouts")
            attempt.failed(now, "timeout")


class PerAttemptTimeouts(manager.ResilienceManager):
    """The manager with one heap event per attempt for its timeout.

    Its call sites resolve no lane; each attempt pushes its own timeout
    event as it is sent to the engine, where a lane would have filed it.
    The seam is the simulator's ``_execute``, shadowed on the instance:
    with a manager attached every engine call there is one attempt's.
    """

    built = []  # every instance, in construction order

    def __init__(self, *args):
        super().__init__(*args)
        self.built.append(self)
        self.fired = []  # when each timeout fired, in firing order
        self.lengths = {name: lane.length for name, lane in self._lanes.items()}
        self._lanes = {}
        sim = self.sim
        execute = sim._execute

        def execute_timed(service, nodes, t, done):
            (node,) = nodes
            attempt = done.inner if type(done) is _SpanDone else done
            self.events.push(
                t + self.lengths[node.microservice], _AttemptTimeout(attempt)
            )
            execute(service, nodes, t, done)

        sim._execute = execute_timed


def _two_lengths():
    """A 30 ms default and B / C overridden to 6 and 9 ms."""
    graph = DependencyGraph(
        "svc", call("A", stages=[[call("B"), call("C")], [call("B")]])
    )
    return ClusterSimulator(
        [ServiceSpec("svc", graph, 0.0, 1e9)],
        {
            name: SimulatedMicroservice(name, base_service_ms=ms, threads=2)
            for name, ms in (("A", 2.0), ("B", 4.0), ("C", 6.0))
        },
        containers={"A": 1, "B": 2, "C": 2},
        rates={"svc": 9_000.0},
        config=SimulationConfig(duration_min=0.2, warmup_min=0.0, seed=21),
        telemetry=TelemetrySink(),
        resilience=ResiliencePolicies(
            retry=RetryPolicy(max_attempts=2),
            timeout=TimeoutPolicy(
                call_timeout_ms=30.0, overrides={"B": 6.0, "C": 9.0}
            ),
            seed=21,
        ),
    )


def _fan_out():
    """Three calls to M per request, started together, 4 ms against 5 ms."""
    graph = DependencyGraph(
        "fan", call("F", stages=[[call("M", calls_per_request=3)]])
    )
    return ClusterSimulator(
        [ServiceSpec("fan", graph, 0.0, 1e9)],
        {
            "F": SimulatedMicroservice("F", base_service_ms=1.0, threads=4),
            "M": SimulatedMicroservice("M", base_service_ms=5.0, threads=4),
        },
        containers={"F": 1, "M": 3},
        rates={"fan": 6_000.0},
        config=SimulationConfig(duration_min=0.2, warmup_min=0.0, seed=22),
        telemetry=TelemetrySink(),
        resilience=ResiliencePolicies(
            retry=RetryPolicy(max_attempts=3),
            timeout=TimeoutPolicy(call_timeout_ms=500.0, overrides={"M": 4.0}),
            seed=22,
        ),
    )


def _breaker():
    """Errors and timeouts trip a two-failure breaker; probes reopen or close it."""
    return make_sim(
        base_ms=3.0,
        rate=6_000.0,
        duration=0.4,
        telemetry=TelemetrySink(),
        chaos=ChaosSchedule(error_windows=[ErrorWindow("B", 0.1, 0.25, 0.6)], seed=3),
        resilience=ResiliencePolicies(
            retry=RetryPolicy(max_attempts=2),
            timeout=TimeoutPolicy(call_timeout_ms=8.0),
            breaker=CircuitBreakerPolicy(failure_threshold=2, cooldown_ms=200.0),
            seed=3,
        ),
    )


def _tight_timeout():
    sink, result, _, _ = observe("tight_timeout")
    return sink, result


def _run(build):
    simulator = build()
    return simulator._telemetry, simulator.run()


CASES = {
    "tight_timeout": _tight_timeout,
    "two_millisecond": lambda: _run(
        lambda: make_sim(
            base_ms=10.0,
            rate=3_000.0,
            telemetry=TelemetrySink(),
            resilience=ResiliencePolicies(timeout=TimeoutPolicy(call_timeout_ms=2.0)),
        )
    ),
    "two_override_lengths": lambda: _run(_two_lengths),
    "fan_out_ties": lambda: _run(_fan_out),
    "breaker_opens": lambda: _run(_breaker),
}


def outcome(sink, result):
    """Everything a timeout can move, as comparable values."""
    return {
        "resilience": result.resilience,
        "failed": result.failed_requests,
        "shed": result.shed_requests,
        "dropped": result.dropped_requests,
        "e2e": _digest(result._e2e),
        "own": _digest(result._own),
        "decisions": sink.decisions.to_dicts(),
        "traces_sha": _sha(trace_lines(sink.traces)),
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_lanes_time_out_what_per_attempt_events_did(case, monkeypatch):
    lanes = outcome(*CASES[case]())
    monkeypatch.setattr(manager, "ResilienceManager", PerAttemptTimeouts)
    monkeypatch.setattr(PerAttemptTimeouts, "built", [])
    oracle = outcome(*CASES[case]())
    for key in oracle:
        assert lanes[key] == oracle[key], f"{case}: {key}"

    # the cases cover what they claim
    (mgr,) = PerAttemptTimeouts.built
    stats = lanes["resilience"]
    assert stats["timeouts"] == len(mgr.fired) > 0
    if case == "tight_timeout":
        assert (stats["timeouts"], stats["retries"]) == (82, 98)
    if case == "two_override_lengths":
        assert len(set(mgr.lengths.values())) == 3
    if case == "fan_out_ties":
        assert len(mgr.fired) - len(set(mgr.fired)) > 10  # siblings, one deadline
    if case == "breaker_opens":
        reasons = " ".join(d["reason"] for d in lanes["decisions"])
        assert "open -> half-open" in reasons and "half-open -> open" in reasons
        assert "half-open -> closed" in reasons
        # what the breaker did when every attempt still called it twice
        assert (
            stats["breaker_opens"], stats["breaker_closes"], stats["breaker_fast_fails"]
        ) == (47, 9, 1884)

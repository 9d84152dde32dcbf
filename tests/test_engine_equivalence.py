"""The engine replays exactly what it replayed before call plans.

``tests/fixtures/engine_equivalence.json`` was generated on the commit
before ``ClusterSimulator`` compiled its graphs into call plans and gave
priority containers the idle start FCFS containers had
(``PYTHONPATH=src python -m tests.pinned engine_equivalence`` rewrites
it).  That commit sent every call at a
priority container through ``_Job`` → ``push`` → ``_dispatch`` → a
sort-based ``pop`` and expanded ``calls_per_request`` lazily per node.
Per case the fixture pins the generated / completed / dropped counts,
``events_processed`` and a SHA-256 over the raw end-to-end and own-latency
sample streams (completion minutes and latencies, as bytes): the engine
change is "same program, fewer host instructions", so all of it must
match bit for bit.

Cases: Social Network under its Erms allocation and priorities, nearly
idle and driven past saturation; three services on three ranks (one of
them absent from ``ranks``, so it gets the default rank) and two services
on two ranks contending at one overloaded shared microservice, so the
policy draws from the engine RNG; δ = 0; ``calls_per_request`` 0.4 / 2.5 / 3 and
an empty stage; a time-varying (callable) interference multiplier on a
priority container; a mid-run scale-down and container kills with and
without retry on priority containers holding queued jobs; an
``AutoscaledSimulation`` run; and one run each with a span-recording
``TelemetrySink`` and with chaos + ``ResiliencePolicies.default``.  One
more case pins ``simulate_profiling_sweep``'s tail latencies
(``float.hex``), whose probe runs stopped recording own latencies in the
same change.
"""

import functools
import json

import pytest

from repro.core import ErmsScaler, ServiceSpec
from repro.experiments import simulate_profiling_sweep
from repro.graphs import CallNode, DependencyGraph, call
from repro.resilience import (
    ChaosSchedule,
    CrashEvent,
    ErrorWindow,
    LatencySpike,
    ResiliencePolicies,
)
from repro.simulator import (
    AutoscaleConfig,
    AutoscaledSimulation,
    ClusterSimulator,
    SimulatedMicroservice,
    SimulationConfig,
)
from repro.telemetry import TelemetryConfig, TelemetrySink
from repro.workloads import StaticRate, analytic_profile, social_network
from tests.pinned import expected, sha_buffers


def _record(result, **extra):
    return {
        "generated": dict(sorted(result.generated.items())),
        "completed": dict(sorted(result.completed.items())),
        "dropped": dict(sorted(result.dropped_requests.items())),
        "events": result.events_processed,
        "e2e": sha_buffers(result._e2e),
        "own": sha_buffers(result._own),
        **extra,
    }


# ----------------------------------------------------------------------
# Social Network under Erms (priorities on nine shared microservices)
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def _social_network():
    app = social_network()
    specs = app.with_workloads({s.name: 20_000.0 for s in app.services}, sla=200.0)
    allocation = ErmsScaler().scale(specs, app.analytic_profiles())
    assert allocation.priorities
    return app, specs, allocation


def _social_simulator(rate, duration, seed, **hooks):
    app, specs, allocation = _social_network()
    return ClusterSimulator(
        specs,
        app.simulated,
        containers=allocation.containers,
        rates={spec.name: rate for spec in specs},
        config=SimulationConfig(
            duration_min=duration, warmup_min=duration / 4, seed=seed,
            scheduling="priority",
        ),
        priorities=allocation.priorities,
        **hooks,
    )


def _social_idle():
    return _record(_social_simulator(2_000.0, 0.2, seed=3).run())


def _social_saturated():
    return _record(_social_simulator(34_000.0, 0.08, seed=4).run())


def _social_telemetry():
    sink = TelemetrySink(config=TelemetryConfig(window_min=0.05, seed=5))
    result = _social_simulator(12_000.0, 0.1, seed=5, telemetry=sink).run()
    return _record(
        result,
        traces=len(sink.traces),
        spans=sum(len(trace.spans) for trace in sink.traces),
    )


def _social_chaos():
    duration = 0.15
    chaos = ChaosSchedule(
        crashes=[
            CrashEvent(0.3 * duration, "post-storage-mongodb",
                       restart_after_ms=1_500.0, retry=True),
        ],
        error_windows=[
            ErrorWindow("post-storage-service", 0.4 * duration, 0.6 * duration, 0.05)
        ],
        latency_spikes=[
            LatencySpike("user-timeline-service", 0.5 * duration, 0.8 * duration, 1.5)
        ],
        seed=6,
    )
    result = _social_simulator(
        14_000.0, duration, seed=6,
        chaos=chaos, resilience=ResiliencePolicies.default(seed=6),
    ).run()
    return _record(result, resilience=result.resilience, failed=result.failed_requests)


# ----------------------------------------------------------------------
# Hand-built services contending at one shared microservice, "P"
# ----------------------------------------------------------------------
_FRONTS = {"a": "A", "b": "B", "c": "C"}


def _contended(services, ranks, rate, *, delta=0.05, seed=0, duration=0.15,
               p_containers=2, multipliers=None):
    """``services`` each call their own front microservice, then shared P.

    P gets ``p_containers`` two-thread containers at 3 ms (80k calls/min
    together), so from about 27k req/min per service of three its rank
    queues are never empty for long and ``popleft`` has to choose.
    """
    specs = [
        ServiceSpec(
            name,
            DependencyGraph(name, call(_FRONTS[name], stages=[[call("P")]])),
            workload=0.0,
            sla=1e9,
        )
        for name in services
    ]
    simulated = {
        front: SimulatedMicroservice(front, base_service_ms=1.0, threads=4)
        for front in _FRONTS.values()
    }
    simulated["P"] = SimulatedMicroservice("P", base_service_ms=3.0, threads=2)
    return ClusterSimulator(
        specs,
        simulated,
        containers={"A": 2, "B": 2, "C": 2, "P": p_containers},
        rates={name: rate for name in services},
        config=SimulationConfig(
            duration_min=duration, warmup_min=0.0, seed=seed, delta=delta,
            scheduling="priority",
        ),
        priorities={"P": dict(ranks)},
        container_multipliers=multipliers,
    )


def _three_ranks():
    # "c" is not listed: it queues on the default rank, max(ranks) + 1
    return _record(_contended("abc", {"a": 0, "b": 1}, 30_000.0, seed=11).run())


def _two_ranks_default():
    return _record(_contended("ab", {"b": 0}, 42_000.0, seed=12).run())


def _strict_priority():
    return _record(
        _contended("abc", {"a": 0, "b": 1, "c": 2}, 29_000.0, delta=0.0, seed=13).run()
    )


def _callable_multiplier():
    def ramp(minute):
        return 1.0 + 4.0 * minute

    return _record(
        _contended(
            "abc", {"a": 0, "b": 1, "c": 2}, 22_000.0, seed=14,
            multipliers={"P": [ramp, 1.25]},
        ).run()
    )


def _scale_down_and_kills():
    # 210k calls/min against 200k of capacity: every P container has a
    # backlog when it is taken out of rotation
    sim = _contended(
        "abc", {"a": 0, "b": 1, "c": 2}, 70_000.0, seed=15, duration=0.12,
        p_containers=5,
    )
    affected = []
    sim.events.schedule(2_000.0, lambda t: sim.scale_container_count("P", 4))
    sim.events.schedule(
        4_000.0,
        lambda t: affected.append(sim.inject_container_failure("P", retry=True)),
    )
    sim.events.schedule(
        6_000.0,
        lambda t: affected.append(sim.inject_container_failure("P", retry=False)),
    )
    result = sim.run()
    return _record(result, affected=affected, containers=result.containers["P"])


def _fan_out():
    """calls_per_request 0.4 / 2.5 / 3 (1, 2 and 3 calls) and an empty stage."""
    fan = ServiceSpec(
        "fan",
        DependencyGraph(
            "fan",
            call("F", stages=[
                [call("P", calls_per_request=2.5,
                      stages=[[call("L", calls_per_request=0.4)]]),
                 call("M", calls_per_request=3)],
                [CallNode("N", stages=[[], [call("P")], []])],
            ]),
        ),
        workload=0.0,
        sla=1e9,
    )
    plain = ServiceSpec(
        "plain", DependencyGraph("plain", call("G", stages=[[call("P")]])), 0.0, 1e9
    )
    simulated = {
        name: SimulatedMicroservice(name, base_service_ms=ms, threads=threads)
        for name, ms, threads in (
            ("F", 1.0, 4), ("G", 1.0, 4), ("L", 2.0, 2), ("M", 1.5, 2),
            ("N", 1.0, 2), ("P", 3.0, 2),
        )
    }
    return _record(
        ClusterSimulator(
            [fan, plain],
            simulated,
            containers={"F": 1, "G": 1, "L": 2, "M": 3, "N": 1, "P": 2},
            rates={"fan": 9_000.0, "plain": 11_000.0},
            config=SimulationConfig(
                duration_min=0.2, warmup_min=0.05, seed=16, scheduling="priority"
            ),
            priorities={"P": {"plain": 0, "fan": 1}, "M": {"fan": 0}},
        ).run()
    )


def _autoscaled():
    specs = [
        ServiceSpec("hot", DependencyGraph("hot", call("U", stages=[[call("P")]])),
                    workload=0.0, sla=250.0),
        ServiceSpec("cold", DependencyGraph("cold", call("H", stages=[[call("P")]])),
                    workload=0.0, sla=400.0),
    ]
    shapes = {"U": (12.0, 1), "H": (4.0, 2), "P": (5.0, 2)}
    run = AutoscaledSimulation(
        specs,
        {n: SimulatedMicroservice(n, base_service_ms=ms, threads=t)
         for n, (ms, t) in shapes.items()},
        ErmsScaler(),
        {n: analytic_profile(n, ms, t) for n, (ms, t) in shapes.items()},
        rates={
            "hot": lambda minute: 3_000.0 if minute < 0.5 else 7_000.0,
            "cold": StaticRate(4_000.0),
        },
        config=SimulationConfig(
            duration_min=1.2, warmup_min=0.2, seed=17, scheduling="priority"
        ),
        autoscale=AutoscaleConfig(interval_min=0.3, startup_delay_ms=500.0),
    ).run()
    return _record(run.simulation, scaling_events=run.scaling_events)


def _profiling_sweep():
    probed = SimulatedMicroservice("P", base_service_ms=3.0, threads=2)
    loads, tails = simulate_profiling_sweep(
        probed, [6_000.0, 21_000.0, 36_000.0], interference_multiplier=1.2,
        duration_min=0.3, warmup_min=0.1, seed=18,
    )
    return {"loads": loads.tolist(), "p95": [float(v).hex() for v in tails]}


CASES = {
    "social_idle": _social_idle,
    "social_saturated": _social_saturated,
    "social_telemetry": _social_telemetry,
    "social_chaos_resilience": _social_chaos,
    "three_ranks": _three_ranks,
    "two_ranks_default": _two_ranks_default,
    "strict_priority": _strict_priority,
    "callable_multiplier": _callable_multiplier,
    "scale_down_and_kills": _scale_down_and_kills,
    "fan_out": _fan_out,
    "autoscaled": _autoscaled,
    "profiling_sweep": _profiling_sweep,
}


def record(case):
    """Everything the fixture pins for one case, as JSON-ready values."""
    return json.loads(json.dumps(CASES[case]()))


@pytest.mark.parametrize("case", sorted(CASES))
def test_replay_matches_the_parent_engine(case):
    want, have = expected(__name__)[case], record(case)
    assert sorted(have) == sorted(want)
    for key in want:
        assert have[key] == want[key], f"{case}: {key}"


def test_cases_cover_what_they_claim():
    """Queues really form, kills really hit queued jobs, faults really fire."""
    pinned = expected(__name__)
    assert set(pinned) == set(CASES)
    idle, saturated = pinned["social_idle"], pinned["social_saturated"]
    assert idle["completed"] == idle["generated"]
    assert min(saturated["completed"].values()) > 1_000
    for case in ("three_ranks", "two_ranks_default", "strict_priority"):
        assert min(pinned[case]["completed"].values()) > 1_000, case
    kills = pinned["scale_down_and_kills"]
    assert kills["containers"] == 2
    assert min(kills["affected"]) > 0
    assert sum(kills["dropped"].values()) == kills["affected"][1]
    assert sum(kills["completed"].values()) < sum(kills["generated"].values())
    chaos = pinned["social_chaos_resilience"]["resilience"]
    assert chaos["crashes"] == 1 and chaos["restarts"] == 1
    assert chaos["errors_injected"] > 0 and chaos["retries"] > 0
    telemetry = pinned["social_telemetry"]
    assert telemetry["traces"] == sum(telemetry["completed"].values())
    assert telemetry["spans"] > 10 * telemetry["traces"]
    assert len(pinned["autoscaled"]["scaling_events"]) >= 3


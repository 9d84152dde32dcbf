"""The sink's profiling store holds what the per-call recorder held.

A ``TelemetrySink`` used to keep a second copy of every finished call: a
``record_call`` hook appended the own latency to ``sink.metrics`` and
bumped a per-minute counter that each window tick flushed into call-count
samples, divided by the containers in rotation at that tick.  The sink
now fills ``sink.metrics`` once, at ``finalize``, from the engine's
own-latency columns, keeping only the divisor each tick saw.  The digests
in ``tests/fixtures/sink_equivalence.json`` were taken from the per-call
recorder (``PYTHONPATH=src python -m tests.pinned sink_equivalence``
rewrites them).  Each covers the sorted own latencies and call counts (as
``float.hex``), the utilization samples and the JSON run report, its
engine-throughput fields masked (``tests.helpers.mask_throughput``) and
keys added to the report since projected away
(``tests.helpers.pinned_report``).

Cases: Hotel Reservation under its autoscaler for 2.5 simulated minutes
at windows of 0.3 and 1.5 minutes — at 0.3 a container count changes
after minute 1 is flushed, so its divisor is not the final count — one
autoscaled run with chaos and the default resilience policies, and one
``evaluate_allocation`` replay (which turns ``record_own_latency`` off).
"""

import hashlib
import json

import pytest

from repro.experiments.harness import RunSpec
from repro.telemetry import build_run_report
from tests.helpers import mask_throughput, pinned_report
from tests.pinned import expected

#: Near the thresholds where Hotel Reservation's allocation at
#: interference 3 changes, so the autoscaler's decisions differ.
_AUTOSCALED = dict(
    app="hotel-reservation", workload=3_900.0, sla=250.0, interference=3.0,
    duration=2.5, interval=0.3,
)


def _autoscaled(**flags):
    spec = RunSpec(**{**_AUTOSCALED, **flags})
    sink = spec.sink(always=True)
    return spec, sink, spec.autoscaled(sink).run().simulation


def _replay():
    spec = RunSpec(
        app="hotel-reservation", workload=2_000.0, sla=250.0, duration=1.3,
        window=0.4,
    )
    sink = spec.sink(always=True)
    return spec, sink, spec.replay(sink)


CASES = {
    "autoscaled_window_0.3": lambda: _autoscaled(window=0.3),
    "autoscaled_window_1.5": lambda: _autoscaled(window=1.5),
    "autoscaled_chaos_resilience": lambda: _autoscaled(
        workload=2_400.0, duration=2.1, window=0.3, chaos=True, resilience=True
    ),
    "replay": _replay,
}


def digest(spec, sink, result):
    store = sink.metrics
    lines = sorted(
        f"{o.microservice} {o.timestamp.hex()} {o.latency.hex()}"
        for o in store.latencies
    )
    lines += sorted(
        f"{c.microservice} {c.timestamp.hex()} {c.calls.hex()} {c.containers}"
        for c in store.call_counts
    )
    lines += [
        f"{u.host_id} {u.timestamp.hex()} {u.cpu.hex()} {u.memory.hex()}"
        for u in store.utilization
    ]
    report = build_run_report(sink, result, spec.specs)
    lines.append(json.dumps(mask_throughput(pinned_report(report))))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def record(case):
    return digest(*CASES[case]())


@pytest.fixture(scope="module")
def runs():
    return {case: CASES[case]() for case in CASES}


@pytest.mark.parametrize("case", sorted(CASES))
def test_store_matches_the_per_call_recorder(case, runs):
    assert digest(*runs[case]) == expected(__name__)[case]


def test_cases_cover_what_they_claim(runs):
    for spec, sink, result in runs.values():
        assert len(sink.metrics.call_counts) > 0
        assert len(sink.metrics.latencies) > 10_000
    _, sink, result = runs["autoscaled_window_0.3"]
    assert any(  # a divisor the window tick saw, not the final count
        sample.containers != result.containers[sample.microservice]
        for sample in sink.metrics.call_counts
    )
    _, _, result = runs["autoscaled_chaos_resilience"]
    assert result.resilience["errors_injected"] > 0


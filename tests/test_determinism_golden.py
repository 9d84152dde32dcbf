"""Golden-seed determinism: the engine's exact output streams are pinned.

The fast-path engine batches RNG draws and recycles event records, so its
draw *order* differs from the pre-fast-path engine — but for a fixed seed
it must stay byte-identical to itself across runs, Python processes, and
future refactors.  These tests pin that contract two ways:

* SHA-256 fingerprints over the generated/completed counts and the raw
  latency sample streams of two canonical configurations, pinned in
  ``tests/fixtures/determinism_golden.json`` (a change here means the
  engine's sampled behaviour changed — ``PYTHONPATH=src python -m
  tests.pinned determinism_golden`` re-pins them, only with a deliberate
  engine revision);
* ``workers=N`` process-parallel sweeps must equal ``workers=1`` serial
  sweeps row-for-row (the parallel runner's determinism contract).
"""

import hashlib

import numpy as np

from repro.core import ErmsScaler
from repro.core.model import ServiceSpec
from repro.experiments import (
    run_delta_sweep,
    run_static_sweep,
    simulate_profiling_sweep,
)
from repro.graphs import DependencyGraph, call
from repro.simulator import (
    ClusterSimulator,
    SimulatedMicroservice,
    SimulationConfig,
)
from repro.workloads import social_network
from tests.pinned import expected


def fingerprint(result, services, microservices):
    """SHA-256 over counts plus raw latency sample streams (bytes)."""
    digest = hashlib.sha256()
    for name in services:
        digest.update(
            f"{name}:{result.generated[name]}:{result.completed[name]};".encode()
        )
        digest.update(result.latencies(name, include_warmup=True).tobytes())
    for name in microservices:
        pair = result._own.get(name)
        if pair is not None:
            digest.update(np.frombuffer(pair[1], dtype=np.float64).tobytes())
    return digest.hexdigest()


def run_single():
    spec = ServiceSpec("svc", DependencyGraph("svc", call("B")), 0.0, 100.0)
    return ClusterSimulator(
        [spec],
        {"B": SimulatedMicroservice("B", base_service_ms=5.0, threads=4)},
        containers={"B": 1},
        rates={"svc": 20_000.0},
        config=SimulationConfig(duration_min=0.5, warmup_min=0.1, seed=123),
    ).run()


def shared_simulator(**hooks):
    """Two services sharing ``P`` (``s1`` also calls ``Q``), seed 42."""
    s1 = ServiceSpec(
        "s1",
        DependencyGraph("s1", call("F", stages=[[call("P"), call("Q")]])),
        0.0,
        300.0,
    )
    s2 = ServiceSpec(
        "s2", DependencyGraph("s2", call("G", stages=[[call("P")]])), 0.0, 300.0
    )
    return ClusterSimulator(
        [s1, s2],
        {
            "F": SimulatedMicroservice("F", 4.0, 2),
            "G": SimulatedMicroservice("G", 6.0, 2),
            "P": SimulatedMicroservice("P", 3.0, 4),
            "Q": SimulatedMicroservice("Q", 5.0, 2),
        },
        containers={"F": 2, "G": 2, "P": 2, "Q": 2},
        rates={"s1": 9_000.0, "s2": 6_000.0},
        config=SimulationConfig(duration_min=0.5, warmup_min=0.1, seed=42),
        **hooks,
    )


def run_shared():
    return shared_simulator().run()


def shared_fingerprint(result):
    return fingerprint(result, ["s1", "s2"], ["F", "G", "P", "Q"])


#: name -> the fingerprint of one pinned run
CASES = {
    "single": lambda: fingerprint(run_single(), ["svc"], ["B"]),
    "shared": lambda: shared_fingerprint(run_shared()),
}


def record(case):
    return CASES[case]()


class TestGoldenFingerprints:
    def test_single_microservice_stream_pinned(self):
        assert record("single") == expected(__name__)["single"]

    def test_shared_fanout_stream_pinned(self):
        assert record("shared") == expected(__name__)["shared"]

    def test_rerun_is_byte_identical(self):
        first, second = run_shared(), run_shared()
        for name in ("s1", "s2"):
            assert np.array_equal(
                first.latencies(name, include_warmup=True),
                second.latencies(name, include_warmup=True),
            )
        assert first.generated == second.generated
        assert first.completed == second.completed


class TestChaosDeterminism:
    """Chaos + policies ride dedicated RNG streams: runs stay pinned."""

    def run_chaotic(self):
        from repro.resilience import (
            ChaosSchedule,
            CrashEvent,
            ErrorWindow,
            LatencySpike,
            ResiliencePolicies,
        )

        chaos = ChaosSchedule(
            crashes=[CrashEvent(0.2, "P", restart_after_ms=4_000.0)],
            error_windows=[ErrorWindow("Q", 0.15, 0.35, 0.3)],
            latency_spikes=[LatencySpike("F", 0.1, 0.3, 2.5)],
            seed=7,
        )
        return shared_simulator(
            chaos=chaos, resilience=ResiliencePolicies.default(seed=1)
        ).run()

    def test_chaotic_rerun_is_byte_identical(self):
        first, second = self.run_chaotic(), self.run_chaotic()
        assert shared_fingerprint(first) == shared_fingerprint(second)
        assert first.failed_requests == second.failed_requests
        assert first.shed_requests == second.shed_requests
        assert first.resilience == second.resilience

    def test_disabled_resilience_keeps_golden_fingerprints(self):
        """Without chaos/resilience args the engine path — and thus the
        pinned fingerprints above — is untouched (the hard correctness
        bar of the resilience layer)."""
        result = run_shared()
        assert result.resilience is None
        assert shared_fingerprint(result) == expected(__name__)["shared"]


class TestTimeSeriesNeutrality:
    """The embedded TSDB only *reads* engine state on scrape ticks — an
    attached store must not shift a single RNG draw or event, so the
    pinned golden fingerprints hold bit-for-bit with scraping enabled."""

    def run_shared_with_tsdb(self):
        from repro.telemetry import (
            TelemetryConfig,
            TelemetrySink,
            TimeSeriesConfig,
            TimeSeriesStore,
        )

        store = TimeSeriesStore(TimeSeriesConfig(scrape_interval_min=0.1))
        sink = TelemetrySink(
            config=TelemetryConfig(window_min=0.25, spans=False, max_traces=0),
            timeseries=store,
        )
        return store, shared_simulator(telemetry=sink).run()

    def test_tsdb_scraping_keeps_golden_fingerprint(self):
        store, result = self.run_shared_with_tsdb()
        assert store.scrapes > 0 and store.total_samples > 0
        assert shared_fingerprint(result) == expected(__name__)["shared"]


class TestParallelEqualsSerial:
    def test_static_sweep_rows_identical(self):
        app = social_network()
        grid = dict(
            workloads=[5_000.0, 20_000.0],
            slas=[200.0],
            simulate=True,
            duration_min=0.4,
            warmup_min=0.1,
            seed=0,
        )
        serial = run_static_sweep(app, [ErmsScaler()], workers=1, **grid)
        parallel = run_static_sweep(app, [ErmsScaler()], workers=2, **grid)
        assert len(serial.rows) == 2
        assert serial.rows == parallel.rows

    def test_profiling_sweep_identical(self):
        microservice = SimulatedMicroservice("B", base_service_ms=5.0, threads=2)
        loads = [10_000.0, 16_000.0, 22_000.0]
        _, serial = simulate_profiling_sweep(
            microservice, loads, duration_min=0.4, warmup_min=0.1, workers=1
        )
        _, parallel = simulate_profiling_sweep(
            microservice, loads, duration_min=0.4, warmup_min=0.1, workers=3
        )
        assert np.array_equal(serial, parallel)

    def test_delta_sweep_identical(self):
        serial = run_delta_sweep(duration_min=0.4, warmup_min=0.1, workers=1)
        parallel = run_delta_sweep(duration_min=0.4, warmup_min=0.1, workers=2)
        assert serial == parallel
        assert [row["delta"] for row in serial] == [0.0, 0.05, 0.2]

    def test_trace_sim_prefilter_identical(self):
        from repro.experiments import run_trace_simulation
        from repro.workloads import generate_taobao

        workload = generate_taobao(n_services=8, seed=1)
        # Fresh scheme instances per run: schemes are stateful.
        serial = run_trace_simulation(workload, [ErmsScaler()], workers=1)
        parallel = run_trace_simulation(workload, [ErmsScaler()], workers=2)
        assert serial.totals == parallel.totals
        assert serial.per_service == parallel.per_service
        assert serial.skipped_services == parallel.skipped_services

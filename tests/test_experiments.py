"""Tests for repro.experiments: harness, sweeps, reporting."""

import numpy as np
import pytest

from repro.baselines import GrandSLAm
from repro.core import (
    ErmsScaler,
    InterferenceAwareProvisioner,
    KubernetesDefaultProvisioner,
)
from repro.experiments import (
    evaluate_allocation,
    fit_profiles_from_simulation,
    format_table,
    run_dynamic_workload,
    run_interference_comparison,
    run_static_sweep,
    run_trace_simulation,
    simulate_profiling_sweep,
)
from repro.experiments.harness import uniform_specs
from repro.experiments.interference import multipliers_from_placement
from repro.simulator import SimulatedMicroservice
from repro.simulator.simulation import ClusterSimulator
from repro.workloads import DiurnalRate, generate_taobao, hotel_reservation
from tests.helpers import count_calls


@pytest.fixture(scope="module")
def hotel():
    return hotel_reservation()


class TestFormatTable:
    def test_renders_columns(self):
        text = format_table([{"a": 1, "b": 2.5}, {"a": 10, "b": 0.25}], "T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1]
        assert "2.50" in text and "0.25" in text

    def test_empty_rows(self):
        assert "(no rows)" in format_table([], "T")

    def test_missing_keys_fill_blank(self):
        text = format_table([{"a": 1, "b": 2}, {"a": 3}])
        assert text.count("\n") == 3


class TestEvaluateAllocation:
    def test_runs_allocation_on_simulator(self, hotel):
        profiles = hotel.analytic_profiles()
        specs = hotel.with_workloads(
            {s.name: 2000.0 for s in hotel.services}, sla=300.0
        )
        allocation = ErmsScaler().scale(specs, profiles)
        result = evaluate_allocation(
            specs, hotel.simulated, allocation, duration_min=0.5, warmup_min=0.1
        )
        assert result.completed["search-hotel"] > 0
        assert result.tail_latency("search-hotel") > 0

    def test_priority_allocation_enables_priority_scheduling(self, hotel):
        profiles = hotel.analytic_profiles()
        specs = hotel.with_workloads(
            {s.name: 2000.0 for s in hotel.services}, sla=300.0
        )
        allocation = ErmsScaler().scale(specs, profiles)
        assert allocation.priorities  # hotel shares microservices
        result = evaluate_allocation(
            specs, hotel.simulated, allocation, duration_min=0.3, warmup_min=0.1
        )
        assert sum(result.completed.values()) > 0


class TestProfilingSweep:
    def test_latency_grows_across_sweep(self):
        ms = SimulatedMicroservice("m", base_service_ms=10.0, threads=2)
        loads = np.array([2000.0, 10_000.0])  # capacity = 12k/min
        xs, ys = simulate_profiling_sweep(ms, loads, duration_min=0.6, seed=1)
        assert ys[1] > ys[0]

    def test_fit_profiles_from_simulation(self):
        simulated = {"m": SimulatedMicroservice("m", base_service_ms=10.0, threads=2)}
        profiles = fit_profiles_from_simulation(
            simulated, sweep_points=8, duration_min=0.5, seed=2
        )
        model = profiles["m"].model
        assert model.high.slope > model.low.slope
        assert 0 < model.cutoff < 12_000.0


class TestStaticSweep:
    def test_grid_covers_all_combinations(self, hotel):
        schemes = [ErmsScaler(), GrandSLAm()]
        sweep = run_static_sweep(
            hotel, schemes, workloads=[1000.0, 5000.0], slas=[200.0, 300.0]
        )
        assert len(sweep.rows) == 8
        assert set(sweep.schemes()) == {"erms", "grandslam"}

    def test_infeasible_sla_skipped(self, hotel):
        sweep = run_static_sweep(
            hotel, [ErmsScaler()], workloads=[1000.0], slas=[1.0, 300.0]
        )
        assert len(sweep.rows) == 1

    def test_savings_metric(self, hotel):
        sweep = run_static_sweep(
            hotel,
            [ErmsScaler(), GrandSLAm()],
            workloads=[40_000.0],
            slas=[250.0],
        )
        savings = sweep.savings_vs("erms", "grandslam")
        assert -1.0 < savings < 1.0

    def test_interference_blind_schemes_get_historic_profiles(self, hotel):
        aware = run_static_sweep(
            hotel,
            [GrandSLAm()],
            workloads=[40_000.0],
            slas=[250.0],
            interference_multiplier=1.0,
        )
        blind = run_static_sweep(
            hotel,
            [GrandSLAm()],
            workloads=[40_000.0],
            slas=[250.0],
            interference_multiplier=1.6,
        )
        # Planning with historic (lighter) profiles at true 1.6x colocation
        # yields fewer containers than the truth requires.
        truth = run_static_sweep(
            hotel,
            [ErmsScaler()],
            workloads=[40_000.0],
            slas=[250.0],
            interference_multiplier=1.6,
        )
        assert (
            blind.average_containers("grandslam")
            < truth.average_containers("erms")
        ) or (
            blind.average_containers("grandslam")
            >= aware.average_containers("grandslam")
        )

    def test_violation_accessors_require_simulation(self, hotel):
        sweep = run_static_sweep(
            hotel, [ErmsScaler()], workloads=[1000.0], slas=[300.0]
        )
        with pytest.raises(ValueError, match="no simulated rows"):
            sweep.average_violation("erms")

    def test_unknown_scheme_rejected(self, hotel):
        sweep = run_static_sweep(
            hotel, [ErmsScaler()], workloads=[1000.0], slas=[300.0]
        )
        with pytest.raises(ValueError, match="no rows"):
            sweep.average_containers("nope")


def _replay_every_cell(app, schemes, workloads, slas, sampling_rate=1.0, **sim):
    """The sweep as it was before replays were shared: every (workload,
    SLA, scheme) cell scaled and replayed on its own.  Returns the rows
    and, per row, the deployment its replay read."""
    from repro.telemetry import TelemetryConfig, TelemetrySink

    profiles = app.analytic_profiles()
    rows, deployments = [], []
    for workload in workloads:
        for sla in slas:
            specs = app.with_workloads(
                {s.name: workload for s in app.services}, sla=sla
            )
            for scheme in schemes:
                scheme.reset()
                allocation = scheme.scale(specs, profiles)
                sink = None
                if sampling_rate < 1.0:
                    sink = TelemetrySink(config=TelemetryConfig(
                        sampling_rate=sampling_rate, seed=sim["seed"], max_traces=0
                    ))
                result = evaluate_allocation(
                    specs, app.simulated, allocation, telemetry=sink, **sim
                )
                row = {
                    "workload": workload,
                    "sla": sla,
                    "scheme": scheme.name,
                    "containers": allocation.total_containers(),
                    "violation": float(np.mean([
                        result.sla_violation_rate(spec.name, sla) for spec in specs
                    ])),
                    "p95": float(np.mean([
                        result.tail_latency(spec.name) for spec in specs
                    ])),
                }
                if sink is not None:
                    row["traces_sampled"] = sink.sampled_traces
                    row["traces_kept"] = sink.kept_traces
                    row["tail_dropped"] = sink.tail_dropped
                rows.append(row)
                deployments.append((
                    workload,
                    tuple(sorted(allocation.containers.items())),
                    tuple(sorted(
                        (name, tuple(sorted(ranks.items())))
                        for name, ranks in allocation.priorities.items()
                    )),
                ))
    return rows, deployments


def _hexed(rows):
    """Rows with every float spelled ``float.hex``: equal means bit-equal."""
    return [
        {k: v.hex() if isinstance(v, float) else v for k, v in row.items()}
        for row in rows
    ]


def _five_schemes():
    from repro.baselines import Firm, Rhythm

    return [
        ErmsScaler(), ErmsScaler(use_priority=False), GrandSLAm(), Rhythm(), Firm()
    ]


class TestStaticSweepReplays:
    """One replay per distinct deployment; every row as if replayed alone."""

    GRID = dict(workloads=[5_000.0, 20_000.0], slas=[150.0, 300.0])
    SIM = dict(duration_min=0.2, warmup_min=0.05, seed=0)

    @pytest.fixture(scope="class")
    def reference(self, hotel):
        return _replay_every_cell(hotel, _five_schemes(), **self.GRID, **self.SIM)

    @pytest.fixture(scope="class")
    def serial(self, hotel):
        """The sweep's rows and its number of ``ClusterSimulator.run`` calls."""
        from repro.simulator import ClusterSimulator

        runs = {"run": 0}
        with pytest.MonkeyPatch.context() as monkeypatch:
            count_calls(monkeypatch, ClusterSimulator, "run", runs)
            sweep = run_static_sweep(
                hotel, _five_schemes(), simulate=True, **self.GRID, **self.SIM
            )
        return sweep.rows, runs["run"]

    def test_rows_equal_replaying_every_cell_on_its_own(self, reference, serial):
        assert len(serial[0]) == 20
        assert _hexed(serial[0]) == _hexed(reference[0])

    def test_one_run_per_distinct_deployment(self, reference, serial):
        rows, deployments = reference
        assert serial[1] == len(set(deployments)) < len(rows)

    def test_pooled_equals_serial(self, hotel, serial):
        pooled = run_static_sweep(
            hotel, _five_schemes(), simulate=True, workers=2, **self.GRID, **self.SIM
        )
        assert _hexed(pooled.rows) == _hexed(serial[0])

    def test_sampled_rows_carry_their_own_replays_trace_counts(self, hotel):
        grid = dict(workloads=[5_000.0], slas=[150.0, 300.0])
        rows, deployments = _replay_every_cell(
            hotel, _five_schemes(), sampling_rate=0.5, **grid, **self.SIM
        )
        assert len(set(deployments)) < len(rows)  # some rows share a replay
        sweep = run_static_sweep(
            hotel, _five_schemes(), simulate=True, sampling_rate=0.5,
            **grid, **self.SIM,
        )
        assert all(row["traces_sampled"] > 100 for row in rows)
        assert _hexed(sweep.rows) == _hexed(rows)

    def test_a_service_finished_inside_the_warmup_is_left_out(self, hotel):
        """Four requests a minute and a long warm-up: on this seed one
        service completes requests, none after the warm-up.  The guard
        read ``completed`` and ``tail_latency`` raised."""
        sim = dict(duration_min=0.4, warmup_min=0.3, seed=0)
        specs = hotel.with_workloads({s.name: 4.0 for s in hotel.services}, sla=300.0)
        allocation = ErmsScaler().scale(specs, hotel.analytic_profiles())
        result = evaluate_allocation(specs, hotel.simulated, allocation, **sim)
        measured = [s.name for s in specs if len(result.latencies(s.name))]
        assert any(
            result.completed[s.name] > 0 for s in specs if s.name not in measured
        )
        assert measured
        sweep = run_static_sweep(
            hotel, [ErmsScaler()], workloads=[4.0], slas=[300.0], simulate=True, **sim
        )
        (row,) = sweep.rows
        assert row["p95"] == float(
            np.mean([result.tail_latency(name) for name in measured])
        )
        assert row["violation"] == 0.0


class TestDynamicWorkload:
    def test_time_series_shape(self, hotel):
        rate = DiurnalRate(base=2000.0, amplitude=0.5, period_min=12.0, seed=1)
        result = run_dynamic_workload(
            hotel,
            [ErmsScaler()],
            rate=rate,
            sla=300.0,
            total_min=9.0,
            window_min=3.0,
            sim_duration_min=0.3,
        )
        assert len(result.windows) == 3
        assert len(result.containers["erms"]) == 3
        assert result.mean_violation("erms") <= 1.0

    def test_containers_track_rate(self, hotel):
        rate = DiurnalRate(base=20_000.0, amplitude=0.7, period_min=24.0, seed=2)
        result = run_dynamic_workload(
            hotel,
            [ErmsScaler()],
            rate=rate,
            sla=300.0,
            total_min=24.0,
            window_min=3.0,
            sim_duration_min=0.2,
        )
        assert result.tracks_workload("erms") > 0.5

    def test_observation_lag_defers_scaling(self, hotel):
        # A step at minute 3; with a 3-minute lag the scheme still sizes
        # for the old rate in the second window.
        from repro.workloads import SteppedRate

        rate = SteppedRate(((0.0, 2_000.0), (3.0, 40_000.0)))
        result = run_dynamic_workload(
            hotel,
            [ErmsScaler()],
            rate=rate,
            sla=300.0,
            total_min=6.0,
            window_min=3.0,
            sim_duration_min=0.2,
            observation_lag_min=3.0,
        )
        assert result.containers["erms"][1] == result.containers["erms"][0]


class TestInterferenceComparison:
    def test_outputs_per_provisioner(self, hotel):
        result = run_interference_comparison(
            hotel,
            scaler=ErmsScaler(),
            provisioners=[
                InterferenceAwareProvisioner(),
                KubernetesDefaultProvisioner(),
            ],
            workload=3_000.0,
            sla=300.0,
            hosts=4,
            background=((26.0, 52_000.0),),
            duration_min=0.4,
            max_growth_rounds=3,
        )
        assert set(result.containers_needed) == {
            "erms-interference-aware",
            "k8s-default",
        }
        assert all(v > 0 for v in result.containers_needed.values())
        assert set(result.unmet) <= set(result.containers_needed)

    def test_reports_only_counts_it_replayed(self, hotel, monkeypatch):
        """A provisioner still violating after the last round reports the
        count that round replayed, and is listed as unmet."""
        counts = {}
        count_calls(monkeypatch, ClusterSimulator, "run", counts)
        result = run_interference_comparison(
            hotel,
            ErmsScaler(),
            [KubernetesDefaultProvisioner()],
            workload=3_000.0,
            sla=300.0,
            hosts=4,
            background=((26.0, 52_000.0),) * 4,
            duration_min=0.3,
            max_growth_rounds=1,
            violation_threshold=0.0,
        )
        replayed = ErmsScaler().scale(
            uniform_specs(hotel, 3_000.0, 300.0), hotel.analytic_profiles(1.0)
        ).total_containers()
        assert counts == {"run": 1}
        assert result.containers_needed == {"k8s-default": replayed}
        assert result.rows[0]["containers"] == replayed
        assert result.unmet == ["k8s-default"]

    def test_multipliers_from_placement(self):
        from repro.core import Cluster, ContainerSpec

        cluster = Cluster.homogeneous(2)
        cluster.sizes["m"] = ContainerSpec()
        cluster.hosts[0].background_cpu = 30.0
        cluster.hosts[0].place("m", 2)
        cluster.hosts[1].place("m", 1)
        multipliers = multipliers_from_placement(cluster)
        assert len(multipliers["m"]) == 3
        assert max(multipliers["m"]) > min(multipliers["m"])


class TestTraceSimulation:
    def test_totals_and_distribution(self):
        workload = generate_taobao(n_services=8, seed=11)
        result = run_trace_simulation(
            workload, [ErmsScaler(), GrandSLAm()]
        )
        assert result.totals["erms"] > 0
        assert len(result.per_service["erms"]) == 8 - result.skipped_services
        assert 0.0 <= result.cdf_point("erms", 10**9) <= 1.0

    def test_reduction_factor(self):
        workload = generate_taobao(n_services=8, seed=11)
        result = run_trace_simulation(workload, [ErmsScaler(), GrandSLAm()])
        factor = result.reduction_factor("erms", "grandslam")
        assert factor > 0.5

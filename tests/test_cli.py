"""Tests for the repro CLI."""

import pytest

from repro.cli import build_parser, main

from tests.helpers import discontinuous_profile


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_scale_defaults(self):
        args = build_parser().parse_args(["scale"])
        assert args.app == "social-network"
        assert args.scheme == "erms"

    def test_compare_accepts_lists(self):
        args = build_parser().parse_args(
            ["compare", "--workloads", "1000", "2000", "--slas", "150"]
        )
        assert args.workloads == [1000.0, 2000.0]
        assert args.slas == [150.0]

    def test_compare_workers_flag(self):
        args = build_parser().parse_args(["compare", "--workers", "4"])
        assert args.workers == 4
        assert args.simulate is False

    def test_trace_sim_workers_flag(self):
        args = build_parser().parse_args(["trace-sim", "--workers", "0"])
        assert args.workers == 0

    def test_report_defaults(self):
        args = build_parser().parse_args(["report"])
        assert args.window == 1.0
        assert args.sampling == 1.0
        assert args.output is None
        assert args.tail_threshold is None
        assert args.format == "tables"

    def test_report_sampling_rate_alias(self):
        args = build_parser().parse_args(["report", "--sampling-rate", "0.5"])
        assert args.sampling == 0.5

    def test_report_diff_takes_two_paths(self):
        args = build_parser().parse_args(["report", "--diff", "a.json", "b.json"])
        assert args.diff == ["a.json", "b.json"]
        with pytest.raises(SystemExit):
            build_parser().parse_args(["report", "--diff", "only-one.json"])

    def test_dashboard_defaults(self):
        args = build_parser().parse_args(["dashboard"])
        assert args.app == "social-network"
        assert args.duration == 3.0
        assert args.window == 1.0
        assert args.scrape_interval == 0.25
        assert args.rules is None
        assert args.output == "dashboard.html"
        assert args.chaos is False
        assert args.resilience is False

    def test_dashboard_accepts_chaos_and_rules(self):
        args = build_parser().parse_args(
            ["dashboard", "--chaos", "--resilience", "--rules", "r.json",
             "--scrape-interval", "0.1"]
        )
        assert args.chaos and args.resilience
        assert args.rules == "r.json"
        assert args.scrape_interval == 0.1

    def test_analyze_defaults(self):
        args = build_parser().parse_args(["analyze"])
        assert args.app == "social-network"
        assert args.duration == 3.0
        assert args.window == 1.0
        assert args.max_traces == 5000
        assert args.top_paths == 5
        assert args.sampling_rate == 1.0
        assert args.tail_threshold is None
        assert args.output is None

    def test_simulate_sampling_flags(self):
        args = build_parser().parse_args(
            ["simulate", "--sampling-rate", "0.25", "--tail-threshold", "80"]
        )
        assert args.sampling_rate == 0.25
        assert args.tail_threshold == 80.0

    def test_compare_sampling_flags(self):
        args = build_parser().parse_args(
            ["compare", "--sampling-rate", "0.5", "--tail-threshold", "120"]
        )
        assert args.sampling_rate == 0.5
        assert args.tail_threshold == 120.0

    def test_report_format_choices(self):
        assert build_parser().parse_args(
            ["report", "--format", "prom"]
        ).format == "prom"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["report", "--format", "xml"])

    def test_serve_flag_on_run_commands(self):
        parser = build_parser()
        assert parser.parse_args(["simulate"]).serve is None
        assert parser.parse_args(["simulate", "--serve"]).serve == 0
        assert parser.parse_args(["simulate", "--serve", "8123"]).serve == 8123
        assert parser.parse_args(["compare", "--serve"]).serve == 0
        assert parser.parse_args(["chaos", "--serve", "9090"]).serve == 9090

    def test_serve_subcommand_defaults(self):
        args = build_parser().parse_args(["serve", "--replay", "run.json"])
        assert args.replay == "run.json"
        assert args.host == "127.0.0.1"
        assert args.port == 8000

    def test_serve_subcommand_requires_replay(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])

    def test_top_defaults(self):
        args = build_parser().parse_args(["top"])
        assert args.url == "http://127.0.0.1:8000"
        assert args.interval == 1.0
        assert args.frames is None

    def test_log_format_flag(self):
        parser = build_parser()
        assert parser.parse_args(["simulate"]).log_format == "text"
        args = parser.parse_args(["--log-format", "json", "simulate"])
        assert args.log_format == "json"
        with pytest.raises(SystemExit):
            parser.parse_args(["--log-format", "yaml", "simulate"])

    def test_exit_codes_documented_in_help(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--help"])
        out = " ".join(capsys.readouterr().out.split())
        assert "exit codes:" in out
        assert "2 usage error" in out
        assert "3 runtime failure" in out


class TestCommands:
    def test_scale_prints_allocation(self, capsys):
        assert main(["scale", "--app", "hotel-reservation",
                     "--workload", "5000", "--sla", "250"]) == 0
        out = capsys.readouterr().out
        assert "Total containers:" in out
        assert "Priorities" in out  # hotel shares microservices

    def test_scale_each_scheme(self, capsys):
        for scheme in ("erms", "erms-fcfs", "grandslam", "rhythm", "firm"):
            assert main(["scale", "--scheme", scheme,
                         "--app", "hotel-reservation",
                         "--workload", "2000"]) == 0

    def test_unknown_scheme_exits_usage_code(self, capsys):
        assert main(["scale", "--scheme", "magic"]) == 2
        assert "unknown scheme" in capsys.readouterr().err

    def test_unknown_app_exits_usage_code(self, capsys):
        assert main(["scale", "--app", "nope"]) == 2
        assert "unknown application" in capsys.readouterr().err

    def test_simulate_reports_latency(self, capsys):
        assert main(["simulate", "--app", "hotel-reservation",
                     "--workload", "2000", "--duration", "0.4"]) == 0
        out = capsys.readouterr().out
        assert "p95_ms" in out

    def test_simulate_skips_a_service_finished_inside_the_warmup(self, capsys):
        """Four requests a minute: ``login-hotel`` completes its only
        request during the warm-up, which used to end in a traceback."""
        assert main(["simulate", "--app", "hotel-reservation", "--workload", "4",
                     "--duration", "0.4", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "search-hotel" in out and "login-hotel" not in out

    def test_compare_runs_sweep(self, capsys):
        assert main(["compare", "--app", "hotel-reservation",
                     "--workloads", "2000", "--slas", "250"]) == 0
        out = capsys.readouterr().out
        assert "erms" in out and "grandslam" in out

    def test_trace_sim(self, capsys):
        assert main(["trace-sim", "--services", "5"]) == 0
        out = capsys.readouterr().out
        assert "fewer containers" in out

    @pytest.mark.parametrize("command", [
        ["compare", "--app", "hotel-reservation",
         "--workloads", "2000", "--slas", "250"],
        ["simulate", "--app", "hotel-reservation", "--scheme", "rhythm",
         "--workload", "2000", "--duration", "0.4"],
        ["trace-sim", "--services", "5"],
    ])
    def test_discontinuous_profile_exits_3_with_one_line(
        self, command, capsys, monkeypatch
    ):
        """A profile GrandSLAm/Rhythm cannot take statistics of is reported
        by name on stderr, not as a traceback."""
        import repro.cli
        from repro.workloads.deathstarbench import Application

        def broken(profiles, name):
            profiles[name] = discontinuous_profile(name)
            return profiles

        analytic = Application.analytic_profiles
        monkeypatch.setattr(
            Application, "analytic_profiles",
            lambda app, interference=1.0: broken(
                analytic(app, interference), "geo-service"
            ),
        )
        generate = repro.cli.generate_taobao

        def taobao(**shape):
            population = generate(**shape)
            broken(population.profiles, "shared-0000")
            return population

        monkeypatch.setattr(repro.cli, "generate_taobao", taobao)
        assert main(command) == 3
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("repro: error: service ")
        assert "low 18.9 ms, high -88.3 ms" in captured.err

    def test_empty_stage_exits_3_with_one_line(self, capsys, monkeypatch):
        """A graph the Erms merge rejects is reported by service,
        microservice and stage, not as a traceback."""
        import repro.cli

        generate = repro.cli.generate_taobao

        def taobao(**shape):
            population = generate(**shape)
            population.services[2].graph.root.stages.insert(0, [])
            return population

        monkeypatch.setattr(repro.cli, "generate_taobao", taobao)
        assert main(["trace-sim", "--services", "5"]) == 3
        assert capsys.readouterr().err == (
            "repro: error: service 'taobao-svc-0002': stage 0 of "
            "'taobao-svc-0002-entry' is empty\n"
        )

    def test_compare_simulate_adds_measured_columns(self, capsys):
        assert main(["compare", "--app", "hotel-reservation",
                     "--workloads", "2000", "--slas", "250",
                     "--simulate", "--duration", "0.4", "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "avg_violation" in out
        assert "avg_p95_ms" in out

    def test_report_prints_and_writes(self, capsys, tmp_path):
        import json

        report_path = tmp_path / "run.json"
        trace_path = tmp_path / "trace.json"
        assert main(["report", "--app", "hotel-reservation",
                     "--workload", "2000", "--sla", "250",
                     "--duration", "0.6", "--interval", "0.3",
                     "--window", "0.2", "--max-traces", "5",
                     "--output", str(report_path),
                     "--chrome-trace", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "SLA windows" in out
        assert "Alerts" in out
        report = json.loads(report_path.read_text())
        assert report["schema"] == 1
        assert report["windows"]
        trace = json.loads(trace_path.read_text())
        assert trace["traceEvents"]

    def test_simulate_tail_sampling_prints_retention(self, capsys):
        assert main(["simulate", "--app", "hotel-reservation",
                     "--workload", "2000", "--duration", "0.4",
                     "--tail-threshold", "50"]) == 0
        out = capsys.readouterr().out
        assert "Traces:" in out
        assert "tail_dropped=" in out

    def test_report_prom_format_parses(self, capsys):
        from repro.telemetry import parse_prometheus_text

        assert main(["report", "--app", "hotel-reservation",
                     "--workload", "2000", "--sla", "250",
                     "--duration", "0.6", "--interval", "0.3",
                     "--format", "prom"]) == 0
        out = capsys.readouterr().out
        parsed = parse_prometheus_text(out)
        assert parsed["requests_completed_total"]["value"] > 0
        assert any(name.startswith("e2e_latency_ms") for name in parsed)

    def test_analyze_prints_attribution(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "analysis.json"
        assert main(["analyze", "--app", "hotel-reservation",
                     "--workload", "2000", "--sla", "250",
                     "--duration", "0.6", "--interval", "0.3",
                     "--window", "0.2", "--tail-threshold", "100",
                     "--output", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "Critical-path attribution" in out
        assert "Sampling: tail>100ms" in out
        report = json.loads(out_path.read_text())
        analysis = report["analysis"]
        assert analysis["critical_path"]
        assert "sampling" in analysis

    # command, flag, value → exit code, first word(s) of the one stderr line.
    # 2: a value some constructor rejects; 3: an infeasible setting or a
    # path the OS refuses.  The run flags keep the rows that reach the
    # simulator short.
    _HOSTILE = [
        ("analyze", "--window", "0", 2, "window_min"),
        ("analyze", "--sampling-rate", "0", 2, "sampling_rate"),
        ("analyze", "--tail-threshold", "-5", 2, "tail_threshold_ms"),
        ("analyze", "--duration", "0", 2, "duration_min"),
        ("analyze", "--max-traces", "-1", 2, "max_traces"),
        ("analyze", "--top-paths", "-1", 2, "top_paths"),
        ("report", "--window", "0", 2, "window_min"),
        ("report", "--sampling", "0", 2, "sampling_rate"),
        ("report", "--duration", "0", 2, "duration_min"),
        ("report", "--max-traces", "-1", 2, "max_traces"),
        ("dashboard", "--window", "0", 2, "window_min"),
        ("dashboard", "--duration", "0", 2, "duration_min"),
        ("dashboard", "--scrape-interval", "0", 2, "scrape_interval_min"),
        ("simulate", "--sampling-rate", "0", 2, "sampling_rate"),
        ("simulate", "--tail-threshold", "-5", 2, "tail_threshold_ms"),
        *[
            (command, "--sla", "1", 3, "infeasible setting:")
            for command in (
                "scale", "simulate", "report", "dashboard", "analyze", "chaos",
            )
        ],
        *[
            (command, "--interference", "0.5", 2, "interference_multiplier")
            for command in (
                "scale", "simulate", "compare", "report", "dashboard",
                "analyze", "chaos",
            )
        ],
        ("scale", "--sla", "-1", 2, "sla"),
        ("simulate", "--sla", "-1", 2, "sla"),
        ("chaos", "--sla", "-1", 2, "sla"),
        ("scale", "--workload", "-5", 2, "workload"),
        ("report", "--workload", "-5", 2, "workload"),
        ("analyze", "--workload", "-5", 2, "workload"),
        ("compare", "--workloads", "-5", 2, "workload"),
        ("simulate", "--duration", "0", 2, "duration_min"),
        ("chaos", "--duration", "0", 2, "duration_min"),
        ("chaos", "--chaos-error-rate", "7", 2, "error_rate"),
        ("report", "--interval", "0", 2, "interval_min"),
        ("trace-sim", "--services", "0", 2, "n_services"),
        ("dashboard", "--rules", "/nonexistent/rules.json", 2, "cannot read rules"),
        ("dashboard", "--output", "/nonexistent/d.html", 3, "[Errno 2]"),
        ("report", "--output", "/nonexistent/r.json", 3, "[Errno 2]"),
        ("report", "--chrome-trace", "/nonexistent/c.json", 3, "[Errno 2]"),
        ("analyze", "--output", "/nonexistent/a.json", 3, "[Errno 2]"),
    ]

    @pytest.mark.parametrize(
        "command, flag, value, code, field",
        _HOSTILE,
        ids=["-".join(row[:3] + row[4:]) for row in _HOSTILE],
    )
    def test_bad_config_value_is_one_line_usage_error(
        self, command, flag, value, code, field, capsys
    ):
        argv = [command, flag, value]
        if command not in ("compare", "trace-sim"):
            argv += ["--app", "hotel-reservation"]
        if flag != "--duration" and command not in ("scale", "compare", "trace-sim"):
            argv += ["--duration", "0.3"]
        assert main(argv) == code
        captured = capsys.readouterr()
        assert captured.err.startswith(f"repro: error: {field} ")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        if code == 2:
            assert captured.out == ""


class TestRunSpec:
    """One recipe from the flags to the run, whichever command asks."""

    @staticmethod
    def _spec(*argv):
        from repro.cli import _spec

        return _spec(build_parser().parse_args(list(argv)))

    def test_flags_are_the_only_fields(self):
        """Every field is the ``dest`` of some flag, and a command's
        own defaults reach the spec."""
        import dataclasses

        from repro.experiments import RunSpec

        dests = {"sampling_rate"}  # report spells it --sampling
        for command in ("scale", "simulate", "compare", "chaos", "report",
                        "dashboard", "analyze"):
            dests.update(vars(build_parser().parse_args([command])))
        assert {f.name for f in dataclasses.fields(RunSpec)} <= dests
        assert self._spec("chaos").duration == 2.0
        assert self._spec("analyze").max_traces == 5000
        assert self._spec("report", "--sampling", "0.5").sampling_rate == 0.5
        assert self._spec("dashboard").scrape_interval == 0.25

    def test_spec_pickles_and_is_json_able(self):
        import dataclasses
        import json
        import pickle

        spec = self._spec("simulate", "--app", "hotel-reservation", "--chaos")
        spec.allocation, spec.chaos_schedule  # derived values ride along
        assert pickle.loads(pickle.dumps(spec)) == spec
        assert json.loads(json.dumps(dataclasses.asdict(spec)))["chaos"] is True

    def test_autoscaled_commands_enforce_the_priorities_they_plan(self):
        """``report`` / ``dashboard`` / ``analyze`` simulate a cluster that
        schedules by the Eqs. 13–14 ranks the allocation carries."""
        from repro.simulator.scheduler import PriorityQueuePolicy

        def prioritised(spec):
            states = spec.autoscaled().simulator._microservices
            return {
                name
                for name, state in states.items()
                if all(
                    isinstance(container.queue, PriorityQueuePolicy)
                    for container in state.containers
                )
            }

        erms = self._spec("analyze", "--scheme", "erms")
        ranked = {
            name
            for name, ranks in erms.allocation.priorities.items()
            if len(set(ranks.values())) >= 2
        }
        assert ranked == set(erms.application.shared_microservices())
        assert ranked <= prioritised(erms)
        assert prioritised(self._spec("analyze", "--scheme", "grandslam")) == set()

    def test_chaos_honours_interference(self, capsys):
        """Profiles *and* container multipliers, as ``simulate`` does."""
        spec = self._spec("chaos", "--app", "hotel-reservation",
                          "--workload", "4000", "--interference", "2.5")
        idle = self._spec("chaos", "--app", "hotel-reservation",
                          "--workload", "4000")
        assert spec.allocation.total_containers() > idle.allocation.total_containers()
        argv = ["chaos", "--app", "hotel-reservation", "--workload", "4000",
                "--duration", "0.3"]
        assert main(argv) == 0
        at_idle = capsys.readouterr().out
        assert main(argv + ["--interference", "2.5"]) == 0
        assert capsys.readouterr().out != at_idle

    def test_chaos_short_duration_runs(self, capsys):
        """The warm-up follows the duration (it used to be pinned at
        0.25 min, a traceback at ``--duration 0.2``)."""
        assert main(["chaos", "--app", "hotel-reservation",
                     "--workload", "2000", "--duration", "0.2"]) == 0
        assert "resilient under the same fault schedule" in capsys.readouterr().out


def _tiny_report(tmp_path):
    """A minimal but complete run report file for serve/top tests."""
    from repro.core.model import ServiceSpec
    from repro.graphs import DependencyGraph, call
    from repro.simulator import (
        ClusterSimulator,
        SimulatedMicroservice,
        SimulationConfig,
    )
    from repro.telemetry import (
        TelemetryConfig,
        TelemetrySink,
        build_run_report,
        write_run_report,
    )

    sink = TelemetrySink(
        config=TelemetryConfig(window_min=0.2, spans=False, max_traces=0)
    )
    spec = ServiceSpec("svc", DependencyGraph("svc", call("B")), 0.0, 100.0)
    result = ClusterSimulator(
        [spec],
        {"B": SimulatedMicroservice("B", base_service_ms=5.0, threads=4)},
        containers={"B": 1},
        rates={"svc": 3_000.0},
        config=SimulationConfig(duration_min=0.3, warmup_min=0.05, seed=5),
        telemetry=sink,
    ).run()
    path = tmp_path / "report.json"
    write_run_report(build_run_report(sink, result, specs=[spec]), str(path))
    return path


class TestServeCommands:
    def test_serve_missing_replay_is_usage_error(self, capsys, tmp_path):
        assert main(["serve", "--replay", str(tmp_path / "nope.json")]) == 2
        assert "cannot read replay report" in capsys.readouterr().err

    def test_serve_invalid_report_is_runtime_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": 99}')
        assert main(["serve", "--replay", str(bad)]) == 3

    def test_simulate_serve_end_to_end(self, monkeypatch, capsys):
        """``simulate --serve 0`` brings the plane up for the run and
        keeps serving the finished result until shutdown."""
        import json
        import urllib.request

        from repro.telemetry.serve import ObservabilityServer

        captured = {}
        real_stop = ObservabilityServer.stop

        def fake_wait(self, timeout=None):
            with urllib.request.urlopen(
                self.url + "/api/summary", timeout=10
            ) as response:
                captured["summary"] = json.loads(response.read())
            with urllib.request.urlopen(
                self.url + "/metrics", timeout=10
            ) as response:
                captured["metrics"] = response.read().decode()
            real_stop(self)
            return True

        monkeypatch.setattr(ObservabilityServer, "wait_for_shutdown", fake_wait)
        assert main(["simulate", "--app", "hotel-reservation",
                     "--workload", "2000", "--duration", "0.4",
                     "--serve", "0"]) == 0
        progress = captured["summary"]["progress"]
        assert progress["mode"] == "live"
        assert progress["complete"] is True
        assert "requests_completed_total" in captured["metrics"]
        err = capsys.readouterr().err
        assert "observability plane: http://" in err

    def test_top_renders_frame_from_live_server(self, capsys, tmp_path):
        from repro.telemetry import ObservabilityServer, load_replay_source

        path = _tiny_report(tmp_path)
        server = ObservabilityServer(load_replay_source(str(path))).start()
        try:
            assert main(["top", "--url", server.url, "--frames", "1"]) == 0
        finally:
            server.stop()
        out = capsys.readouterr().out
        assert out.startswith("repro top")
        assert "svc" in out

    def test_top_unreachable_is_runtime_error(self, capsys):
        assert main(["top", "--url", "http://127.0.0.1:9",
                     "--frames", "1"]) == 3
        assert "repro top" not in capsys.readouterr().out

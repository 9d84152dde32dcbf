"""Cross-run regression diff: tolerances, verdicts, CLI exit codes."""

import copy
import json

import pytest

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
    diff_run_reports,
    write_run_report,
)
from repro.telemetry.diff import DiffTolerances, load_run_report


def make_report(seed=11):
    sink = TelemetrySink(
        config=TelemetryConfig(window_min=0.25, spans=False, max_traces=0)
    )
    spec = ServiceSpec("svc", DependencyGraph("svc", call("B")), 0.0, 40.0)
    result = ClusterSimulator(
        [spec],
        {"B": SimulatedMicroservice("B", base_service_ms=5.0, threads=4)},
        containers={"B": 2},
        rates={"svc": 10_000.0},
        config=SimulationConfig(duration_min=0.5, warmup_min=0.1, seed=seed),
        telemetry=sink,
    ).run()
    return build_run_report(sink, result, [spec])


class TestDiffVerdicts:
    def test_same_seed_diffs_to_zero_regressions(self):
        diff = diff_run_reports(make_report(seed=11), make_report(seed=11))
        assert diff.verdict == "ok"
        assert not diff.regressions
        assert not diff.improvements
        assert all(row.delta in (None, 0.0) for row in diff.rows)

    def test_p95_regression_detected(self):
        a = make_report()
        b = copy.deepcopy(a)
        b["services"]["svc"]["p95_ms"] = a["services"]["svc"]["p95_ms"] * 1.5
        diff = diff_run_reports(a, b)
        assert diff.verdict == "regression"
        assert any(
            r.metric == "p95_ms" and r.verdict == "regression"
            for r in diff.regressions
        )

    def test_p95_improvement_detected(self):
        a = make_report()
        b = copy.deepcopy(a)
        b["services"]["svc"]["p95_ms"] = a["services"]["svc"]["p95_ms"] * 0.5
        diff = diff_run_reports(a, b)
        assert diff.verdict == "ok"
        assert any(r.metric == "p95_ms" for r in diff.improvements)

    def test_drift_inside_tolerance_is_ok(self):
        a = make_report()
        b = copy.deepcopy(a)
        b["services"]["svc"]["p95_ms"] = a["services"]["svc"]["p95_ms"] * 1.03
        assert diff_run_reports(a, b).verdict == "ok"
        tight = DiffTolerances(p95_pct=1.0)
        assert diff_run_reports(a, b, tight).verdict == "regression"

    def test_missing_service_is_regression(self):
        a = make_report()
        b = copy.deepcopy(a)
        del b["services"]["svc"]
        diff = diff_run_reports(a, b)
        assert any(
            r.metric == "present" and r.verdict == "regression"
            for r in diff.rows
        )

    def test_new_sla_alerts_are_regression(self):
        a = make_report()
        b = copy.deepcopy(a)
        b["alerts"] = list(b.get("alerts", [])) + [{"service": "svc"}]
        diff = diff_run_reports(a, b)
        assert any(r.metric == "sla_alerts" for r in diff.regressions)

    def test_completed_drop_is_regression(self):
        a = make_report()
        b = copy.deepcopy(a)
        b["services"]["svc"]["completed"] = int(
            a["services"]["svc"]["completed"] * 0.9
        )
        diff = diff_run_reports(a, b)
        assert any(r.metric == "completed" for r in diff.regressions)


class TestDiffIO:
    MALFORMED = [
        {"schema": 99},
        {"schema": 1, "services": {"a": 5}},
        {"schema": 1, "services": [1, 2]},
        {"schema": 1, "registry": []},
    ]

    def test_load_rejects_unknown_schema(self, tmp_path):
        """A report of another schema, or one whose ``services`` or
        ``registry`` the diff cannot read, is refused by name."""
        path = tmp_path / "bad.json"
        for report in self.MALFORMED:
            path.write_text(json.dumps(report))
            with pytest.raises(ValueError, match="bad.json"):
                load_run_report(str(path))

    def test_cli_diff_of_a_malformed_report_is_a_usage_error(self, tmp_path, capsys):
        """Exit 2 and one error line, not a traceback (exit 1 would read
        as a regression) or a verdict over services that are not there."""
        from repro.cli import main

        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        good.write_text(json.dumps({"schema": 1}))
        for report in self.MALFORMED[1:]:
            bad.write_text(json.dumps(report))
            for pair in ((bad, bad), (bad, good), (good, bad)):
                assert main(["report", "--diff", *map(str, pair)]) == 2
                out, err = capsys.readouterr()
                assert out == ""
                assert err.count("\n") == 1 and err.startswith("repro: error: ")
                assert "bad.json" in err
            assert main(["serve", "--replay", str(bad)]) == 3
            capsys.readouterr()

    def test_cli_diff_same_seed_exits_zero(self, tmp_path, capsys):
        from repro.cli import main

        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_run_report(make_report(seed=11), str(a))
        write_run_report(make_report(seed=11), str(b))
        code = main(["report", "--diff", str(a), str(b)])
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict: ok" in out

    def test_cli_diff_regression_exits_one(self, tmp_path, capsys):
        from repro.cli import main

        report_a = make_report()
        report_b = copy.deepcopy(report_a)
        report_b["services"]["svc"]["p95_ms"] *= 2.0
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_run_report(report_a, str(a))
        write_run_report(report_b, str(b))
        code = main(["report", "--diff", str(a), str(b)])
        out = capsys.readouterr().out
        assert code == 1
        assert "verdict: regression" in out
        assert "p95_ms" in out

"""Command-line interface: ``python -m repro <command>``.

Mirrors the paper artifact's shell scripts (Appendix B) as subcommands:

* ``scale`` — run a scheme on a benchmark application at a given workload
  and SLA, print targets/priorities/containers (the artifact's
  ``latency-target-computation.sh`` + ``priority-scheduling.sh``).
* ``simulate`` — additionally replay the allocation on the cluster
  simulator and report tail latency and violations (``static-workload.sh``).
* ``compare`` — the static (workload × SLA) sweep across all schemes
  (``theoretical-resource.sh``); ``--simulate --workers N`` replays the
  allocations on the simulator in parallel.
* ``trace-sim`` — the Taobao-scale synthetic evaluation (§6.5).
* ``report`` — run the autoscaled control loop with live telemetry and
  print/export the observability report (SLA windows, alerts, scaling
  decisions, chrome://tracing timelines); ``--format prom`` dumps the
  metrics registry in Prometheus text exposition instead; ``--diff A B``
  skips the run entirely and compares two saved JSON run reports,
  printing a per-metric verdict table (exit 1 on any regression).
* ``dashboard`` — run the autoscaled control loop with the embedded
  time-series store scraping it, then write one self-contained HTML
  dashboard (inline SVG, no scripts, no external resources): latency
  percentiles over time, SLA miss rate per window against the Eq. 5
  tail budget, breaker state with chaos overlays, and container
  timelines.  ``--rules FILE`` attaches declarative recording/alert
  rules evaluated on the sim clock.
* ``analyze`` — run the trace analytics engine on an instrumented run:
  critical-path attribution, SLA blame against the Eq. 5 targets,
  priority-inversion flags, and profile-drift verdicts.
* ``chaos`` — replay one deterministic fault schedule (container
  crashes, error windows, latency spikes) twice — observation-only vs
  the full retry/timeout/breaker/admission stack — and compare SLA miss
  rates; ``--controlled`` runs the two-tenant resilience sweep instead.
* ``serve`` — put a saved JSON run report behind the live observability
  plane (``/``, ``/metrics``, ``/api/*``) without re-running anything.
* ``top`` — terminal live view of a serving run: p95/p99 vs SLA,
  per-service miss rate, breaker states, container counts, refreshed
  from the plane's ``/api/summary``.

``simulate``, ``compare``, ``report``, and ``analyze`` all accept
``--sampling-rate`` (head sampling) and ``--tail-threshold`` (tail-based
sampling: keep full traces only for requests slower than the threshold,
plus a small uniform floor).  ``simulate`` and ``compare`` also accept
``--chaos`` (seeded random fault schedule) and ``--resilience`` (attach
the default policy bundle).  ``simulate``, ``compare``, and ``chaos``
accept ``--serve [PORT]`` to attach the in-process observability HTTP
server to the run; the global ``--log-format json`` switches stderr to
structured JSON lines sharing ``run_id``/``actor`` correlation fields
between scaling decisions and the server's access log.

Exit codes are uniform across subcommands: 0 success, 1 regression
verdict (``report --diff`` only), 2 usage error (bad argument values —
the same code argparse uses for unparseable flags), 3 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import List, Optional

from repro.baselines import ProfileStatisticsError
from repro.core.model import InfeasibleSLAError
from repro.experiments.reporting import format_table
from repro.graphs import GraphValidationError
from repro.workloads import generate_taobao

EXIT_USAGE = 2
EXIT_RUNTIME = 3

_EXIT_CODE_EPILOG = (
    "exit codes: 0 success · 1 regression verdict (report --diff only) · "
    "2 usage error (bad argument values) · 3 runtime failure"
)


class CLIError(Exception):
    """Runtime failure — ``main`` maps it to exit code 3."""


class UsageError(CLIError):
    """Bad argument values — exit code 2, matching argparse's own."""


def _spec(args: argparse.Namespace, **fixed):
    """The one conversion from parsed flags to the run they describe.

    Every flag whose ``dest`` names a :class:`RunSpec` field is taken;
    flags a command does not have keep the spec's defaults, and ``fixed``
    pins what a command always sets.  Nothing is built here: each step
    of the recipe raises from where it is built, and ``main`` is the one
    place that turns that into an exit code.
    """
    from repro.experiments.harness import RunSpec

    flags = dict(vars(args), **fixed)
    if "sampling" in flags:  # the dest of ``report --sampling-rate``
        flags["sampling_rate"] = flags["sampling"]
    fields = [field.name for field in dataclasses.fields(RunSpec)]
    return RunSpec(**{name: flags[name] for name in fields if name in flags})


def _logger_for(args: argparse.Namespace, seed: int = 0):
    """A StructuredLogger under ``--log-format json``, else ``None``."""
    if args.log_format != "json":
        return None
    from repro.telemetry import StructuredLogger

    return StructuredLogger(fmt="json", run_id=f"{args.command}-seed{seed}")


class _ServeSession:
    """Lifecycle of one ``--serve`` attachment: attach → run → linger.

    ``attach`` is the ``on_simulator`` callback the experiment harness
    invokes with the constructed simulator *before* the event loop, so
    every endpoint is live while the run is in flight; ``finish`` marks
    the source complete and blocks until a client POSTs ``/shutdown``
    (or Ctrl-C).
    """

    def __init__(self, port, meta, logger=None, targets=None, chaos=None):
        self.port = port
        self.meta = meta
        self.logger = logger
        self.targets = targets
        self.chaos = chaos
        self.server = None
        self.source = None

    @property
    def on_simulator(self):
        """``attach`` when ``--serve`` was given, else ``None``."""
        return self.attach if self.port is not None else None

    def attach(self, simulator) -> None:
        from repro.telemetry.serve import RunSource

        sink = simulator._telemetry
        if sink is None:
            raise CLIError("--serve needs a telemetry sink on the run")
        if self.logger is not None:
            sink.decisions.logger = self.logger
        self.source = RunSource(
            sink,
            simulator=simulator,
            meta=self.meta,
            targets=self.targets,
            chaos=self.chaos,
        )
        self._start()

    def serve_source(self, source) -> None:
        """Serve a pre-built source (sweeps with no single simulator)."""
        self.source = source
        self._start()

    def _start(self) -> None:
        from repro.telemetry.serve import ObservabilityServer

        self.server = ObservabilityServer(
            self.source, port=self.port, logger=self.logger
        )
        self.server.start()
        print(
            f"observability plane: {self.server.url} "
            f"(GET /, /metrics, /api/summary, /events; "
            f"POST /shutdown to stop)",
            file=sys.stderr,
        )

    def finish(self, result=None) -> None:
        if self.server is None:
            return
        self.source.mark_complete(result)
        print(
            "run complete — serving until POST /shutdown (or Ctrl-C)",
            file=sys.stderr,
        )
        self.server.wait_for_shutdown()


def _run_pool(workers: int):
    """One persistent worker pool for a whole command (``None`` if serial).

    Sweeps within the command then share workers and shipped context
    instead of cold-starting a pool per map.
    """
    if workers == 1:
        import contextlib

        return contextlib.nullcontext(None)
    from repro.experiments import WorkerPool

    return WorkerPool(workers)


def cmd_scale(args: argparse.Namespace) -> int:
    spec = _spec(args)
    allocation = spec.allocation
    rows = [
        {"microservice": name, "containers": count}
        for name, count in sorted(allocation.containers.items())
    ]
    print(
        format_table(
            rows, f"{spec.scaler.name} allocation ({spec.application.name})"
        )
    )
    print(f"\nTotal containers: {allocation.total_containers()}")
    if allocation.priorities:
        print("\nPriorities (rank 0 first):")
        for ms_name, ranks in allocation.priorities.items():
            print(f"  {ms_name}: {ranks}")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    spec = _spec(args)
    allocation = spec.allocation
    sink = spec.sink()
    logger = _logger_for(args, spec.seed)
    if sink is not None and logger is not None:
        sink.decisions.logger = logger
    session = _ServeSession(
        spec.serve,
        spec.meta(),
        logger=logger,
        targets=allocation.targets,
        chaos=spec.chaos_schedule,
    )
    result = spec.replay(sink, on_simulator=session.on_simulator)
    rows = []
    for service in spec.specs:
        if not result.has_samples(service.name):
            continue
        row = {
            "service": service.name,
            "completed": result.completed[service.name],
            "p95_ms": result.tail_latency(service.name),
            "violation": result.sla_violation_rate(service.name, service.sla),
        }
        failed = result.failed_requests.get(service.name, 0)
        shed = result.shed_requests.get(service.name, 0)
        dropped = result.dropped_requests.get(service.name, 0)
        if failed or shed or dropped:
            row["failed"] = failed
            row["shed"] = shed
            row["dropped"] = dropped
        rows.append(row)
    print(
        format_table(
            rows,
            f"{spec.scaler.name} on {spec.application.name}: "
            f"{allocation.total_containers()} containers",
            "{:.3f}",
        )
    )
    if result.resilience is not None:
        interesting = {k: v for k, v in result.resilience.items() if v}
        print(f"\nResilience: {interesting or 'no faults, no policy activity'}")
    if sink is not None:
        print(
            f"\nTraces: buffered={sink.sampled_traces} "
            f"kept={sink.kept_traces} tail_dropped={sink.tail_dropped}"
            + (f" late_spans={sink.late_spans}" if sink.late_spans else "")
        )
    session.finish(result)
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    from repro.baselines import Firm, GrandSLAm, Rhythm
    from repro.core.scaling import ErmsScaler
    from repro.experiments.harness import replay_sink
    from repro.experiments.static import run_static_sweep

    spec = _spec(args)
    app = spec.application
    schemes = [ErmsScaler(), ErmsScaler(use_priority=False), GrandSLAm(), Rhythm(), Firm()]
    session = _ServeSession(
        spec.serve,
        meta={"app": spec.app, "mode": "sweep-aggregate", "seed": spec.seed},
        logger=_logger_for(args, spec.seed),
    )
    if spec.serve is not None:
        # Sweep cells run in worker processes, so there is no single
        # simulator to attach to; serve an aggregate source whose
        # registry carries sweep-level gauges instead.  Every endpoint
        # still answers (with empty series/alert payloads).
        from repro.telemetry.serve import RunSource

        agg_sink = replay_sink(always=True)
        agg_sink.registry.gauge("sweep_cells_total").set(
            len(args.workloads) * len(args.slas) * len(schemes)
        )
        session.serve_source(RunSource(agg_sink, meta=session.meta))
    with _run_pool(args.workers) as pool:
        sweep = run_static_sweep(
            app,
            schemes,
            workloads=args.workloads,
            slas=args.slas,
            interference_multiplier=spec.interference,
            simulate=args.simulate,
            duration_min=spec.duration,
            warmup_min=spec.warmup,
            seed=spec.seed,
            workers=args.workers,
            sampling_rate=spec.sampling_rate,
            tail_threshold_ms=spec.tail_threshold,
            pool=pool,
            chaos=spec.chaos_schedule,
            resilience=spec.policies,
        )
    rows = []
    for scheme in sweep.schemes():
        row = {"scheme": scheme, "avg_containers": sweep.average_containers(scheme)}
        if args.simulate:
            row["avg_violation"] = sweep.average_violation(scheme)
            row["avg_p95_ms"] = sweep.average_p95(scheme)
        rows.append(row)
    if session.source is not None:
        registry = session.source.sink.registry
        registry.gauge("sweep_rows").set(len(sweep.rows))
        for row in rows:
            registry.gauge(
                f"sweep_avg_containers.{row['scheme']}"
            ).set(row["avg_containers"])
    print(format_table(rows, f"Static sweep on {app.name}"))
    sampled = sum(r.get("traces_sampled") or 0 for r in sweep.rows)
    if sampled:
        kept = sum(r.get("traces_kept") or 0 for r in sweep.rows)
        dropped = sum(r.get("tail_dropped") or 0 for r in sweep.rows)
        print(
            f"\nTraces across cells: buffered={sampled} kept={kept} "
            f"tail_dropped={dropped}"
        )
    session.finish()
    return 0


def cmd_trace_sim(args: argparse.Namespace) -> int:
    from repro.baselines import GrandSLAm, Rhythm
    from repro.core.scaling import ErmsScaler
    from repro.experiments.trace_sim import run_trace_simulation

    workload = generate_taobao(n_services=args.services, seed=args.seed)
    schemes = [ErmsScaler(), ErmsScaler(use_priority=False), GrandSLAm(), Rhythm()]
    with _run_pool(args.workers) as pool:
        result = run_trace_simulation(
            workload, schemes, workers=args.workers, pool=pool
        )
    rows = [
        {
            "scheme": scheme,
            "total_containers": result.totals[scheme],
            "avg_per_service": result.average_per_service(scheme),
        }
        for scheme in result.totals
    ]
    print(format_table(rows, f"Taobao-scale simulation ({args.services} services)"))
    print(
        f"\nErms vs GrandSLAm: "
        f"{result.reduction_factor('erms', 'grandslam'):.2f}x fewer containers"
    )
    return 0


def _instrumented_run(args: argparse.Namespace):
    """The one autoscaled run ``report``, ``dashboard`` and ``analyze`` render.

    Returns ``(spec, sink, result)``.  The allocation the run starts from
    (``spec.allocation``) carries the Eq. 5 latency targets and the
    Eqs. 13–14 priorities the renderers compare against, and is what the
    simulated cluster enforces.
    """
    spec = _spec(args)
    try:
        sink = spec.sink(always=True)
    except OSError as error:
        raise UsageError(f"cannot read rules file: {error}")
    return spec, sink, spec.autoscaled(sink).run().simulation


def cmd_report(args: argparse.Namespace) -> int:
    if args.diff:
        from repro.telemetry.diff import diff_run_reports, load_run_report

        path_a, path_b = args.diff
        diff = diff_run_reports(
            load_run_report(path_a), load_run_report(path_b)
        )
        print(
            format_table(
                diff.table_rows(),
                f"Run diff: {path_a} (A) vs {path_b} (B)",
                "{:.4f}",
            )
        )
        print(
            f"\nverdict: {diff.verdict} "
            f"({len(diff.regressions)} regressions, "
            f"{len(diff.improvements)} improvements)"
        )
        return 1 if diff.regressions else 0

    from repro.experiments.reporting import render_run_report
    from repro.telemetry import (
        build_run_report,
        write_chrome_trace,
        write_run_report,
    )

    spec, sink, result = _instrumented_run(args)
    if args.format == "prom":
        print(sink.registry.expose_text(), end="")
        return 0
    report = build_run_report(sink, result, spec.specs)
    print(render_run_report(report))
    if args.output:
        write_run_report(report, args.output)
        print(f"\nwrote report: {args.output}")
    if args.chrome_trace:
        count = write_chrome_trace(sink.traces, args.chrome_trace)
        print(f"wrote chrome trace: {args.chrome_trace} ({count} events)")
    return 0


def cmd_dashboard(args: argparse.Namespace) -> int:
    from repro.telemetry import dashboard_data, run_state, write_dashboard

    spec, sink, result = _instrumented_run(args)
    data = dashboard_data(
        run_state(sink, result),
        sink.timeseries,
        meta=spec.meta(),
        # What the SLA decomposed into (the run recomputes its own).
        targets=spec.allocation.targets,
        chaos=spec.chaos_schedule,
    )
    write_dashboard(data, args.output)
    summary = data["summary"]
    print(
        f"wrote dashboard: {args.output} "
        f"({len(data['services'])} services, "
        f"{summary.get('tsdb_series', 0)} series, "
        f"{summary.get('tsdb_samples', 0)} samples, "
        f"{summary['sla_alerts']} SLA alerts, "
        f"{summary['rule_alerts']} rule alerts)"
    )
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    from repro.experiments.reporting import render_analysis_sections
    from repro.telemetry import build_run_report, write_run_report
    from repro.telemetry.analysis import AnalysisOptions, analyze_run

    options = AnalysisOptions(window_min=args.window, top_paths=args.top_paths)
    spec, sink, result = _instrumented_run(args)
    allocation = spec.allocation
    analysis = analyze_run(
        sink=sink,
        targets=allocation.targets,
        priorities=allocation.priorities or None,
        profiles={name: prof.model for name, prof in spec.profiles.items()},
        options=options,
    )
    sections = render_analysis_sections(analysis.to_dict())
    print(
        "\n\n".join(sections)
        if sections
        else "(no traces collected — nothing to analyze)"
    )
    slowest = analysis.slowest
    if slowest:
        print(f"\nSlowest trace ({slowest[0].trace_id}):")
        rows = [segment.to_dict() for segment in slowest[0].segments]
        print(format_table(rows, f"e2e={slowest[0].end_to_end_ms:.3f} ms"))
    if args.output:
        report = build_run_report(sink, result, spec.specs, analysis=analysis)
        write_run_report(report, args.output)
        print(f"\nwrote report: {args.output}")
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    from repro.experiments import run_chaos_comparison, run_resilience_sweep

    if args.controlled:
        sweep = run_resilience_sweep(
            duration_min=args.duration, seed=args.seed, workers=args.workers
        )
        rows = [
            {
                key: row[key]
                for key in (
                    "policy", "service", "generated", "failed", "shed",
                    "violations", "sla_miss_rate",
                )
            }
            for row in sweep.rows
        ]
        print(format_table(rows, "Controlled resilience sweep", "{:.4f}"))
        print(
            f"\ngold miss-rate reduction, full policies vs no-policy: "
            f"{sweep.improvement('gold'):+.4f}"
        )
        return 0

    spec = _spec(args, chaos=True)  # the subcommand always injects its schedule
    session = _ServeSession(
        spec.serve,
        spec.meta(mode="chaos-resilient"),
        logger=_logger_for(args, spec.seed),
        chaos=spec.chaos_schedule,
    )
    comparison = run_chaos_comparison(spec, on_simulator=session.on_simulator)
    for mode in ("no-policy", "resilient"):
        rows = [
            {
                key: row[key]
                for key in (
                    "service", "generated", "failed", "shed", "violations",
                    "sla_miss_rate",
                )
            }
            for row in comparison.rows[mode]
        ]
        print(format_table(rows, f"{mode} under the same fault schedule", "{:.4f}"))
        interesting = {k: v for k, v in comparison.stats[mode].items() if v}
        print(f"  stats: {interesting}\n")
    faults = comparison.decisions["resilient"]
    print(f"Fault / policy decisions (resilient run): {len(faults)}")
    for record in faults[: args.max_decisions]:
        print(
            f"  [{record['minute']:7.3f} min] {record['actor']:>15} "
            f"{record['microservice']}: {record['reason']}"
        )
    if len(faults) > args.max_decisions:
        print(f"  ... and {len(faults) - args.max_decisions} more")
    session.finish()
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.telemetry.serve import ObservabilityServer, load_replay_source

    try:
        source = load_replay_source(args.replay)
    except OSError as error:
        raise UsageError(f"cannot read replay report: {error}")
    except ValueError as error:
        raise CLIError(f"invalid run report {args.replay!r}: {error}")
    server = ObservabilityServer(
        source, host=args.host, port=args.port, logger=_logger_for(args)
    ).start()
    print(f"serving replay of {args.replay}: {server.url}")
    print(
        f"POST {server.url}/shutdown (or Ctrl-C) to stop", file=sys.stderr
    )
    server.wait_for_shutdown()
    return 0


def cmd_top(args: argparse.Namespace) -> int:
    import json
    import time
    import urllib.error
    import urllib.request

    from repro.telemetry.serve import render_top

    url = args.url.rstrip("/") + "/api/summary"
    clear = sys.stdout.isatty()  # plain appending frames when piped
    frames = 0
    try:
        while args.frames is None or frames < args.frames:
            if frames:
                time.sleep(args.interval)
            try:
                with urllib.request.urlopen(url, timeout=10) as response:
                    summary = json.loads(response.read().decode("utf-8"))
            except (urllib.error.URLError, OSError) as error:
                raise CLIError(f"cannot fetch {url}: {error}")
            sys.stdout.write(render_top(summary, clear=clear))
            sys.stdout.flush()
            frames += 1
    except KeyboardInterrupt:
        pass
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Erms (ASPLOS'23) reproduction command-line interface",
        epilog=_EXIT_CODE_EPILOG,
    )
    parser.add_argument(
        "--log-format",
        choices=["text", "json"],
        default="text",
        dest="log_format",
        help="stderr logging: text (default) or structured JSON lines "
             "with run_id/actor correlation shared by scaling decisions "
             "and the observability server's access log",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--app", default="social-network",
                       help="benchmark application (default: social-network)")
        p.add_argument("--scheme", default="erms",
                       help="erms | erms-fcfs | grandslam | rhythm | firm")
        p.add_argument("--workload", type=float, default=20_000.0,
                       help="requests/minute per service")
        p.add_argument("--sla", type=float, default=200.0, help="SLA in ms")
        p.add_argument("--interference", type=float, default=1.0,
                       help="host colocation multiplier (>= 1)")

    def add_sampling(p):
        p.add_argument("--sampling-rate", type=float, default=1.0,
                       dest="sampling_rate",
                       help="trace head-sampling rate in (0, 1]")
        p.add_argument("--tail-threshold", type=float, default=None,
                       dest="tail_threshold",
                       help="tail-based sampling: keep full traces only "
                            "for requests slower than this many ms "
                            "(plus a small uniform floor)")

    def add_chaos(p, with_toggle=True):
        if with_toggle:
            p.add_argument("--chaos", action="store_true",
                           help="inject a seeded random fault schedule")
            p.add_argument("--resilience", action="store_true",
                           help="attach the default retry/timeout/breaker/"
                                "admission policy bundle")
        p.add_argument("--chaos-seed", type=int, default=0, dest="chaos_seed",
                       help="fault-schedule seed (independent of --seed)")
        p.add_argument("--chaos-crashes", type=int, default=1,
                       dest="chaos_crashes",
                       help="container crashes to schedule")
        p.add_argument("--chaos-error-rate", type=float, default=0.05,
                       dest="chaos_error_rate",
                       help="per-RPC error probability inside error windows")
        p.add_argument("--chaos-spike", type=float, default=3.0,
                       dest="chaos_spike",
                       help="latency multiplier inside spike windows")
        p.add_argument("--chaos-restart-ms", type=float, default=5_000.0,
                       dest="chaos_restart_ms",
                       help="crashed containers restart after this long")

    def add_serve(p):
        p.add_argument("--serve", nargs="?", const=0, default=None,
                       type=int, metavar="PORT",
                       help="attach the live observability HTTP plane "
                            "(/, /metrics, /api/*, /events SSE) to the "
                            "run; PORT omitted or 0 binds an ephemeral "
                            "port, printed on stderr; the command then "
                            "serves until POST /shutdown")

    p_scale = sub.add_parser("scale", help="compute an allocation")
    add_common(p_scale)
    p_scale.set_defaults(func=cmd_scale)

    p_sim = sub.add_parser("simulate", help="allocate, then replay on the simulator",
                           epilog=_EXIT_CODE_EPILOG)
    add_common(p_sim)
    p_sim.add_argument("--duration", type=float, default=1.5,
                       help="simulated minutes")
    p_sim.add_argument("--seed", type=int, default=0)
    add_sampling(p_sim)
    add_chaos(p_sim)
    add_serve(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_cmp = sub.add_parser("compare", help="static sweep across all schemes")
    p_cmp.add_argument("--app", default="social-network")
    p_cmp.add_argument("--workloads", type=float, nargs="+",
                       default=[5_000.0, 20_000.0, 60_000.0])
    p_cmp.add_argument("--slas", type=float, nargs="+", default=[150.0, 250.0])
    p_cmp.add_argument("--interference", type=float, default=1.0)
    p_cmp.add_argument("--simulate", action="store_true",
                       help="also replay each distinct deployment on the "
                            "simulator, once")
    p_cmp.add_argument("--duration", type=float, default=1.5,
                       help="simulated minutes per replay (with --simulate)")
    p_cmp.add_argument("--seed", type=int, default=0)
    p_cmp.add_argument("--workers", type=int, default=1,
                       help="processes for the replays (0 = one per CPU)")
    add_sampling(p_cmp)
    add_chaos(p_cmp)
    add_serve(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_chaos = sub.add_parser(
        "chaos",
        help="replay one fault schedule with policies off vs on and "
             "compare SLA miss rates",
    )
    add_common(p_chaos)
    p_chaos.add_argument("--duration", type=float, default=2.0,
                         help="simulated minutes")
    p_chaos.add_argument("--seed", type=int, default=0)
    p_chaos.add_argument("--controlled", action="store_true",
                         help="run the controlled two-tenant resilience "
                              "sweep instead of an application comparison")
    p_chaos.add_argument("--workers", type=int, default=1,
                         help="processes for the controlled sweep's cells")
    p_chaos.add_argument("--max-decisions", type=int, default=20,
                         dest="max_decisions",
                         help="fault/policy decision records to print")
    add_chaos(p_chaos, with_toggle=False)
    add_serve(p_chaos)
    p_chaos.set_defaults(func=cmd_chaos)

    p_trace = sub.add_parser("trace-sim", help="Taobao-scale synthetic evaluation")
    p_trace.add_argument("--services", type=int, default=60)
    p_trace.add_argument("--seed", type=int, default=42)
    p_trace.add_argument("--workers", type=int, default=1,
                         help="processes for the feasibility pre-filter "
                              "(0 = one per CPU)")
    p_trace.set_defaults(func=cmd_trace_sim)

    p_rep = sub.add_parser(
        "report",
        help="autoscaled run with live telemetry: SLA windows, alerts, "
             "scaling decisions",
        epilog="exit codes: 0 success (or --diff with no regressions) · "
               "1 regression verdict from --diff · 2 usage error · "
               "3 runtime failure",
    )
    add_common(p_rep)
    p_rep.add_argument("--duration", type=float, default=3.0,
                       help="simulated minutes")
    p_rep.add_argument("--seed", type=int, default=0)
    p_rep.add_argument("--interval", type=float, default=1.0,
                       help="autoscaler reconcile interval (minutes)")
    p_rep.add_argument("--window", type=float, default=1.0,
                       help="SLA observation window (minutes)")
    p_rep.add_argument("--sampling", "--sampling-rate", type=float,
                       default=1.0, dest="sampling",
                       help="trace head-sampling rate in (0, 1]")
    p_rep.add_argument("--tail-threshold", type=float, default=None,
                       dest="tail_threshold",
                       help="tail-based sampling threshold in ms")
    p_rep.add_argument("--max-traces", type=int, default=1000,
                       help="retain at most this many traces in memory")
    p_rep.add_argument("--format", choices=["tables", "prom"],
                       default="tables",
                       help="tables (default) or Prometheus text "
                            "exposition of the metrics registry")
    p_rep.add_argument("--output", default=None,
                       help="write the JSON run report to this path")
    p_rep.add_argument("--chrome-trace", default=None,
                       help="write a chrome://tracing JSON to this path")
    p_rep.add_argument("--diff", nargs=2, metavar=("A", "B"), default=None,
                       help="skip the run: compare two saved JSON run "
                            "reports (A = baseline, B = candidate) and "
                            "print a regression verdict table; exits 1 "
                            "on any regression")
    p_rep.set_defaults(func=cmd_report)

    p_dash = sub.add_parser(
        "dashboard",
        help="instrumented run -> self-contained HTML dashboard "
             "(latency percentiles, SLA miss rate, breakers, container "
             "timelines)",
    )
    add_common(p_dash)
    p_dash.add_argument("--duration", type=float, default=3.0,
                        help="simulated minutes")
    p_dash.add_argument("--seed", type=int, default=0)
    p_dash.add_argument("--interval", type=float, default=1.0,
                        help="autoscaler reconcile interval (minutes)")
    p_dash.add_argument("--window", type=float, default=1.0,
                        help="SLA observation window (minutes)")
    p_dash.add_argument("--scrape-interval", type=float, default=0.25,
                        dest="scrape_interval",
                        help="TSDB scrape cadence in simulated minutes")
    p_dash.add_argument("--rules", default=None,
                        help="JSON file of recording/alert rules to "
                             "evaluate at every scrape")
    p_dash.add_argument("--output", default="dashboard.html",
                        help="HTML output path (default: dashboard.html)")
    add_chaos(p_dash)
    p_dash.set_defaults(func=cmd_dashboard)

    p_an = sub.add_parser(
        "analyze",
        help="trace analytics: critical paths, SLA blame, priority "
             "inversions, profile drift",
    )
    add_common(p_an)
    p_an.add_argument("--duration", type=float, default=3.0,
                      help="simulated minutes")
    p_an.add_argument("--seed", type=int, default=0)
    p_an.add_argument("--interval", type=float, default=1.0,
                      help="autoscaler reconcile interval (minutes)")
    p_an.add_argument("--window", type=float, default=1.0,
                      help="blame/SLA observation window (minutes)")
    p_an.add_argument("--max-traces", type=int, default=5000,
                      help="retain at most this many traces in memory")
    p_an.add_argument("--top-paths", type=int, default=5,
                      help="slowest traces to break down in full")
    add_sampling(p_an)
    p_an.add_argument("--output", default=None,
                      help="write the JSON run report (with analysis) here")
    p_an.set_defaults(func=cmd_analyze)

    p_srv = sub.add_parser(
        "serve",
        help="serve a saved JSON run report through the observability "
             "plane (replay mode: /, /metrics, /api/*)",
        epilog=_EXIT_CODE_EPILOG,
    )
    p_srv.add_argument("--replay", required=True, metavar="REPORT",
                       help="run-report JSON from `repro report --output` "
                            "or `repro analyze --output`")
    p_srv.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    p_srv.add_argument("--port", type=int, default=8000,
                       help="bind port (default: 8000; 0 = ephemeral)")
    p_srv.set_defaults(func=cmd_serve)

    p_top = sub.add_parser(
        "top",
        help="terminal live view of a serving run: p95/p99 vs SLA, "
             "per-service miss rate, breaker states, container counts",
        epilog=_EXIT_CODE_EPILOG,
    )
    p_top.add_argument("--url", default="http://127.0.0.1:8000",
                       help="base URL of a running observability plane "
                            "(default: http://127.0.0.1:8000)")
    p_top.add_argument("--interval", type=float, default=1.0,
                       help="seconds between refreshes (default: 1)")
    p_top.add_argument("--frames", type=int, default=None,
                       help="render this many frames then exit "
                            "(default: run until Ctrl-C)")
    p_top.set_defaults(func=cmd_top)

    return parser


def _fail(code: int, error) -> int:
    print(f"repro: error: {error}", file=sys.stderr)
    return code


def main(argv: Optional[List[str]] = None) -> int:
    """Parse, run the command, map what it raises to the exit codes.

    The one catch site: a value some constructor rejects (``ValueError``)
    is a usage error whichever step of the recipe built it; an SLA below
    the latency floor, a profile or graph a scheme cannot use, and a file
    or socket the OS refuses are runtime failures.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as error:
        return _fail(EXIT_USAGE, error)
    except InfeasibleSLAError as error:
        return _fail(EXIT_RUNTIME, f"infeasible setting: {error}")
    except (CLIError, ProfileStatisticsError, GraphValidationError, OSError) as error:
        return _fail(EXIT_RUNTIME, error)
    except ValueError as error:
        return _fail(EXIT_USAGE, error)


if __name__ == "__main__":
    sys.exit(main())

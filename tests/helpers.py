"""Shared fixtures and factories for the test suite."""

from __future__ import annotations

import builtins
import copy
import gc
import os
import sys
from typing import Callable, Dict, Iterable, Tuple

import repro
from repro.core import (
    ContainerSpec,
    LatencySegment,
    MicroserviceProfile,
    PiecewiseLatencyModel,
    ServiceSpec,
)
from repro.graphs import DependencyGraph, call


def make_profile(
    name: str,
    slope: float,
    intercept: float,
    resource: float = 1.0,
    cutoff: float = 50.0,
    low_slope_ratio: float = 0.3,
) -> MicroserviceProfile:
    """A realistic two-segment profile.

    The low segment shares the intercept but has a gentler slope (latency
    nearly flat before the cut-off, paper Fig. 3); the high segment is the
    steep post-cutoff line.
    """
    return MicroserviceProfile(
        name=name,
        model=PiecewiseLatencyModel(
            low=LatencySegment(slope * low_slope_ratio, intercept),
            high=LatencySegment(slope, intercept),
            cutoff=cutoff,
        ),
        resource_demand=resource,
        container=ContainerSpec(cpu=0.1, memory_mb=200.0),
    )


def discontinuous_profile(name: str) -> MicroserviceProfile:
    """A fit whose high segment undercuts the low one at the cut-off.

    The Hotel Reservation ``geo-service`` profile that
    ``fit_profiles_from_simulation(sweep_points=6, duration_min=0.4,
    seed=8)`` produces: 18.9 ms on the low segment at the cut-off, −88.3 ms
    on the high one, so its latency averaged over the baselines'
    statistics sweep is negative.
    """
    return MicroserviceProfile(
        name=name,
        model=PiecewiseLatencyModel(
            low=LatencySegment(0.0012452597753617447, 10.526164318202822),
            high=LatencySegment(0.04015876028983655, -359.70641870923066),
            cutoff=6759.375,
        ),
    )


def make_profiles(
    entries: Iterable[Tuple[str, float, float]]
) -> Dict[str, MicroserviceProfile]:
    """Profiles from (name, slope, intercept) triples."""
    return {name: make_profile(name, a, b) for name, a, b in entries}


def fig1_graph() -> DependencyGraph:
    """The dependency graph of paper Fig. 1: T -> (Url || U) -> C."""
    return DependencyGraph(
        service="fig1",
        root=call("T", stages=[[call("Url"), call("U")], [call("C")]]),
    )


def chain_graph(names: Iterable[str], service: str = "chain") -> DependencyGraph:
    """A purely sequential graph: each microservice calls the next."""
    names = list(names)
    node = call(names[-1])
    for name in reversed(names[:-1]):
        node = call(name, stages=[[node]])
    return DependencyGraph(service=service, root=node)


def fig1_service(workload: float = 2000.0, sla: float = 200.0) -> ServiceSpec:
    return ServiceSpec("fig1", fig1_graph(), workload=workload, sla=sla)


FIG1_PARAMS = [("T", 0.5, 2.0), ("Url", 1.0, 3.0), ("U", 2.0, 4.0), ("C", 0.8, 1.0)]


def mask_throughput(report: Dict) -> Dict:
    """A copy of a run report with the engine-throughput fields masked.

    How many events the engine scheduled and processed (and their rate)
    measures how the engine did its work, not what it simulated, so an
    engine that reaches the same spans, latencies and decisions in fewer
    events leaves the rest of the report byte for byte: the top-level
    ``events_processed``, the registry's ``events_scheduled`` counter and
    ``events_per_sec`` / ``events_processed`` gauges, every window's
    ``events_per_sec`` and the TSDB series of those names.
    """
    masked = copy.deepcopy(report)
    masked["events_processed"] = None
    for section, name in (
        ("counters", "events_scheduled"),
        ("gauges", "events_per_sec"),
        ("gauges", "events_processed"),
    ):
        values = masked["registry"][section]
        if name in values:
            values[name] = None
    for window in masked["window_series"]:
        window["events_per_sec"] = None
    for series in masked.get("timeseries", {}).get("series_data", ()):
        if series["name"] in ("events_per_sec", "events_scheduled"):
            series["points"] = None
    return masked


#: The top-level keys of a run report when the equivalence digests
#: (``tests/test_sink_equivalence.py``, ``tests/fixtures/span_equivalence.json``)
#: were taken, in report order.  Later schema additions are additive.
PINNED_REPORT_KEYS = (
    "schema", "duration_min", "warmup_min", "window_min", "events_processed",
    "containers", "services", "windows", "alerts", "decisions",
    "window_series", "registry", "traces_collected", "traces_sampled",
    "traces_kept", "tail_dropped", "tail_threshold_ms", "profiling_samples",
    "late_spans", "error_alerts", "timeseries", "analysis",
)


def pinned_report(report: Dict) -> Dict:
    """A run report projected onto the keys the equivalence digests pin.

    Drops every top-level key outside :data:`PINNED_REPORT_KEYS` and each
    registry histogram's ``buckets`` entry, so a report that only gains
    keys hashes as before; every pinned value and its order is kept.
    """
    pinned = {
        key: value for key, value in report.items() if key in PINNED_REPORT_KEYS
    }
    registry = pinned.get("registry")
    if registry is not None:
        pinned["registry"] = dict(registry)
        pinned["registry"]["histograms"] = {
            name: {key: value for key, value in entry.items() if key != "buckets"}
            for name, entry in registry.get("histograms", {}).items()
        }
    return pinned


def gc_residue(run: Callable[[], object]) -> Tuple[int, int]:
    """What ``run()`` leaves behind that reference counting did not free.

    Runs it with the cycle collector disabled and returns (unreachable
    objects ``gc.collect()`` then finds, growth in ``len(gc.get_objects())``
    after that collection while ``run``'s return value is still alive).
    Objects, not collections: when the collector runs differs between
    Python versions, what it is left to find does not.
    """
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        before = len(gc.get_objects())
        kept = run()  # noqa: F841 - alive while the survivors are counted
        unreachable = gc.collect()
        return unreachable, len(gc.get_objects()) - before
    finally:
        if enabled:
            gc.enable()


#: Frames CPython 3.12 no longer makes (PEP 709 inlines comprehensions).
_INLINED = frozenset(("<listcomp>", "<dictcomp>", "<setcomp>"))


def counted_run(fn: Callable[[], object], modules, repro_only: bool = False):
    """``fn()`` under ``sys.setprofile``, the cycle collector off.

    Returns ``fn``'s result and its counts: Python-level calls
    (``"call"`` events; comprehensions not counted, and with
    ``repro_only`` only frames whose code is under ``repro/``), calls of
    the builtin ``len`` from those frames (``"c_call"`` events) and
    objects built per class of ``modules`` (calls of its ``__init__``).
    """
    inits = {
        cls.__init__.__code__: name
        for module in modules
        for name, cls in vars(module).items()
        if isinstance(cls, type)
        and cls.__module__ == module.__name__
        and "__init__" in vars(cls)
    }
    root = os.path.dirname(repro.__file__) + os.sep if repro_only else ""
    calls = lens = 0
    built = {}

    def profile(frame, event, arg):
        nonlocal calls, lens
        if event == "call":
            code = frame.f_code
            if code.co_name not in _INLINED and code.co_filename.startswith(root):
                calls += 1
            name = inits.get(code)
            if name is not None:
                built[name] = built.get(name, 0) + 1
        elif event == "c_call" and arg is builtins.len:
            if frame.f_code.co_filename.startswith(root):
                lens += 1

    previous, collecting = sys.getprofile(), gc.isenabled()
    gc.collect()  # no finalizer of other code's garbage runs in the count
    gc.disable()
    sys.setprofile(profile)
    try:
        result = fn()
    finally:
        sys.setprofile(previous)
        if collecting:
            gc.enable()
    return result, {
        "python_calls": calls,
        "len_calls": lens,
        "built": dict(sorted(built.items())),
    }


def count_calls(monkeypatch, owner, name: str, counts: Dict, key=None) -> None:
    """Count the calls of ``owner.name`` (a method, or a function of a
    module) in ``counts[key]``, ``key`` defaulting to ``name``."""
    original = getattr(owner, name)
    key = key or name

    def counted(*args, **kwargs):
        counts[key] = counts.get(key, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)

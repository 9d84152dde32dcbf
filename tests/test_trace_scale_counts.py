"""What the Taobao-scale path (§6.5, Fig. 16) costs, in counts.

The population is ``tests/test_allocator_counts.py``'s: the one the
end-to-end ``control_loop`` workload re-decides (60 Taobao services,
seed 0).  Each case records one run:

* ``generate`` — one ``generate_taobao``: the calls of every
  ``numpy.random.Generator`` it draws from, by method, through a counting
  proxy in place of ``numpy.random.default_rng`` (``default_rng`` counts
  the generators made), and the ``ContainerSpec`` instances it builds;
* ``grandslam`` / ``rhythm`` — one ``GrandSLAm().scale`` / ``Rhythm().scale``
  of the feasible services: ``rows_swept``, the rows of every latency
  matrix ``repro.baselines.base`` evaluates (each 2-D ``np.where`` it
  calls), the ``DependencyGraph.end_to_end_series`` folds, and the
  ``MicroserviceStats`` built;
* ``erms`` — one cold ``ErmsScaler().scale`` of the feasible services of
  a freshly generated population (no model of it evaluated before, an
  empty targets memo): ``LatencySegment.latency`` calls.

The pins live in ``tests/fixtures/trace_scale_counts.json``; a change to
generation or to the baselines' statistics moves them before it moves a
timing.
"""

from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest

import repro.baselines.base as base
from repro.baselines import GrandSLAm, Rhythm
from repro.core import ErmsScaler, clear_targets_memo
from repro.core.model import ContainerSpec, LatencySegment
from repro.graphs import DependencyGraph
from repro.workloads import generate_taobao
from tests.pinned import expected
from tests.test_allocator_counts import SHAPE, _population


@contextmanager
def _patched(owner, name, value):
    original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
    setattr(owner, name, value)
    try:
        yield
    finally:
        setattr(owner, name, original)


def _counting(original, counts, key):
    def counted(*args, **kwargs):
        counts[key] += 1
        return original(*args, **kwargs)

    return counted


class _CountingGenerator:
    """A ``Generator`` whose method calls are counted by name."""

    def __init__(self, rng, counts):
        self._rng, self._counts = rng, counts

    def __getattr__(self, name):
        attribute = getattr(self._rng, name)
        if callable(attribute):
            return _counting(attribute, self._counts, name)
        return attribute


class _CountingNumpy:
    """``numpy`` as ``repro.baselines.base`` sees it, counting the rows of
    every 2-D ``where``: the latency matrix of one sweep."""

    def __init__(self, counts):
        self._counts = counts

    def __getattr__(self, name):
        return getattr(np, name)

    def where(self, *args, **kwargs):
        out = np.where(*args, **kwargs)
        if len(args) == 3 and out.ndim == 2:
            self._counts["rows_swept"] += out.shape[0]
        return out


def generate():
    counts = Counter()
    default_rng = np.random.default_rng

    def counting_rng(*args, **kwargs):
        counts["default_rng"] += 1
        return _CountingGenerator(default_rng(*args, **kwargs), counts)

    specs = Counter(container_specs=0)
    with _patched(np.random, "default_rng", counting_rng), _patched(
        ContainerSpec, "__post_init__",
        _counting(ContainerSpec.__post_init__, specs, "container_specs"),
    ):
        generate_taobao(**SHAPE)
    return {"generator_calls": dict(sorted(counts.items())), **specs}


def _statistics(scheme):
    population, specs = _population()
    counts = Counter(rows_swept=0, end_to_end_series=0, microservice_stats=0)
    with _patched(base, "np", _CountingNumpy(counts)), _patched(
        DependencyGraph, "end_to_end_series",
        _counting(DependencyGraph.end_to_end_series, counts, "end_to_end_series"),
    ), _patched(
        base.MicroserviceStats, "__post_init__",
        _counting(base.MicroserviceStats.__post_init__, counts, "microservice_stats"),
    ):
        scheme().scale(specs, population.profiles)
    return dict(sorted(counts.items()))


def erms():
    feasible = {spec.name for spec in _population()[1]}
    # a second population: no model it holds was evaluated by the filter
    population = generate_taobao(**SHAPE)
    specs = [spec for spec in population.services if spec.name in feasible]
    counts = Counter(segment_latency=0)
    clear_targets_memo()
    with _patched(
        LatencySegment, "latency",
        _counting(LatencySegment.latency, counts, "segment_latency"),
    ):
        ErmsScaler().scale(specs, population.profiles)
    clear_targets_memo()
    return dict(counts)


#: case -> the run whose counts are pinned
CASES = {
    "generate": generate,
    "grandslam": lambda: _statistics(GrandSLAm),
    "rhythm": lambda: _statistics(Rhythm),
    "erms": erms,
}


def record(case):
    return CASES[case]()


@pytest.mark.parametrize("case", sorted(CASES))
def test_trace_scale_counts_pinned(case):
    assert record(case) == expected(__name__)[case]

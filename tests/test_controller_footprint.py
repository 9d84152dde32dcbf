"""What a deployed control loop keeps from one period to the next, in counts.

The run is ``tests/test_allocator_counts.py``'s population (the one the
end-to-end ``control_loop`` workload re-decides) on 100 homogeneous hosts,
driven through ``ErmsController`` for a few periods of ``reconcile`` at
that minute's rates and a one-minute ``tick``, from a cold targets memo.
It records:

* ``reports_alive`` — ``ControllerReport`` objects still reachable after
  the run and a ``gc.collect()``, with the controller alive and no report
  held by the test;
* ``events`` — the controller API's ``ApiEvent`` log, counted by kind;
* ``memo_entries`` — entries of the targets memo after the run;
* ``host_walks`` — ``Host.requested`` calls (one walk of a host's
  containers each) in the last period.

The pins live in ``tests/fixtures/controller_footprint.json``; what a
period leaves behind moves them before it moves a memory figure.
"""

import gc
from collections import Counter

import pytest

from repro.core import (
    Cluster,
    ControllerReport,
    ErmsController,
    clear_targets_memo,
    targets_memo_stats,
)
from repro.core.provisioning import Host
from tests.pinned import expected
from tests.test_allocator_counts import _population

HOSTS = 100
PERIODS = 6
TICK_S = 60.0

#: the one run pinned
CASES = {"control_loop": PERIODS}


def record(case):
    """``{"reports_alive", "events", "memo_entries", "host_walks"}`` of the run."""
    population, specs = _population()
    controller = ErmsController(specs, Cluster.homogeneous(HOSTS), population.profiles)

    def rates(period):
        return {spec.name: float(population.rates[spec.name](period)) for spec in specs}

    walks = 0
    requested = Host.requested

    def counted_requested(self, sizes):
        nonlocal walks
        walks += 1
        return requested(self, sizes)

    clear_targets_memo()
    try:
        for period in range(CASES[case]):
            if period == CASES[case] - 1:
                Host.requested = counted_requested
            controller.reconcile(rates(period))
            controller.tick(TICK_S)
    finally:
        Host.requested = requested
    gc.collect()
    counts = {
        "reports_alive": sum(
            isinstance(o, ControllerReport) for o in gc.get_objects()
        ),
        "events": dict(sorted(Counter(e.kind for e in controller.api.events).items())),
        "memo_entries": targets_memo_stats()["entries"],
        "host_walks": walks,
    }
    clear_targets_memo()
    return counts


@pytest.mark.parametrize("case", sorted(CASES))
def test_controller_footprint_pinned(case):
    assert record(case) == expected(__name__)[case]

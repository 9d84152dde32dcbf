"""How many simulations each experiment runner starts, on small fixed grids.

A runner's cost is its number of discrete-event replays: one
``ClusterSimulator.run`` each.  The counts of the six runners that replay
an allocation (static sweep, dynamic workload, interference provisioner
search, resilience sweep, δ sweep, profiling probes) are pinned in
``tests/fixtures/replay_counts.json``; a change that starts more replays
for the same grid fails here.  The grids repeat themselves where the
paper's setups do — schemes that deploy the same containers, a policy
bundle listed under two labels, a δ listed twice — so a replay shared by
equal cells shows as a lower count.
"""

import pytest

from repro.baselines import GrandSLAm, Rhythm
from repro.core import ErmsScaler
from repro.core.provisioning import (
    InterferenceAwareProvisioner,
    KubernetesDefaultProvisioner,
)
from repro.experiments import (
    fit_profiles_from_simulation,
    run_delta_sweep,
    run_dynamic_workload,
    run_interference_comparison,
    run_resilience_sweep,
    run_static_sweep,
)
from repro.resilience import ResiliencePolicies
from repro.simulator.simulation import ClusterSimulator
from repro.workloads import hotel_reservation
from tests.pinned import expected


def static():
    run_static_sweep(
        hotel_reservation(),
        [ErmsScaler(), ErmsScaler(use_priority=False), GrandSLAm(), Rhythm()],
        workloads=[5_000.0],
        slas=[150.0, 300.0],
        simulate=True,
        duration_min=0.1,
        warmup_min=0.02,
    )


def dynamic():
    run_dynamic_workload(
        hotel_reservation(),
        [ErmsScaler(use_priority=False), GrandSLAm()],
        rate=lambda minute: 4_000.0,
        sla=300.0,
        total_min=2.0,
        window_min=1.0,
        sim_duration_min=0.1,
    )


def interference():
    run_interference_comparison(
        hotel_reservation(),
        scaler=ErmsScaler(),
        provisioners=[
            InterferenceAwareProvisioner(),
            KubernetesDefaultProvisioner(),
        ],
        workload=3_000.0,
        sla=300.0,
        hosts=4,
        background=(),
        duration_min=0.1,
        max_growth_rounds=2,
    )


def resilience():
    run_resilience_sweep(
        policy_grid=[
            ("no-policy", ResiliencePolicies.disabled()),
            ("full", ResiliencePolicies.default()),
            ("observe-only", ResiliencePolicies.disabled()),
        ],
        duration_min=0.2,
        warmup_min=0.05,
    )


def delta():
    run_delta_sweep(
        deltas=(0.0, 0.05, 0.2, 0.05), duration_min=0.1, warmup_min=0.02
    )


def probe():
    app = hotel_reservation()
    names = sorted(app.simulated)[:2]
    fit_profiles_from_simulation(
        {name: app.simulated[name] for name in names},
        sweep_points=3,
        duration_min=0.05,
    )


#: runner -> a small fixed grid through it
CASES = {
    "static": static,
    "dynamic": dynamic,
    "interference": interference,
    "resilience": resilience,
    "delta": delta,
    "probe": probe,
}


def record(case):
    """``ClusterSimulator.run`` calls while ``case`` runs its grid."""
    calls = 0
    run = ClusterSimulator.run

    def counted(simulator):
        nonlocal calls
        calls += 1
        return run(simulator)

    ClusterSimulator.run = counted
    try:
        CASES[case]()
    finally:
        ClusterSimulator.run = run
    return calls


@pytest.mark.parametrize("case", sorted(CASES))
def test_replay_count_pinned(case):
    assert record(case) == expected(__name__)[case]

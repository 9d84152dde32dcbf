"""Ablation — which shared resources the interference model needs (§5.2/§9).

Paper §5.2: "CPU and memory utilization alone are sufficient for
achieving good profiling performance" — but the model "can be easily
extended to include various shared resources, including memory bandwidth,
LLC, and network bandwidth", which §9 defers to future work.  Both halves
are measured here with the one Eq. 15 fitter, given two or three resource
series: on a workload whose interference is CPU/memory-dominated the extra
feature buys nothing, while on a memory-bandwidth-bound workload it
matters.
"""

from repro.experiments import format_table
from repro.profiling import accuracy_score, fit_interference_model

from conftest import run_once

from test_ablation_support import extended_synthetic_samples, split_extended

REGIMES = {
    # The paper's claim: typical e-commerce/web microservices.
    "cpu-mem dominated": 0.0,
    # The §9 case for the extension: bandwidth-bound colocation.
    "mbw dominated": 2.0,
}


def _run():
    rows = []
    for label, mbw_weight in REGIMES.items():
        train, test = split_extended(
            extended_synthetic_samples(mbw_weight=mbw_weight, seed=31)
        )
        full = fit_interference_model(train[0], train[1], train[2])
        reduced = fit_interference_model(
            train[0],
            {"cpu": train[1]["cpu"], "memory": train[1]["memory"]},
            train[2],
        )
        acc_full = accuracy_score(test[2], full.predict(test[0], test[1]))
        acc_reduced = accuracy_score(
            test[2],
            reduced.predict(
                test[0],
                {"cpu": test[1]["cpu"], "memory": test[1]["memory"]},
            ),
        )
        rows.append(
            {
                "regime": label,
                "cpu+mem accuracy": acc_reduced,
                "cpu+mem+mbw accuracy": acc_full,
                "gain_from_mbw": acc_full - acc_reduced,
            }
        )
    return rows


def test_ablation_interference_features(benchmark, report):
    rows = run_once(benchmark, _run)
    report(
        "ablation_interference_features",
        format_table(rows, "Ablation - interference feature set", "{:.3f}"),
    )
    by_regime = {row["regime"]: row for row in rows}
    # §5.2's claim: cpu+mem suffice on typical workloads.
    typical = by_regime["cpu-mem dominated"]
    assert typical["cpu+mem accuracy"] >= 0.75
    assert abs(typical["gain_from_mbw"]) <= 0.1
    # §9's case: the extension pays when bandwidth drives interference.
    bandwidth = by_regime["mbw dominated"]
    assert bandwidth["gain_from_mbw"] > 0.03

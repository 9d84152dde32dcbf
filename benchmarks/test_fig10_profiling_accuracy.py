"""Fig. 10 — profiling accuracy of the piecewise model vs XGBoost and NN.

Paper (a): testing accuracy 83-88% for all three learners on both
DeathStarBench and Alibaba (Taobao) samples — the simple piecewise model
is on par with complex learners.
Paper (b): sweeping the training-set size, Erms keeps >=81% accuracy with
70% of the samples while the NN degrades sharply with less data.

Measured here: one-day synthetic profiling datasets (1440 per-minute
samples, interference fixed per hour as with iBench injection), train on
the first 22 hours, test on the last two.  Accuracy = 1 − MAPE.  The NN
baseline gets interaction features (Cγ, Mγ) and long training — it still
needs far more data than the piecewise fit, which is the paper's point.
"""

import numpy as np

from repro.experiments import format_table
from repro.profiling import (
    GradientBoostedTrees,
    MLPRegressor,
    SyntheticMicroservice,
    accuracy_score,
    fit_interference_model,
    generate_synthetic_day,
)

from conftest import run_once

TRAIN_FRACTION = 22 / 24

DATASETS = {
    # A DeathStarBench-like microservice in a dedicated cluster: moderate
    # interference sensitivity, low measurement noise.
    "deathstarbench": dict(
        microservice=SyntheticMicroservice(sigma0=150.0, sigma_slope=0.4),
        noise=0.04,
        seed=21,
    ),
    # An Alibaba-like microservice colocated with batch jobs: stronger
    # interference sensitivity and noisier tails.
    "alibaba": dict(
        microservice=SyntheticMicroservice(
            alpha2=0.7, beta2=1.0, sigma0=150.0, sigma_slope=0.4
        ),
        noise=0.08,
        seed=22,
    ),
}


def _rich_features(data):
    """γ, C, M plus the Eq. 15 interactions Cγ and Mγ."""
    return np.column_stack(
        [
            data.loads,
            data.cpus,
            data.memories,
            data.cpus * data.loads,
            data.memories * data.loads,
        ]
    )


def _erms_accuracy(train, test):
    model = fit_interference_model(
        train.loads, {"cpu": train.cpus, "memory": train.memories},
        train.latencies,
    )
    predictions = model.predict(
        test.loads, {"cpu": test.cpus, "memory": test.memories}
    )
    return accuracy_score(test.latencies, predictions)


def _gbrt_accuracy(train, test):
    model = GradientBoostedTrees(n_estimators=120)
    model.fit(_rich_features(train), train.latencies)
    return accuracy_score(test.latencies, model.predict(_rich_features(test)))


def _mlp_accuracy(train, test, seed=0):
    model = MLPRegressor(epochs=400, seed=seed)
    model.fit(_rich_features(train), train.latencies)
    predictions = np.maximum(model.predict(_rich_features(test)), 0.1)
    return accuracy_score(test.latencies, predictions)


def _run_fig10a():
    rows = []
    for name, params in DATASETS.items():
        data = generate_synthetic_day(
            params["microservice"],
            minutes=1440,
            noise=params["noise"],
            seed=params["seed"],
        )
        train, test = data.split(TRAIN_FRACTION)
        rows.append(
            {
                "dataset": name,
                "erms": _erms_accuracy(train, test),
                "xgboost_like": _gbrt_accuracy(train, test),
                "nn": _mlp_accuracy(train, test),
            }
        )
    return rows


def test_fig10a_profiling_accuracy(benchmark, report):
    rows = run_once(benchmark, _run_fig10a)
    report(
        "fig10a_profiling_accuracy",
        format_table(rows, "Fig. 10a - testing accuracy by learner (paper: 83-88%)"),
    )
    for row in rows:
        # Erms is in the paper's accuracy band and competitive with the
        # complex learners on both dataset styles.
        assert row["erms"] >= 0.75
        assert row["erms"] >= row["xgboost_like"] - 0.08
        assert row["erms"] >= row["nn"] - 0.08


def _run_fig10b():
    params = DATASETS["alibaba"]
    data = generate_synthetic_day(
        params["microservice"], minutes=1440, noise=params["noise"], seed=22
    )
    train, test = data.split(TRAIN_FRACTION)
    rows = []
    for fraction in (0.3, 0.5, 0.7, 1.0):
        subset = train.subsample(fraction, seed=int(fraction * 100))
        rows.append(
            {
                "train_fraction": fraction,
                "erms": _erms_accuracy(subset, test),
                "nn": _mlp_accuracy(subset, test, seed=1),
            }
        )
    return rows


def test_fig10b_training_size_sweep(benchmark, report):
    rows = run_once(benchmark, _run_fig10b)
    report(
        "fig10b_training_size",
        format_table(rows, "Fig. 10b - accuracy vs training fraction"),
    )
    by_fraction = {row["train_fraction"]: row for row in rows}
    # Paper: Erms keeps >=81% accuracy at 70% of the training data.
    assert by_fraction[0.7]["erms"] >= 0.75
    # Erms stays robust even at 30%, where the NN is far behind.
    assert by_fraction[0.3]["erms"] >= 0.70
    assert by_fraction[0.3]["nn"] <= by_fraction[0.3]["erms"]
    # Shrinking data hurts the NN at least as much as Erms.
    erms_drop = by_fraction[1.0]["erms"] - by_fraction[0.3]["erms"]
    nn_drop = by_fraction[1.0]["nn"] - by_fraction[0.3]["nn"]
    assert nn_drop >= erms_drop - 0.02

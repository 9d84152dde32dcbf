"""Tests for the generalized (multi-resource) interference model (§9)."""

import numpy as np
import pytest

from repro.profiling import accuracy_score, fit_interference_model


def synthetic_samples(
    n=1440,
    mbw_weight=0.0,
    seed=0,
    noise=0.04,
):
    """Per-minute samples whose steep slope depends on cpu, mem, and
    (optionally) memory bandwidth pressure."""
    rng = np.random.default_rng(seed)
    hours = (n + 59) // 60
    levels = rng.uniform(0.1, 0.9, size=(hours, 3))  # cpu, mem, mbw
    loads = rng.uniform(1.0, 250.0, size=n)
    cpu = np.empty(n)
    mem = np.empty(n)
    mbw = np.empty(n)
    latencies = np.empty(n)
    for index in range(n):
        c, m, w = levels[index // 60]
        cpu[index], mem[index], mbw[index] = c, m, w
        sigma = max(150.0 * (1.0 - 0.4 * (c + m) / 2.0), 1.0)
        low_slope = 0.02 * c + 0.03 * m + 0.01
        load = loads[index]
        if load <= sigma:
            truth = low_slope * load + 2.0
        else:
            high_slope = 0.5 * c + 0.8 * m + mbw_weight * w + 0.1
            truth = (low_slope * sigma + 2.0) + high_slope * (load - sigma)
        latencies[index] = truth * rng.lognormal(0.0, noise)
    return loads, {"cpu": cpu, "memory": mem, "mbw": mbw}, latencies


def split(arrays, fraction=22 / 24):
    loads, resources, latencies = arrays
    k = int(len(loads) * fraction)
    train = (loads[:k], {n: v[:k] for n, v in resources.items()}, latencies[:k])
    test = (loads[k:], {n: v[k:] for n, v in resources.items()}, latencies[k:])
    return train, test


class TestFitExtendedModel:
    def test_extra_resource_pays_when_it_matters(self):
        """§9: when memory bandwidth drives latency, modeling it helps."""
        train, test = split(synthetic_samples(mbw_weight=1.5, seed=2))
        with_mbw = fit_interference_model(train[0], train[1], train[2])
        without = fit_interference_model(
            train[0],
            {"cpu": train[1]["cpu"], "memory": train[1]["memory"]},
            train[2],
        )
        acc_with = accuracy_score(
            test[2], with_mbw.predict(test[0], test[1])
        )
        acc_without = accuracy_score(
            test[2],
            without.predict(
                test[0], {"cpu": test[1]["cpu"], "memory": test[1]["memory"]}
            ),
        )
        assert acc_with > acc_without

    def test_model_at_conditions_on_vector(self):
        train, _ = split(synthetic_samples(mbw_weight=1.5, seed=3))
        model = fit_interference_model(train[0], train[1], train[2])
        calm = model.model_at({"cpu": 0.2, "memory": 0.2, "mbw": 0.2})
        busy = model.model_at({"cpu": 0.8, "memory": 0.8, "mbw": 0.8})
        assert busy.high.slope > calm.high.slope

    def test_missing_resources_default_to_zero(self):
        train, _ = split(synthetic_samples(seed=4))
        model = fit_interference_model(train[0], train[1], train[2])
        conditioned = model.model_at({"cpu": 0.5})  # memory, mbw default 0
        assert conditioned.low.slope > 0

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one resource"):
            fit_interference_model(np.ones(10), {}, np.ones(10))
        with pytest.raises(ValueError, match="same length"):
            fit_interference_model(
                np.ones(10), {"cpu": np.ones(9)}, np.ones(10)
            )
        with pytest.raises(ValueError, match="at least 8"):
            fit_interference_model(
                np.ones(4), {"cpu": np.ones(4)}, np.ones(4)
            )

    def test_resource_names_sorted_and_stable(self):
        train, _ = split(synthetic_samples(seed=5))
        model = fit_interference_model(train[0], train[1], train[2])
        assert model.resource_names == ("cpu", "mbw", "memory")

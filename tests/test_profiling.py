"""Tests for repro.profiling: piecewise fit, tree, Eq. 15 model, metrics."""

import numpy as np
import pytest

from repro.profiling import (
    DecisionTreeRegressor,
    ProfilingDataset,
    SyntheticMicroservice,
    accuracy_score,
    fit_interference_model,
    fit_piecewise,
    generate_synthetic_day,
    mape,
    r_squared,
    within_tolerance,
)


def synthetic_piecewise(n=300, cutoff=100.0, a1=0.05, a2=1.0, b=5.0, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    loads = rng.uniform(1.0, 250.0, size=n)
    b2 = b + (a1 - a2) * cutoff  # continuous at the cutoff (may be negative)
    latencies = np.where(loads <= cutoff, a1 * loads + b, a2 * loads + b2)
    if noise:
        latencies = latencies * rng.lognormal(0.0, noise)
    return loads, latencies


class TestFitPiecewise:
    def test_recovers_cutoff(self):
        loads, latencies = synthetic_piecewise()
        fit = fit_piecewise(loads, latencies)
        assert fit.model.cutoff == pytest.approx(100.0, rel=0.15)

    def test_recovers_slopes(self):
        loads, latencies = synthetic_piecewise()
        fit = fit_piecewise(loads, latencies)
        assert fit.model.low.slope == pytest.approx(0.05, rel=0.3)
        assert fit.model.high.slope == pytest.approx(1.0, rel=0.15)

    def test_high_r_squared_on_clean_data(self):
        loads, latencies = synthetic_piecewise()
        fit = fit_piecewise(loads, latencies)
        assert fit.r_squared > 0.99

    def test_robust_to_noise(self):
        loads, latencies = synthetic_piecewise(noise=0.1, seed=7)
        fit = fit_piecewise(loads, latencies)
        assert fit.r_squared > 0.85
        assert fit.model.high.slope == pytest.approx(1.0, rel=0.3)

    def test_predict_matches_model(self):
        loads, latencies = synthetic_piecewise()
        fit = fit_piecewise(loads, latencies)
        grid = np.array([10.0, 150.0])
        predictions = fit.predict(grid)
        assert predictions[0] == pytest.approx(fit.model.latency(10.0))
        assert predictions[1] == pytest.approx(fit.model.latency(150.0))

    def test_single_line_data_falls_back(self):
        rng = np.random.default_rng(0)
        loads = rng.uniform(1.0, 100.0, 50)
        latencies = 2.0 * loads + 1.0
        fit = fit_piecewise(loads, latencies)
        # Both segments should be (nearly) the same line.
        assert fit.model.low.slope == pytest.approx(2.0, rel=0.05)
        assert fit.model.high.slope == pytest.approx(2.0, rel=0.05)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="same shape"):
            fit_piecewise(np.ones(3), np.ones(4))

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            fit_piecewise(np.array([1.0]), np.array([1.0]))

    def test_non_finite_rejected(self):
        loads, latencies = synthetic_piecewise(n=50)
        for bad in (np.nan, np.inf, -np.inf):
            for series in ("loads", "latencies"):
                arrays = {"loads": loads.copy(), "latencies": latencies.copy()}
                arrays[series][7] = bad
                with pytest.raises(ValueError, match=f"{series} must be finite"):
                    fit_piecewise(arrays["loads"], arrays["latencies"])

    def test_negative_intercepts_are_fitted_unbiased(self):
        """The steep segment's extrapolated intercept may be negative."""
        rng = np.random.default_rng(3)
        loads = rng.uniform(50.0, 100.0, 200)
        latencies = 3.0 * loads - 100.0 + rng.normal(0, 1, 200)
        fit = fit_piecewise(loads, latencies)
        assert fit.model.high.slope == pytest.approx(3.0, rel=0.1)
        assert fit.model.high.intercept == pytest.approx(-100.0, rel=0.2)


class TestDecisionTree:
    def test_fits_step_function(self):
        x = np.linspace(0, 1, 100).reshape(-1, 1)
        y = np.where(x.ravel() < 0.5, 1.0, 5.0)
        tree = DecisionTreeRegressor(max_depth=2, min_samples_leaf=2)
        tree.fit(x, y)
        assert tree.predict(np.array([[0.2]]))[0] == pytest.approx(1.0)
        assert tree.predict(np.array([[0.8]]))[0] == pytest.approx(5.0)

    def test_respects_max_depth(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1, (200, 2))
        y = x[:, 0] * 3 + x[:, 1] + rng.normal(0, 0.01, 200)
        tree = DecisionTreeRegressor(max_depth=3).fit(x, y)
        assert tree.depth() <= 3

    def test_constant_target_single_leaf(self):
        x = np.arange(20, dtype=float).reshape(-1, 1)
        y = np.full(20, 7.0)
        tree = DecisionTreeRegressor().fit(x, y)
        assert tree.depth() == 0
        assert tree.predict(np.array([[100.0]]))[0] == pytest.approx(7.0)

    def test_predict_before_fit_rejected(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            DecisionTreeRegressor().predict(np.zeros((1, 1)))

    def test_empty_fit_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            DecisionTreeRegressor().fit(np.zeros((0, 2)), np.zeros(0))

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError, match="feature rows"):
            DecisionTreeRegressor().fit(np.zeros((3, 2)), np.zeros(4))

    def test_min_samples_leaf_enforced(self):
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0.0, 0.0, 10.0, 10.0])
        tree = DecisionTreeRegressor(max_depth=5, min_samples_leaf=3).fit(x, y)
        # No split can leave 3 on both sides of 4 samples.
        assert tree.depth() == 0

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            DecisionTreeRegressor(max_depth=-1)
        with pytest.raises(ValueError):
            DecisionTreeRegressor(min_samples_leaf=0)


class TestInterferenceModel:
    def test_fits_synthetic_ground_truth(self):
        truth = SyntheticMicroservice()
        data = generate_synthetic_day(truth, noise=0.03, seed=1)
        train, test = data.split(22 / 24)
        model = fit_interference_model(
            train.loads,
            {"cpu": train.cpus, "memory": train.memories},
            train.latencies,
        )
        predictions = model.predict(
            test.loads, {"cpu": test.cpus, "memory": test.memories}
        )
        assert accuracy_score(test.latencies, predictions) >= 0.93

    def test_a_missing_resource_predicts_as_idle(self):
        """As in ``cutoff`` / ``model_at``, a fitted resource left out of
        the mapping is idle: the same prediction as passing zeros."""
        data = generate_synthetic_day(SyntheticMicroservice(), noise=0.03, seed=1)
        model = fit_interference_model(
            data.loads, {"cpu": data.cpus, "memory": data.memories}, data.latencies
        )
        alone = model.predict(data.loads, {"cpu": data.cpus})
        zeros = model.predict(
            data.loads, {"cpu": data.cpus, "memory": np.zeros(len(data.loads))}
        )
        assert alone.tolist() == zeros.tolist()
        assert model.cutoff({"cpu": 0.5}) == model.cutoff({"cpu": 0.5, "memory": 0.0})

    def test_slope_grows_with_interference(self):
        """The Fig. 3 observation: busier hosts mean steeper latency."""
        truth = SyntheticMicroservice()
        data = generate_synthetic_day(truth, noise=0.02, seed=2)
        model = fit_interference_model(
            data.loads, {"cpu": data.cpus, "memory": data.memories},
            data.latencies,
        )
        calm = model.model_at({"cpu": 0.2, "memory": 0.2})
        busy = model.model_at({"cpu": 0.8, "memory": 0.8})
        assert busy.high.slope > calm.high.slope

    def test_cutoff_moves_forward_with_interference(self):
        truth = SyntheticMicroservice(sigma_slope=0.6)
        data = generate_synthetic_day(truth, noise=0.02, seed=3, minutes=2880)
        model = fit_interference_model(
            data.loads, {"cpu": data.cpus, "memory": data.memories},
            data.latencies,
        )
        assert model.cutoff({"cpu": 0.8, "memory": 0.8}) < model.cutoff(
            {"cpu": 0.15, "memory": 0.15}
        )

    def test_model_at_produces_valid_piecewise(self):
        truth = SyntheticMicroservice()
        data = generate_synthetic_day(truth, seed=4)
        model = fit_interference_model(
            data.loads, {"cpu": data.cpus, "memory": data.memories},
            data.latencies,
        )
        conditioned = model.model_at({"cpu": 0.5, "memory": 0.5})
        assert conditioned.low.slope > 0
        assert conditioned.high.slope > 0
        assert conditioned.cutoff > 0

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(ValueError, match="same length"):
            fit_interference_model(
                np.ones(10), {"cpu": np.ones(9), "memory": np.ones(10)},
                np.ones(10),
            )

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError, match="at least 8"):
            fit_interference_model(
                np.ones(4), {"cpu": np.ones(4), "memory": np.ones(4)},
                np.ones(4),
            )

    def test_non_finite_rejected(self):
        data = generate_synthetic_day(SyntheticMicroservice(), minutes=120)
        for bad in (np.nan, np.inf):
            for series, label in (
                ("loads", "loads"),
                ("cpus", "resource 'cpu'"),
                ("memories", "resource 'memory'"),
                ("latencies", "latencies"),
            ):
                arrays = {
                    name: getattr(data, name).copy()
                    for name in ("loads", "cpus", "memories", "latencies")
                }
                arrays[series][3] = bad
                with pytest.raises(ValueError, match=f"{label} must be finite"):
                    fit_interference_model(
                        arrays["loads"],
                        {"cpu": arrays["cpus"], "memory": arrays["memories"]},
                        arrays["latencies"],
                    )


class TestDataset:
    def test_generate_shapes(self):
        data = generate_synthetic_day(SyntheticMicroservice(), minutes=120)
        assert len(data) == 120
        assert data.features().shape == (120, 3)

    def test_split_chronological(self):
        data = generate_synthetic_day(SyntheticMicroservice(), minutes=100)
        train, test = data.split(0.8)
        assert len(train) == 80 and len(test) == 20
        assert np.array_equal(train.loads, data.loads[:80])

    def test_split_bounds(self):
        data = generate_synthetic_day(SyntheticMicroservice(), minutes=100)
        with pytest.raises(ValueError, match="train_fraction"):
            data.split(0.0)

    def test_subsample(self):
        data = generate_synthetic_day(SyntheticMicroservice(), minutes=200)
        sub = data.subsample(0.25, seed=1)
        assert len(sub) == 50

    def test_interference_fixed_within_hour(self):
        data = generate_synthetic_day(SyntheticMicroservice(), minutes=120)
        assert len(set(data.cpus[:60])) == 1
        assert len(set(data.cpus[60:120])) == 1

    def test_custom_interference_levels(self):
        levels = np.array([[0.3, 0.4], [0.7, 0.8]])
        data = generate_synthetic_day(
            SyntheticMicroservice(), minutes=120, interference_levels=levels
        )
        assert data.cpus[0] == pytest.approx(0.3)
        assert data.memories[90] == pytest.approx(0.8)

    def test_insufficient_interference_levels_rejected(self):
        with pytest.raises(ValueError, match="hours"):
            generate_synthetic_day(
                SyntheticMicroservice(),
                minutes=180,
                interference_levels=np.array([[0.3, 0.4]]),
            )

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(ValueError, match="same length"):
            ProfilingDataset(np.ones(3), np.ones(3), np.ones(3), np.ones(2))


class TestAccuracyMetrics:
    def test_perfect_prediction(self):
        y = np.array([1.0, 2.0, 3.0])
        assert accuracy_score(y, y) == pytest.approx(1.0)
        assert mape(y, y) == pytest.approx(0.0)
        assert r_squared(y, y) == pytest.approx(1.0)
        assert within_tolerance(y, y) == pytest.approx(1.0)

    def test_known_mape(self):
        actual = np.array([10.0, 20.0])
        predicted = np.array([11.0, 18.0])
        assert mape(actual, predicted) == pytest.approx(0.1)
        assert accuracy_score(actual, predicted) == pytest.approx(0.9)

    def test_accuracy_clipped_at_zero(self):
        actual = np.array([1.0])
        predicted = np.array([10.0])
        assert accuracy_score(actual, predicted) == 0.0

    def test_mape_requires_positive_actuals(self):
        with pytest.raises(ValueError, match="positive"):
            mape(np.array([0.0]), np.array([1.0]))

    def test_within_tolerance_fraction(self):
        actual = np.array([10.0, 10.0, 10.0, 10.0])
        predicted = np.array([10.5, 11.0, 13.0, 20.0])
        # relative errors 0.05, 0.1, 0.3, 1.0 -> two within 20%
        assert within_tolerance(actual, predicted, 0.2) == pytest.approx(0.5)

    def test_r_squared_of_mean_prediction_is_zero(self):
        actual = np.array([1.0, 2.0, 3.0])
        predicted = np.full(3, 2.0)
        assert r_squared(actual, predicted) == pytest.approx(0.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            mape(np.ones(2), np.ones(3))

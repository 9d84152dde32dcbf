"""Tests for repro.workloads.prediction: Holt forecasting for scaling."""

import numpy as np
import pytest

from repro.workloads import (
    DiurnalRate,
    HoltPredictor,
    LastValuePredictor,
)


def backtest(predictor, series):
    """One next-step forecast per observation of ``series``."""
    return [predictor.observe_and_predict(value, 1.0) for value in series]


class TestLastValuePredictor:
    def test_predicts_last_observation(self):
        predictor = LastValuePredictor()
        predictor.observe(100.0)
        predictor.observe(250.0)
        assert predictor.predict() == 250.0
        assert predictor.predict(horizon=5.0) == 250.0

    def test_predict_before_observe_rejected(self):
        with pytest.raises(RuntimeError, match="no observations"):
            LastValuePredictor().predict()

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            LastValuePredictor().observe(-1.0)


class TestHoltPredictor:
    def test_constant_series(self):
        predictor = HoltPredictor()
        for _ in range(10):
            predictor.observe(500.0)
        assert predictor.predict() == pytest.approx(500.0, rel=0.01)

    def test_linear_trend_extrapolated(self):
        predictor = HoltPredictor(alpha=0.8, beta=0.8)
        for step in range(20):
            predictor.observe(100.0 + 10.0 * step)
        # Last observation 290; one step ahead should be near 300.
        assert predictor.predict(1.0) == pytest.approx(300.0, rel=0.05)

    def test_forecast_floored_at_zero(self):
        predictor = HoltPredictor(alpha=0.9, beta=0.9)
        for value in (100.0, 50.0, 10.0, 1.0):
            predictor.observe(value)
        assert predictor.predict(horizon=50.0) == 0.0

    def test_beats_last_value_on_rising_edge(self):
        """The reason to predict: smaller lag error on ramps."""
        rate = DiurnalRate(base=10_000.0, amplitude=0.6, period_min=60.0,
                           noise_sigma=0.0, seed=0)
        series = [rate(float(minute)) for minute in range(0, 60, 3)]
        actuals = np.array(series[1:])
        holt = np.array(backtest(HoltPredictor(), series)[:-1])
        naive = np.array(backtest(LastValuePredictor(), series)[:-1])
        holt_error = float(np.mean(np.abs(holt - actuals)))
        naive_error = float(np.mean(np.abs(naive - actuals)))
        assert holt_error < naive_error

    def test_invalid_params(self):
        with pytest.raises(ValueError, match="alpha"):
            HoltPredictor(alpha=0.0)
        with pytest.raises(ValueError, match="beta"):
            HoltPredictor(beta=1.5)

    def test_predict_before_observe_rejected(self):
        with pytest.raises(RuntimeError, match="no observations"):
            HoltPredictor().predict()


class TestBacktest:
    def test_one_forecast_per_observation(self):
        forecasts = backtest(LastValuePredictor(), [1.0, 2.0, 3.0])
        assert forecasts == [1.0, 2.0, 3.0]

"""Short-horizon workload prediction for proactive scaling.

Erms scales for the *observed* workload; with monitoring delay, reactive
scaling under-provisions on rising edges (our Fig. 13 harness models
this).  A small forecaster closes most of that gap: scale for the
predicted rate one horizon ahead instead of the last observation.  This
is a natural extension the paper leaves implicit ("all schemes could
respond to the workload changes promptly"); the ablation benchmark
quantifies it.

Implementations are deliberately simple and dependency-free:

* :class:`LastValuePredictor` — the reactive baseline (predicts no change);
* :class:`HoltPredictor` — double exponential smoothing (level + trend),
  the classic choice for short-horizon rate forecasting.
"""

from __future__ import annotations

import abc
from typing import Optional


class WorkloadPredictor(abc.ABC):
    """Online one-step-ahead rate predictor."""

    @abc.abstractmethod
    def observe(self, rate: float) -> None:
        """Feed one observation (requests/minute)."""

    @abc.abstractmethod
    def predict(self, horizon: float = 1.0) -> float:
        """Forecast the rate ``horizon`` observation intervals ahead."""

    def observe_and_predict(self, rate: float, horizon: float = 1.0) -> float:
        self.observe(rate)
        return self.predict(horizon)


class LastValuePredictor(WorkloadPredictor):
    """Predicts the last observed value — purely reactive scaling."""

    def __init__(self) -> None:
        self._last: Optional[float] = None

    def observe(self, rate: float) -> None:
        if rate < 0:
            raise ValueError(f"rate must be non-negative, got {rate}")
        self._last = float(rate)

    def predict(self, horizon: float = 1.0) -> float:
        if self._last is None:
            raise RuntimeError("no observations yet")
        return self._last


class HoltPredictor(WorkloadPredictor):
    """Holt's linear (double exponential) smoothing.

    level_t = α·y_t + (1−α)(level + trend)
    trend_t = β·(level_t − level) + (1−β)·trend
    forecast(h) = level + h·trend  (floored at zero)

    Args:
        alpha: Level smoothing factor in (0, 1].
        beta: Trend smoothing factor in (0, 1].
    """

    def __init__(self, alpha: float = 0.6, beta: float = 0.4):
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if not 0.0 < beta <= 1.0:
            raise ValueError(f"beta must be in (0, 1], got {beta}")
        self.alpha = alpha
        self.beta = beta
        self._level: Optional[float] = None
        self._trend: float = 0.0

    def observe(self, rate: float) -> None:
        if rate < 0:
            raise ValueError(f"rate must be non-negative, got {rate}")
        if self._level is None:
            self._level = float(rate)
            self._trend = 0.0
            return
        previous = self._level
        self._level = self.alpha * rate + (1.0 - self.alpha) * (
            self._level + self._trend
        )
        self._trend = self.beta * (self._level - previous) + (
            1.0 - self.beta
        ) * self._trend

    def predict(self, horizon: float = 1.0) -> float:
        if self._level is None:
            raise RuntimeError("no observations yet")
        return max(self._level + horizon * self._trend, 0.0)

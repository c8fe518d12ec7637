"""Forecast-feedforward policy.

The reactive threshold rule pays the full detection latency of its
moving average: the tier only grows after the *smoothed* CPU has crossed
the threshold, which on the paper's ramp means the SLO is already being
violated while the new node installs (§6, Fig. 9).  This policy closes
that gap by feeding a :mod:`repro.capacity.forecast` forecaster with the
*raw* per-period utilization and acting on the **predicted** value
``lead_s`` seconds out:

* predicted (or measured) utilization above ``max_threshold`` → grow,
  with the ``predicted-above-max`` reason when the forecast fired first;
* shrink only when measured *and* predicted utilization are both below
  ``min_threshold`` — a forecast of returning load vetoes the shrink.

A successful actuation discards the forecaster history: utilization
rescales with the new tier size, so pre-reconfiguration observations
would poison the trend (the same reasoning as the probe's
moving-average reset).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from repro.policy.api import (
    HOLD,
    DecisionAction,
    DecisionReason,
    Policy,
    PolicyDecision,
    PolicyInputs,
    register,
)


class ForecastState:
    """Holds the live forecaster (rebuilt on every reconfiguration)."""

    __slots__ = ("forecaster",)

    def __init__(self, forecaster) -> None:
        self.forecaster = forecaster


@register
@dataclass(frozen=True)
class ForecastFeedforwardPolicy(Policy):
    """Act on predicted utilization ``lead_s`` seconds ahead."""

    name: ClassVar[str] = "forecast"

    #: forecaster registry name ("ewma" / "trend" / "seasonal")
    forecaster: str = "trend"
    #: how far ahead the prediction looks (≈ one node installation time)
    lead_s: float = 120.0
    max_threshold: float = 0.80
    min_threshold: float = 0.35
    #: extra kwargs for the forecaster, as sorted (key, value) pairs
    forecaster_params: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        if not 0.0 <= self.min_threshold < self.max_threshold <= 1.0:
            raise ValueError(
                f"need 0 <= min < max <= 1, got "
                f"({self.min_threshold}, {self.max_threshold})"
            )
        if self.lead_s <= 0:
            raise ValueError("lead_s must be positive")
        object.__setattr__(
            self, "forecaster_params", tuple(sorted(self.forecaster_params))
        )

    def _make_forecaster(self):
        from repro.capacity.forecast import make_forecaster

        return make_forecaster(self.forecaster, **dict(self.forecaster_params))

    def initial_state(self) -> ForecastState:
        return ForecastState(self._make_forecaster())

    def decide(self, inputs: PolicyInputs, state: ForecastState) -> PolicyDecision:
        f = state.forecaster
        f.observe(inputs.t, inputs.raw)
        predicted = f.predicted_peak(self.lead_s)
        if inputs.smoothed > self.max_threshold:
            return PolicyDecision(DecisionAction.GROW, DecisionReason.ABOVE_MAX)
        if predicted > self.max_threshold:
            return PolicyDecision(
                DecisionAction.GROW, DecisionReason.PREDICTED_ABOVE_MAX
            )
        if (
            inputs.smoothed < self.min_threshold
            and predicted < self.min_threshold
        ):
            return PolicyDecision(DecisionAction.SHRINK, DecisionReason.BELOW_MIN)
        return HOLD

    def on_actuated(self, action: str, t: float, state: ForecastState) -> None:
        state.forecaster = self._make_forecaster()

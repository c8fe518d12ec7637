"""Sizing policies: jump the tier to the replica count a utilization
target calls for.

With ``k`` replicas at measured (smoothed) utilization ``U`` the offered
CPU demand is ``U * k`` replica-equivalents, so running at utilization
``rho`` needs

    k* = ceil(U * k / rho)

replicas (:func:`sized_target`).  Unlike the paper's threshold rule, a
sizing policy knows its destination from the first reading; the reactor
still moves one replica per decision.  The two plugins differ in where
``rho`` comes from.

``target-utilization`` (§7's "improving the self-optimizing algorithm":
model-based planning) fixes ``rho`` by hand and holds while utilization
stays within a hysteresis band around it, so plan boundaries do not
ping-pong.

``queue-model`` derives it.  Each replica is a processor-sharing server
(the testbed's PsCpu), so a request with service demand ``d`` at
utilization ``rho`` sees a mean response time

    R = d / (1 - rho)            (M/G/1-PS)

Solving ``R <= R_slo`` gives the *highest* load a replica may run at
while still meeting the per-tier latency budget:

    rho* = 1 - d / R_slo

with ``d`` from the calibrated demand mix
(:mod:`repro.workload.calibration`): the app tier's
``app_demand_total()``, the DB tier's read/write blend of
``effective_db_demand()``.  It grows towards ``k*`` whenever ``k* > k``.
Shrinking uses an asymmetric guard: only when utilization has fallen
below ``rho* * (1 - shrink_margin)`` *and* the model agrees a smaller
tier still fits — releasing capacity is cheap to defer and expensive to
regret (the paper's own reasoning for the inhibition period).
"""

from __future__ import annotations

import math
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


def sized_target(inputs: PolicyInputs, rho: float) -> int:
    """``ceil(U * k / rho)`` within the loop's replica bounds.  The
    epsilon absorbs float noise so an exactly-at-target tier is not
    rounded up (0.2 * 3 / 0.6 must be 1, not 2)."""
    k = math.ceil(inputs.smoothed * inputs.replicas / rho - 1e-9)
    k = max(1, inputs.min_replicas, k)
    return k if inputs.max_replicas is None else min(k, inputs.max_replicas)


def _step_towards(target: int, inputs: PolicyInputs) -> PolicyDecision:
    if target > inputs.replicas:
        return PolicyDecision(
            DecisionAction.GROW, DecisionReason.ABOVE_MAX, target=target
        )
    return PolicyDecision(
        DecisionAction.SHRINK, DecisionReason.BELOW_MIN, target=target
    )


@register
@dataclass(frozen=True)
class TargetUtilizationPolicy(Policy):
    """Size the tier so utilization sits at a fixed target."""

    name: ClassVar[str] = "target-utilization"

    target_utilization: float = 0.60
    #: half-width of the hold band around the target
    hysteresis: float = 0.12

    def __post_init__(self) -> None:
        if not 0.0 < self.target_utilization < 1.0:
            raise ValueError("target utilization must be in (0, 1)")
        if self.hysteresis < 0.0:
            raise ValueError("hysteresis must be >= 0")

    def decide(self, inputs: PolicyInputs, state) -> PolicyDecision:
        low = self.target_utilization - self.hysteresis
        high = self.target_utilization + self.hysteresis
        if low <= inputs.smoothed <= high:
            return HOLD
        target = sized_target(inputs, self.target_utilization)
        if target == inputs.replicas:
            return HOLD
        return _step_towards(target, inputs)


@register
@dataclass(frozen=True)
class QueueModelPolicy(Policy):
    """Size the tier so M/G/1-PS response time meets the tier budget."""

    name: ClassVar[str] = "queue-model"

    #: per-tier response-time budget the utilization target is solved from
    slo_latency_s: float = 0.25
    #: mean CPU demand of one request on this tier (callers default it
    #: from the calibration; 0.028 s is the calibrated DB read/write mix)
    service_demand_s: float = 0.028
    #: clamp band for the solved target (a demand close to the SLO would
    #: otherwise drive rho* to 0; a tiny demand to ~1.0, i.e. no headroom)
    rho_floor: float = 0.05
    rho_cap: float = 0.90
    #: shrink only when utilization is this fraction *below* the target
    shrink_margin: float = 0.10

    def __post_init__(self) -> None:
        if self.slo_latency_s <= 0 or self.service_demand_s <= 0:
            raise ValueError("need positive SLO and service demand")
        if not 0.0 < self.rho_floor <= self.rho_cap < 1.0:
            raise ValueError("need 0 < rho_floor <= rho_cap < 1")
        if not 0.0 <= self.shrink_margin < 1.0:
            raise ValueError("need 0 <= shrink_margin < 1")

    @property
    def rho_target(self) -> float:
        """The solved operating point: ``1 - d / R_slo``, clamped."""
        rho = 1.0 - self.service_demand_s / self.slo_latency_s
        return min(self.rho_cap, max(self.rho_floor, rho))

    def decide(self, inputs: PolicyInputs, state) -> PolicyDecision:
        target = sized_target(inputs, self.rho_target)
        if target > inputs.replicas or (
            target < inputs.replicas
            and inputs.smoothed < self.rho_target * (1.0 - self.shrink_margin)
        ):
            return _step_towards(target, inputs)
        return HOLD

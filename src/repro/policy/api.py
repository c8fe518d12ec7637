"""The pluggable analysis/decision interface of every control loop.

The paper welds its analysis step into the reactor: fixed CPU thresholds,
fixed moving-average windows, a fixed one-minute inhibition (§4.1, §5.2).
This package externalizes that judgment behind a tiny interface — the
constraint-component view of Dearle et al. and Aldinucci & Tuosto: a
policy is a swappable component with an explicit contract, not constants
welded into the loop.

Contract:

* a **policy** is a *frozen* dataclass of parameters — picklable,
  hashable, and canonicalized by the result cache like every other
  config value;
* mutable runtime memory (adaptive thresholds, forecaster history) lives
  in a separate *state* object created per loop by
  :meth:`Policy.initial_state`, never on the policy itself;
* :meth:`Policy.decide` maps one :class:`PolicyInputs` snapshot to a
  :class:`PolicyDecision` (grow / shrink / hold with a traced reason);
* :meth:`Policy.on_actuated` is the feedback edge: called only after an
  actuation the policy requested actually started (the adaptive policy
  uses it to widen its dead band, the forecast policy to discard history
  that the new tier size invalidates).

The *mechanics* — warm-up, NaN handling, fresh-evidence gating, the
inhibition lock, actuation, tracing, counters — stay in
:class:`repro.jade.reactors.PolicyReactor`.  Policies only judge.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from typing import ClassVar, NamedTuple, Optional


class DecisionAction:
    """Machine-readable decision actions (``Decision.action``)."""

    GROW = "grow"
    SHRINK = "shrink"
    NONE = "none"


class DecisionReason:
    """Machine-readable decision reasons (``Decision.reason``).

    Executed decisions carry the trigger (``above-max`` / ``below-min``);
    suppressed decisions carry why they did not actuate.
    """

    ABOVE_MAX = "above-max"        # smoothed CPU crossed the grow threshold
    BELOW_MIN = "below-min"        # smoothed CPU crossed the shrink threshold
    AT_CAP = "at-cap"              # already at max_replicas
    AT_FLOOR = "at-floor"          # already at min_replicas
    INHIBITED = "inhibited"        # the shared inhibition lock is held
    ACTUATOR_BUSY = "actuator-busy"  # the tier rejected the operation
    NO_DATA = "no-data"            # the reading was NaN (empty window/tier)
    # Proactive-manager reasons: the trigger is a *predicted* crossing, not
    # a measured one (repro.capacity.proactive).
    PREDICTED_ABOVE_MAX = "predicted-above-max"
    PREDICTED_BELOW_MIN = "predicted-below-min"

    SUPPRESSIONS = (AT_CAP, AT_FLOOR, INHIBITED, ACTUATOR_BUSY, NO_DATA)


#: reason string for a hold that is simply "inside the operating band"
IN_BAND = "in-band"


class PolicyInputs(NamedTuple):
    """Everything one control-loop tick shows the policy (a named tuple:
    one is built per reading)."""

    t: float                     # simulated time of the reading
    smoothed: float              # windowed sensor average (CPU or latency)
    raw: float                   # last-period average
    node_count: int              # nodes the probe sampled
    replicas: int                # tier size right now
    min_replicas: int
    max_replicas: Optional[int]  # None = uncapped
    tier: str = ""               # loop name, e.g. "resize-db"

    def digest(self) -> str:
        """Short stable fingerprint for the ``PolicyDecided`` trace event
        (lets a timeline reader match a decision to its exact inputs
        without logging every field)."""
        payload = (
            f"{self.t:.6f}|{self.smoothed:.9f}|{self.raw:.9f}|"
            f"{self.node_count}|{self.replicas}|{self.min_replicas}|"
            f"{self.max_replicas}|{self.tier}"
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:12]


@dataclass(frozen=True)
class PolicyDecision:
    """A policy's verdict on one set of inputs.

    ``reason`` is a :class:`DecisionReason` string and
    flows into both the ``PolicyDecided`` trace event and the executed
    ``Decision`` event.  Sizing policies set ``target`` — the replica
    count they actually want; the reactor still actuates one step per
    decision (the actuator installs one node at a time), so the target
    is reached over successive readings.
    """

    action: str                  # DecisionAction
    reason: str                  # DecisionReason
    target: Optional[int] = None

    @property
    def is_hold(self) -> bool:
        return self.action == DecisionAction.NONE


#: the canonical do-nothing verdict
HOLD = PolicyDecision(DecisionAction.NONE, IN_BAND)


@dataclass(frozen=True)
class Policy:
    """Base class: frozen parameters + the decide/feedback protocol."""

    #: registry key (subclasses override)
    name: ClassVar[str] = "policy"

    def initial_state(self):
        """Fresh mutable runtime state for one control loop (None when the
        policy is memoryless)."""
        return None

    def decide(self, inputs: PolicyInputs, state) -> PolicyDecision:
        raise NotImplementedError

    def on_actuated(self, action: str, t: float, state) -> None:
        """Called after an actuation this policy requested has started
        successfully (``action`` is grow/shrink, ``t`` the decision
        time)."""
        return None


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
POLICIES: dict[str, type] = {}


def register(cls):
    """Class decorator: add a policy to the registry under ``cls.name``."""
    POLICIES[cls.name] = cls
    return cls


def _registered(name: str) -> type:
    try:
        return POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown policy {name!r} (have: {sorted(POLICIES)})"
        ) from None


def _fields(name: str) -> frozenset[str]:
    """The parameter names the policy registered as ``name`` declares."""
    return frozenset(f.name for f in dataclasses.fields(_registered(name)))


def make_policy(name: str, **params) -> Policy:
    return _registered(name)(**params)


def _coerce(text: str):
    """CLI parameter literals: int, then float, then bool, else string."""
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    return text


@dataclass(frozen=True)
class PolicyConfig:
    """A named policy plus parameter overrides — the picklable value that
    rides through :class:`~repro.jade.self_optimization.LoopConfig`,
    sweep cells, and the result cache.

    ``params`` is a sorted tuple of ``(key, value)`` pairs so two configs
    with the same overrides hash and canonicalize identically.  An
    unregistered name, or a parameter the policy does not declare, is a
    ``ValueError`` here, where the config is written, not later inside a
    (possibly pooled) run.
    """

    name: str = "threshold"
    params: tuple[tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", tuple(sorted(self.params)))
        fields = _fields(self.name)
        unknown = sorted(k for k, _ in self.params if k not in fields)
        if unknown:
            raise ValueError(
                f"policy {self.name!r} has no parameter {', '.join(unknown)} "
                f"(have: {sorted(fields)})"
            )

    @classmethod
    def parse(cls, text: str) -> "PolicyConfig":
        """``"name"`` or ``"name:key=value:key=value"`` (colon-separated
        so comma-lists on the CLI stay unambiguous)."""
        head, *rest = text.split(":")
        if not head:
            raise ValueError(f"empty policy name in {text!r}")
        params = []
        for part in rest:
            key, sep, value = part.partition("=")
            if not sep or not key:
                raise ValueError(
                    f"bad policy parameter {part!r} in {text!r} "
                    "(expected key=value)"
                )
            params.append((key, _coerce(value)))
        return cls(head, tuple(params))

    @property
    def label(self) -> str:
        if not self.params:
            return self.name
        inner = ":".join(f"{k}={v}" for k, v in self.params)
        return f"{self.name}:{inner}"

    def as_dict(self) -> dict:
        return dict(self.params)

    def build(self, **defaults) -> Policy:
        """Instantiate: ``defaults`` are the loop's context (its threshold
        band, the tier's calibrated service demand); the policy takes the
        ones it declares, and this config's explicit params override
        them."""
        fields = _fields(self.name)
        merged = {k: v for k, v in defaults.items() if k in fields}
        merged.update(self.params)
        return make_policy(self.name, **merged)

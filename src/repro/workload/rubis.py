"""The 26 RUBiS web interactions and client navigation models.

The interaction set matches RUBiS 1.4's servlet edition; the mix weights
approximate the *bidding mix* (15 % read-write interactions).  Each
interaction carries relative weights for the app and database tiers; the
mix-weighted averages equal 1.0 so the calibrated mean demands
(:mod:`repro.workload.calibration`) are preserved exactly under the
stationary mix (tests assert this).

Two navigators are provided:

* :class:`MixNavigator` — i.i.d. draws from the stationary mix (the default
  for the quantitative experiments: statistically equivalent load with
  exact calibration);
* :class:`MarkovNavigator` — a browse/bid session graph (Home → Browse →
  ViewItem → PutBid → ...) whose stationary distribution approximates the
  mix; used by the session-realism tests and available to experiments.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from repro.legacy.requests import WebRequest
from repro.metrics.aggregates import left_sum
from repro.simulation.kernel import SimKernel
from repro.workload.calibration import Calibration, DEFAULT_CALIBRATION


@dataclass(frozen=True)
class Interaction:
    """One RUBiS web interaction."""

    name: str
    mix_weight: float      # stationary probability weight (bidding mix)
    app_factor: float      # relative servlet CPU vs the calibrated mean
    db_factor: float       # relative DB CPU vs the calibrated mean
    is_write: bool = False


# name, mix weight, app factor, db factor, write?
# Weights follow the shape of the RUBiS bidding mix: browsing and item
# viewing dominate; read-write interactions total 15.0 % of requests.
_RAW = [
    ("Home",                       5.5, 0.40, 0.25, False),
    ("Register",                   1.2, 0.50, 0.30, False),
    ("RegisterUser",               1.1, 1.00, 1.00, True),
    ("Browse",                     4.5, 0.45, 0.30, False),
    ("BrowseCategories",           5.5, 0.70, 0.80, False),
    ("SearchItemsInCategory",     12.0, 1.20, 1.60, False),
    ("BrowseRegions",              3.0, 0.70, 0.80, False),
    ("BrowseCategoriesInRegion",   3.0, 0.80, 0.90, False),
    ("SearchItemsInRegion",        6.0, 1.20, 1.55, False),
    ("ViewItem",                  12.5, 1.10, 1.05, False),
    ("ViewUserInfo",               4.0, 1.00, 1.00, False),
    ("ViewBidHistory",             3.0, 1.10, 1.25, False),
    ("BuyNowAuth",                 1.5, 0.60, 0.35, False),
    ("BuyNow",                     1.4, 1.00, 0.90, False),
    ("StoreBuyNow",                1.6, 1.00, 1.00, True),
    ("PutBidAuth",                 3.3, 0.60, 0.35, False),
    ("PutBid",                     3.2, 1.10, 1.05, False),
    ("StoreBid",                   7.4, 1.00, 1.00, True),
    ("PutCommentAuth",             1.0, 0.60, 0.35, False),
    ("PutComment",                 0.9, 1.00, 0.90, False),
    ("StoreComment",               1.4, 1.00, 1.00, True),
    ("Sell",                       1.8, 0.50, 0.30, False),
    ("SelectCategoryToSellItem",   1.6, 0.60, 0.45, False),
    ("SellItemForm",               1.7, 0.60, 0.40, False),
    ("RegisterItem",               3.5, 1.00, 1.00, True),
    ("AboutMe",                    6.4, 1.20, 1.40, False),
]


def _normalized_interactions() -> tuple[Interaction, ...]:
    """Build the table with factors renormalized so that mix-weighted
    app/db factors are exactly 1.0 and the write fraction is exactly the
    calibrated 15 % (weights of write interactions are rescaled)."""
    total = left_sum(w for _, w, _, _, _ in _RAW)
    write_w = left_sum(w for _, w, _, _, wr in _RAW if wr)
    read_w = total - write_w
    target_write = DEFAULT_CALIBRATION.write_fraction
    # Rescale weights so writes are exactly the target fraction.
    w_scale = target_write / (write_w / total)
    r_scale = (1.0 - target_write) / (read_w / total)
    rows = []
    for name, w, af, dfac, wr in _RAW:
        weight = w / total * (w_scale if wr else r_scale)
        rows.append((name, weight, af, dfac, wr))
    # Renormalize factors to weighted mean 1.0 (writes and reads separately
    # for the db factor, since their base demands differ).
    app_mean = left_sum(w * af for _, w, af, _, _ in rows)
    db_read_mean = left_sum(w * dfac for _, w, _, dfac, wr in rows if not wr) / (
        1.0 - target_write
    )
    db_write_mean = (
        left_sum(w * dfac for _, w, _, dfac, wr in rows if wr) / target_write
    )
    out = []
    for name, w, af, dfac, wr in rows:
        db_norm = dfac / (db_write_mean if wr else db_read_mean)
        out.append(Interaction(name, w, af / app_mean, db_norm, wr))
    return tuple(out)


INTERACTIONS: tuple[Interaction, ...] = _normalized_interactions()
_BY_NAME = {i.name: i for i in INTERACTIONS}


def interaction(name: str) -> Interaction:
    """Look up an interaction by name."""
    return _BY_NAME[name]


#: values drawn per block from a client's navigation or think stream
CLIENT_BLOCK = 16
#: values drawn per block from the shared demand stream
DEMAND_BLOCK = 512


class block_draws:
    """Iterator over the values of ``draw()``, drawn ``size`` at a time.

    numpy fills an array by making the scalar draws in sequence, and
    ``Generator.gamma(k, s)`` is ``s * standard_gamma(k)`` and
    ``exponential(m)`` is ``m * standard_exponential()`` element by
    element, so the values are bit-identical to calling ``draw()`` once
    for each.  The stream runs up to ``size - 1`` draws ahead of the
    values handed out, so it must have no other consumer.  Unlike a
    generator it pickles, with its pending values, so a paused system
    can be copied."""

    __slots__ = ("_draw", "_size", "_pending")

    def __init__(self, draw: Callable[..., np.ndarray], size: int) -> None:
        self._draw = draw
        self._size = size
        #: the undrawn rest of the current block, next value last
        self._pending: list[float] = []

    def __iter__(self) -> "block_draws":
        return self

    def __next__(self) -> float:
        pending = self._pending
        if not pending:
            pending.extend(self._draw(size=self._size)[::-1].tolist())
        return pending.pop()


class RubisModel:
    """Builds :class:`WebRequest` objects for interactions, applying the
    calibrated demands and (optionally) Gamma demand variability.

    ``unit_weight`` promises that every draw is for one request
    (``weight == 1``), so every Gamma draw has the calibrated shape and
    the model draws them in blocks (:func:`block_draws`); a
    ``weight > 1`` draw then raises.  Such a model also keeps each
    interaction's three ``mean / shape`` scales, so :meth:`make_request`
    multiplies them by the next three block values (pre, post, db) —
    the floats :meth:`_vary` would return, in the same order."""

    def __init__(
        self,
        kernel: SimKernel,
        calibration: Calibration = DEFAULT_CALIBRATION,
        rng: Optional[np.random.Generator] = None,
        unit_weight: bool = False,
    ) -> None:
        self.kernel = kernel
        self.cal = calibration
        self.rng = rng if rng is not None else np.random.default_rng(0)
        shape = calibration.demand_gamma_shape
        self._gammas: Optional[Callable[[], float]] = None
        #: name -> (interaction, pre, post and db ``mean / shape``) for a
        #: block-drawing model, the interactions whose three means are
        #: positive and finite; the rest draw through :meth:`_vary`
        self._scales: dict[str, tuple] = {}
        if unit_weight and 0.0 < shape < self.GAUSSIAN_LIMIT_SHAPE:
            self._gammas = block_draws(
                partial(self.rng.standard_gamma, shape), DEMAND_BLOCK
            ).__next__
            for inter in INTERACTIONS:
                means = self._means(inter)
                if all(0.0 < mean < math.inf for mean in means):
                    self._scales[inter.name] = (inter,) + tuple(
                        mean / shape for mean in means
                    )

    #: aggregate shape above which the Gamma draw switches to its Gaussian
    #: limit.  At the default per-request shape of 4 this is cohorts of
    #: K >= 10_000.  Below the switch the draw is the exact Gamma sum
    #: (bit-identical to the historical behaviour); above it the
    #: central-limit normal has relative skew ``2/sqrt(k) < 1%``, and —
    #: unlike an astronomically-shaped ``rng.gamma`` — it can never
    #: silently return ``inf`` when ``shape * weight`` overflows the
    #: float range (``rng.gamma(inf, s)`` returns ``inf`` without raising,
    #: which would wedge the simulated CPU forever).
    GAUSSIAN_LIMIT_SHAPE = 4.0e4

    def _vary(self, mean: float, weight: int = 1) -> float:
        """Draw one demand — or, for ``weight > 1``, the *sum* of ``weight``
        i.i.d. demands in a single draw (Gamma additivity: the sum of ``w``
        ``Gamma(shape, scale)`` variates is ``Gamma(w * shape, scale)``).
        At ``weight == 1`` the RNG consumption is unchanged; a
        ``unit_weight`` model takes the variate from its block, which
        holds the same floats.

        Valid range: any ``weight`` with finite ``shape * weight`` and
        ``mean * weight``.  Aggregate shapes at or above
        :data:`GAUSSIAN_LIMIT_SHAPE` use the Gaussian limit (one normal
        draw, clipped at zero); non-finite aggregates raise instead of
        producing a silent ``inf`` demand."""
        shape = self.cal.demand_gamma_shape
        if self._gammas is not None:
            if weight != 1:
                raise ValueError("a unit-weight RubisModel draws weight 1 only")
            if 0.0 < mean < math.inf:
                return mean / shape * self._gammas()
        if not shape or mean <= 0.0:
            return mean * weight
        k = shape * weight
        total = mean * weight
        if not (math.isfinite(k) and math.isfinite(total)):
            raise ValueError(
                f"demand draw overflow: shape*weight={k!r}, "
                f"mean*weight={total!r} (weight={weight})"
            )
        if k >= self.GAUSSIAN_LIMIT_SHAPE:
            draw = total + (total / math.sqrt(k)) * self.rng.standard_normal()
            return float(max(draw, 0.0))
        return float(self.rng.gamma(k, mean / shape))

    def _means(self, inter: Interaction) -> tuple[float, float, float]:
        """The calibrated mean pre, post and db demands of ``inter``."""
        cal = self.cal
        db_base = cal.db_write_demand_s if inter.is_write else cal.db_read_demand_s
        return (
            cal.app_demand_pre_s * inter.app_factor,
            cal.app_demand_post_s * inter.app_factor,
            db_base * inter.db_factor,
        )

    def make_request(
        self,
        inter: Interaction,
        client_id: Optional[int] = None,
        weight: int = 1,
    ) -> WebRequest:
        scales = self._scales.get(inter.name)
        # (a pickled copy holds equal, not identical, interactions)
        if (
            scales is not None
            and (scales[0] is inter or scales[0] == inter)
            and weight == 1
        ):
            gammas = self._gammas
            # Positional (the per-request path): is_static, is_write, the
            # pre, post, db and static demands, client_id.
            return WebRequest(
                self.kernel, inter.name, False, inter.is_write,
                scales[1] * gammas(), scales[2] * gammas(), scales[3] * gammas(),
                0.0, client_id,
            )
        pre, post, db = self._means(inter)
        return WebRequest(
            self.kernel,
            interaction=inter.name,
            is_write=inter.is_write,
            app_demand_pre=self._vary(pre, weight),
            app_demand_post=self._vary(post, weight),
            db_demand=self._vary(db, weight),
            client_id=client_id,
            weight=weight,
        )


def choice_cdf(p: np.ndarray) -> list[float]:
    """The cumulative table ``rng.choice(n, p=p)`` searches, as a list.

    ``bisect_right(choice_cdf(p), rng.random())`` is numpy's own
    ``Generator.choice`` algorithm for a single draw (normalised cumsum,
    one ``random()`` double, right-sided search), so it returns the same
    index and consumes the same stream at a fraction of the call cost."""
    cdf = np.asarray(p, dtype=float).cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def _mix_cdf() -> tuple[float, ...]:
    weights = np.asarray([i.mix_weight for i in INTERACTIONS])
    return tuple(choice_cdf(weights / weights.sum()))


#: the stationary mix's cumulative table, shared by every navigator
_MIX_CDF = _mix_cdf()


class MixNavigator:
    """Draws each next interaction i.i.d. from the stationary mix.

    Uniforms are drawn in blocks (:func:`block_draws`), so ``rng`` must
    be the navigator's own stream."""

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng
        self._uniform = block_draws(rng.random, CLIENT_BLOCK).__next__

    def next_interaction(self) -> Interaction:
        return INTERACTIONS[bisect_right(_MIX_CDF, self._uniform())]

    def reset(self) -> None:
        """Sessions are memoryless; nothing to reset."""


# Session graph for the Markov navigator: state -> [(next state, weight)].
# Structure follows RUBiS's navigation (browse flows, bid flows, sell
# flows); weights are coarse.
_TRANSITIONS: dict[str, list[tuple[str, float]]] = {
    "Home": [("Browse", 55.0), ("Register", 10.0), ("Sell", 15.0), ("AboutMe", 20.0)],
    "Register": [("RegisterUser", 90.0), ("Home", 10.0)],
    "RegisterUser": [("Browse", 70.0), ("Home", 30.0)],
    "Browse": [("BrowseCategories", 55.0), ("BrowseRegions", 45.0)],
    "BrowseCategories": [("SearchItemsInCategory", 90.0), ("Browse", 10.0)],
    "SearchItemsInCategory": [
        ("ViewItem", 60.0),
        ("SearchItemsInCategory", 25.0),
        ("Browse", 15.0),
    ],
    "BrowseRegions": [("BrowseCategoriesInRegion", 90.0), ("Browse", 10.0)],
    "BrowseCategoriesInRegion": [("SearchItemsInRegion", 90.0), ("Browse", 10.0)],
    "SearchItemsInRegion": [
        ("ViewItem", 60.0),
        ("SearchItemsInRegion", 25.0),
        ("Browse", 15.0),
    ],
    "ViewItem": [
        ("ViewUserInfo", 16.0),
        ("ViewBidHistory", 12.0),
        ("PutBidAuth", 30.0),
        ("BuyNowAuth", 12.0),
        ("Browse", 30.0),
    ],
    "ViewUserInfo": [("PutCommentAuth", 25.0), ("Browse", 75.0)],
    "ViewBidHistory": [("ViewItem", 60.0), ("Browse", 40.0)],
    "BuyNowAuth": [("BuyNow", 95.0), ("Home", 5.0)],
    "BuyNow": [("StoreBuyNow", 75.0), ("Browse", 25.0)],
    "StoreBuyNow": [("Browse", 60.0), ("Home", 40.0)],
    "PutBidAuth": [("PutBid", 95.0), ("Home", 5.0)],
    "PutBid": [("StoreBid", 80.0), ("ViewItem", 20.0)],
    "StoreBid": [("ViewItem", 45.0), ("Browse", 45.0), ("Home", 10.0)],
    "PutCommentAuth": [("PutComment", 95.0), ("Home", 5.0)],
    "PutComment": [("StoreComment", 85.0), ("Browse", 15.0)],
    "StoreComment": [("Browse", 60.0), ("Home", 40.0)],
    "Sell": [("SelectCategoryToSellItem", 90.0), ("Home", 10.0)],
    "SelectCategoryToSellItem": [("SellItemForm", 90.0), ("Home", 10.0)],
    "SellItemForm": [("RegisterItem", 85.0), ("Home", 15.0)],
    "RegisterItem": [("Sell", 25.0), ("Browse", 45.0), ("Home", 30.0)],
    "AboutMe": [("Browse", 55.0), ("ViewItem", 30.0), ("Home", 15.0)],
}


class MarkovNavigator:
    """Walks the RUBiS session graph; starts (and restarts) at Home.

    Uniforms are drawn in blocks, as by :class:`MixNavigator`."""

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng
        self._uniform = block_draws(rng.random, CLIENT_BLOCK).__next__
        self.state = "Home"
        # Precompute the transition CDFs.
        self._table: dict[str, tuple[list[str], list[float]]] = {}
        for state, successors in _TRANSITIONS.items():
            names = [n for n, _ in successors]
            weights = np.asarray([w for _, w in successors], dtype=float)
            self._table[state] = (names, choice_cdf(weights / weights.sum()))

    def next_interaction(self) -> Interaction:
        current = interaction(self.state)
        names, cdf = self._table[self.state]
        self.state = names[bisect_right(cdf, self._uniform())]
        return current

    def reset(self) -> None:
        self.state = "Home"


def transition_table() -> dict[str, list[tuple[str, float]]]:
    """The raw session graph (exported for validation tests)."""
    return {k: list(v) for k, v in _TRANSITIONS.items()}

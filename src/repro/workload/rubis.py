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
from typing import Optional

import numpy as np

from repro.legacy.requests import WebRequest
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
    total = sum(w for _, w, _, _, _ in _RAW)
    write_w = sum(w for _, w, _, _, wr in _RAW if wr)
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
    app_mean = sum(w * af for _, w, af, _, _ in rows)
    db_read_mean = sum(w * dfac for _, w, _, dfac, wr in rows if not wr) / (
        1.0 - target_write
    )
    db_write_mean = sum(w * dfac for _, w, _, dfac, wr in rows if wr) / target_write
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


class RubisModel:
    """Builds :class:`WebRequest` objects for interactions, applying the
    calibrated demands and (optionally) Gamma demand variability."""

    def __init__(
        self,
        kernel: SimKernel,
        calibration: Calibration = DEFAULT_CALIBRATION,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.kernel = kernel
        self.cal = calibration
        self.rng = rng if rng is not None else np.random.default_rng(0)

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
        At ``weight == 1`` the RNG consumption is unchanged.

        Valid range: any ``weight`` with finite ``shape * weight`` and
        ``mean * weight``.  Aggregate shapes at or above
        :data:`GAUSSIAN_LIMIT_SHAPE` use the Gaussian limit (one normal
        draw, clipped at zero); non-finite aggregates raise instead of
        producing a silent ``inf`` demand."""
        shape = self.cal.demand_gamma_shape
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

    def make_request(
        self,
        inter: Interaction,
        client_id: Optional[int] = None,
        weight: int = 1,
    ) -> WebRequest:
        cal = self.cal
        db_base = cal.db_write_demand_s if inter.is_write else cal.db_read_demand_s
        return WebRequest(
            self.kernel,
            interaction=inter.name,
            is_write=inter.is_write,
            app_demand_pre=self._vary(cal.app_demand_pre_s * inter.app_factor, weight),
            app_demand_post=self._vary(
                cal.app_demand_post_s * inter.app_factor, weight
            ),
            db_demand=self._vary(db_base * inter.db_factor, weight),
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


class MixNavigator:
    """Draws each next interaction i.i.d. from the stationary mix."""

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng
        weights = np.asarray([i.mix_weight for i in INTERACTIONS])
        self._cdf = choice_cdf(weights / weights.sum())

    def next_interaction(self) -> Interaction:
        return INTERACTIONS[bisect_right(self._cdf, self.rng.random())]

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
    """Walks the RUBiS session graph; starts (and restarts) at Home."""

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng
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
        self.state = names[bisect_right(cdf, self.rng.random())]
        return current

    def reset(self) -> None:
        self.state = "Home"


def transition_table() -> dict[str, list[tuple[str, float]]]:
    """The raw session graph (exported for validation tests)."""
    return {k: list(v) for k, v in _TRANSITIONS.items()}

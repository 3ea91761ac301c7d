"""Volume delay functions for bidirectional walking links and route travel times.

The symmetric form charges both directions of a sidewalk the same congestion
delay, driven by the combined two-way flow.  The asymmetric form adds a
bell-shaped bidirectional term that peaks when the two directional flow ratios
sit at configured trouble spots (e.g. balanced counterflow).  Route times come
in two flavours: the pre-trip estimate summing link costs frozen at the
departure instant, and the experienced time accumulated sequentially from the
loaded network state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Callable

import numpy as np

MODES = ("symmetric", "asymmetric")


@dataclass(frozen=True)
class PvdfParams:
    """Coefficients of the walking volume delay function.

    alpha and beta shape the congestion term; mu scales the bidirectional bump
    and (eta_r, lambda_r, eta_c, lambda_c) place and widen it over the
    (reference flow ratio, counterflow ratio) plane.  eta_r and eta_c must be
    nonpositive so the exponential term is a bounded bell rather than an
    unbounded blow-up.
    """

    alpha: float = 0.5
    beta: float = 2.0
    mode: str = "symmetric"
    mu: float = 0.0
    eta_r: float = 0.0
    lambda_r: float = 0.0
    eta_c: float = 0.0
    lambda_c: float = 0.0

    def __post_init__(self):
        for name in ("alpha", "beta", "mu", "eta_r", "lambda_r", "eta_c", "lambda_c"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if self.beta < 1:
            raise ValueError(f"beta must be >= 1, got {self.beta}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.mu < 0:
            raise ValueError(f"mu must be >= 0, got {self.mu}")
        for name in ("eta_r", "eta_c"):
            if getattr(self, name) > 0:
                raise ValueError(f"{name} must be <= 0 for a bounded bidirectional term, got {getattr(self, name)}")


def link_cost(link, params: PvdfParams, u: float, u_opp: float) -> float:
    """Travel time of one link in seconds given directional inflows in ped/s:
    `link_cost_profile` on one element.

    `link` only needs `free_flow_time` and `capacity` attributes, so plain
    stubs work in tests.
    """
    if u < 0 or u_opp < 0:
        raise ValueError(f"flows must be nonnegative, got ({u}, {u_opp})")
    if link.capacity <= 0:
        raise ValueError(f"link capacity must be positive, got {link.capacity}")
    tau, capacity = np.array([link.free_flow_time]), np.array([link.capacity])
    u, u_opp = np.array([[u]], dtype=float), np.array([[u_opp]], dtype=float)
    return float(link_cost_profile(tau, capacity, params, u, u_opp)[0, 0])


def link_cost_profile(
    tau: np.ndarray,
    capacity: np.ndarray,
    params: PvdfParams,
    u: np.ndarray,
    u_opp: np.ndarray,
) -> np.ndarray:
    """Vectorized link costs: tau/capacity per link (column vectors) against
    directional inflow trajectories u, u_opp of shape (n_links, n_bins): the
    congestion term, plus the bidirectional bump in the asymmetric mode.  Its
    temporaries are each the size of u, so callers pass only rows with flow.
    """
    tau = tau[:, None]
    capacity = capacity[:, None]
    cost = tau * (1.0 + params.alpha * ((u + u_opp) / capacity) ** params.beta)
    if params.mode == "asymmetric":
        exponent = params.eta_r * (u / capacity - params.lambda_r) ** 2 + params.eta_c * (
            u_opp / capacity - params.lambda_c
        ) ** 2
        cost = cost + tau * params.mu * np.exp(exponent)
    return cost


def route_table(link_rows) -> tuple[np.ndarray, np.ndarray]:
    """The route lengths, and each route's link rows in order as one zero-padded `(routes, longest)` array."""
    lengths = np.array([len(rows) for rows in link_rows], dtype=int)
    padded = np.zeros((len(lengths), lengths.max(initial=0)), dtype=np.intp)
    padded[lengths[:, None] > np.arange(padded.shape[1])] = np.fromiter(chain.from_iterable(link_rows), np.intp)
    return lengths, padded


def instantaneous_route_time(link_rows, costs: np.ndarray, bins) -> np.ndarray:
    """Pre-trip route times: trip i sums the costs of its links link_rows[i] (rows of the `(n_links, n_bins)`
    cost array, in route order), all frozen at its departure bin bins[i], left to right on every Python version.
    """
    lengths, padded = route_table(link_rows)
    times = np.cumsum(costs[padded, np.asarray(bins, dtype=np.intp)[:, None]], axis=1)
    return times[np.arange(len(lengths)), lengths - 1]


def experienced_route_times(link_rows, departs, link_times: Callable, horizon: float | None = None) -> np.ndarray:
    """Route times accumulated link by link from the loaded traversal times.

    Trip i leaves at departs[i] over the links link_rows[i] (in route order).
    Every trip advances together over link positions: entering a link at t
    costs link_times(rows, t)[i] for the trips' links `rows` and entry
    instants t, and the next link is entered at t plus that cost.  A trip
    whose link time is not finite, or whose clock passes the horizon, is
    incomplete: NaN, deliberately distinct from any numeric result.
    """
    departs = np.asarray(departs, dtype=float)
    horizon = np.inf if horizon is None else horizon
    lengths, padded = route_table(link_rows)
    t = departs.copy()
    for j in range(padded.shape[1]):
        on = np.flatnonzero((lengths > j) & ~np.isnan(t))
        if not on.size:
            break
        cost = np.asarray(link_times(padded[on, j], t[on]), dtype=float)
        t[on] += cost
        t[on[~np.isfinite(cost) | (t[on] > horizon)]] = np.nan
    return t - departs

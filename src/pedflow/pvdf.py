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

from dataclasses import dataclass
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
        if self.alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if self.beta < 1:
            raise ValueError(f"beta must be >= 1, got {self.beta}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.mu < 0:
            raise ValueError(f"mu must be >= 0, got {self.mu}")
        if self.eta_r > 0 or self.eta_c > 0:
            raise ValueError(
                "eta_r and eta_c must be <= 0 for a bounded bidirectional term, "
                f"got ({self.eta_r}, {self.eta_c})"
            )


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
    directional inflow trajectories u, u_opp of shape (n_links, n_bins).

    The cost is tau * (1 + alpha * ((u + u_opp) / capacity) ** beta), plus
    in the asymmetric mode the bidirectional bump tau * mu * exp(eta_r *
    (u / capacity - lambda_r) ** 2 + eta_c * (u_opp / capacity - lambda_c)
    ** 2).  It is computed in place in one output array plus one scratch
    array in the asymmetric mode.  Each element goes through the same
    operations as in the plain array expression of that formula, so the
    result is bit-identical to it.
    """
    tau = tau[:, None]
    capacity = capacity[:, None]
    cost = np.empty(np.shape(u))
    congestion = cost
    if params.mode == "asymmetric":
        # the bidirectional bump tau * mu * exp(exponent) first, into cost
        congestion = np.empty_like(cost)
        np.divide(u, capacity, out=cost)
        cost -= params.lambda_r
        cost **= 2
        cost *= params.eta_r
        np.divide(u_opp, capacity, out=congestion)
        congestion -= params.lambda_c
        congestion **= 2
        congestion *= params.eta_c
        cost += congestion
        np.exp(cost, out=cost)
        cost *= tau * params.mu
    np.add(u, u_opp, out=congestion)
    congestion /= capacity
    congestion **= params.beta
    congestion *= params.alpha
    congestion += 1.0
    congestion *= tau
    if congestion is not cost:
        cost += congestion
    return cost


def instantaneous_route_time(rows, costs: np.ndarray, k: int) -> float:
    """Pre-trip route time: the sum of link costs all frozen at the departure bin.

    `rows` are the rows of the path's links in the `(n_links, n_bins)` cost
    array, in route order; `k` is the departure bin.  The sum runs left to
    right over Python floats.
    """
    return sum(costs[rows, k].tolist())


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
    lengths = np.array([len(rows) for rows in link_rows], dtype=int)
    padded = np.zeros((len(lengths), lengths.max(initial=0)), dtype=np.intp)  # link rows, zero-padded
    padded[lengths[:, None] > np.arange(padded.shape[1])] = [row for rows in link_rows for row in rows]
    t = departs.copy()
    for j in range(padded.shape[1]):
        on = np.flatnonzero((lengths > j) & ~np.isnan(t))
        if not on.size:
            break
        cost = np.asarray(link_times(padded[on, j], t[on]), dtype=float)
        t[on] += cost
        t[on[~np.isfinite(cost) | (t[on] > horizon)]] = np.nan
    return t - departs

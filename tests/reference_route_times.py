"""The scalar experienced-route-time chain as it stood before the lockstep walk, kept as a test reference.

`experienced_route_time`, `crossing_time` and `_rank_position` are
verbatim copies of `pvdf.experienced_route_time`, `ltm.crossing_time` and
`ltm._rank_position` of that version; `fd_travel_time` is the method
`LoadingResult.fd_travel_time` of the same version, verbatim except that its
`self` is the loading result passed as first argument.  Each answers one
(path, departure) or one (link, instant) query per call.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from pedflow import fd, ltm


def fd_travel_time(self, link_id: int, t_s: float) -> float | None:
    """Traversal time of a link entered at instant t_s, from the loaded state.

    The floor is a free-flow pass at the effective speed prevailing at
    entry; on top of that comes whatever delay the curves realized (the
    horizontal gap between the entry rank on U and the same rank on V).
    Returns None when the rank never exits within the horizon.
    """
    i = self.link_index[link_id]
    link = self.network.links[link_id]
    dt = self.grid.dt
    b = min(max(int(t_s / dt), 0), self.grid.n_bins - 1)
    rho = self.densities()[1][i, b]
    vhat = float(fd.effective_speed_profile(link.v_f, rho, self.fd_variant, self.fd_gamma))
    if vhat <= 0:
        return None
    free = link.length / vhat
    rank = float(ltm.interp_at(self.U[i][None, :], np.array([t_s]), dt)[0])
    exit_t = crossing_time(self.V[i], rank, dt, self.grid.n_bins)
    if exit_t is None:
        return None
    return max(free, exit_t - t_s)


def crossing_time(arr: np.ndarray, rank: float, dt: float, n_valid: int) -> float | None:
    """First instant a cumulative curve reaches `rank`, or None if it never does.

    Only bins up to n_valid are trusted (later bins may not be written yet).
    A rank within 1e-12 above the last sample crosses there.
    """
    head = arr[: n_valid + 1]
    if head[-1] < rank - 1e-12:
        return None
    b, frac = _rank_position(head, rank)
    return (b + frac) * dt


def _rank_position(head: np.ndarray, rank: float) -> tuple[int, float]:
    """(sample, fraction): the nondecreasing samples `head` first reach `rank`,
    clamped to the last sample, at sample + fraction (linear interpolation);
    (0, 0.0) when the first sample already reaches it."""
    rank = min(rank, head[-1])
    idx = int(np.searchsorted(head, rank, side="left"))
    if idx == 0:
        return 0, 0.0
    denom = head[idx] - head[idx - 1]
    return idx - 1, (rank - head[idx - 1]) / denom if denom > 0 else 0.0


def experienced_route_time(
    path,
    fd_time_fn: Callable[[int, float], float | None],
    k: float,
    horizon: float | None = None,
) -> float | None:
    """Route time accumulated link by link from the loaded traversal times.

    Each link's traversal time is evaluated at the instant the traveller
    reaches it: entering link i at time t costs fd_time_fn(link_id, t) and the
    next link is entered at t plus that cost.  Returns None when the trip
    cannot be completed within the horizon (an incomplete trip, deliberately
    distinct from any numeric result).
    """
    t = float(k)
    for link_id in path.link_ids:
        c = fd_time_fn(link_id, t)
        if c is None or not math.isfinite(c):
            return None
        t += c
        if horizon is not None and t > horizon:
            return None
    return t - float(k)

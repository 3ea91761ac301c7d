"""Array kernels on cumulative boundary counts: link bounds, reservations, FIFO.

Each link tracks the cumulative number of pedestrians that crossed its
upstream boundary (U) and its downstream boundary (V) at every grid instant,
optionally decomposed by destination; the kernels take all links' curves as
rows of one array.  Sending and receiving flows are the classic
kinematic-wave bounds evaluated against these curves: the sending bound
looks back a free-flow traversal (at the counterflow-degraded speed), the
receiving bound looks back a wave traversal and adds the storage.  The
counterflow reservation counts what is under way on each link's twin.
Off-grid lookback instants are linearly interpolated.
"""

from __future__ import annotations

import numpy as np


def interp_at(arr: np.ndarray, tau: np.ndarray, dt: float, rows: np.ndarray | None = None) -> np.ndarray:
    """Linear interpolation of cumulative rows at per-row instants.

    arr has shape (n, n_bins + 1) with sample b at instant b * dt.  Instants
    before the simulation start read as zero (curves start empty).  `rows`
    selects which row each tau entry reads (defaults to one tau per row).
    """
    tau = np.asarray(tau, dtype=float)
    b = np.clip(tau / dt, 0.0, arr.shape[1] - 1)  # hold the end values, never extrapolate
    idx = np.minimum(b.astype(int), arr.shape[1] - 2)
    frac = b - idx
    if rows is None:
        rows = np.arange(arr.shape[0])
    return arr[rows, idx] * (1.0 - frac) + arr[rows, idx + 1] * frac


def sending_flows_at(U, V, t, dt, lengths, vhat, caps):
    """Sending flows of all links for the step starting at bin t (persons)."""
    tau = (t + 1) * dt - lengths / vhat
    boundary = interp_at(U, tau, dt) - V[:, t]
    return np.clip(np.minimum(boundary, caps * dt), 0.0, None)


def receiving_flows_at(V, U, t, dt, lengths, omegas, storage, caps):
    """Receiving flows of all links for the step starting at bin t (persons)."""
    tau = (t + 1) * dt - lengths / omegas
    boundary = interp_at(V, tau, dt) + storage - U[:, t]
    return np.clip(np.minimum(boundary, caps * dt), 0.0, None)


def counterflow_at(U, t, dt, twin, lengths, v_f):
    """Counterflow reservations of all links for the step starting at bin t (persons).

    Link i reserves the pedestrians who entered its twin (row twin[i]) within
    the one-step window that, at the twin's free-flow pace over the shared
    length, puts them at link i's entry node during the step.  One-way links
    (twin -1) reserve nothing.
    """
    out = np.zeros(len(twin))
    paired = np.flatnonzero(twin >= 0)
    if paired.size:
        rows = twin[paired]
        shift = lengths[paired] / v_f[rows]
        hi = interp_at(U, (t + 1) * dt - shift, dt, rows=rows)
        lo = interp_at(U, t * dt - shift, dt, rows=rows)
        out[paired] = np.maximum(hi - lo, 0.0)
    return out


def split_by_entry_order(U: np.ndarray, Ud: np.ndarray, r0: float, r1: float, t: int) -> np.ndarray:
    """Destination composition of the pedestrians ranked (r0, r1] on a link.

    Ranks are positions on the upstream cumulative curve; the split follows
    entry order, which is what keeps exits first-in-first-out.  Returns the
    per-destination counts, scaled to sum exactly to r1 - r0.
    """
    amount = r1 - r0
    if amount <= 0:
        return np.zeros(Ud.shape[0])
    w1 = _counts_up_to_rank(U, Ud, r1, t)
    w0 = _counts_up_to_rank(U, Ud, r0, t)
    split = np.clip(w1 - w0, 0.0, None)
    total = split.sum()
    if total <= 0:
        return np.zeros(Ud.shape[0])
    return split * (amount / total)


def _counts_up_to_rank(U: np.ndarray, Ud: np.ndarray, rank: float, t: int) -> np.ndarray:
    """Per-destination entries among the first `rank` entrants (interpolated)."""
    b, frac = _rank_position(U[: t + 1], rank)
    return Ud[:, b] * (1.0 - frac) + Ud[:, b + 1] * frac


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

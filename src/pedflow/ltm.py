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


def sending_flows_at(U, V, t, dt, lengths, vhat, caps, rows=None):
    """Sending flows for the step starting at bin t (persons), of every link or of `rows`.

    lengths, vhat and caps hold one entry per returned flow.
    """
    tau = (t + 1) * dt - lengths / vhat
    boundary = interp_at(U, tau, dt, rows) - (V[:, t] if rows is None else V[rows, t])
    return np.clip(np.minimum(boundary, caps * dt), 0.0, None)


def receiving_flows_at(V, U, t, dt, lengths, omegas, storage, caps, rows=None):
    """Receiving flows for the step starting at bin t (persons), of every link or of `rows`.

    lengths, omegas, storage and caps hold one entry per returned flow.
    """
    tau = (t + 1) * dt - lengths / omegas
    boundary = interp_at(V, tau, dt, rows) + storage - (U[:, t] if rows is None else U[rows, t])
    return np.clip(np.minimum(boundary, caps * dt), 0.0, None)


def counterflow_at(U, t, dt, twin, lengths, v_f, rows=None):
    """Counterflow reservations for the step starting at bin t (persons), of every link or of `rows`.

    Link i reserves the pedestrians who entered its twin (row twin[i]) within
    the one-step window that, at the twin's free-flow pace over the shared
    length, puts them at link i's entry node during the step.  One-way links
    (twin -1) reserve nothing.  twin, lengths and v_f hold every link.
    """
    rows = np.arange(len(twin)) if rows is None else np.asarray(rows)
    out = np.zeros(len(rows))
    paired = np.flatnonzero(twin[rows] >= 0)
    if paired.size:
        links = rows[paired]
        opposite = twin[links]
        shift = lengths[links] / v_f[opposite]
        hi = interp_at(U, (t + 1) * dt - shift, dt, rows=opposite)
        lo = interp_at(U, t * dt - shift, dt, rows=opposite)
        out[paired] = np.maximum(hi - lo, 0.0)
    return out


def split_by_entry_order(U: np.ndarray, Ud: np.ndarray, r0, r1, t: int, rows=None) -> np.ndarray:
    """Destination composition of the pedestrians ranked (r0[i], r1[i]] on link rows[i].

    U holds the links' upstream curves (n, n_bins + 1) and Ud their
    per-destination split (n, n_dest, n_bins + 1); `rows` picks the row of
    each window (every row in order by default).  Ranks are positions on the
    upstream cumulative curve; the split follows entry order, which is what
    keeps exits first-in-first-out.  Returns (windows, n_dest) counts, each
    row scaled to sum exactly to r1 - r0, or zeros where the window or the
    composition found in it is empty.
    """
    r0, r1 = np.asarray(r0, dtype=float), np.asarray(r1, dtype=float)
    amount = r1 - r0
    split = np.clip(_counts_up_to_rank(U, Ud, r1, t, rows) - _counts_up_to_rank(U, Ud, r0, t, rows), 0.0, None)
    total = split.sum(axis=1)
    ok = (amount > 0) & (total > 0)
    scale = amount / np.where(ok, total, 1.0)
    return np.where(ok[:, None], split * scale[:, None], 0.0)


def _counts_up_to_rank(U: np.ndarray, Ud: np.ndarray, rank, t: int, rows=None) -> np.ndarray:
    """Per-destination entries among the first rank[i] entrants of row rows[i] (interpolated)."""
    rows = np.arange(U.shape[0]) if rows is None else np.asarray(rows)
    b, frac = _rank_positions(U[rows, : t + 1], np.asarray(rank, dtype=float))
    frac = frac[:, None]
    return Ud[rows, :, b] * (1.0 - frac) + Ud[rows, :, b + 1] * frac


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


def _rank_positions(head: np.ndarray, rank: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`_rank_position` of every row: head[i] and rank[i] for each i at once.

    On a nondecreasing row the samples below the rank are a prefix, so their
    count is the searchsorted position.  (The scalar form stays for the one-rank
    callers, whose call costs a fifth of this one's.)"""
    rank = np.minimum(rank, head[:, -1])
    idx = (head < rank[:, None]).sum(axis=1)
    below = np.maximum(idx - 1, 0)
    rows = np.arange(head.shape[0])
    lo = head[rows, below]
    denom = head[rows, idx] - lo
    moving = (idx > 0) & (denom > 0)
    frac = np.where(moving, (rank - lo) / np.where(moving, denom, 1.0), 0.0)
    return below, frac

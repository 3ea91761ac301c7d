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
    b = np.minimum(np.maximum(tau / dt, 0.0), arr.shape[1] - 1)  # hold the end values, never extrapolate
    idx = np.minimum(b.astype(int), arr.shape[1] - 2)
    frac = b - idx
    rows = np.arange(arr.shape[0]) if rows is None else rows
    return arr[rows, idx] * (1.0 - frac) + arr[rows, idx + 1] * frac


def sending_flows_at(U, V, t, dt, lengths, vhat, caps, rows=None):
    """Sending flows for the step starting at bin t (persons), of every link or of `rows`.

    lengths, vhat and caps hold one entry per returned flow.
    """
    tau = (t + 1) * dt - lengths / vhat
    boundary = interp_at(U, tau, dt, rows) - (V[:, t] if rows is None else V[rows, t])
    return np.maximum(np.minimum(boundary, caps * dt), 0.0)


def receiving_flows_at(V, U, t, dt, lengths, omegas, storage, caps, rows=None):
    """Receiving flows for the step starting at bin t (persons), of every link or of `rows`: `supplies_at`
    without twins.  lengths, omegas, storage and caps hold one entry per returned flow."""
    rows = np.arange(len(U)) if rows is None else np.asarray(rows)
    no_twin = np.full(len(U), -1)
    return supplies_at(np.array((U, V)), t, dt, rows, lengths, omegas, storage, caps, no_twin, np.zeros(0))[0]


def counterflow_at(U, t, dt, twin, lengths, v_f, rows=None):
    """Counterflow reservations for the step starting at bin t (persons), of every link or of `rows`:
    `supplies_at` on U alone.  twin, lengths and v_f hold every link."""
    rows = np.arange(len(twin)) if rows is None else np.asarray(rows)
    return supplies_at(np.array((U, U)), t, dt, rows, lengths[rows], v_f[rows], 0.0, 0.0, twin, v_f)[1]


def supplies_at(curves, t, dt, rows, lengths, omegas, storage, caps, twin, v_f):
    """Receiving flows and counterflow reservations of the link rows `rows` for the step starting at bin t
    (persons), from one gather of curves, U stacked over V (2, n, n_bins + 1).

    Link i reserves the pedestrians who entered its twin (row twin[i]) within
    the one-step window that, at the twin's free-flow pace over the shared
    length, puts them at link i's entry node during the step.  One-way links
    (twin -1) reserve nothing.  lengths, omegas, storage and caps hold one
    entry per row, twin and v_f one per link.
    """
    n, k = curves.shape[1], len(rows)
    paired = (twin[rows] >= 0).nonzero()[0]
    opposite = twin[rows[paired]]
    shift = lengths[paired] / v_f[opposite]
    tau = np.concatenate(((t + 1) * dt - lengths / omegas, (t + 1) * dt - shift, t * dt - shift))
    ends = interp_at(curves.reshape(2 * n, -1), tau, dt, np.concatenate((rows + n, opposite, opposite)))
    reserved = np.zeros(k)
    reserved[paired] = np.maximum(ends[k : k + len(paired)] - ends[k + len(paired):], 0.0)
    return np.maximum(np.minimum(ends[:k] + storage - curves[0, rows, t], caps * dt), 0.0), reserved


def split_by_entry_order(U: np.ndarray, Ud: np.ndarray, r0, r1, t: int, rows=None, cursor=None) -> np.ndarray:
    """Destination composition of the pedestrians ranked (r0[i], r1[i]] on link rows[i].

    U holds the links' upstream curves (n, n_bins + 1) and Ud their
    per-destination split (n, n_dest, n_bins + 1); `rows` picks the row of
    each window (every row in order by default).  Ranks are positions on the
    upstream cumulative curve; the split follows entry order, which is what
    keeps exits first-in-first-out.  Returns (windows, n_dest) counts, each
    row scaled to sum exactly to r1 - r0, or zeros where the window or the
    composition found in it is empty.  `cursor` (one entry per row of U)
    may hold each row's sample below an earlier r0 no greater than its r0
    now: the one search for both window ends then starts at the least of
    them, and moves the entries of `rows` to their r0.
    """
    r0, r1 = np.asarray(r0, dtype=float), np.asarray(r1, dtype=float)
    rows = np.arange(U.shape[0]) if rows is None else np.asarray(rows)
    start = int(np.minimum.reduce(cursor[rows])) if cursor is not None and rows.size else 0
    counts, b = _counts_up_to_rank(U, Ud, np.concatenate((r1, r0)), t, np.concatenate((rows, rows)), start)
    if cursor is not None:
        cursor[rows] = b[len(rows):]
    amount = r1 - r0
    split = np.maximum(counts[: len(rows)] - counts[len(rows):], 0.0)
    total = np.add.reduce(split, axis=1)
    ok = (amount > 0) & (total > 0)
    scale = amount / np.where(ok, total, 1.0)
    return np.where(ok[:, None], split * scale[:, None], 0.0)


def _counts_up_to_rank(U: np.ndarray, Ud: np.ndarray, rank, t: int, rows, start: int = 0):
    """Per-destination entries among the first rank[i] entrants of row rows[i] (interpolated), and the
    sample below each rank, searched from sample `start`, which is at most any of those."""
    b, frac = _rank_positions(U[rows, start : t + 1], np.asarray(rank, dtype=float))
    b += start
    frac = frac[:, None]
    return Ud[rows, :, b] * (1.0 - frac) + Ud[rows, :, b + 1] * frac, b


def crossing_times(curves: np.ndarray, rank: np.ndarray, dt: float, n_valid: int) -> np.ndarray:
    """First instant each cumulative row curves[i] reaches rank[i], NaN where it never does.

    Only bins up to n_valid are trusted (later bins may not be written yet).
    A rank within 1e-12 above a row's last sample crosses there.
    """
    head = curves[:, : n_valid + 1]
    rank = np.asarray(rank, dtype=float)
    b, frac = _rank_positions(head, rank)
    return np.where(head[:, -1] < rank - 1e-12, np.nan, (b + frac) * dt)


def _rank_positions(head: np.ndarray, rank: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sample, fraction) per row: the nondecreasing samples head[i] first
    reach rank[i], clamped to the last sample, at sample + fraction (linear
    interpolation); (0, 0.0) where the first sample already reaches it.

    On a nondecreasing row the samples below the rank are a prefix, so their
    count is the searchsorted position."""
    rank = np.minimum(rank, head[:, -1])
    idx = np.add.reduce(head < rank[:, None], axis=1)
    below = np.maximum(idx - 1, 0)
    rows = np.arange(head.shape[0])
    lo = head[rows, below]
    denom = head[rows, idx] - lo
    moving = (idx > 0) & (denom > 0)
    frac = np.where(moving, (rank - lo) / np.where(moving, denom, 1.0), 0.0)
    return below, frac

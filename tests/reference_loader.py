"""The per-node loader as it stood before the one-pass loader step, kept as a test reference.

`reference_load_network` is that `loading.load_network`, verbatim except
for its name and two calls: the scalar FIFO split and the scalar fraction
lookup it called are the functions below.  The split is copied verbatim
from `ltm` of the same version (its `_rank_position` lives in
`reference_route_times`).  The lookup reads the dense arrays of
`nodemodel.TurningFractions` one key at a time, its total from the stored
group totals, so it stays independent of `TurningFractions.fractions`; it
takes and returns node and link ids, and converts them through `arrays` to
the node positions and link rows the class holds.  The end node of each
link is read as `arrays.nodes` at `arrays.head`.
It loops over the active nodes of every step and calls `solve_node` on
each of them.  The link kernels it calls (`ltm.sending_flows_at`,
`ltm.receiving_flows_at`, `ltm.counterflow_at`, `fd.density_ratio_profile`)
are the package's, on every link.
"""

from __future__ import annotations

import numpy as np

from pedflow import fd, ltm
from pedflow.loading import LoadingResult
from pedflow.nodemodel import ORIGIN, SINK, NodeFlowProblem, TurningFractions, solve_node
from reference_route_times import _rank_position


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


def turning_fractions(tf, dest: int, node: int, in_key: int, t_idx: int, arrays) -> list[tuple[int, float]]:
    """Normalized split [(out_key, fraction), ...] for one incoming link.

    The movement mass at this instant decides; without any, residual
    pedestrians follow the shortest-path successor.  Empty only where the
    destination cannot be reached from the node (or has no tree column).
    """
    if node == dest:
        return [(SINK, 1.0)]
    t = min(t_idx, tf.n_bins - 1)

    def link_id(row):  # SINK and -1 (no successor) stay themselves
        return int(row) if row < 0 else arrays.order[row]

    dest_pos, node_pos = arrays.node_index[dest], arrays.node_index[node]
    key = (dest_pos, node_pos, in_key if in_key == ORIGIN else arrays.index[in_key])
    g = np.flatnonzero((tf.group_keys == key).all(axis=1))  # group g is row g of the keys
    if g.size:
        g = g[0]
        total = tf.totals[g, t]
        if total > 1e-15:
            moves = range(tf.first[g], tf.first[g] + tf.count[g])
            return [(link_id(tf.out_key[m]), tf.mass[m, t] / total) for m in moves if tf.mass[m, t] > 0]
    row = tf.tree_row[dest_pos]
    lid = -1 if row < 0 else link_id(tf.trees.succ[tf.tree_cols[row, t], node_pos])
    return [(lid, 1.0)] if lid >= 0 else []


def reference_load_network(
    network,
    grid,
    demand,
    fractions: TurningFractions,
    fd_variant: str = "logistic",
    fd_gamma: float | None = None,
    effective_storage: bool = False,
    node_trace: bool = False,
) -> LoadingResult:
    """Propagate the demand through the network under the given turning fractions."""
    destinations = demand.destinations()
    n_dest = len(destinations)
    d_index = {d: i for i, d in enumerate(destinations)}
    result = LoadingResult(network, grid, destinations)
    result.fd_variant = fd_variant
    result.fd_gamma = fd_gamma

    n_bins = grid.n_bins
    dt = grid.dt
    idx = result.link_index
    arrays = network.arrays
    n_links = len(arrays.order)
    L, VF, OM, CAP, twin = arrays.length, arrays.v_f, arrays.omega, arrays.capacity, arrays.twin
    storage_phys = arrays.k_jam * arrays.area

    # demand release schedule: bin -> [(origin node, destination column, persons)]
    schedule: dict[int, list[tuple[int, int, float]]] = {}
    for e in demand.entries:
        if e.rate <= 0:
            continue
        b = grid.bin_of(e.depart_s)
        schedule.setdefault(b, []).append((e.origin, d_index[e.destination], e.rate * dt))
        result.demanded[d_index[e.destination]] += e.rate * dt
    queues: dict[int, np.ndarray] = {}

    U, V, Ud, Vd = result.U, result.V, result.Ud, result.Vd
    eps = 1e-12

    for t in range(n_bins):
        for origin, d, amount in schedule.get(t, ()):
            queues.setdefault(origin, np.zeros(n_dest))[d] += amount

        rho = fd.density_ratio_profile((U[:, t] - V[:, t]) / arrays.area, twin)
        with np.errstate(invalid="ignore", divide="ignore"):
            vhat = fd.effective_speed_profile(VF, rho, fd_variant, fd_gamma)
            S_all = ltm.sending_flows_at(U, V, t, dt, L, np.maximum(vhat, 1e-15), CAP)
        S_all[vhat <= 0] = 0.0
        storage = rho * storage_phys if effective_storage else storage_phys
        # one entry past the links for the sink: unlimited supply, nothing reserved
        R_all = np.append(ltm.receiving_flows_at(V, U, t, dt, L, OM, storage, CAP), np.inf)
        counterflow = np.append(ltm.counterflow_at(U, t, dt, twin, L, VF), 0.0)

        active = (set(np.array(arrays.nodes)[arrays.head][S_all > eps].tolist())
                  | {o for o, q in queues.items() if q.sum() > eps})

        dU = np.zeros((n_links, n_dest))
        dV = np.zeros((n_links, n_dest))

        for node_id in sorted(active):
            # sending in keys with their persons per destination: the FIFO split
            # of each in-link, then the origin queue
            senders = []
            for lid in network.in_links.get(node_id, ()):
                i = idx[lid]
                if S_all[i] > eps:
                    senders.append((lid, split_by_entry_order(U[i], Ud[i], V[i, t], V[i, t] + S_all[i], t)))
            if node_id in queues and queues[node_id].sum() > eps:
                senders.append((ORIGIN, queues[node_id]))
            in_keys: list[int] = []
            moves: list[tuple[int, int, int, float]] = []  # (row, dest column, out key, persons)
            for in_key, persons in senders:
                n_moves, row = len(moves), len(in_keys)
                for d, p in enumerate(persons.tolist()):
                    if p <= eps:
                        continue
                    fracs = turning_fractions(fractions, destinations[d], node_id, in_key, t, arrays)
                    if not fracs and in_key != ORIGIN:  # queued persons stay queued, not lost
                        result.unroutable += p
                    for key, frac in fracs:
                        if frac > 0:
                            moves.append((row, d, key, p * frac))
                if len(moves) > n_moves:
                    in_keys.append(in_key)
            if not moves:
                continue

            # columns: the used out keys in ascending order, the sink last
            keys = sorted({m[2] for m in moves}, key=lambda key: (key == SINK, key))
            col = {key: c for c, key in enumerate(keys)}
            demands = np.zeros((len(in_keys), len(keys)))
            for r, d, out_key, mass in moves:
                demands[r, col[out_key]] += mass
            out_rows = [idx.get(key, n_links) for key in keys]  # the sink reads the entry past the links
            supplies, reserved = R_all.take(out_rows), counterflow.take(out_rows)
            sol = solve_node(NodeFlowProblem(demands, supplies, reserved))
            result.supply_clamps += len(sol.clamped)

            theta = sol.reductions.tolist()
            for r, d, out_key, mass in moves:
                flow = theta[r] * mass
                if flow <= 0:
                    continue
                if out_key == SINK:
                    result.completed[d] += flow
                else:
                    dU[idx[out_key], d] += flow
                if in_keys[r] == ORIGIN:
                    queues[node_id][d] -= flow
                    result.loaded[d] += flow
                else:
                    dV[idx[in_keys[r]], d] += flow
            if node_trace:
                order = sorted(range(len(keys)), key=keys.__getitem__)  # ascending: the sink first
                for in_key, s_row, theta_r in zip(in_keys, demands.tolist(), theta):
                    result.node_trace += [(node_id, t * dt, in_key, keys[c], s_row[c], supplies[c], reserved[c],
                                           theta_r * s_row[c]) for c in order if s_row[c] > 0]

        for q in queues.values():
            np.clip(q, 0.0, None, out=q)
        Ud[:, :, t + 1] = Ud[:, :, t] + dU
        Vd[:, :, t + 1] = Vd[:, :, t] + dV
        U[:, t + 1] = U[:, t] + dU.sum(axis=1)
        V[:, t + 1] = V[:, t] + dV.sum(axis=1)

    for q in queues.values():
        result.queued += q
    return result

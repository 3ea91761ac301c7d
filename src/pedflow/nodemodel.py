"""First-order node model with counterflow reservation and turning fractions.

A node problem carries oriented demands (what each incoming link would send
to each outgoing link), receiving flows, and a reservation per outgoing link
for the opposing stream already under way on its bidirectional twin.  The
solver maximizes the total transfer subject to non-negativity, demand,
reserved supply, and proportional scaling of each incoming link's movements
(one reduction factor per incoming link, which is what keeps exits
first-in-first-out).

The reservation term is the gridlock valve: pedestrians wanting to enter a
segment yield part of its supply to the counterflow that will reach the node
within one free-flow traversal (`ltm.counterflow_at` counts it), which
makes opposing streams take turns instead of wedging solid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import shortest_paths

# Virtual row/column keys used when a node problem includes trip ends.
ORIGIN = -1  # incoming side: demand queued at an origin centroid
SINK = -2  # outgoing side: trips ending at a destination centroid

# Pivots the node simplex may take, per tableau row and column.  Bland's rule
# cannot cycle, so running out means the pivot tolerances broke the method.
PIVOTS_PER_DIMENSION = 200


@dataclass
class NodeFlowProblem:
    """Oriented demands, supplies and counterflow reservations at one node.

    demands[i, j] is what incoming link i would send toward outgoing link j
    this step (already turn-fraction weighted); supplies[j] is the receiving
    flow of outgoing link j; counterflow[j] is the portion of that supply
    reserved for the opposing stream.  A stack of same-shaped problems puts
    the problem axis first: demands (n, n_in, n_out), the others (n, n_out).
    """

    demands: np.ndarray
    supplies: np.ndarray
    counterflow: np.ndarray | None = None

    def __post_init__(self):
        self.demands = np.asarray(self.demands, dtype=float)
        self.supplies = np.asarray(self.supplies, dtype=float)
        if self.counterflow is None:
            self.counterflow = np.zeros_like(self.supplies)
        else:
            self.counterflow = np.asarray(self.counterflow, dtype=float)
        *stack, _, n_out = self.demands.shape
        if len(stack) > 1 or not self.supplies.shape == self.counterflow.shape == (*stack, n_out):
            raise ValueError("supplies/counterflow must have one entry per outgoing link")
        for field in ("demands", "counterflow"):
            values = getattr(self, field)
            if not ((values >= 0) & (values < np.inf)).all():
                raise ValueError(f"{field} must be finite and nonnegative")
        if np.isnan(self.supplies).any():
            raise ValueError("supplies must be numbers (inf for a sink)")


@dataclass
class NodeFlowSolution:
    """Transfer flows and the per-incoming-link reduction factors behind them."""

    flows: np.ndarray
    reductions: np.ndarray
    clamped: tuple[int, ...] = ()  # flat indices into the problem's supplies

    @property
    def total(self) -> float:
        return float(self.flows.sum())


def solve_node(problem: NodeFlowProblem) -> NodeFlowSolution:
    """Maximize the total transfer through a node, or each node of a stack.

    Flows scale each incoming link's oriented demands by a single factor
    (proportional movements), never exceed demand, and leave every outgoing
    link's reserved supply intact.  Demands that all fit pass whole.  If not,
    the max-min fair shares (equal priority, unused shares redistributed) are
    returned when their total is within 1e-9 (relative) of the simplex
    maximum, and otherwise the simplex's maximal-total vertex, unchanged.
    Negative reserved supply (reservation larger than the receiving flow)
    clamps to zero and is reported in `clamped`.  The problems of a stack
    are solved apart; the fair shares run in lockstep over them.
    """
    *stack, n_in, n_out = problem.demands.shape
    S = problem.demands.reshape(math.prod(stack), n_in, n_out)  # one problem is a stack of one
    available, clamped = available_supply(problem.supplies.reshape(-1, n_out), problem.counterflow.reshape(-1, n_out))
    clamped = tuple(np.flatnonzero(clamped).tolist())

    col_load = S.sum(axis=1)
    scale = np.maximum(1.0, col_load.max(axis=1, initial=0.0))
    congested = np.flatnonzero(~supply_fits(col_load, available, scale[:, None]).all(axis=1))
    flows, reductions = S.copy(), np.ones((len(S), n_in))
    flows[congested], reductions[congested] = _equal_priority_shares(S[congested], available[congested])
    for p in congested.tolist():
        q_max, theta_max = _max_total_vertex(S[p], available[p])
        if flows[p].sum() < q_max.sum() - 1e-9 * max(1.0, q_max.sum()):
            flows[p], reductions[p] = q_max, theta_max
    return NodeFlowSolution(flows.reshape(problem.demands.shape), reductions.reshape(*stack, n_in), clamped)


def available_supply(supplies: np.ndarray, counterflow: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(supply left after the reservation, clamped at zero; where it was negative)."""
    available = supplies - counterflow
    return np.maximum(available, 0.0), available < -1e-12


def supply_fits(col_load: np.ndarray, available: np.ndarray, scale) -> np.ndarray:
    """Whether each outgoing link's load fits its available supply, within
    1e-12 of its node's scale, max(1, the node's largest load)."""
    return col_load <= available + 1e-12 * scale


def _equal_priority_shares(S: np.ndarray, available: np.ndarray):
    """Equal-priority supply sharing with redistribution of unused shares,
    in lockstep over a stack of problems (S is (problems, in, out)).

    Every pass pins down at least one incoming link of each unfinished
    problem: either links whose whole demand fits their current shares, or
    the most constrained link at its bottleneck share.  Freed shares then
    flow back to the remaining competitors, so the result is the max-min
    fair transfer pattern.
    """
    uses = S > 0
    theta = np.ones(S.shape[:2])
    remaining = available.copy()
    started = active = uses.any(axis=2)
    with np.errstate(divide="ignore", invalid="ignore"):  # cells and columns no active link uses
        while active.any():
            used = uses & active[:, :, None]
            ratio = (remaining / used.sum(axis=1))[:, None, :] / S
            cand = np.where(used, ratio, 1.0).min(axis=2, initial=1.0)  # in [0, 1]: no supply left is negative
            # the links whose demand fits whole, or else the most constrained ones
            fit = np.where(active, cand, -np.inf).max(axis=1) >= 1.0 - 1e-15
            t_min = np.where(active, cand, np.inf).min(axis=1)
            pinned = active & np.where(fit[:, None], cand >= 1.0 - 1e-15, cand <= t_min[:, None] + 1e-15)
            theta = np.where(pinned, cand, theta)
            # pinned links take their flows from the supply left one after another, in row order
            taken = np.where(pinned[:, :, None], theta[:, :, None] * S, 0.0)
            remaining = np.subtract.reduce(np.concatenate((remaining[:, None], taken), axis=1), axis=1)
            np.clip(remaining, 0.0, None, out=remaining)
            active = active & ~pinned
    return np.where(started[:, :, None], theta[:, :, None] * S, 0.0), theta


def _max_total_vertex(S: np.ndarray, available: np.ndarray):
    """Exact maximum-total transfer via a small dense simplex (Bland's rule).

    Variables are the per-incoming-link totals; bounds are the demands and the
    turn-fraction-weighted supply constraints.  Small and deterministic.
    """
    n_in, n_out = S.shape
    row_tot = S.sum(axis=1)
    act = [i for i in range(n_in) if row_tot[i] > 0]
    theta = np.ones(n_in)
    phi = S[act] / row_tot[act][:, None]  # movement fractions of each active row
    sup_rows = [j for j in range(n_out) if math.isfinite(available[j])]
    n = len(act)
    m = n + len(sup_rows)
    T = np.zeros((m + 1, n + m + 1))
    T[:n, :n] = np.eye(n)
    T[:n, -1] = row_tot[act]
    T[n:m, :n] = phi[:, sup_rows].T
    T[n:m, -1] = available[sup_rows]
    T[:m, n : n + m] = np.eye(m)
    T[m, :n] = -1.0
    basis = list(range(n, n + m))
    for _ in range(PIVOTS_PER_DIMENSION * (m + n)):
        enter = -1
        for col in range(n + m):
            if T[m, col] < -1e-12:
                enter = col
                break
        if enter < 0:
            break
        leave, best, best_bv = -1, math.inf, math.inf
        for row in range(m):
            coef = T[row, enter]
            if coef > 1e-12:
                ratio = T[row, -1] / coef
                if ratio < best - 1e-12 or (ratio < best + 1e-12 and basis[row] < best_bv):
                    leave, best, best_bv = row, ratio, basis[row]
        if leave < 0:
            raise RuntimeError("node transfer program is unbounded")  # cannot happen: demands bound it
        T[leave] /= T[leave, enter]
        for row in range(m + 1):
            if row != leave and T[row, enter] != 0.0:
                T[row] -= T[row, enter] * T[leave]
        basis[leave] = enter
    else:
        raise RuntimeError(
            f"node transfer simplex hit its pivot cap ({PIVOTS_PER_DIMENSION * (m + n)}) before the optimum"
        )
    x = np.zeros(n)
    for row, bv in enumerate(basis):
        if bv < n:
            x[bv] = T[row, -1]
    for pos, i in enumerate(act):
        theta[i] = min(max(x[pos] / row_tot[i], 0.0), 1.0)
    q = theta[:, None] * S
    return q, theta


def _group(*keys):
    """Number the distinct key tuples in np.lexsort order (the last key
    major); returns each element's number and the first element of each
    (its earliest, np.lexsort being stable)."""
    order = np.lexsort(keys)
    new = np.zeros(len(order), dtype=bool)
    new[:1] = True
    for key in keys:
        ranked = key[order]
        new[1:] |= ranked[1:] != ranked[:-1]
    number = np.empty(len(order), dtype=np.intp)
    number[order] = np.cumsum(new) - 1
    return number, order[new]


class TurningFractions:
    """Per-destination, per-node movement split over time, with a successor fallback.

    `movements` holds flat arrays (dest, node, in_key, out_key, bin, mass):
    one entry per contribution of route flow, in the order they are summed
    (`paths_to_turning_fractions` builds them); dest and node are node
    positions, the keys link rows or ORIGIN/SINK.  They become dense arrays:
    groups numbers the distinct (dest, node, in_key) keys, and group g's
    movements are rows first[g] to first[g] + count[g] of mass (movement,
    bin), out keys ascending.  Each mass cell sums its contributions in
    their order; totals (group, bin) sums each group's rows in the order
    their out keys first appear.  Where no mass exists for an incoming link
    at some instant, the split follows the destination's shortest-path
    successor in `trees` (`network.Trees`), so residual pedestrians route
    wherever the destination can be reached.
    """

    def __init__(self, n_bins: int, trees, movements=None):
        self.n_bins = n_bins
        self.trees = trees
        if movements is None:
            movements = (np.zeros(0, dtype=int),) * 5 + (np.zeros(0),)
        dest, node, in_key, out_key, bins, mass = movements
        group, key_at = _group(in_key, node, dest)
        move, seen = _group(out_key, group)  # seen: each movement's first contribution
        keys = zip(dest[key_at].tolist(), node[key_at].tolist(), in_key[key_at].tolist())
        self.groups = {key: g for g, key in enumerate(keys)}
        self.count = np.bincount(group[seen], minlength=len(key_at))
        self.first = np.cumsum(self.count) - self.count
        self.out_key = out_key[seen]
        self.mass = np.bincount(move * n_bins + bins, mass, len(seen) * n_bins).reshape(-1, n_bins)
        self.totals = np.zeros((len(key_at), n_bins))
        by_seen = np.argsort(seen)
        np.add.at(self.totals, group[seen[by_seen]], self.mass[by_seen])
        # per destination and bin, the tree column of the latest tree bin at or
        # before it (its first tree before that); row tree_row[dest] (-1: no tree) of tree_cols
        tree_dests = sorted(set(trees.dest_nodes.tolist()))
        self.tree_row = np.full(trees.dist.shape[1], -1, dtype=np.intp)
        self.tree_row[tree_dests] = np.arange(len(tree_dests))
        self.tree_cols = np.zeros((len(tree_dests), n_bins), dtype=np.intp)
        order = np.lexsort((trees.bins, trees.dest_nodes))
        for i, d in enumerate(tree_dests):
            cols = order[trees.dest_nodes[order] == d]
            pos = np.searchsorted(trees.bins[cols], np.arange(n_bins), side="right") - 1
            self.tree_cols[i] = cols[np.maximum(pos, 0)]

    @property
    def destinations(self) -> list[int]:  # node positions
        return sorted({key[0] for key in self.groups} | set(np.flatnonzero(self.tree_row >= 0).tolist()))

    def fractions(self, dests, nodes, in_keys, t_idx: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Normalized splits of many incoming links at one instant, as flat arrays.

        Query i asks for the split toward dests[i] of what reaches nodes[i]
        through in_keys[i].  Returns (query, out_keys, fractions): one entry
        per (query, out key) pair, queries ascending, each query's out keys
        ascending.  At its destination a query sinks; elsewhere the movement
        mass at this instant decides (out keys with mass, each over the group
        total); without any, residual pedestrians follow the shortest-path
        successor.  A query gets no entry only where its destination cannot
        be reached from the node (or has no tree column).
        """
        t = min(t_idx, self.n_bins - 1)
        dests, nodes, in_keys = (np.asarray(a, dtype=int) for a in (dests, nodes, in_keys))
        get = self.groups.get
        group = np.array([get(key, -1) for key in zip(dests.tolist(), nodes.tolist(), in_keys.tolist())],
                         dtype=np.intp)
        sinks = np.flatnonzero(dests == nodes)
        group[sinks] = -1

        # queries with movement mass at t: every movement of the group with mass, over the group total
        routed = np.flatnonzero(group >= 0)
        total = self.totals[group[routed], t]
        routed, total = routed[total > 1e-15], total[total > 1e-15]
        first, count = self.first[group[routed]], self.count[group[routed]]
        moves = np.arange(count.sum()) + np.repeat(first - np.cumsum(count) + count, count)
        mass = self.mass[moves, t]
        moved = mass > 0
        by_mass, keys = np.repeat(routed, count)[moved], self.out_key[moves[moved]]
        fracs = (mass / np.repeat(total, count))[moved]

        # the rest follow the successor, where there is one
        rest = np.ones(len(dests), dtype=bool)
        rest[sinks] = False
        rest[routed] = False
        rest = np.flatnonzero(rest)
        succ = self._successor(dests[rest], nodes[rest], t)
        rest, succ = rest[succ >= 0], succ[succ >= 0]

        query = np.concatenate((sinks, by_mass, rest))
        order = np.argsort(query, kind="stable")
        out_keys = np.concatenate((np.full(len(sinks), SINK), keys, succ))
        fracs = np.concatenate((np.ones(len(sinks)), fracs, np.ones(len(rest))))
        return query[order], out_keys[order], fracs[order]

    def _successor(self, dests, nodes, t):
        """Successor link row of each (dest, node) in the dest's tree column at bin t, -1 where none."""
        rows = self.tree_row[dests]
        out = np.full(len(dests), -1)
        has = rows >= 0
        out[has] = self.trees.succ[self.tree_cols[rows[has], t], nodes[has]]
        return out


def paths_to_turning_fractions(path_flows, network, grid, costs=None, trees=None) -> TurningFractions:
    """Convert route flows into per-destination turning fractions over time.

    path_flows is an iterable of (path, departure bin k, flow in ped/s).  Each
    path's flow is projected forward through its nodes at the link costs
    frozen at the departure bin (costs: `(n_links, n_bins)`, rows in sorted
    link id order; free-flow times when None), and accumulated as movement
    mass per (destination, node, incoming, outgoing).  All paths advance
    together over link positions: a traveller enters its first link at
    k * dt, each next one at t + costs[row, min(k, last column)], in bin
    int(t / dt + 1e-9); arrivals past the horizon fold into the last bin.
    The movements come out item by item, each path in route order, which is
    the order their masses are summed.  `trees` (`network.Trees`) supplies
    the successor fallback; when None, free-flow trees toward the paths'
    destinations are built.
    """
    arrays = network.arrays
    costs = arrays.free_flow[:, None] if costs is None else costs
    path_flows = [item for item in path_flows if item[2] > 0]
    if trees is None:
        dests = sorted({path.od[1] for path, _, _ in path_flows})
        trees = shortest_paths(network, arrays.free_flow[:, None], [0] * len(dests), dests)
    n_bins, dt = grid.n_bins, grid.dt
    n = len(path_flows)
    lengths = np.array([len(path.link_ids) for path, _, _ in path_flows], dtype=int)
    padded = np.zeros((n, lengths.max(initial=0)), dtype=np.intp)  # link rows, route order, zero-padded
    padded[lengths[:, None] > np.arange(padded.shape[1])] = [arrays.index[lid] for path, _, _ in path_flows
                                                              for lid in path.link_ids]
    dest = np.array([arrays.node_index[path.od[1]] for path, _, _ in path_flows], dtype=int)
    k = np.array([k for _, k, _ in path_flows], dtype=int)
    flow = np.array([f for _, _, f in path_flows], dtype=float)
    col = np.minimum(k, costs.shape[1] - 1)

    t = k * dt
    in_key = np.full(n, ORIGIN)
    parts = []  # (item, node, in key, out key, entry instant) per link position, then the sinks
    for j in range(padded.shape[1]):
        on = np.flatnonzero(lengths > j)
        r = padded[on, j]
        parts.append((on, arrays.tail[r], in_key[on], r, t[on]))
        t[on] += costs[r, col[on]]
        in_key[on] = r
    parts.append((np.arange(n), dest, in_key, np.full(n, SINK), t))
    item, node, ins, outs, when = (np.concatenate(a) for a in zip(*parts))
    order = np.argsort(item, kind="stable")  # item by item, each in route order
    item = item[order]
    bins = np.minimum((when[order] / dt + 1e-9).astype(int), n_bins - 1)
    return TurningFractions(n_bins, trees, (dest[item], node[order], ins[order], outs[order], bins, flow[item]))

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
    reserved for the opposing stream.
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
        n_in, n_out = self.demands.shape
        if self.supplies.shape != (n_out,) or self.counterflow.shape != (n_out,):
            raise ValueError("supplies/counterflow must have one entry per outgoing link")
        if (self.demands < 0).any():
            raise ValueError("oriented demands must be nonnegative")
        if (self.counterflow < 0).any():
            raise ValueError("counterflow reservations must be nonnegative")


@dataclass
class NodeFlowSolution:
    """Transfer flows and the per-incoming-link reduction factors behind them."""

    flows: np.ndarray
    reductions: np.ndarray
    clamped: tuple[int, ...] = ()

    @property
    def total(self) -> float:
        return float(self.flows.sum())


def solve_node(problem: NodeFlowProblem) -> NodeFlowSolution:
    """Maximize the total transfer through a node.

    Flows scale each incoming link's oriented demands by a single factor
    (proportional movements), never exceed demand, and leave every outgoing
    link's reserved supply intact.  Among transfer patterns of maximal total,
    supply is shared at equal priority between competing incoming links, with
    unused shares redistributed.  Negative reserved supply (reservation larger
    than the receiving flow) clamps to zero and is reported in `clamped`.
    """
    S = problem.demands
    n_in, n_out = S.shape
    available, clamped = available_supply(problem.supplies, problem.counterflow)
    clamped = tuple(np.flatnonzero(clamped).tolist())

    col_load = S.sum(axis=0)
    if supply_fits(col_load, available, max(1.0, float(col_load.max(initial=0.0)))).all():
        return NodeFlowSolution(S.copy(), np.ones(n_in), clamped)

    q_fair, theta_fair = _equal_priority_shares(S, available)
    q_max, theta_max = _max_total_vertex(S, available)
    if q_fair.sum() >= q_max.sum() - 1e-9 * max(1.0, q_max.sum()):
        return NodeFlowSolution(q_fair, theta_fair, clamped)
    return NodeFlowSolution(q_max, theta_max, clamped)


def available_supply(supplies: np.ndarray, counterflow: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(supply left after the reservation, clamped at zero; where it was negative)."""
    available = supplies - counterflow
    return np.maximum(available, 0.0), available < -1e-12


def supply_fits(col_load: np.ndarray, available: np.ndarray, scale) -> np.ndarray:
    """Whether each outgoing link's load fits its available supply, within
    1e-12 of its node's scale, max(1, the node's largest load)."""
    return col_load <= available + 1e-12 * scale


def _equal_priority_shares(S: np.ndarray, available: np.ndarray):
    """Equal-priority supply sharing with redistribution of unused shares.

    Every pass pins down at least one incoming link: either links whose whole
    demand fits their current shares, or the most constrained link at its
    bottleneck share.  Freed shares then flow back to the remaining
    competitors, so the result is the max-min fair transfer pattern.
    """
    n_in, n_out = S.shape
    row_tot = S.sum(axis=1)
    theta = np.ones(n_in)
    q = np.zeros_like(S)
    remaining = available.astype(float).copy()
    active = [i for i in range(n_in) if row_tot[i] > 0]
    uses = {i: np.where(S[i] > 0)[0] for i in active}
    while active:
        competitors = {j: sum(1 for i in active if S[i, j] > 0) for j in range(n_out)}
        cand = {}
        for i in active:
            t_i = 1.0
            for j in uses[i]:
                share = remaining[j] / competitors[j]
                ratio = share / S[i, j]
                if ratio < t_i:
                    t_i = ratio
            cand[i] = max(t_i, 0.0)
        batch = [i for i in active if cand[i] >= 1.0 - 1e-15]
        if not batch:
            t_min = min(cand.values())
            batch = [i for i in active if cand[i] <= t_min + 1e-15]
        for i in batch:
            theta[i] = min(cand[i], 1.0)
            q[i] = theta[i] * S[i]
            remaining -= q[i]
        np.clip(remaining, 0.0, None, out=remaining)
        active = [i for i in active if i not in batch]
    return q, theta


def _max_total_vertex(S: np.ndarray, available: np.ndarray):
    """Exact maximum-total transfer via a small dense simplex (Bland's rule).

    Variables are the per-incoming-link totals; bounds are the demands and the
    turn-fraction-weighted supply constraints.  Small and deterministic.
    """
    n_in, n_out = S.shape
    row_tot = S.sum(axis=1)
    act = [i for i in range(n_in) if row_tot[i] > 0]
    theta = np.ones(n_in)
    if not act:
        return np.zeros_like(S), theta
    phi = S[act] / row_tot[act][:, None]  # movement fractions of each active row
    sup_rows = [j for j in range(n_out) if math.isfinite(available[j])]
    n = len(act)
    m = n + len(sup_rows)
    T = np.zeros((m + 1, n + m + 1))
    T[:n, :n] = np.eye(n)
    T[:n, -1] = row_tot[act]
    for r, j in enumerate(sup_rows):
        T[n + r, :n] = phi[:, j]
        T[n + r, -1] = available[j]
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


class TurningFractions:
    """Per-destination, per-node movement split over time, with a successor fallback.

    Movement mass comes from the route flows; where no mass exists for an
    incoming link at some instant, the split follows the destination's
    shortest-path successor in `trees` (`network.Trees`), so residual
    pedestrians route wherever the destination can be reached.
    """

    def __init__(self, n_bins: int, trees):
        self.n_bins = n_bins
        # movements[(dest, node, in_key)][out_key] -> mass per bin
        self.movements: dict[tuple[int, int, int], dict[int, np.ndarray]] = {}
        self.trees = trees
        # per destination and bin, the tree column of the latest tree bin at or
        # before it (its first tree before that)
        self._columns: dict[int, list[int]] = {}
        order = np.lexsort((trees.bins, trees.destinations))
        for dest in sorted(set(trees.destinations.tolist())):
            cols = order[trees.destinations[order] == dest]
            pos = np.searchsorted(trees.bins[cols], np.arange(n_bins), side="right") - 1
            self._columns[dest] = cols[np.maximum(pos, 0)].tolist()
        self._table: _FractionTable | None = None

    @property
    def destinations(self) -> list[int]:
        return sorted({key[0] for key in self.movements} | set(self._columns))

    def add_mass(self, dest: int, node: int, in_key: int, out_key: int, t_idx: int, mass: float) -> None:
        outs = self.movements.setdefault((dest, node, in_key), {})
        arr = outs.get(out_key)
        if arr is None:
            arr = outs[out_key] = np.zeros(self.n_bins)
        arr[min(t_idx, self.n_bins - 1)] += mass
        self._table = None

    def fractions(self, dests, nodes, in_keys, t_idx: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Normalized splits of many incoming links at one instant, as flat arrays.

        Query i asks for the split toward dests[i] of what reaches nodes[i]
        through in_keys[i].  Returns (query, out_keys, fractions): one entry
        per (query, out key) pair, queries ascending, each query's out keys
        ascending.  At its destination a query sinks; elsewhere the movement
        mass at this instant decides (out keys with mass, each over the total
        summed in insertion order); without any, residual pedestrians follow
        the shortest-path successor.  A query gets no entry only where its
        destination cannot be reached from the node (or has no tree column).
        """
        table = self._table if self._table is not None else self._build()
        t = min(t_idx, self.n_bins - 1)
        dests, nodes, in_keys = (np.asarray(a, dtype=int) for a in (dests, nodes, in_keys))
        get = table.groups.get
        group = np.array([get(key, -1) for key in zip(dests.tolist(), nodes.tolist(), in_keys.tolist())],
                         dtype=np.intp)
        sinks = np.flatnonzero(dests == nodes)
        group[sinks] = -1

        # queries with movement mass at t: every movement of the group with mass, over the group total
        routed = np.flatnonzero(group >= 0)
        total = table.totals[group[routed], t]
        routed, total = routed[total > 1e-15], total[total > 1e-15]
        first, count = table.first[group[routed]], table.count[group[routed]]
        moves = np.arange(count.sum()) + np.repeat(first - np.cumsum(count) + count, count)
        mass = table.mass[moves, t]
        moved = mass > 0
        by_mass, keys = np.repeat(routed, count)[moved], table.out_key[moves[moved]]
        fracs = (mass / np.repeat(total, count))[moved]

        # the rest follow the successor, where there is one
        rest = np.ones(len(dests), dtype=bool)
        rest[sinks] = False
        rest[routed] = False
        rest = np.flatnonzero(rest)
        succ = table.successor(dests[rest], nodes[rest], t)
        rest, succ = rest[succ >= 0], succ[succ >= 0]

        query = np.concatenate((sinks, by_mass, rest))
        order = np.argsort(query, kind="stable")
        out_keys = np.concatenate((np.full(len(sinks), SINK), keys, succ))
        fracs = np.concatenate((np.ones(len(sinks)), fracs, np.ones(len(rest))))
        return query[order], out_keys[order], fracs[order]

    def _build(self) -> "_FractionTable":
        self._table = _FractionTable(self.movements, self._columns, self.trees, self.n_bins)
        return self._table


class _FractionTable:
    """`TurningFractions` as dense arrays, built once per instance.

    groups numbers the (dest, node, in_key) keys of the movements in
    insertion order.  Group g's movements are rows first[g] to
    first[g] + count[g] of mass (movement, bin), in ascending out key order;
    totals (group, bin) sums them in insertion order.  tree_cols holds each
    destination's tree column per bin (row tree_row[dest]).
    """

    def __init__(self, movements, columns, trees, n_bins):
        self.groups = {key: g for g, key in enumerate(movements)}
        self.totals = np.zeros((len(movements), n_bins))
        self.count = np.array([len(outs) for outs in movements.values()], dtype=np.intp)
        self.first = np.cumsum(self.count) - self.count
        mass, out_key = [], []
        for g, outs in enumerate(movements.values()):
            for arr in outs.values():
                self.totals[g] += arr
            for key in sorted(outs):
                mass.append(outs[key])
                out_key.append(key)
        self.mass = np.array(mass).reshape(len(mass), n_bins)
        self.out_key = np.array(out_key, dtype=int)
        self.tree_row = {dest: i for i, dest in enumerate(columns)}
        self.tree_cols = np.array(list(columns.values()), dtype=np.intp).reshape(len(columns), n_bins)
        self.succ, self.node_index = trees.succ, trees.node_index

    def successor(self, dests, nodes, t):
        """Successor link of each (dest, node) in the dest's tree column at bin t, -1 where none."""
        rows = np.array([self.tree_row.get(d, -1) for d in dests.tolist()], dtype=np.intp)
        out = np.full(len(dests), -1)
        has = np.flatnonzero(rows >= 0)
        if has.size:
            at = [self.node_index[n] for n in nodes[has].tolist()]
            out[has] = self.succ[self.tree_cols[rows[has], t], at]
        return out


def paths_to_turning_fractions(path_flows, network, grid, costs=None, trees=None) -> TurningFractions:
    """Convert route flows into per-destination turning fractions over time.

    path_flows is an iterable of (path, departure bin, flow in ped/s).  Each
    path's flow is projected forward through its nodes at the link costs
    frozen at the departure bin (costs: `(n_links, n_bins)`, rows in sorted
    link id order; free-flow times when None), and accumulated as movement
    mass per (destination, node, incoming, outgoing).  `trees`
    (`network.Trees`) supplies the successor fallback; when None, free-flow
    trees toward the paths' destinations are built.
    """
    arrays = network.arrays
    free_flow = (arrays.length / arrays.v_f)[:, None]
    costs = free_flow if costs is None else costs
    path_flows = [item for item in path_flows if item[2] > 0]
    if trees is None:
        dests = sorted({path.od[1] for path, _, _ in path_flows})
        trees = shortest_paths(network, free_flow, [0] * len(dests), dests)
    tf = TurningFractions(grid.n_bins, trees)
    dt, last = grid.dt, costs.shape[1] - 1
    for path, k_idx, flow in path_flows:
        dest = path.od[1]
        t = k_idx * dt
        in_key = ORIGIN
        for lid in path.link_ids:
            tf.add_mass(dest, network.links[lid].from_node, in_key, lid, int(t / dt + 1e-9), flow)
            t += float(costs[arrays.index[lid], min(k_idx, last)])
            in_key = lid
        tf.add_mass(dest, dest, in_key, SINK, int(t / dt + 1e-9), flow)
    return tf

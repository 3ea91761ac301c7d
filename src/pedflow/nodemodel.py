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
from .pvdf import route_table

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
    reserved for the opposing stream.  A stack puts the problem axis first:
    demands (n, n_in, n_out), the others (n, n_out).  A ragged stack pads each
    problem with zero demand, infinite supply and no reservation, and sizes
    (n, 2) holds its own (n_in, n_out).
    """

    demands: np.ndarray
    supplies: np.ndarray
    counterflow: np.ndarray | None = None
    sizes: np.ndarray | None = None

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
    the equal-priority shares (unused shares redistributed) are returned when
    their total is within 1e-9 (relative) of the simplex maximum, run only
    where `_beatable` says it may be more, and otherwise the simplex's
    maximal-total vertex, unchanged.
    Negative reserved supply (reservation larger than the receiving flow)
    clamps to zero and is reported in `clamped`.  The problems of a stack,
    ragged or not, are solved apart: padding does not change the fair shares,
    which run in lockstep, and each choice between fair shares and simplex
    sums the problem's own block, as the problem alone would.
    """
    *stack, n_in, n_out = problem.demands.shape
    S = problem.demands.reshape(math.prod(stack), n_in, n_out)  # one problem is a stack of one
    sizes = [(n_in, n_out)] * len(S) if problem.sizes is None else problem.sizes.reshape(-1, 2).tolist()
    available, clamped = available_supply(problem.supplies.reshape(-1, n_out), problem.counterflow.reshape(-1, n_out))
    clamped = tuple(clamped.reshape(-1).nonzero()[0].tolist())

    col_load = np.add.reduce(S, axis=1)
    scale = np.maximum(1.0, np.maximum.reduce(col_load, axis=1, initial=0.0))
    congested = (~np.logical_and.reduce(supply_fits(col_load, available, scale[:, None]), axis=1)).nonzero()[0]
    flows, reductions = S.copy(), np.zeros((len(S), n_in)) + 1.0
    flows[congested], reductions[congested] = _equal_priority_shares(S[congested], available[congested])
    beatable = _beatable(S[congested], available[congested], flows[congested], reductions[congested])
    for p in congested[beatable].tolist():
        r, c = sizes[p]
        q_max, theta_max = _max_total_vertex(S[p, :r, :c], available[p, :c])
        if flows[p, :r, :c].copy().sum() < q_max.sum() - 1e-9 * max(1.0, q_max.sum()):  # summed as if alone
            flows[p, :r, :c], reductions[p, :r] = q_max, theta_max
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
    flow back to the remaining competitors.  A link pinned at its share is
    not raised again when a competitor bound elsewhere frees supply later,
    so the pattern is not max-min fair: it can cut a link below what the
    supply it uses leaves room for.
    """
    uses = S > 0
    theta = np.zeros(S.shape[:2]) + 1.0
    remaining = available.copy()
    started = active = np.logical_or.reduce(uses, axis=2)
    with np.errstate(divide="ignore", invalid="ignore"):  # cells and columns no active link uses
        while np.logical_or.reduce(active, axis=None):
            used = uses & active[:, :, None]
            ratio = (remaining / np.add.reduce(used, axis=1))[:, None, :] / S
            cand = np.minimum.reduce(np.where(used, ratio, 1.0), axis=2, initial=1.0)  # in [0, 1]: supply left >= 0
            # the links whose demand fits whole, or else the most constrained ones
            fit = np.maximum.reduce(np.where(active, cand, -np.inf), axis=1) >= 1.0 - 1e-15
            t_min = np.minimum.reduce(np.where(active, cand, np.inf), axis=1)
            pinned = active & np.where(fit[:, None], cand >= 1.0 - 1e-15, cand <= t_min[:, None] + 1e-15)
            theta = np.where(pinned, cand, theta)
            # pinned links take their flows from the supply left one after another, in row order
            taken = np.where(pinned[:, :, None], theta[:, :, None] * S, 0.0)
            remaining = np.subtract.reduce(np.concatenate((remaining[:, None], taken), axis=1), axis=1)
            np.maximum(remaining, 0.0, out=remaining)
            active = active & ~pinned
    return np.where(started[:, :, None], theta[:, :, None] * S, 0.0), theta


def _beatable(S: np.ndarray, available: np.ndarray, flows: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Whether the simplex may beat the flows of each problem of a stack: some in-link
    they reduce sends into a sink or into an out-link they leave unfilled (short by
    more than 1e-12 of max(1, its supply)).  Where none does, complementary slackness,
    with the filled out-links priced at 1, makes the flows' total maximal."""
    finite = np.isfinite(available)
    a = np.where(finite, available, 0.0)  # no inf - inf on a sink's column
    filled = finite & (np.add.reduce(flows, axis=1) >= a - 1e-12 * np.maximum(1.0, a))
    return np.logical_or.reduce((theta < 1.0)[:, :, None] & (S > 0) & ~filled[:, None, :], axis=(1, 2))


def _max_total_vertex(S: np.ndarray, available: np.ndarray):
    """Exact maximum-total transfer via a small dense simplex (Bland's rule).

    Variables are the per-incoming-link totals; bounds are the demands and the
    turn-fraction-weighted supply constraints.  Small and deterministic; the
    tableau rows are lists of Python floats (float64, as numpy's would be).
    """
    n_in, n_out = S.shape
    row_tot = S.sum(axis=1)
    act = [i for i in range(n_in) if row_tot[i] > 0]
    theta = np.ones(n_in)
    demand = row_tot[act].tolist()
    phi = (S[act] / row_tot[act][:, None]).T.tolist()  # movement fractions of each active row, by out-link
    sup_rows = [j for j in range(n_out) if math.isfinite(available[j])]
    n = len(act)
    m = n + len(sup_rows)
    eye = [[float(row == col) for col in range(m)] for row in range(m)]
    T = [eye[row][:n] + eye[row] + [demand[row]] for row in range(n)]
    T += [phi[j] + eye[row] + [float(available[j])] for row, j in enumerate(sup_rows, start=n)]
    T.append([-1.0] * n + [0.0] * (m + 1))
    basis = list(range(n, n + m))
    for _ in range(PIVOTS_PER_DIMENSION * (m + n)):
        enter = next((col for col in range(n + m) if T[m][col] < -1e-12), -1)
        if enter < 0:
            break
        leave, best, best_bv = -1, math.inf, math.inf
        for row in range(m):
            coef = T[row][enter]
            if coef > 1e-12:
                ratio = T[row][-1] / coef
                if ratio < best - 1e-12 or (ratio < best + 1e-12 and basis[row] < best_bv):
                    leave, best, best_bv = row, ratio, basis[row]
        if leave < 0:
            raise RuntimeError("node transfer program is unbounded")  # cannot happen: demands bound it
        pivot = T[leave][enter]
        T[leave] = lead = [v / pivot for v in T[leave]]
        for row in range(m + 1):
            f = T[row][enter]
            if row != leave and f != 0.0:
                T[row] = [v - f * w for v, w in zip(T[row], lead)]
        basis[leave] = enter
    else:
        raise RuntimeError(f"node transfer simplex hit its pivot cap ({PIVOTS_PER_DIMENSION * (m + n)}) "
                           "before the optimum")
    x = [0.0] * n
    for row, bv in enumerate(basis):
        if bv < n:
            x[bv] = T[row][-1]
    theta[act] = [min(max(v / d, 0.0), 1.0) for v, d in zip(x, demand)]
    return theta[:, None] * S, theta


def _group(code):
    """Number the distinct values of the int64 array code ascending; returns each
    element's number and the first element of each (its earliest: the sort is stable)."""
    order = code.argsort(kind="stable")
    ranked = code[order]
    new = np.concatenate(([True], ranked[1:] != ranked[:-1]))[: len(order)]
    number = np.empty(len(order), dtype=np.intp)
    number[order] = new.cumsum() - 1
    return number, order[new]


class TurningFractions:
    """Per-destination, per-node movement split over time, with a successor fallback.

    `movements` holds flat arrays (dest, node, in_key, out_key, bin, mass):
    one entry per contribution of route flow, in the order they are summed
    (`paths_to_turning_fractions` builds them); dest and node are node
    positions, the keys link rows or ORIGIN/SINK.  They become dense arrays:
    group g is row g of group_keys, the distinct (dest, node, in_key) keys
    by in key, dest and node (`group` finds them), and its movements are
    rows first[g] to first[g] + count[g] of mass (movement, bin), out keys
    ascending, listed in table[g] padded with a zero row.  Each mass cell
    sums its contributions in their order; totals (group, bin) sums each
    group's rows in the order their out keys first appear; each cell's
    fraction, mass over total, is divided here once.  Where no mass exists
    for an incoming link at some instant, the split follows the
    destination's shortest-path successor in `trees` (`network.Trees`), so
    residual pedestrians route wherever the destination can be reached.
    """

    def __init__(self, n_bins: int, trees, movements=None):
        self.n_bins = n_bins
        self.trees = trees
        if movements is None:
            movements = (np.zeros(0, dtype=int),) * 5 + (np.zeros(0),)
        dest, node, in_key, out_key, bins, mass = movements
        self.n_nodes = trees.dist.shape[1]
        group, key_at = _group(self._code(dest, node, in_key))
        move, seen = _group(group * (out_key.max(initial=0) - SINK + 1) + (out_key - SINK))  # seen: first contributions
        self.group_keys = np.column_stack((dest[key_at], node[key_at], in_key[key_at]))
        self.codes = np.append(self._code(*self.group_keys.T), np.iinfo(np.int64).max)  # ascending, as the groups
        self.count = np.bincount(group[seen], minlength=len(key_at))
        self.first = np.cumsum(self.count) - self.count
        self.out_key = out_key[seen]
        self._mass = np.bincount(move * n_bins + bins, mass, (len(seen) + 1) * n_bins).reshape(-1, n_bins)
        self.mass = self._mass[:-1]  # the last row, zero, pads table
        self.totals = np.zeros((len(key_at), n_bins))
        by_seen = np.argsort(seen)
        np.add.at(self.totals, group[seen[by_seen]], self.mass[by_seen])
        self._frac = np.zeros(self._mass.shape)  # divided in place: no more temporaries than the divisor
        with np.errstate(divide="ignore", invalid="ignore"):  # bins where a group has no mass, never read
            np.divide(self.mass, self.totals[group[seen]], out=self._frac[:-1])
        slots = np.arange(self.count.max(initial=0))
        self.table = np.where(slots < self.count[:, None], self.first[:, None] + slots, len(seen))
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
        return sorted(set(self.group_keys[:, 0].tolist()) | set(np.flatnonzero(self.tree_row >= 0).tolist()))

    def group(self, dests, nodes, in_keys) -> np.ndarray:
        """The group of each (dest, node, in key), -1 where it has no movements."""
        code = self._code(*(np.asarray(a, dtype=np.int64) for a in (dests, nodes, in_keys)))
        at = self.codes.searchsorted(code)
        at[self.codes[at] != code] = -1
        return at

    def _code(self, dests, nodes, in_keys) -> np.ndarray:
        """(dest, node, in key) as one int64, ordered by in key, then dest, then node, as the groups."""
        return ((in_keys + 1) * self.n_nodes + dests) * self.n_nodes + nodes

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
        dests, nodes, in_keys = (np.asarray(a, dtype=np.int64) for a in (dests, nodes, in_keys))
        group = self.group(dests, nodes, in_keys)
        sinks = (dests == nodes).nonzero()[0]
        group[sinks] = -1

        # queries with movement mass at t: every movement of the group with mass, over the group total
        routed = (group >= 0).nonzero()[0]
        routed = routed[self.totals[group[routed], t] > 1e-15]
        moves = self.table[group[routed]]
        moved = self._mass[moves, t] > 0
        by_mass, moves = routed[moved.nonzero()[0]], moves[moved]

        # the rest follow the successor in their destination's tree column at t, where there is one
        rest = self.tree_row[dests] >= 0
        rest[sinks] = False
        rest[routed] = False
        rest = rest.nonzero()[0]
        succ = self.trees.succ[self.tree_cols[self.tree_row[dests[rest]], t], nodes[rest]]
        rest, succ = rest[succ >= 0], succ[succ >= 0]

        query = np.concatenate((by_mass, sinks, rest))  # sinks and rest: one entry each, with fraction 1
        order = query.argsort(kind="stable")
        out_keys = np.concatenate((self.out_key[moves], np.zeros(len(sinks), dtype=np.int64) + SINK, succ))
        fracs = np.concatenate((self._frac[moves, t], np.zeros(len(sinks) + len(rest)) + 1.0))
        return query[order], out_keys[order], fracs[order]


def paths_to_turning_fractions(path_flows, network, grid, costs=None, trees=None) -> TurningFractions:
    """Convert route flows into per-destination turning fractions over time.

    path_flows is an iterable of (path, departure bin k, flow in ped/s).  Each
    path's flow is projected forward through its nodes at the link costs
    frozen at the departure bin (costs: `(n_links, n_bins)`, rows in sorted
    link id order; free-flow times when None), and accumulated as movement
    mass per (destination, node, incoming, outgoing).  A traveller enters
    its first link at k * dt, each next one at t + costs[row, min(k, last
    column)] (one left-to-right cumsum per path), in bin int(t / dt + 1e-9);
    arrivals past the horizon fold into the last bin.
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
    lengths, padded = route_table([list(map(arrays.index.__getitem__, path.link_ids)) for path, _, _ in path_flows])
    items = np.arange(len(lengths))
    dest = np.array([arrays.node_index[path.od[1]] for path, _, _ in path_flows], dtype=int)
    k = np.array([k for _, k, _ in path_flows], dtype=int)
    flow = np.array([f for _, _, f in path_flows], dtype=float)
    col = np.minimum(k, costs.shape[1] - 1)

    # when[i, j]: path i enters its link j, or its sink at j = lengths[i]
    when = np.cumsum(np.column_stack((k * dt, costs[padded, col[:, None]])), axis=1)
    outs = np.column_stack((padded, np.zeros(len(items), np.intp)))
    outs[items, lengths] = SINK
    node = arrays.tail[outs]
    node[items, lengths] = dest
    ins = np.column_stack((np.full(len(items), ORIGIN), outs[:, :-1]))
    on = np.arange(outs.shape[1]) <= lengths[:, None]  # row-major: item by item, each in route order
    item = np.repeat(items, lengths + 1)
    bins = np.minimum((when[on] / dt + 1e-9).astype(int), n_bins - 1)
    return TurningFractions(n_bins, trees, (dest[item], node[on], ins[on], outs[on], bins, flow[item]))

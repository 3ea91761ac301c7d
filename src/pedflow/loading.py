"""Dynamic network loading: multi-destination link transmission over time.

One loading run walks the clock forward once.  Per step it evaluates, on
the links that hold anyone, the counterflow-degraded speed from current
occupancies and the sending bounds from the cumulative curves; splits every
sending window by destination in entry order and turns each share by the
turning fractions; evaluates the receiving bounds and counterflow
reservations of the outgoing links those movements use; passes whole every
node whose movements fit its reserved supply and solves a transfer problem at
the others; and commits the resulting boundary counts.  A step where no link
and no origin queue holds anyone copies the counts forward, or after the last
release fills the rest of the horizon.  Origins hold released demand in
vertical (point) queues that compete for downstream supply like any incoming
link; destinations absorb their own trips with unlimited supply.
"""

from __future__ import annotations

import numpy as np

from . import fd, ltm
from .nodemodel import (ORIGIN, SINK, NodeFlowProblem, TurningFractions, _group, available_supply, solve_node,
                        supply_fits)

EPS = 1e-12  # persons: a smaller sending window, queue or share of one moves nobody
ROUNDING = 1.0 + 4 * np.finfo(float).eps  # x * ROUNDING > any interpolation of samples up to x, rounded


class LoadingResult:
    """Curves and bookkeeping from one loading run."""

    def __init__(self, network, grid, destinations, fd_variant: str = "logistic", fd_gamma: float | None = None):
        self.network = network
        self.grid = grid
        self.destinations = tuple(destinations)
        self.link_order = network.arrays.order
        self.link_index = network.arrays.index
        n_links, n_bins, n_dest = len(self.link_order), grid.n_bins, len(destinations)
        # U over V, and Ud over Vd: each pair is two views of one array, so one gather reads both
        self.curves = np.zeros((2, n_links, n_bins + 1))
        self.U, self.V = self.curves
        self.dest_curves = np.zeros((2, n_links, n_dest, n_bins + 1))
        self.Ud, self.Vd = self.dest_curves
        self.demanded = np.zeros(n_dest)
        self.loaded = np.zeros(n_dest)
        self.completed = np.zeros(n_dest)
        self.queued = np.zeros(n_dest)
        self.supply_clamps = 0
        self.unroutable = 0.0  # persons with no route on: the loader raises on them, so this stays 0.0
        # (node position, t, in key, out key, S_ij, R_j, S_tilde_j, q_ij); keys are link rows or ORIGIN/SINK
        self.node_trace: list[tuple] = []
        self.fd_variant = fd_variant
        self.fd_gamma = fd_gamma
        self._densities = None

    # -- views ---------------------------------------------------------------

    def in_network(self) -> np.ndarray:
        """Pedestrians still on links at the end of the horizon, per destination."""
        return (self.Ud[:, :, -1] - self.Vd[:, :, -1]).sum(axis=0)

    def densities(self) -> tuple[np.ndarray, np.ndarray]:
        """Density (ped/m^2) and density ratio per (link, bin) of the finished run.

        Computed on first use from the curves, which must not change after it.
        Occupancies are clamped at zero: float noise can leave exits a few ulp
        above entries.
        """
        if self._densities is None:
            arrays = self.network.arrays
            k = np.maximum(self.U - self.V, 0.0)[:, :-1] / arrays.area[:, None]
            self._densities = (k, fd.density_ratio_profile(k, arrays.twin))
        return self._densities

    def fd_travel_times(self, rows: np.ndarray, t_s: np.ndarray) -> np.ndarray:
        """Traversal times of the links in `rows` (link rows), each entered at
        its instant t_s[i], from the loaded state.

        The floor is a free-flow pass at the effective speed prevailing at
        entry; on top of that comes whatever delay the curves realized (the
        horizontal gap between the entry rank on U and the same rank on V).
        NaN where the effective speed is not positive or the rank never exits
        within the horizon.
        """
        rows, t_s = np.asarray(rows, dtype=np.intp), np.asarray(t_s, dtype=float)
        arrays, dt, n_bins = self.network.arrays, self.grid.dt, self.grid.n_bins
        b = np.clip((t_s / dt).astype(int), 0, n_bins - 1)
        vhat = fd.effective_speed_profile(arrays.v_f[rows], self.densities()[1][rows, b], self.fd_variant,
                                          self.fd_gamma)
        with np.errstate(divide="ignore", over="ignore"):  # vhat 0 or subnormal: no finite time
            free = arrays.length[rows] / vhat
        rank = ltm.interp_at(self.U, t_s, dt, rows)
        exit_t = ltm.crossing_times(self.V[rows], rank, dt, n_bins)
        return np.where(vhat > 0, np.maximum(free, exit_t - t_s), np.nan)

    # -- invariants ----------------------------------------------------------

    def conservation_violations(self) -> list[str]:
        """Every conservation breach in the finished run (empty list = clean)."""
        out = []
        tol = 1e-6 * max(1.0, np.add.reduce(self.loaded))  # persons: the curves scale with the trips loaded
        if (np.diff(self.U, axis=1) < -tol).any() or (np.diff(self.V, axis=1) < -tol).any():
            out.append("a cumulative curve decreases")
        occ = self.U - self.V
        if (occ < -tol).any():
            out.append("negative occupancy (exits overtook entries)")
        arrays = self.network.arrays
        if (occ > arrays.storage[:, None] + tol).any():
            worst = int(np.argmax((occ - arrays.storage[:, None]).max(axis=1)))
            out.append(f"occupancy exceeds storage on link {self.link_order[worst]}")
        for side, by_dest, total in zip(("entries", "exits"), self.dest_curves, self.curves):
            if (np.abs(by_dest.sum(axis=1) - total) > tol).any():
                out.append(f"per-destination {side} do not add up to the total curve")
        if (self.queued < -tol).any():
            out.append("negative origin queue")
        gap1 = np.abs(self.demanded - self.loaded - self.queued)
        if (gap1 > 1e-6 * np.maximum(1.0, self.demanded)).any():
            out.append("released + queued demand does not match demanded trips")
        gap2 = np.abs(self.loaded - self.completed - self.in_network())
        if (gap2 > 1e-6 * np.maximum(1.0, self.loaded)).any():
            out.append("loaded trips do not match completed + still-walking trips")
        return out


def load_network(
    network,
    grid,
    demand,
    fractions: TurningFractions,
    fd_variant: str = "logistic",
    fd_gamma: float | None = None,
    effective_storage: bool = False,
    node_trace: bool = False,
) -> LoadingResult:
    """Propagate the demand through the network under the given turning fractions.

    Each step is one array pass: the link kernels on the links that hold
    anyone (no other link can send), one FIFO split of every sending window,
    one fraction lookup for every (sender, destination) pair, and one
    transfer of all movements.  Only nodes whose movements overfill a
    reserved supply go to `solve_node`, one zero-padded stack per step.  A
    step where nobody can leave a link or a queue stops after the sending
    bounds, and one with nobody on a link or queued runs none of this.
    A person who walks into a node with no turning fraction on raises RuntimeError.
    """
    destinations = demand.destinations()
    n_dest = len(destinations)
    d_index = {d: i for i, d in enumerate(destinations)}
    result = LoadingResult(network, grid, destinations, fd_variant, fd_gamma)

    n_bins = grid.n_bins
    dt = grid.dt
    arrays = network.arrays
    n_links = len(arrays.order)
    dest_nodes = np.array([arrays.node_index[d] for d in destinations], dtype=np.intp)
    L, VF, CAP, twin = arrays.length, arrays.v_f, arrays.capacity, arrays.twin

    # demand release schedule: bin -> [(origin node position, destination column, persons)]
    schedule: dict[int, list[tuple[int, int, float]]] = {}
    for e in demand.entries:
        if e.rate <= 0:
            continue
        b = grid.bin_of(e.depart_s)
        schedule.setdefault(b, []).append((arrays.node_index[e.origin], d_index[e.destination], e.rate * dt))
        result.demanded[d_index[e.destination]] += e.rate * dt
    # one queue row per origin, in the order of its first release
    released = [schedule[b] for b in sorted(schedule) if 0 <= b < n_bins]
    origin_nodes = np.array(list(dict.fromkeys(o for items in released for o, _, _ in items)), dtype=int)
    queue_row = {o: i for i, o in enumerate(origin_nodes.tolist())}
    queues = np.zeros((len(origin_nodes), n_dest))
    # per sender (a link row, or n_links + a queue row) its node and key (the link row, or ORIGIN)
    snd_nodes = np.concatenate((arrays.head, origin_nodes))
    snd_keys = np.concatenate((np.arange(n_links), np.full(len(origin_nodes), ORIGIN)))
    # per column (an out-link row, or n_links + a node: its sink) its node, order by node (sink last) and place
    col_node = np.concatenate((arrays.tail, np.arange(len(arrays.nodes))))
    col_order = col_node.argsort(kind="stable")
    col_rank = col_order.argsort()

    curves, dest_curves = result.curves, result.dest_curves
    U, V, Ud = result.U, result.V, result.Ud
    # The rows entered so far (U > 0).  Every other row has U = V = 0 up to
    # now, which the kernels read as no sending flow and zero density, and
    # its curves stay at their initial zeros.
    entered = np.zeros(n_links, dtype=bool)
    live = np.flatnonzero(entered)
    slot = np.zeros(n_links, dtype=np.intp)  # position of each live row in `live`
    k = np.zeros(n_links)  # densities at the start of the step, zero off the live rows
    cursor = np.zeros(n_links, dtype=np.intp)  # per row, the FIFO search's sample below its last r0
    last_release = max((b for b in schedule if b < n_bins), default=-1)

    for t in range(n_bins):
        for origin, d, amount in schedule.get(t, ()):
            queues[queue_row[origin], d] += amount

        # A sending bound reads U at or before t, so only `rows` may send.  Without a sender and a queue nobody
        # moves; with nobody on a link either, after the last release nobody ever will.
        u, v = curves[:, live, t]
        rows = live[u * ROUNDING - v > EPS]
        queued = (np.add.reduce(queues, axis=1) > EPS).nonzero()[0]
        end = n_bins if t >= last_release and not rows.size else t + 1
        if rows.size or queued.size:
            k[live] = (u - v) / arrays.area[live]
            rho = fd.density_ratio_profile(k, twin, rows)
            vhat = fd.effective_speed_profile(VF[rows], rho, fd_variant, fd_gamma)
            S = ltm.sending_flows_at(U, V, t, dt, L[rows], np.maximum(vhat, 1e-15), CAP[rows], rows)
            sends = (S > EPS) & (vhat > 0)
            rows, S = rows[sends], S[sends]
        if not rows.size and not queued.size:  # nobody moves: the counts carry forward
            for curve in (curves, dest_curves):  # every live row keeps its counts, as x + 0.0 == x on them
                curve[:, live, ..., t + 1 : end + 1] = curve[:, live, ..., t : t + 1]
            if end == n_bins:
                break
            continue
        # the senders by node, a node's sending in-links by row before its queue: per sender its persons per destination
        # (its window's FIFO split, searched from `cursor`, or its whole queue), node, key and queue row (< 0: a link)
        r0 = V[rows, t]
        persons = np.concatenate((ltm.split_by_entry_order(U, Ud, r0, r0 + S, t, rows, cursor), queues[queued]))
        ids = np.concatenate((rows, n_links + queued))
        order = (snd_nodes[ids] * 2 + (ids >= n_links)).argsort(kind="stable")
        ids, persons = ids[order], persons[order]
        snd_node, snd_key, snd_queue = snd_nodes[ids], snd_keys[ids], ids - n_links

        # movements (sender, destination, out key, persons), by sender, destination, out key
        m_snd, m_d = (persons > EPS).nonzero()
        p = persons[m_snd, m_d]
        query, m_key, frac = fractions.fractions(dest_nodes[m_d], snd_node[m_snd], snd_key[m_snd], t)
        stuck = snd_key[m_snd] != ORIGIN  # queued persons stay queued, not lost
        stuck[query] = False
        if stuck.any():
            snd, dest = m_snd[stuck][0], destinations[m_d[stuck][0]]
            raise RuntimeError(f"persons on link {arrays.order[snd_key[snd]]} reach node {arrays.nodes[snd_node[snd]]} "
                               f"with no turning fraction toward destination {dest}")
        moved = frac > 0
        query, m_key = query[moved], m_key[moved]
        m_snd, m_d, mass = m_snd[query], m_d[query], p[query] * frac[moved]

        flow = _transfer(t, curves, k, m_snd, m_key, mass, snd_node, snd_key, col_node, col_order, col_rank, arrays,
                         effective_storage, node_trace, result) if mass.size else mass
        # commits, each accumulator in movement order
        positive = flow > 0
        m_snd, m_d, m_key, flow = m_snd[positive], m_d[positive], m_key[positive], flow[positive]
        to_sink, src_row = m_key == SINK, snd_key[m_snd]
        from_queue = src_row == ORIGIN
        np.add.at(result.completed, m_d[to_sink], flow[to_sink])
        np.subtract.at(queues, (snd_queue[m_snd[from_queue]], m_d[from_queue]), flow[from_queue])
        np.add.at(result.loaded, m_d[from_queue], flow[from_queue])
        np.maximum(queues, 0.0, out=queues)
        dst_row = m_key[~to_sink]
        if not np.logical_and.reduce(entered[dst_row]):
            entered[dst_row] = True
            live = entered.nonzero()[0]
            slot[live] = np.arange(len(live))
        # per-(row, destination) sums in movement order, as the cells were added one by one
        cells = len(live) * n_dest
        dU = np.bincount(slot[dst_row] * n_dest + m_d[~to_sink], flow[~to_sink], cells).reshape(len(live), n_dest)
        dV = np.bincount(slot[src_row[~from_queue]] * n_dest + m_d[~from_queue], flow[~from_queue],
                         cells).reshape(len(live), n_dest)
        delta = np.array((dU, dV))
        dest_curves[:, live, :, t + 1] = dest_curves[:, live, :, t] + delta.swapaxes(0, 1)  # indexed (row, U or V, d)
        curves[:, live, t + 1] = curves[:, live, t] + np.add.reduce(delta, axis=2)

    result.queued += np.add.reduce(queues, axis=0)  # row by row, as a loop over the queues would add them
    return result


def _transfer(t, curves, k, m_snd, m_key, mass, snd_node, snd_key, col_nodes, col_order, col_rank, arrays,
              effective_storage, node_trace, result) -> np.ndarray:
    """The flow of each of one step's movements (sender, out key, persons): its persons times its sender's factor.

    A cell is one (sender, out key) pair, in sender then out key order, and a
    column an out-link row, or n_links + node for a node's sink (`load_network`
    tabulates their nodes, order and places).  A node's demand matrix has its
    senders as rows and its columns, by row with the sink last, as columns.
    Nodes whose column loads fit their available supply pass every movement
    whole; the rest go to `solve_node` as one zero-padded stack.  Counts every
    node's supply clamps into result, and traces every cell if node_trace.
    """
    n_links, dt = len(arrays.order), result.grid.dt
    cell_of_move, first = _group(m_snd * (n_links - SINK) + (m_key - SINK))
    cell_snd, cell_key = m_snd[first], m_key[first]
    cell_S = np.bincount(cell_of_move, mass)  # in movement order, as the cells were filled one by one
    rank = col_rank[np.where(cell_key == SINK, n_links + snd_node[cell_snd], cell_key)]
    ranks = np.bincount(rank, minlength=len(col_rank)).nonzero()[0]  # the step's columns, in order
    cell_col, col_id = ranks.searchsorted(rank), col_order[ranks]
    col_load = np.bincount(cell_col, cell_S)  # down each column in row order, as S.sum(axis=0)

    # one entry per column: the sink takes everything, nothing reserved
    supplies, reserved = np.zeros(len(col_id)) + np.inf, np.zeros(len(col_id))
    out = (col_id < n_links).nonzero()[0]
    rows = col_id[out]
    storage = arrays.storage[rows] * (fd.density_ratio_profile(k, arrays.twin, rows) if effective_storage else 1.0)
    supplies[out], reserved[out] = ltm.supplies_at(curves, t, dt, rows, arrays.length[rows], arrays.omega[rows],
                                                   storage, arrays.capacity[rows], arrays.twin, arrays.v_f)
    available, clamped = available_supply(supplies, reserved)
    result.supply_clamps += int(np.add.reduce(clamped))

    # cells, columns and senders with cells each run node by node, in the same node order
    col_node = col_nodes[col_id]
    new_node = np.concatenate(([True], col_node[1:] != col_node[:-1]))
    node_first, node_of_col = new_node.nonzero()[0], new_node.cumsum() - 1
    scale = np.maximum(1.0, np.maximum.reduceat(col_load, node_first))
    fits = np.logical_and.reduceat(supply_fits(col_load, available, scale[node_of_col]), node_first)

    theta = np.zeros(len(snd_node)) + 1.0
    if not np.logical_and.reduce(fits):
        # a node's problem has its senders with cells as rows (numbered in cell order) and its columns as
        # columns; the congested nodes are one stack in node order, zero-padded to the largest problem
        node_of_cell = node_of_col[cell_col]
        new_sender = np.concatenate(([True], cell_snd[1:] != cell_snd[:-1]))
        n_rows, n_cols = np.bincount(node_of_cell[new_sender], minlength=len(node_first)), np.bincount(node_of_col)
        cell_row = new_sender.cumsum() - 1 - (n_rows.cumsum() - n_rows)[node_of_cell]
        nodes, cells = (~fits).nonzero()[0], (~fits[node_of_cell]).nonzero()[0]
        at = (nodes.searchsorted(node_of_cell[cells]), cell_row[cells])
        sizes = np.column_stack((n_rows[nodes], n_cols[nodes]))
        demands = np.zeros((len(nodes), *np.maximum.reduce(sizes, axis=0)))
        demands[at + (cell_col[cells] - node_first[node_of_cell[cells]],)] = cell_S[cells]
        offsets = np.arange(demands.shape[2])
        cols = np.where(offsets < sizes[:, 1:], node_first[nodes, None] + offsets, -1)  # -1: a padded column
        problem = NodeFlowProblem(demands, np.concatenate((supplies, [np.inf]))[cols],
                                  np.concatenate((reserved, [0.0]))[cols], sizes)
        theta[cell_snd[cells]] = solve_node(problem).reductions[at]
    if node_trace:
        shown = cell_S > 0
        snd, col, s_ij = cell_snd[shown], cell_col[shown], cell_S[shown]
        result.node_trace += zip(
            snd_node[snd].tolist(), [t * dt] * len(snd), snd_key[snd].tolist(), cell_key[shown].tolist(),
            s_ij.tolist(), supplies[col].tolist(), reserved[col].tolist(), (theta[snd] * s_ij).tolist(),
        )
    return theta[m_snd] * mass

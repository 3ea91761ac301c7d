"""Dynamic network loading: multi-destination link transmission over time.

One loading run walks the clock forward once.  Per step it evaluates, on
the links entered so far, the counterflow-degraded speed from current
occupancies and the sending bounds from the cumulative curves; splits every
sending window by destination in entry order and turns each share by the
turning fractions; evaluates the receiving bounds and counterflow
reservations of the outgoing links those movements use; passes whole every
node whose movements fit its reserved supply and solves a transfer problem at
the others; and commits the resulting boundary counts.  Origins hold released
demand in vertical (point) queues that compete for downstream supply like any
incoming link; destinations absorb their own trips with unlimited supply.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import fd, ltm
from .nodemodel import (ORIGIN, SINK, NodeFlowProblem, TurningFractions, _group, available_supply, solve_node,
                        supply_fits)

EPS = 1e-12  # persons: a smaller sending window, queue or share of one moves nobody


class LoadingResult:
    """Curves and bookkeeping from one loading run."""

    def __init__(self, network, grid, destinations):
        self.network = network
        self.grid = grid
        self.destinations = tuple(destinations)
        self.link_order = network.arrays.order
        self.link_index = network.arrays.index
        n_links, n_bins, n_dest = len(self.link_order), grid.n_bins, len(destinations)
        self.U = np.zeros((n_links, n_bins + 1))
        self.V = np.zeros((n_links, n_bins + 1))
        self.Ud = np.zeros((n_links, n_dest, n_bins + 1))
        self.Vd = np.zeros((n_links, n_dest, n_bins + 1))
        self.demanded = np.zeros(n_dest)
        self.loaded = np.zeros(n_dest)
        self.completed = np.zeros(n_dest)
        self.queued = np.zeros(n_dest)
        self.supply_clamps = 0
        self.unroutable = 0.0
        # (node position, t, in key, out key, S_ij, R_j, S_tilde_j, q_ij); keys are link rows or ORIGIN/SINK
        self.node_trace: list[tuple] = []
        self.fd_variant = "logistic"
        self.fd_gamma: float | None = None
        self._densities = None

    # -- views ---------------------------------------------------------------

    def inflow_rates(self) -> np.ndarray:
        """Link inflow in ped/s per (link, bin)."""
        return np.diff(self.U, axis=1) / self.grid.dt

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
        tol = 1e-6
        if (np.diff(self.U, axis=1) < -tol).any() or (np.diff(self.V, axis=1) < -tol).any():
            out.append("a cumulative curve decreases")
        occ = self.U - self.V
        if (occ < -tol).any():
            out.append("negative occupancy (exits overtook entries)")
        arrays = self.network.arrays
        if (occ > arrays.storage[:, None] + tol).any():
            worst = int(np.argmax((occ - arrays.storage[:, None]).max(axis=1)))
            out.append(f"occupancy exceeds storage on link {self.link_order[worst]}")
        if (np.abs(self.Ud.sum(axis=1) - self.U) > tol).any():
            out.append("per-destination entries do not add up to the total curve")
        if (np.abs(self.Vd.sum(axis=1) - self.V) > tol).any():
            out.append("per-destination exits do not add up to the total curve")
        if (self.queued < -tol).any():
            out.append("negative origin queue")
        gap1 = np.abs(self.demanded - self.loaded - self.queued)
        if (gap1 > tol * np.maximum(1.0, self.demanded)).any():
            out.append("released + queued demand does not match demanded trips")
        gap2 = np.abs(self.loaded - self.completed - self.in_network())
        if (gap2 > tol * np.maximum(1.0, self.loaded)).any():
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

    Each step is one array pass: the link kernels on the links entered so
    far, one FIFO split of every sending window, one fraction lookup for
    every (sender, destination) pair, and one transfer of all movements.
    Only nodes whose movements overfill a reserved supply go to `solve_node`,
    stacked by shape.
    """
    destinations = demand.destinations()
    n_dest = len(destinations)
    d_index = {d: i for i, d in enumerate(destinations)}
    result = LoadingResult(network, grid, destinations)
    result.fd_variant = fd_variant
    result.fd_gamma = fd_gamma

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

    U, V, Ud, Vd = result.U, result.V, result.Ud, result.Vd
    # The rows entered so far (U > 0).  Every other row has U = V = 0 up to
    # now, which the kernels read as no sending flow and zero density, and
    # its curves stay at their initial zeros.
    entered = np.zeros(n_links, dtype=bool)
    live = np.flatnonzero(entered)
    slot = np.zeros(n_links, dtype=np.intp)  # position of each live row in `live`
    k = np.zeros(n_links)  # densities at the start of the step, zero off the live rows

    for t in range(n_bins):
        for origin, d, amount in schedule.get(t, ()):
            queues[queue_row[origin], d] += amount

        k[live] = (U[live, t] - V[live, t]) / arrays.area[live]
        rho = fd.density_ratio_profile(k, twin, live)
        with np.errstate(invalid="ignore", divide="ignore"):
            vhat = fd.effective_speed_profile(VF[live], rho, fd_variant, fd_gamma)
            S = ltm.sending_flows_at(U, V, t, dt, L[live], np.maximum(vhat, 1e-15), CAP[live], live)
        S[vhat <= 0] = 0.0
        snd_node, snd_key, snd_queue, persons = _senders(t, U, V, Ud, live, S, queues, origin_nodes, arrays.head)

        # movements (sender, destination, out key, persons), by sender, destination, out key
        m_snd, m_d = np.nonzero(persons > EPS)
        if not m_snd.size:
            _carry_forward((U, V, Ud, Vd), live, t)
            continue
        p = persons[m_snd, m_d]
        query, m_key, frac = fractions.fractions(dest_nodes[m_d], snd_node[m_snd], snd_key[m_snd], t)
        stuck = np.ones(len(p), dtype=bool)
        stuck[query] = False
        for lost in p[stuck & (snd_key[m_snd] != ORIGIN)].tolist():  # queued persons stay queued, not lost
            result.unroutable += lost
        moved = frac > 0
        query, m_key = query[moved], m_key[moved]
        m_snd, m_d, mass = m_snd[query], m_d[query], p[query] * frac[moved]
        if not mass.size:
            _carry_forward((U, V, Ud, Vd), live, t)
            continue

        step = _transfer(t, U, V, k, m_snd, m_key, mass, snd_node, arrays, effective_storage, result)
        if node_trace:
            shown = step.cell_demand > 0
            snd, col, s_ij = step.cell_sender[shown], step.cell_col[shown], step.cell_demand[shown]
            result.node_trace += zip(
                snd_node[snd].tolist(), [t * dt] * len(snd), snd_key[snd].tolist(), step.cell_key[shown].tolist(),
                s_ij.tolist(), step.supplies[col].tolist(), step.reserved[col].tolist(),
                (step.theta[snd] * s_ij).tolist(),
            )

        # commits, each accumulator in movement order
        flow = step.theta[m_snd] * mass
        positive = flow > 0
        m_snd, m_d, m_key, flow = m_snd[positive], m_d[positive], m_key[positive], flow[positive]
        to_sink, src_row = m_key == SINK, snd_key[m_snd]
        from_queue = src_row == ORIGIN
        np.add.at(result.completed, m_d[to_sink], flow[to_sink])
        np.subtract.at(queues, (snd_queue[m_snd[from_queue]], m_d[from_queue]), flow[from_queue])
        np.add.at(result.loaded, m_d[from_queue], flow[from_queue])
        np.clip(queues, 0.0, None, out=queues)
        dst_row = m_key[~to_sink]
        if not entered[dst_row].all():
            entered[dst_row] = True
            live = np.flatnonzero(entered)
            slot[live] = np.arange(len(live))
        # per-(row, destination) sums in movement order, as the cells were added one by one
        cells = len(live) * n_dest
        dU = np.bincount(slot[dst_row] * n_dest + m_d[~to_sink], flow[~to_sink], cells).reshape(len(live), n_dest)
        dV = np.bincount(slot[src_row[~from_queue]] * n_dest + m_d[~from_queue], flow[~from_queue],
                         cells).reshape(len(live), n_dest)
        Ud[live, :, t + 1] = Ud[live, :, t] + dU
        Vd[live, :, t + 1] = Vd[live, :, t] + dV
        U[live, t + 1] = U[live, t] + dU.sum(axis=1)
        V[live, t + 1] = V[live, t] + dV.sum(axis=1)

    for q in queues:
        result.queued += q
    return result


def _carry_forward(curves, live, t) -> None:
    """A step without transfers: every live row keeps its counts (x + 0.0 == x
    on these nonnegative sums)."""
    for curve in curves:
        curve[live, ..., t + 1] = curve[live, ..., t]


def _senders(t, U, V, Ud, live, S, queues, origin_nodes, head):
    """The step's senders by node ascending: each node's sending in-links in
    row order, then its origin queue if it holds anyone.

    Returns per sender its node position, its key (the link row, or ORIGIN),
    its queue row (-1 for a link) and its persons per destination: the FIFO
    split of the link's sending window, or the whole queue.
    """
    sending = S > EPS
    link_rows, queued = live[sending], np.flatnonzero(queues.sum(axis=1) > EPS)
    persons = [queues[queued]]
    if link_rows.size:
        r0 = V[link_rows, t]
        persons.insert(0, ltm.split_by_entry_order(U, Ud, r0, r0 + S[sending], t, link_rows))
    node = np.concatenate((head[link_rows], origin_nodes[queued]))
    key = np.concatenate((link_rows, np.full(len(queued), ORIGIN)))
    queue = np.concatenate((np.full(len(link_rows), -1), queued))
    order = np.lexsort((queue, node))  # stable: links in live's ascending row order, the queue last
    return node[order], key[order], queue[order], np.concatenate(persons)[order]


class _NodeStep(NamedTuple):
    """One step's node transfers.  A cell is one (sender, out key) pair, in
    sender then out key order; columns are the (node, out key) pairs."""

    theta: np.ndarray  # reduction factor per sender
    cell_sender: np.ndarray
    cell_key: np.ndarray
    cell_demand: np.ndarray
    cell_col: np.ndarray
    supplies: np.ndarray  # per column
    reserved: np.ndarray  # per column


def _transfer(t, U, V, k, m_snd, m_key, mass, snd_node, arrays, effective_storage, result) -> _NodeStep:
    """Node transfers of one step's movements (sender, out key, persons).

    A node's demand matrix has its senders as rows and its used out keys,
    ascending with the sink last, as columns.  Nodes whose column loads fit
    their available supply pass every movement whole; the rest go to
    `solve_node`, one stack per shape of demand matrix.  Counts every
    node's supply clamps into result.
    """
    cell_of_move, first = _group(m_key, m_snd)
    cell_snd, cell_key = m_snd[first], m_key[first]
    cell_S = np.bincount(cell_of_move, mass)  # in movement order, as the cells were filled one by one
    cell_node = snd_node[cell_snd]
    cell_col, first = _group(np.where(cell_key == SINK, np.iinfo(np.int64).max, cell_key), cell_node)
    col_node, col_key = cell_node[first], cell_key[first]
    col_load = np.bincount(cell_col, cell_S)  # down each column in row order, as S.sum(axis=0)

    # one entry per column: the sink takes everything, nothing reserved
    supplies, reserved = np.full(len(col_key), np.inf), np.zeros(len(col_key))
    out = np.flatnonzero(col_key != SINK)
    if out.size:
        rows = col_key[out]
        storage = arrays.storage[rows]
        if effective_storage:
            storage = fd.density_ratio_profile(k, arrays.twin, rows) * storage
        supplies[out] = ltm.receiving_flows_at(V, U, t, result.grid.dt, arrays.length[rows], arrays.omega[rows],
                                               storage, arrays.capacity[rows], rows)
        reserved[out] = ltm.counterflow_at(U, t, result.grid.dt, arrays.twin, arrays.length, arrays.v_f, rows)
    available, clamped = available_supply(supplies, reserved)
    result.supply_clamps += int(clamped.sum())

    # cells, columns and senders with cells each run node by node, in the same node order
    node_first = np.flatnonzero(np.append(True, col_node[1:] != col_node[:-1]))
    n_cols = np.diff(np.append(node_first, len(col_node)))
    scale = np.maximum(1.0, np.maximum.reduceat(col_load, node_first))
    fits = np.logical_and.reduceat(supply_fits(col_load, available, np.repeat(scale, n_cols)), node_first)

    theta = np.ones(len(snd_node))
    if not fits.all():
        # a node's problem has its senders with cells as rows (numbered in cell order) and its columns as
        # columns; the congested nodes of one shape are one stack, their problems in node order
        node_of_cell = np.repeat(np.arange(len(node_first)), n_cols)[cell_col]
        new_sender = np.append(True, cell_snd[1:] != cell_snd[:-1])
        n_rows = np.bincount(node_of_cell[new_sender], minlength=len(node_first))
        cell_row = np.cumsum(new_sender) - 1 - (np.cumsum(n_rows) - n_rows)[node_of_cell]
        cell_c = cell_col - node_first[node_of_cell]
        shape, first = _group(n_cols, n_rows, fits)  # the congested shapes first
        cell_shape = shape[node_of_cell]
        for s, i in enumerate(first[~fits[first]].tolist()):
            nodes, cells = np.flatnonzero(shape == s), np.flatnonzero(cell_shape == s)
            at = (np.searchsorted(nodes, node_of_cell[cells]), cell_row[cells])
            demands = np.zeros((len(nodes), n_rows[i], n_cols[i]))
            demands[at + (cell_c[cells],)] = cell_S[cells]
            cols = node_first[nodes, None] + np.arange(n_cols[i])
            problem = NodeFlowProblem(demands, supplies[cols], reserved[cols])
            theta[cell_snd[cells]] = solve_node(problem).reductions[at]
    return _NodeStep(theta, cell_snd, cell_key, cell_S, cell_col, supplies, reserved)

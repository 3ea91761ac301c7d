"""Dynamic network loading: multi-destination link transmission over time.

One loading run walks the clock forward once.  Per step it evaluates every
link's counterflow-degraded speed from current occupancies, the sending and
receiving bounds from the cumulative curves, and the counterflow reservation
on every paired link; it then solves a transfer problem at each node that has
something to move and commits the resulting boundary counts.  Origins hold
released demand in vertical (point) queues that compete for downstream supply
like any incoming link; destinations absorb their own trips with unlimited
supply.
"""

from __future__ import annotations

import numpy as np

from . import fd, ltm
from .nodemodel import ORIGIN, SINK, NodeFlowProblem, TurningFractions, solve_node


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
        exit_t = ltm.crossing_time(self.V[i], rank, dt, self.grid.n_bins)
        if exit_t is None:
            return None
        return max(free, exit_t - t_s)

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
        storage = arrays.k_jam * arrays.area
        if (occ > storage[:, None] + tol).any():
            worst = int(np.argmax((occ - storage[:, None]).max(axis=1)))
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

        active = set(arrays.to_node[S_all > eps].tolist()) | {o for o, q in queues.items() if q.sum() > eps}

        dU = np.zeros((n_links, n_dest))
        dV = np.zeros((n_links, n_dest))

        for node_id in sorted(active):
            # sending in keys with their persons per destination: the FIFO split
            # of each in-link, then the origin queue
            senders = []
            for lid in network.in_links.get(node_id, ()):
                i = idx[lid]
                if S_all[i] > eps:
                    senders.append((lid, ltm.split_by_entry_order(U[i], Ud[i], V[i, t], V[i, t] + S_all[i], t)))
            if node_id in queues and queues[node_id].sum() > eps:
                senders.append((ORIGIN, queues[node_id]))
            in_keys: list[int] = []
            moves: list[tuple[int, int, int, float]] = []  # (row, dest column, out key, persons)
            for in_key, persons in senders:
                n_moves, row = len(moves), len(in_keys)
                for d, p in enumerate(persons.tolist()):
                    if p <= eps:
                        continue
                    fracs = fractions.fractions(destinations[d], node_id, in_key, t)
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

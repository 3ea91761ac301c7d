"""Route choice toward dynamic user equilibrium.

Each iteration freezes the link cost trajectories, finds the cheapest route
per destination and departure instant (pre-trip, instantaneous costs), blends
the all-or-nothing loading into the running path flows with a 1/n step
(method of successive averages, which preserves feasibility as a convex
combination), converts the path flows into turning fractions, loads the
network, and re-measures costs.  Convergence is tracked by the relative gap:
the excess of the flow-weighted route times over the demand-weighted shortest
route times, normalized by the latter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import pvdf
from .loading import load_network
from .network import Network, Path, TimeGrid, enumerate_paths, shortest_paths
from .nodemodel import paths_to_turning_fractions


def free_flow_costs(network: Network, grid: TimeGrid, penalties=()) -> np.ndarray:
    """Free-flow link costs, shape (n_links, n_bins), rows in sorted link id order."""
    arrays = network.arrays
    costs = np.tile(arrays.free_flow[:, None], (1, grid.n_bins))
    _apply_penalties(costs, network, grid, penalties)
    return costs


def costs_from_loading(network, grid, result, params, penalties=()) -> np.ndarray:
    """Link costs from a loading's measured directional inflows, shaped like free_flow_costs."""
    arrays = network.arrays
    u = result.inflow_rates()
    u_opp = np.where((arrays.twin >= 0)[:, None], u[arrays.twin], 0.0)
    costs = pvdf.link_cost_profile(arrays.free_flow, arrays.capacity, params, u, u_opp)
    _apply_penalties(costs, network, grid, penalties)
    return costs


def _apply_penalties(costs: np.ndarray, network: Network, grid: TimeGrid, penalties) -> None:
    """penalties: iterable of (link id, start_s, added_cost_s)."""
    for lid, start_s, cost_s in penalties:
        start_bin = max(0, int(math.ceil(start_s / grid.dt - 1e-9)))
        costs[network.arrays.index[lid], start_bin:] += cost_s


def path_from_successors(network: Network, succ: np.ndarray, origin: int, destination: int) -> Path | None:
    """Follow one tree's successor row (`Trees.succ[c]`) from origin; None if it never arrives."""
    arrays = network.arrays
    node, target = arrays.node_index[origin], arrays.node_index[destination]
    rows: list[int] = []
    for _ in range(len(arrays.nodes) + 1):
        if node == target:
            return Path(od=(origin, destination), link_ids=tuple(arrays.order[r] for r in rows))
        row = int(succ[node])
        if row < 0:
            return None
        rows.append(row)
        node = arrays.head[row]
    return None  # successor map has a cycle; treat as unreachable


@dataclass
class ConvergenceReport:
    rel_gaps: tuple[float, ...]
    reason: str  # "gap_below_tol" or "max_iters"

    @property
    def iterations(self) -> int:
        return len(self.rel_gaps)


class AssignmentState:
    """Path sets, path flows and measurement trajectories across iterations."""

    def __init__(self, network: Network, grid: TimeGrid, demand):
        self.network = network
        self.grid = grid
        rates: dict[tuple[int, int], dict[int, float]] = {}
        for e in demand.entries:
            if e.rate <= 0:
                continue
            od = (e.origin, e.destination)
            k = grid.bin_of(e.depart_s)
            rates.setdefault(od, {})
            rates[od][k] = rates[od].get(k, 0.0) + e.rate
        self.ods = sorted(rates)
        self.k_bins = {od: sorted(rates[od]) for od in self.ods}
        self.rates = {od: np.array([rates[od][k] for k in self.k_bins[od]]) for od in self.ods}
        self.paths: dict[tuple[int, int], list[Path]] = {od: [] for od in self.ods}
        # link_rows[od][row]: the cost-array rows of that path's links, in route order
        self.link_rows: dict[tuple[int, int], list[np.ndarray]] = {od: [] for od in self.ods}
        self._path_rows: dict[tuple[int, int], dict[tuple, int]] = {od: {} for od in self.ods}
        self.flows: dict[tuple[int, int], np.ndarray] = {
            od: np.zeros((0, len(self.k_bins[od]))) for od in self.ods
        }
        self.path_times: dict[tuple[int, int], np.ndarray] = {}
        self.shortest_times: dict[tuple[int, int], np.ndarray] = {}
        self.iteration = 0
        self.costs: np.ndarray | None = None
        self.loading = None

    def ensure_path(self, od, path: Path) -> int:
        rows = self._path_rows[od]
        row = rows.get(path.link_ids)
        if row is None:
            row = len(self.paths[od])
            rows[path.link_ids] = row
            self.paths[od].append(path)
            index = self.network.arrays.index
            self.link_rows[od].append(np.array([index[lid] for lid in path.link_ids], dtype=int))
            self.flows[od] = np.vstack([self.flows[od], np.zeros((1, self.flows[od].shape[1]))])
        return row

    def trips(self):
        """Yield (od, path row, departure position, departure bin) for every path and departure."""
        for od in self.ods:
            for row in range(len(self.paths[od])):
                for pos, k in enumerate(self.k_bins[od]):
                    yield od, row, pos, k

    def path_flow_items(self):
        """Yield (path, departure bin, flow) for every positive path flow."""
        for od, row, pos, k in self.trips():
            f = self.flows[od][row, pos]
            if f > 1e-12:
                yield self.paths[od][row], k, float(f)


def update_flows(state: AssignmentState, aon_paths: dict, iteration: int) -> None:
    """Blend the all-or-nothing loading into the path flows with a 1/n step.

    aon_paths maps od -> list of Path aligned with that od's departure bins.
    Iteration 1 therefore loads the shortest paths outright.
    """
    step = 1.0 / iteration
    for od in state.ods:
        state.flows[od] *= 1.0 - step
        for pos, path in enumerate(aon_paths[od]):
            row = state.ensure_path(od, path)
            state.flows[od][row, pos] += step * state.rates[od][pos]


def relative_gap(state: AssignmentState) -> float:
    """Flow-weighted route time excess over the demand-weighted shortest times.

    Not clamped: where the two cancel it can read a few ulp below zero (presets
    5 and 6 read -4.66e-17 and -7.11e-17 under numpy's AVX2 code)."""
    num = 0.0
    den = 0.0
    for od in state.ods:
        flows = state.flows[od]
        if od in state.path_times and flows.size:
            num += float((flows * state.path_times[od]).sum())
        if od in state.shortest_times:
            den_od = float((state.rates[od] * state.shortest_times[od]).sum())
            den += den_od
            num -= den_od
    if den <= 0:
        return 0.0
    return num / den


def run_due(network: Network, demand, cfg, loader=None):
    """Iterate route choice and loading until the relative gap closes.

    Returns (AssignmentState, ConvergenceReport); the state keeps the final
    loading and link costs.  `loader` may be swapped out (e.g. for a static
    assignment in tests); the default is the link-transmission loader.
    """
    grid = TimeGrid(cfg.dt, cfg.horizon)
    penalties = [(p.resolve(network), p.start_s, p.added_cost_s) for p in cfg.penalties]
    state = AssignmentState(network, grid, demand)
    if cfg.enumerate_paths:
        for od in state.ods:
            for path in enumerate_paths(network, od, cfg.max_paths, cfg.detour):
                state.ensure_path(od, path)
    last = grid.n_bins - 1
    # One tree column per departure bin and destination departing in it.
    columns = sorted({(k, s) for (r, s) in state.ods for k in state.k_bins[r, s]})
    column_of = {kd: c for c, kd in enumerate(columns)}
    bins = [min(k, last) for k, _ in columns]
    tree_destinations = [s for _, s in columns]

    costs = free_flow_costs(network, grid, penalties)
    trees = shortest_paths(network, costs, bins, tree_destinations)
    gaps: list[float] = []
    reason = "max_iters"
    for n in range(1, cfg.max_iters + 1):
        aon = {}
        for r, s in state.ods:
            aon[r, s] = []
            for k in state.k_bins[r, s]:
                path = path_from_successors(network, trees.succ[column_of[k, s]], r, s)
                if path is None:
                    raise RuntimeError(f"destination {s} unreachable from {r} at bin {k}")
                aon[r, s].append(path)
        update_flows(state, aon, n)

        # the turning fractions read the costs their trees were built on
        fractions = paths_to_turning_fractions(state.path_flow_items(), network, grid, costs, trees)
        state.loading = None  # let the previous loading go before the next one is built
        state.loading = (loader(network, grid, demand, fractions, state) if loader is not None else
                         load_network(network, grid, demand, fractions, fd_variant=cfg.fd_variant,
                                      fd_gamma=cfg.fd_gamma, effective_storage=cfg.effective_storage,
                                      node_trace=cfg.node_trace))
        costs = costs_from_loading(network, grid, state.loading, cfg.pvdf, penalties)
        if not np.isfinite(costs).all():
            raise RuntimeError("loading produced non-finite link costs; aborting assignment")

        trees = shortest_paths(network, costs, bins, tree_destinations)
        for r, s in state.ods:
            cols = [column_of[k, s] for k in state.k_bins[r, s]]
            state.shortest_times[r, s] = trees.dist[cols, network.arrays.node_index[r]]
            state.path_times[r, s] = np.empty((len(state.paths[r, s]), len(cols)))
        for od, row, pos, k in state.trips():
            state.path_times[od][row, pos] = pvdf.instantaneous_route_time(state.link_rows[od][row], costs,
                                                                           min(k, last))
        state.iteration = n
        state.costs = costs
        gaps.append(relative_gap(state))
        if gaps[-1] <= cfg.gap_tol:
            reason = "gap_below_tol"
            break
    return state, ConvergenceReport(tuple(gaps), reason)

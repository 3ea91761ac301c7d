"""Run orchestration: validation, assignment + loading, and all file exports.

A run directory holds, after a successful run: snapshots of the inputs
(network.net, demand.dem, config.cfg), the loading state
(cumulative_curves.csv, link_state.csv, node_trace.csv), the assignment state
(path_flows.csv, gap.csv, route_times.csv), and summary.json.  Time-space
matrices for any node path can be rebuilt from the run directory afterwards.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, replace
from itertools import repeat
from pathlib import Path as FsPath

import numpy as np

from . import pvdf
from .assignment import run_due
from .config import ConfigError, ScenarioConfig, write_config
from .fd import effective_speed_profile
from .network import (DemandProfile, Network, TimeGrid, load_network, validate_demand, validate_network,
                      validate_time_grid, write_demand, write_network, write_table)
from .nodemodel import _group


class SimulationInputError(Exception):
    """Invalid network, demand, grid or config; the run never started."""


def run_scenario(cfg: ScenarioConfig, network: Network, demand: DemandProfile, out_dir) -> dict:
    """Validate, assign, load, and write every export into out_dir.

    Returns the summary dictionary (also written as summary.json).  Raises
    SimulationInputError for bad inputs; anything raised beyond that point is
    a runtime failure.
    """
    problems = validate_network(network)
    grid = TimeGrid(cfg.dt, cfg.horizon)
    problems += validate_time_grid(network, grid)
    problems += validate_demand(network, demand, grid)
    if problems:
        raise SimulationInputError("invalid inputs:\n" + "\n".join(problems))
    try:
        for p in cfg.penalties:
            p.resolve(network)
    except ConfigError as exc:
        raise SimulationInputError(str(exc)) from exc

    out = FsPath(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    state, report = run_due(network, demand, cfg)
    wall = time.perf_counter() - started
    result = state.loading

    write_network(network, out / "network.net")
    write_demand(demand, out / "demand.dem")
    write_config(cfg, out / "config.cfg")
    _write_link_table(result, out / "cumulative_curves.csv", "link,t,U,V", [result.U, result.V])
    _write_link_state(result, out / "link_state.csv")
    if cfg.node_trace:
        _write_node_trace(result, out / "node_trace.csv")
    else:
        (out / "node_trace.csv").unlink(missing_ok=True)  # an earlier run's, which config.cfg would contradict
    _write_path_flows(state, out / "path_flows.csv")
    gaps = (f"{i},{_fmt(g)}" for i, g in enumerate(report.rel_gaps, start=1))
    write_table(out / "gap.csv", "iteration,rel_gap", gaps)
    _write_route_times(state, result, out / "route_times.csv")

    trips = {"demanded": result.demanded, "loaded": result.loaded, "completed": result.completed,
             "in_network_at_end": result.in_network(), "queued_at_origins": result.queued}
    summary = {
        "results": {
            "n_nodes": len(network.nodes),
            "n_links": len(network.links),
            "dt_s": cfg.dt,
            "horizon_s": cfg.horizon,
            "iterations": report.iterations,
            "stopping_reason": report.reason,
            "final_rel_gap": report.rel_gaps[-1] if report.rel_gaps else 0.0,
            "rel_gaps": list(report.rel_gaps),
            "trips": {
                **{name: float(v.sum()) for name, v in trips.items()},
                "per_destination": {str(d): {name: float(v[i]) for name, v in trips.items()}
                                    for i, d in enumerate(result.destinations)},
            },
            "diagnostics": {
                "supply_clamps": result.supply_clamps,
                "unroutable": result.unroutable,
                "conservation_violations": result.conservation_violations(),
            },
        },
    }
    payload = json.dumps(summary["results"], sort_keys=True)
    summary["results_sha256"] = hashlib.sha256(payload.encode()).hexdigest()
    summary["timing"] = {"wall_clock_s": wall}
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary


# ---------------------------------------------------------------------------
# time-space matrices and shockwave detection


@dataclass
class TimeSpaceMatrix:
    """Density and flow of a link chain over time.

    density[s, b] is ped/m^2 on segment s at instant t_offset + b * dt;
    flow[s, b] is the exit-boundary flux of segment s during that step in
    ped/m/s.  t_offset is nonzero on a slice_time sub-matrix.
    """

    link_ids: tuple[int, ...]
    x_edges: np.ndarray  # cumulative segment boundaries, meters, length n_seg + 1
    dt: float
    density: np.ndarray
    flow: np.ndarray
    t_offset: float = 0.0

    @property
    def n_segments(self) -> int:
        return len(self.link_ids)

    @property
    def n_bins(self) -> int:
        return self.density.shape[1]

    def cell_length(self) -> float:
        return float(np.diff(self.x_edges).mean())

    def slice_time(self, t0: float, t1: float) -> "TimeSpaceMatrix":
        """Sub-matrix covering the absolute instants in [t0, t1); its bins keep
        absolute times through t_offset, so slices of slices compose."""
        b0 = max(int((t0 - self.t_offset) / self.dt), 0)
        b1 = min(int(math.ceil((t1 - self.t_offset) / self.dt)), self.n_bins)
        return replace(self, density=self.density[:, b0:b1], flow=self.flow[:, b0:b1],
                       t_offset=self.t_offset + b0 * self.dt)


def build_time_space(network: Network, curves: dict[int, tuple[np.ndarray, np.ndarray]],
                     node_path, dt: float) -> TimeSpaceMatrix:
    """Assemble the matrix for consecutive nodes; curves maps link id -> (U, V)."""
    path = network.path_from_nodes(list(node_path))
    arrays = network.arrays
    rows = [arrays.index[lid] for lid in path.link_ids]
    U, V = (np.array([curves[lid][i] for lid in path.link_ids]) for i in (0, 1))
    return TimeSpaceMatrix(
        link_ids=path.link_ids,
        x_edges=np.concatenate([[0.0], np.cumsum(arrays.length[rows])]),
        dt=dt,
        density=np.maximum(U - V, 0.0)[:, :-1] / arrays.area[rows, None],  # as LoadingResult.densities
        flow=np.diff(V, axis=1) / dt / arrays.width[rows, None],
    )


@dataclass
class ShockFront:
    """One detected density interface: where it sat over time and how fast it moved."""

    times: np.ndarray
    positions: np.ndarray
    speed: float  # m/s; positive moves with the walking direction
    direction: str  # "forward", "backward" or "stationary"


def detect_shockwaves(ts: TimeSpaceMatrix, min_jump: float | None = None,
                      min_points: int = 3) -> list[ShockFront]:
    """Density-jump interfaces between adjacent cells, with fitted speeds.

    Per time column, boundaries whose density jump reaches min_jump (default:
    30% of the matrix's density range) are clustered into interface points
    (jump-weighted centroids); points are then chained over consecutive steps
    by spatial proximity and each chain's speed is the least squares slope of
    position over time.  Distinct co-existing interfaces stay separate; a
    front that reverses direction is reported with its net fitted speed, so
    analyze regimes separately (slice_time) when that matters.
    """
    k = ts.density
    span = float(k.max() - k.min())
    if min_jump is None:
        min_jump = max(0.3 * span, 0.05)
    if span <= 1e-12 or k.shape[0] < 2:
        return []
    jump = np.abs(np.diff(k, axis=0))  # (n_seg - 1, n_bins)
    mask = jump >= min_jump
    if not mask.any():
        return []

    cell = ts.cell_length()
    tracks: list[list[tuple[float, float]]] = []  # chains of (t, x) interface points
    for b in range(mask.shape[1]):
        idxs = np.where(mask[:, b])[0]
        if idxs.size == 0:
            continue
        # split non-consecutive boundary indices into separate interface points
        splits = np.where(np.diff(idxs) > 1)[0] + 1
        points = [float((ts.x_edges[cluster + 1] * jump[cluster, b]).sum() / jump[cluster, b].sum())
                  for cluster in np.split(idxs, splits)]
        t = ts.t_offset + b * ts.dt
        open_tracks = [tr for tr in tracks if t - tr[-1][0] <= 2.0 * ts.dt + 1e-9]
        for x in points:  # onto the nearest open track not extended in this column yet, if within 1.6 cells
            best = min((tr for tr in open_tracks if tr[-1][0] < t), key=lambda tr: abs(tr[-1][1] - x), default=None)
            if best is not None and abs(best[-1][1] - x) < 1.6 * cell:
                best.append((t, x))
            else:
                tracks.append([(t, x)])

    fronts = []
    for tr in tracks:
        times, xs = np.array(tr).T
        if len(times) < min_points:
            continue
        t_mean, x_mean = times.mean(), xs.mean()
        var = ((times - t_mean) ** 2).sum()
        if var <= 0:
            continue
        speed = float(((times - t_mean) * (xs - x_mean)).sum() / var)
        direction = "forward" if speed > 1e-9 else "backward" if speed < -1e-9 else "stationary"
        fronts.append(ShockFront(times, xs, speed, direction))
    fronts.sort(key=lambda f: (f.times[0], f.positions[0]))
    return fronts


def export_time_space(run_dir, node_path, out_dir=None) -> tuple[str, str]:
    """Rebuild time-space matrices from a finished run directory and write CSVs.

    node_path is an iterable of node ids along the chain.  Returns the two
    written file paths (density, flow).
    """
    run_dir = FsPath(run_dir)
    network = load_network(run_dir / "network.net")
    dt, curves = read_curves_csv(run_dir / "cumulative_curves.csv")
    ts = build_time_space(network, curves, node_path, dt)
    label = "-".join(str(n) for n in node_path)
    out = FsPath(out_dir) if out_dir is not None else run_dir
    out.mkdir(parents=True, exist_ok=True)
    density_path = out / f"ts_density_{label}.csv"
    flow_path = out / f"ts_flow_{label}.csv"
    _write_matrix(ts, ts.density, density_path, network)
    _write_matrix(ts, ts.flow, flow_path, network)
    return str(density_path), str(flow_path)


def read_curves_csv(path):
    """Parse cumulative_curves.csv back into {link id: (U, V)} plus the dt used."""
    by_link: dict[int, list[tuple[float, float, float]]] = {}
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "link,t,U,V":
            raise SimulationInputError(f"{path}: unexpected header {header!r}")
        for line in fh:
            lid, t, u, v = line.strip().split(",")
            by_link.setdefault(int(lid), []).append((float(t), float(u), float(v)))
    curves, dt = {}, None
    for lid, rows in by_link.items():
        t, u, v = np.array(sorted(rows)).T
        if dt is None and len(t) > 1:
            dt = float(t[1] - t[0])
        curves[lid] = (u, v)
    if dt is None:
        raise SimulationInputError(f"{path}: not enough samples to infer dt")
    return dt, curves


# ---------------------------------------------------------------------------
# writers


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def _fmt_rows(values: np.ndarray) -> list[list[str]]:
    """_fmt of every element of a 2-D array, as a list of row lists.  Each
    distinct float64 bit pattern is formatted once, so -0.0 keeps its sign
    and every NaN reads nan."""
    flat = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)
    number, first = _group(flat.view(np.int64))  # not np.unique: its first call adds resident memory
    texts = np.array([_fmt(v) for v in flat[first].tolist()], dtype=object)
    return texts[number].reshape(values.shape).tolist()


def _write_matrix(ts: TimeSpaceMatrix, values: np.ndarray, path, network: Network) -> None:
    header = "segment,x_start_m,x_end_m," + ",".join(_fmt_rows(np.arange(values.shape[1])[None] * ts.dt)[0])
    texts = _fmt_rows(np.column_stack((ts.x_edges[:-1], ts.x_edges[1:], values)))
    links = (network.links[lid] for lid in ts.link_ids)
    write_table(path, header, (",".join([f"{l.from_node}-{l.to_node}", *row]) for l, row in zip(links, texts)))


TRACE_BLOCK = 256  # node trace records formatted together, across steps; ~1024 is no faster


def _write_link_table(result, path, header: str, columns: list[np.ndarray]) -> None:
    """One row per link and instant of the (link row, instant) arrays in columns,
    formatted and written a link at a time, so the whole file is never held.  A
    link whose every column holds one bit pattern at every instant is written
    from a template made once per distinct tuple of values."""
    times = _fmt_rows(np.arange(columns[0].shape[1])[None] * result.grid.dt)[0]
    bits = [np.ascontiguousarray(c, dtype=np.float64).view(np.int64) for c in columns]
    constant = np.logical_and.reduce([(b == b[:, :1]).all(axis=1) for b in bits]).tolist()
    templates: dict[tuple, list[str]] = {}  # a constant link's lines, each after its link id

    def rows(row):
        lid = str(result.link_order[row])
        if not constant[row]:
            texts = _fmt_rows(np.stack([c[row] for c in columns]))
            return "\n".join(map(",".join, zip(repeat(lid), times, *texts)))
        key = tuple(b[row, 0] for b in bits)
        if key not in templates:
            values = _fmt_rows(np.array([[c[row, 0] for c in columns]]))[0]
            templates[key] = [",".join(["", t, *values]) for t in times]
        return lid + ("\n" + lid).join(templates[key])

    write_table(path, header, map(rows, range(len(constant))))


def _write_link_state(result, path) -> None:
    arrays = result.network.arrays
    k, rho = result.densities()
    vhat = effective_speed_profile(arrays.v_f[:, None], rho, result.fd_variant, result.fd_gamma)
    q = np.diff(result.V, axis=1) / result.grid.dt / arrays.width[:, None]
    _write_link_table(result, path, "link,t,k,q,rho,vhat", [k, q, rho, vhat])


def _write_node_trace(result, path) -> None:
    nodes = [str(node) for node in result.network.arrays.nodes]
    links = [str(lid) for lid in result.network.arrays.order]
    trace = result.node_trace

    def block(start):  # node position, t, link rows (< 0: origin, sink), S_ij, R_j, S_tilde_j, q_ij
        node, t, in_key, out_key, *values = zip(*trace[start:start + TRACE_BLOCK])
        t, *values = _fmt_rows(np.array([t, *values]))
        return "\n".join(map(",".join, zip([nodes[i] for i in node], t,
                                          ["origin" if k < 0 else links[k] for k in in_key],
                                          ["sink" if k < 0 else links[k] for k in out_key], *values)))

    write_table(path, "node,t,in,out,S_ij,R_j,S_tilde_j,q_ij", map(block, range(0, len(trace), TRACE_BLOCK)))


def _write_path_flows(state, path) -> None:
    dt = state.grid.dt
    nodes = {(od, row): "-".join(str(n) for n in p.nodes(state.network))
             for od in state.ods for row, p in enumerate(state.paths[od])}
    rows = (f"{od[0]},{od[1]},{row},{nodes[od, row]},{_fmt(k * dt)},{_fmt(state.flows[od][row, pos])}"
            for od, row, pos, k in state.trips())
    write_table(path, "origin,destination,path_id,nodes,depart_s,flow_pps", rows)


def _write_route_times(state, result, path) -> None:
    dt = state.grid.dt
    trips = list(state.trips())
    experienced = pvdf.experienced_route_times([state.link_rows[od][row] for od, row, _, _ in trips],
                                               [k * dt for *_, k in trips], result.fd_travel_times,
                                               result.grid.horizon)

    rows = (f"{od[0]},{od[1]},{path_id},{_fmt(k * dt)},{_fmt(state.path_times[od][path_id, pos])},"
            + ("incomplete" if math.isnan(exp) else _fmt(exp))
            for (od, path_id, pos, k), exp in zip(trips, experienced.tolist()))
    write_table(path, "origin,destination,path_id,depart_s,instantaneous_s,experienced_s", rows)

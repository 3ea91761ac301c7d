import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import pedflow
import reference_writers
from pedflow import engine
from pedflow.assignment import run_due
from pedflow.config import LinkPenalty, ScenarioConfig
from pedflow.engine import (
    SimulationInputError,
    TimeSpaceMatrix,
    _fmt,
    _fmt_rows,
    build_time_space,
    detect_shockwaves,
    export_time_space,
    read_curves_csv,
    run_scenario,
)
from pedflow.network import DemandProfile, Network, load_network
from pedflow.scenarios import PRESET_PVDF, generate_corridor_scenario, generate_grid_scenario, make_grid_network

EXPORTS = [
    "network.net", "demand.dem", "config.cfg", "cumulative_curves.csv",
    "link_state.csv", "node_trace.csv", "path_flows.csv", "gap.csv",
    "route_times.csv", "summary.json",
]


@pytest.fixture(scope="module")
def grid_run(tmp_path_factory):
    net, demand, cfg = generate_grid_scenario(preset=1)
    out = tmp_path_factory.mktemp("grid1")
    summary = run_scenario(cfg, net, demand, out)
    return net, cfg, out, summary


class TestRunScenario:
    def test_all_exports_written(self, grid_run):
        _, _, out, _ = grid_run
        for name in EXPORTS:
            assert (out / name).exists(), name

    def test_trips_balance(self, grid_run):
        _, _, _, summary = grid_run
        trips = summary["results"]["trips"]
        assert trips["demanded"] == pytest.approx(trips["loaded"] + trips["queued_at_origins"])
        assert trips["loaded"] == pytest.approx(trips["completed"] + trips["in_network_at_end"])
        assert summary["results"]["diagnostics"]["conservation_violations"] == []

    def test_repeat_run_hashes_identically(self, grid_run, tmp_path):
        net, cfg, out, summary = grid_run
        again = run_scenario(cfg, net, DemandProfile(), tmp_path / "empty")
        assert again["results_sha256"] != summary["results_sha256"]  # different inputs differ
        net2, demand2, cfg2 = generate_grid_scenario(preset=1)
        rerun = run_scenario(cfg2, net2, demand2, tmp_path / "again")
        assert rerun["results_sha256"] == summary["results_sha256"]
        assert (tmp_path / "again" / "path_flows.csv").read_bytes() == (out / "path_flows.csv").read_bytes()
        assert (tmp_path / "again" / "cumulative_curves.csv").read_bytes() == (out / "cumulative_curves.csv").read_bytes()

    def test_trace_off_deletes_an_earlier_trace(self, tmp_path):
        net, demand, cfg = generate_grid_scenario(preset=1)
        run_scenario(cfg, net, demand, tmp_path)
        assert (tmp_path / "node_trace.csv").exists()
        run_scenario(replace(cfg, node_trace=False), net, demand, tmp_path)
        assert not (tmp_path / "node_trace.csv").exists()

    def test_wall_clock_outside_hashed_payload(self, grid_run):
        _, _, out, summary = grid_run
        on_disk = json.loads((out / "summary.json").read_text())
        assert "wall_clock_s" in on_disk["timing"]
        assert "timing" not in on_disk["results"]
        assert on_disk["results_sha256"] == summary["results_sha256"]

    def test_step_size_violation_rejected(self, tmp_path):
        net, demand, cfg = generate_grid_scenario(preset=1)
        bad = ScenarioConfig(dt=2.0, horizon=120.0, pvdf=cfg.pvdf)
        with pytest.raises(SimulationInputError, match="stability"):
            run_scenario(bad, net, demand, tmp_path / "x")

    def test_noncentroid_demand_rejected(self, tmp_path):
        net, demand, cfg = generate_grid_scenario(preset=1)
        demand.add(5, 9, 0.0, 1.0)  # node 5 is plain
        with pytest.raises(SimulationInputError, match="centroid"):
            run_scenario(cfg, net, demand, tmp_path / "x")

    def test_penalty_on_missing_link_rejected(self, tmp_path):
        net, demand, cfg = generate_grid_scenario(preset=1)
        bad = ScenarioConfig(
            dt=cfg.dt, horizon=cfg.horizon, pvdf=cfg.pvdf,
            penalties=(LinkPenalty("1-9", 10.0, 100.0),),
        )
        with pytest.raises(SimulationInputError, match="missing link"):
            run_scenario(bad, net, demand, tmp_path / "x")


class TestRowFormat:
    EDGES = [-0.0, 5e-324, 1e21, float("nan"), float("inf"), -float("inf"), 0.1, 1.0 / 3.0, 123456789012.5]

    def test_matches_fmt_on_edge_values(self):
        # the curve, link-state and node-trace writers format whole blocks at
        # once; each number must read as _fmt writes it, from Python or numpy floats
        expected = "7," + ",".join(_fmt(v) for v in self.EDGES)
        assert ",".join(["7", *_fmt_rows(np.array([self.EDGES]))[0]]) == expected
        assert ",".join(["7", *_fmt_rows(np.array([np.array(self.EDGES).tolist()]))[0]]) == expected
        assert ",".join(_fmt(v) for v in np.array(self.EDGES)) == expected[2:]

    def test_one_value_per_field(self):
        for v in self.EDGES:
            assert ",".join(["12", *_fmt_rows(np.array([[v]]))[0]]) == f"12,{_fmt(v)}"

    def test_each_bit_pattern_keeps_its_text(self):
        """-0.0 and 0.0 share an array but not a text; NaNs with a payload or a
        sign read nan, as _fmt writes them; repeats keep their places."""
        payload = np.array([0x7FF8_0000_0000_0123, -0x0008_0000_0000_0000], dtype=np.int64).view(np.float64)
        values = np.array([[0.0, -0.0, payload[0], 0.1, -0.0], [payload[1], 0.0, np.nan, 0.1, 1e21]])
        assert np.isnan(payload).all() and len({v.tobytes() for v in payload} | {np.float64(np.nan).tobytes()}) == 3
        texts = _fmt_rows(values)
        assert texts == [["0", "-0", "nan", "0.1", "-0"], ["nan", "0", "nan", "0.1", "1e+21"]]
        assert texts == [[_fmt(v) for v in row] for row in values.tolist()]


class TestTimeSpaceExport:
    def test_matrix_shape_for_grid_path(self, grid_run):
        _, cfg, out, _ = grid_run
        density_path, flow_path = export_time_space(out, [1, 2, 3, 6, 9])
        lines = open(density_path).read().splitlines()
        assert len(lines) == 1 + 4  # header + one row per segment
        n_cols = len(lines[1].split(","))
        assert n_cols == 3 + int(cfg.horizon / cfg.dt)

    def test_round_trip_matches_run(self, grid_run):
        net, cfg, out, _ = grid_run
        dt, curves = read_curves_csv(out / "cumulative_curves.csv")
        assert dt == cfg.dt
        ts = build_time_space(load_network(out / "network.net"), curves, [1, 2, 3, 6, 9], dt)
        assert ts.density.shape == (4, int(cfg.horizon / cfg.dt))
        k_jam = net.links[1].k_jam
        assert ts.density.min() >= -1e-9
        assert ts.density.max() <= k_jam + 1e-9
        apex = net.links[1].v_f * (k_jam * 0.5 / (net.links[1].v_f + 0.5))
        assert ts.flow.max() <= apex + 1e-9
        assert ts.flow.min() >= -1e-9

    def test_density_clamps_occupancy_like_the_run(self):
        # preset 2 leaves exits a few ulp above entries on links 13 (4->7) and 19 (6->9)
        net, demand, cfg = generate_grid_scenario(preset=2)
        result = run_due(net, demand, cfg)[0].loading
        node_path = [1, 4, 7, 8, 5, 6, 9]
        link_ids = net.path_from_nodes(node_path).link_ids
        rows = [net.arrays.index[lid] for lid in link_ids]
        assert (result.U - result.V)[rows].min() < 0.0
        curves = {lid: (result.U[row], result.V[row]) for lid, row in zip(link_ids, rows)}
        ts = build_time_space(net, curves, node_path, cfg.dt)
        assert ts.density.tobytes() == result.densities()[0][rows].tobytes()

    def test_unknown_path_rejected(self, grid_run):
        _, _, out, _ = grid_run
        with pytest.raises(ValueError, match="no link"):
            export_time_space(out, [1, 9])

    def test_empty_run_gives_zero_matrix(self, tmp_path):
        net, _, cfg = generate_corridor_scenario(preset=4)
        run_scenario(cfg, net, DemandProfile(), tmp_path / "empty")
        d, f = export_time_space(tmp_path / "empty", list(range(1, 11)))
        body = np.loadtxt(open(d).read().splitlines()[1:], delimiter=",", usecols=range(3, 203))
        assert np.abs(body).max() == 0.0

    def test_corridor_exports_nine_segments_each_direction(self, tmp_path):
        net, demand, cfg = generate_corridor_scenario(preset=5)
        run_scenario(cfg, net, demand, tmp_path / "run")
        for nodes in (list(range(1, 11)), list(range(10, 0, -1))):
            d, _ = export_time_space(tmp_path / "run", nodes)
            assert len(open(d).read().splitlines()) == 1 + 9


def synthetic_two_state(speed, k_low=0.5, k_high=4.0, n_seg=10, n_bins=80, cell=2.0, dt=1.0,
                        x0=None):
    """Matrix with a single interface moving at the given speed (analytic)."""
    x0 = x0 if x0 is not None else n_seg * cell / 2
    x_edges = np.arange(n_seg + 1) * cell
    centers = 0.5 * (x_edges[:-1] + x_edges[1:])
    density = np.empty((n_seg, n_bins))
    for b in range(n_bins):
        boundary = x0 + speed * b * dt
        density[:, b] = np.where(centers >= boundary, k_high, k_low)
    ts = TimeSpaceMatrix(
        link_ids=tuple(range(1, n_seg + 1)), x_edges=x_edges, dt=dt,
        density=density, flow=np.zeros_like(density),
    )
    return ts


class TestShockwaveDetection:
    def test_uniform_matrix_has_no_fronts(self):
        ts = synthetic_two_state(0.0, k_low=0.7, k_high=0.7)
        assert detect_shockwaves(ts) == []

    @pytest.mark.parametrize("speed", [-0.25, 0.3, -0.1])
    def test_recovers_synthetic_interface_speed(self, speed):
        ts = synthetic_two_state(speed)
        fronts = detect_shockwaves(ts)
        assert len(fronts) == 1
        tolerance = ts.cell_length() / ts.dt
        assert abs(fronts[0].speed - speed) <= tolerance
        # a 2 m/s tolerance is generous; the fit is actually much closer
        assert abs(fronts[0].speed - speed) <= 0.1
        assert fronts[0].direction == ("backward" if speed < 0 else "forward")

    def test_stationary_interface(self):
        ts = synthetic_two_state(0.0)
        fronts = detect_shockwaves(ts)
        assert len(fronts) == 1
        assert fronts[0].direction == "stationary"

    def test_slice_time_keeps_absolute_times(self):
        ts = synthetic_two_state(-0.25)
        sub = ts.slice_time(20.0, 50.0)
        assert sub.density.shape[1] == 30
        fronts = detect_shockwaves(sub)
        assert fronts and fronts[0].times.min() >= 20.0

    def test_slice_of_a_slice_reads_absolute_instants(self):
        ts = synthetic_two_state(-0.25)
        direct = ts.slice_time(30.0, 40.0)
        nested = ts.slice_time(20.0, 50.0).slice_time(30.0, 40.0)
        assert nested.density.shape == direct.density.shape == (ts.n_segments, 10)
        assert nested.t_offset == direct.t_offset == 30.0
        assert np.array_equal(nested.density, direct.density)
        assert np.array_equal(nested.flow, direct.flow)


class TestRouteTimesExport:
    def test_instantaneous_and_experienced_columns(self, grid_run):
        _, _, out, _ = grid_run
        lines = open(out / "route_times.csv").read().splitlines()
        assert lines[0] == "origin,destination,path_id,depart_s,instantaneous_s,experienced_s"
        assert len(lines) > 1
        for line in lines[1:5]:
            parts = line.split(",")
            assert float(parts[4]) > 0
            assert parts[5] == "incomplete" or float(parts[5]) > 0


def renumbered(net, shift):
    """The network with every link id, and every opposite, moved by shift."""
    links = [replace(l, id=l.id + shift, opposite=None if l.opposite is None else l.opposite + shift)
             for l in net.links.values()]
    return Network(net.nodes.values(), links)


@pytest.mark.parametrize("scenario, preset", [(generate_corridor_scenario, 4), (generate_grid_scenario, 2)])
def test_runs_do_not_depend_on_link_ids(scenario, preset, tmp_path):
    """Link ids moved by -3 (so -2 and -1, the values of SINK and ORIGIN,
    are ids), by -2 (so link 1, which carries flow, is -1) or by +1000 give
    the same curves and gaps bit for bit, and the node trace writes every
    link under its own id."""
    net, demand, cfg = scenario(preset=preset)
    runs = {}
    for shift in (0, -3, -2, 1000):
        shifted = renumbered(net, shift)
        state, report = run_due(shifted, demand, cfg)
        run_scenario(cfg, shifted, demand, tmp_path / str(shift))
        trace = [line.split(",") for line in (tmp_path / str(shift) / "node_trace.csv").read_text().splitlines()]
        runs[shift] = state.loading, report.rel_gaps, trace
    base, gaps, trace = runs[0]
    for shift, (result, rel_gaps, shifted_trace) in runs.items():
        for name in ("U", "V", "Ud", "Vd"):
            assert getattr(result, name).tobytes() == getattr(base, name).tobytes(), (shift, name)
        assert rel_gaps == gaps
        unshifted = [[str(int(f) - shift) if i in (2, 3) and f not in ("origin", "sink") else f
                      for i, f in enumerate(row)] for row in shifted_trace[1:]]
        assert [shifted_trace[0]] + unshifted == trace
    assert base.completed.sum() == pytest.approx(base.demanded.sum(), rel=1e-12)  # every trip arrives
    for shift, link_id in ((-3, "-2"), (-2, "-1")):
        ins, outs = {row[2] for row in runs[shift][2]}, {row[3] for row in runs[shift][2]}
        assert link_id in ins and link_id in outs


def test_writers_match_the_reference_writers(tmp_path, monkeypatch):
    """On a congested 6x6 crossing (four corner streams at 40 ped/s, the node
    trace on), the curve, link-state and node-trace files of the run
    directory, and a time-space export, are the reference writers' byte for
    byte."""
    corners = (1, 6, 31, 36)
    net = make_grid_network(6, origins=set(corners))
    demand = DemandProfile()
    for k in range(10):
        for o, d in zip(corners, corners[::-1]):
            demand.add(o, d, float(k), 40.0)
    cfg = ScenarioConfig(dt=1.0, horizon=150.0, pvdf=PRESET_PVDF, max_iters=3, gap_tol=1e-15,
                         node_trace=True, enumerate_paths=False)
    runs = []
    monkeypatch.setattr(engine, "run_due", lambda *args: runs.append(run_due(*args)) or runs[-1])
    run_scenario(cfg, net, demand, tmp_path / "run")
    result = runs[0][0].loading
    trace = np.array([record[4:] for record in result.node_trace])  # S_ij, R_j, S_tilde_j, q_ij
    assert result.supply_clamps > 0 and (trace[:, 3] < trace[:, 0] - 1e-9).sum() > 100  # congested
    ref = tmp_path / "ref"
    ref.mkdir()
    reference_writers._write_link_table(result, ref / "cumulative_curves.csv", "link,t,U,V", [result.U, result.V])
    reference_writers._write_link_state(result, ref / "link_state.csv")
    reference_writers._write_node_trace(result, ref / "node_trace.csv")
    for name in ("cumulative_curves.csv", "link_state.csv", "node_trace.csv"):
        assert (tmp_path / "run" / name).read_bytes() == (ref / name).read_bytes(), name
    path = [1, 2, 3, 9, 15, 21, 27, 33, 34, 35, 36]
    density, flow = export_time_space(tmp_path / "run", path)
    ts = build_time_space(net, read_curves_csv(tmp_path / "run" / "cumulative_curves.csv")[1], path, cfg.dt)
    reference_writers._write_matrix(ts, ts.density, ref / "density.csv", net)
    reference_writers._write_matrix(ts, ts.flow, ref / "flow.csv", net)
    assert Path(density).read_bytes() == (ref / "density.csv").read_bytes()
    assert Path(flow).read_bytes() == (ref / "flow.csv").read_bytes()


# SHA-256 of every run-directory file of presets 1-6 at their shipped configs;
# summary.json is hashed without its timing block, which holds the wall clock.
RUN_DIRECTORY_SHA256 = {
    1: {
        "config.cfg": "ad7afc902fc468953d002c29a9f1835b5450e0a30b1f084082bf660ec9a3b5a5",
        "cumulative_curves.csv": "9b103137aa53f8cb045be5fb69d909369a67e61331e68429cf3b716a4c8bed5f",
        "demand.dem": "3a5afdede68695965b9fd2ce47cd1e2fd1c7c3949a7fd5f2989665670d32d062",
        "gap.csv": "7892f027620929779d8841f1134b347982e9aacfe407fb0456f89c563c2df171",
        "link_state.csv": "b599053a38532c939d9c75c3bdc0836744a82031f7cbd3e0ad65e74694372594",
        "network.net": "6c6bb115b8fc917271cf1f3618a8e1ff9aa7ac7d88d4f6c7cd87508f4a43f3a3",
        "node_trace.csv": "25471ce8a3bd79b5db1d1f50b85a67eb879ff0b23b0ba8b85ef16b3e0df414b2",
        "path_flows.csv": "062dd3a0d544d7bbf9d3d6acbf68c8e57c405bdedda98e256bbd80a0bf588abe",
        "route_times.csv": "8128f0ee0da296a63af89e0b1ff4325f71b748216f9d60e24b078f098b70f8f7",
        "summary.json": "d99de4d3c22e74a3341e8a661d5c15622388b79da917362118a954352fda6313",
    },
    2: {
        "config.cfg": "ad7afc902fc468953d002c29a9f1835b5450e0a30b1f084082bf660ec9a3b5a5",
        "cumulative_curves.csv": "245b02421fec5abfe2f242067f0aee28b1fc4f07a18e04c566a2180ec879a30f",
        "demand.dem": "edf1e4a5c47d05382beb82cdc1203adf28196143c7b1d978f4cfe5218f045fca",
        "gap.csv": "c277ab4f69b4b13fcfda83c5de25e0b51236dde58ef4cb5e21f56ca1e1b4999a",
        "link_state.csv": "43fed7d70ef4f40c2006fcce4bf69a76ffbe955074afb9ec6021d7ecb943cc00",
        "network.net": "2b18de74b90141146400b8f201da21112a891901d9bb199ebf8386defe4bfdb5",
        "node_trace.csv": "bbbc4e5ff038e8a600767ff16effb69395517f439b4ada1fabfd9f19faafdeb9",
        "path_flows.csv": "75e760333ba2fa6359d6010517ab7915d84a1ff209a5b323f08682771128d42d",
        "route_times.csv": "08d3009d951547d002cb4df289fb37a8023447196431088833c3e1a8cf169cac",
        "summary.json": "235fe362f4f7ee6f90e08a8288705eb87065abc8c440033629fa5880ad979283",
    },
    3: {
        "config.cfg": "851d02743b22e8f91da7c7cb2f3a172d3ac17987074c7f408f9780cc643ed08f",
        "cumulative_curves.csv": "9b103137aa53f8cb045be5fb69d909369a67e61331e68429cf3b716a4c8bed5f",
        "demand.dem": "3a5afdede68695965b9fd2ce47cd1e2fd1c7c3949a7fd5f2989665670d32d062",
        "gap.csv": "7892f027620929779d8841f1134b347982e9aacfe407fb0456f89c563c2df171",
        "link_state.csv": "b599053a38532c939d9c75c3bdc0836744a82031f7cbd3e0ad65e74694372594",
        "network.net": "6c6bb115b8fc917271cf1f3618a8e1ff9aa7ac7d88d4f6c7cd87508f4a43f3a3",
        "node_trace.csv": "25471ce8a3bd79b5db1d1f50b85a67eb879ff0b23b0ba8b85ef16b3e0df414b2",
        "path_flows.csv": "062dd3a0d544d7bbf9d3d6acbf68c8e57c405bdedda98e256bbd80a0bf588abe",
        "route_times.csv": "ee871ecffc8a89170cba355866d35ffe0b688bac9f247bdf0bd41d4276a85af9",
        "summary.json": "d99de4d3c22e74a3341e8a661d5c15622388b79da917362118a954352fda6313",
    },
    4: {
        "config.cfg": "cf3a18dfc088058a38e1789366c197fcfa9aba5967d6230b0ac18b8f81948bf5",
        "cumulative_curves.csv": "cc22229116fdae3cf6966dc9167c2c1ab91a23c4c0650468fb1693a94bddcdd2",
        "demand.dem": "d19fd1f3ce6e10fd896771dbf8ec807ca66f81a3d2843405e305a27e3359c41f",
        "gap.csv": "e788eb27a4297534f4f3a51923041363c78862b41116e7ba89036611fd2fc974",
        "link_state.csv": "b8cbd7663f25ace0b9844c6927dfc0e6f4d1e1ad2ab30e549a8c3ac8340d9756",
        "network.net": "93e3fe122d1065359cad8d678feb25565602b2cde755aecc7a0f6ecf491e5929",
        "node_trace.csv": "85f037101a101faf256789d4d22c684813fdb6fc324c18ba23ed2b70ed9792e7",
        "path_flows.csv": "181e96300b158d8c789e2e660ae1101d855b586698033e08f22759fb500cbdcb",
        "route_times.csv": "3459ca8d21015f99c1c4bcbfb653452a827b124a213f76fb4b4fa9697876ffe0",
        "summary.json": "16c14cf647c2da2c7f4bc88b08586263dc8143d7047d3ca84f7ac8de10b5b7f5",
    },
    5: {
        "config.cfg": "296d274e4b926302d26dd839d70d5b20c6e09f724aed194390940a3ffc2628fa",
        "cumulative_curves.csv": "ad9dd78f94337e9a1be7e55da3c1f559199316410d8cf404b0eaa0b486fdae71",
        "demand.dem": "80342db2c8d778e993eba1a89ec6c3758d7dc47167df8f4b84d546df1458ed14",
        "gap.csv": "e788eb27a4297534f4f3a51923041363c78862b41116e7ba89036611fd2fc974",
        "link_state.csv": "e44e54330ab8e145575b8418484ca4d587091891b1e8f769ad4debc1de701d3e",
        "network.net": "f4445090bf97578d8dc9e45a7b04f2895583b961058cbd1fcc1d8effede59199",
        "node_trace.csv": "b763a4d41d6f5f651eb8448c39e12bfd4c6ae0c6c8ef93a6316d296ef4782afe",
        "path_flows.csv": "899a3f9560d84dc78a66c5c0e10abb5c6186837e1941abd75adfd636b869d150",
        "route_times.csv": "8f3ce5ca28c82240a61210d1bf177c492c40e840f401f2df4d40cb4945013e82",
        "summary.json": "b0867c8a9dd4f0095aeac6260f5bb544d7235ded6d48bc702147694a0b051add",
    },
    6: {
        "config.cfg": "296d274e4b926302d26dd839d70d5b20c6e09f724aed194390940a3ffc2628fa",
        "cumulative_curves.csv": "e5a0b40af34abbd74d1a675030ea76c91e10bd912798eb06a9c8c05615d8cb53",
        "demand.dem": "113c17ca501bbb3a23ba8e35534be96cb1ebac5a06806965cdd9af0317925261",
        "gap.csv": "e788eb27a4297534f4f3a51923041363c78862b41116e7ba89036611fd2fc974",
        "link_state.csv": "4e5e11acb8536e8e644fbcdb65b43689c53cf964b63480cc37a38dff39c31039",
        "network.net": "f4445090bf97578d8dc9e45a7b04f2895583b961058cbd1fcc1d8effede59199",
        "node_trace.csv": "7d3ea581ab08f79fbcc2c7a331e3f4351cac86214ae2d13150a7967dc9499401",
        "path_flows.csv": "b465263ca243c107c26291851c4013edb1a345ad4ec6df2d91600adb1d4acc4c",
        "route_times.csv": "92e49c54f11fc73447d9804bcab1618e61f91a85ed8d4dfe1e59cf0b823884bf",
        "summary.json": "c9a51873259a149d77a42c2ef146bac89a528b7022e50e222f6ead0c8087cca6",
    },
}


@pytest.mark.parametrize("preset", sorted(RUN_DIRECTORY_SHA256))
def test_preset_run_directory_is_byte_identical(preset, tmp_path):
    """Every run-directory file hashes as recorded.  The hashes were recorded
    with numpy 2.4 dispatching np.exp, np.power and np.log to its AVX-512
    (X86_V4) code; under another dispatch presets 5 and 6 differ in the last
    bits, which test_presets_agree_across_numpy_dispatch bounds."""
    scenario = generate_grid_scenario if preset <= 3 else generate_corridor_scenario
    net, demand, cfg = scenario(preset=preset)
    run_scenario(cfg, net, demand, tmp_path)
    digests = {}
    for f in sorted(tmp_path.iterdir()):
        data = f.read_bytes()
        if f.name == "summary.json":
            summary = json.loads(data)
            del summary["timing"]
            data = json.dumps(summary, indent=2, sort_keys=True).encode()
        digests[f.name] = hashlib.sha256(data).hexdigest()
    assert digests == RUN_DIRECTORY_SHA256[preset]


# Runs presets 5 and 6 and saves their curves, gaps and numpy's dispatch targets.
_DISPATCH_RUN = """
import sys
import numpy as np
from pedflow.assignment import run_due
from pedflow.scenarios import generate_corridor_scenario
out = {"found": np.array(np.show_config(mode="dicts")["SIMD Extensions"]["found"])}
for preset in (5, 6):
    state, report = run_due(*generate_corridor_scenario(preset=preset))
    out[f"U{preset}"], out[f"V{preset}"] = state.loading.U, state.loading.V
    out[f"gaps{preset}"] = np.array(report.rel_gaps)
np.savez(sys.argv[1], **out)
"""


def _simd_found() -> list[str]:
    try:
        return np.show_config(mode="dicts")["SIMD Extensions"]["found"]
    except (TypeError, KeyError):  # a numpy without this report
        return []


@pytest.mark.skipif("X86_V4" not in _simd_found(), reason="numpy dispatches no X86_V4 (AVX-512) code here")
def test_presets_agree_across_numpy_dispatch(tmp_path):
    """Presets 5 and 6 under numpy's AVX-512 dispatch and with it disabled
    (its AVX2 code): np.exp, np.power and np.log differ in the last bit
    between the two, so the curves may differ by a few ulp of their values,
    never more than 1e-12, and each gap by at most 1e-15."""
    env = {key: value for key, value in os.environ.items() if key != "NPY_DISABLE_CPU_FEATURES"}
    env["PYTHONPATH"] = str(Path(pedflow.__file__).resolve().parents[1])
    runs = {}
    for name, disabled in (("default", ""), ("avx2", "AVX512_SPR AVX512_ICL X86_V4")):
        proc = subprocess.run([sys.executable, "-c", _DISPATCH_RUN, str(tmp_path / f"{name}.npz")],
                              capture_output=True, text=True, env={**env, "NPY_DISABLE_CPU_FEATURES": disabled})
        assert proc.returncode == 0, proc.stderr
        runs[name] = np.load(tmp_path / f"{name}.npz")
    default, avx2 = runs["default"], runs["avx2"]
    assert "X86_V4" in default["found"] and "X86_V4" not in avx2["found"]
    for preset in (5, 6):
        for curve in ("U", "V"):
            np.testing.assert_allclose(avx2[f"{curve}{preset}"], default[f"{curve}{preset}"], rtol=1e-12, atol=1e-12)
        assert np.abs(avx2[f"gaps{preset}"] - default[f"gaps{preset}"]).max() <= 1e-15

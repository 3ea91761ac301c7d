import json

import numpy as np
import pytest

from pedflow.config import LinkPenalty, ScenarioConfig
from pedflow.engine import (
    SimulationInputError,
    TimeSpaceMatrix,
    _fmt,
    _row_format,
    build_time_space,
    detect_shockwaves,
    export_time_space,
    read_curves_csv,
    run_scenario,
)
from pedflow.network import DemandProfile, load_network
from pedflow.scenarios import generate_corridor_scenario, generate_grid_scenario

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
        # the curve and link-state writers format whole rows at once; each
        # number must read as _fmt writes it, from Python or numpy floats
        row = _row_format(len(self.EDGES))
        expected = "7," + ",".join(_fmt(v) for v in self.EDGES)
        assert row(7, *self.EDGES) == expected
        assert row(7, *np.array(self.EDGES).tolist()) == expected
        assert ",".join(_fmt(v) for v in np.array(self.EDGES)) == expected[2:]

    def test_one_value_per_field(self):
        for v in self.EDGES:
            assert _row_format(1)(12, v) == f"12,{_fmt(v)}"


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

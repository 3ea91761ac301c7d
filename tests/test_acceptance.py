"""Acceptance suite: one test per criterion, at the stated tolerances.

Criteria that quote magnitudes whose underlying parameters are not public
(e.g. a particular interface speed) are verified as properties instead: the
interface must exist, move the right way, and match the interface speed
implied by the two simulated states it separates.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from pedflow.assignment import run_due
from pedflow.config import ScenarioConfig
from pedflow.engine import build_time_space, detect_shockwaves
from pedflow.fd import FDParams, FDState, critical_density, effective_jam_density, effective_speed, flow
from pedflow.network import DemandProfile, Network, TimeGrid, validate_network
from pedflow.nodemodel import NodeFlowProblem, paths_to_turning_fractions, solve_node
from pedflow.loading import load_network as load_flows
from pedflow.scenarios import (
    PRESET_PVDF,
    generate_corridor_scenario,
    generate_grid_scenario,
    make_grid_network,
)
from test_loading import classic_recursion, one_way_chain
from test_node_model import brute_force_max_total


@pytest.fixture(scope="module")
def preset_runs():
    """Every built-in preset run once with its shipped configuration."""
    runs = {}
    for preset in (1, 2, 3):
        net, demand, cfg = generate_grid_scenario(preset=preset)
        state, report = run_due(net, demand, cfg)
        runs[preset] = (net, demand, cfg, state, report)
    for preset in (4, 5, 6):
        net, demand, cfg = generate_corridor_scenario(preset=preset)
        state, report = run_due(net, demand, cfg)
        runs[preset] = (net, demand, cfg, state, report)
    return runs


def link_row(result, net, a, b):
    return result.link_index[net.link_between(a, b).id]


def test_criterion_01_node_transfer_reference_case():
    S = np.array([
        [0.0, 1.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.5],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, 0.0, 0.0],
    ])
    R = np.array([3.0, 2.0, 2.0, 1.0])
    reserved = np.array([1.0, 1.5, 1.0, 0.0])
    expected = np.array([
        [0.0, 0.5, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.5],
        [0.0, 0.0, 0.0, 0.5],
        [0.0, 0.0, 0.0, 0.0],
    ])
    sol = solve_node(NodeFlowProblem(S, R, reserved))
    assert np.abs(sol.flows - expected).max() <= 1e-9

    repeats = 1000
    start = time.perf_counter()
    for _ in range(repeats):
        solve_node(NodeFlowProblem(S, R, reserved))
    per_solve = (time.perf_counter() - start) / repeats
    assert per_solve < 1e-3  # under a millisecond


def test_criterion_02_node_transfer_optimality_1000_random():
    rng = np.random.default_rng(20260808)
    for _ in range(1000):
        n_in = rng.integers(1, 5)
        n_out = rng.integers(1, 5)
        S = rng.uniform(0.0, 3.0, size=(n_in, n_out))
        S *= rng.random(size=S.shape) < 0.7
        R = rng.uniform(0.0, 4.0, size=n_out)
        reserved = rng.uniform(0.0, 1.0, size=n_out) * (rng.random(n_out) < 0.5)
        sol = solve_node(NodeFlowProblem(S, R, reserved))
        available = np.maximum(R - reserved, 0.0)
        best = brute_force_max_total(S, available)
        assert abs(sol.total - best) <= 1e-6
        row_tot = sol.flows.sum(axis=1)
        S_tot = S.sum(axis=1)
        for i in range(n_in):
            if row_tot[i] > 1e-12:
                assert np.abs(sol.flows[i] / row_tot[i] - S[i] / S_tot[i]).max() <= 1e-9


def test_criterion_03_fd_reduction_and_apex_continuity():
    rng = np.random.default_rng(3)
    params = FDParams(v_f=1.5, omega=0.5, k_jam=5.4)
    k_c = critical_density(params, 1.0)
    for k in rng.uniform(0.0, params.k_jam, size=10_000):
        got = flow(params, FDState(k=k, k_opp=0.0))
        plain = params.v_f * k if k <= k_c else params.omega * (params.k_jam - k)
        assert abs(got - plain) <= 1e-12
    power = FDParams(v_f=1.5, omega=0.5, k_jam=5.4, variant="power", gamma=1.2)
    for variant_params in (params, power):
        for rho in rng.uniform(1e-9, 1.0, size=1000):
            kc = critical_density(variant_params, rho)
            k_hat = effective_jam_density(variant_params, rho)
            v_hat = effective_speed(variant_params, rho)
            assert abs(v_hat * kc - variant_params.omega * (k_hat - kc)) < 1e-9


def test_criterion_04_classic_loader_equivalence():
    net = one_way_chain()
    grid = TimeGrid(1.0, 40.0)
    demand = DemandProfile()
    rates = np.zeros(40)
    rates[:10] = 0.5
    for k in range(10):
        demand.add(1, 4, float(k), 0.5)
    path = net.path_from_nodes((1, 2, 3, 4))
    fractions = paths_to_turning_fractions([(path, k, 0.5) for k in range(10)], net, grid)
    result = load_flows(net, grid, demand, fractions)
    U_ref, V_ref = classic_recursion(rates, 40)
    # exact at machine precision, every link and bin
    assert np.abs(result.U - U_ref).max() <= 1e-12
    assert np.abs(result.V - V_ref).max() <= 1e-12


@pytest.mark.parametrize("effective_storage", [False, True])
def test_criterion_04_classic_loader_equivalence_on_paired_links(effective_storage):
    # the same chain with a twin on every link and no counterflow: the twins
    # stay empty, so nothing is reserved, every density ratio reads 1 and the
    # classic recursion still holds
    one_way = one_way_chain()
    links = [replace(l, opposite=l.id + 10) for l in one_way.links.values()]
    links += [replace(l, id=l.id + 10, from_node=l.to_node, to_node=l.from_node, opposite=l.id)
              for l in one_way.links.values()]
    net = Network(list(one_way.nodes.values()), links)
    assert validate_network(net) == []
    grid = TimeGrid(1.0, 40.0)
    demand = DemandProfile()
    rates = np.zeros(40)
    rates[:10] = 0.5
    for k in range(10):
        demand.add(1, 4, float(k), 0.5)
    path = net.path_from_nodes((1, 2, 3, 4))
    fractions = paths_to_turning_fractions([(path, k, 0.5) for k in range(10)], net, grid)
    result = load_flows(net, grid, demand, fractions, effective_storage=effective_storage)
    U_ref, V_ref = classic_recursion(rates, 40)
    rows = [result.link_index[lid] for lid in path.link_ids]
    assert np.abs(result.U[rows] - U_ref).max() <= 1e-12
    assert np.abs(result.V[rows] - V_ref).max() <= 1e-12
    twins = [result.link_index[lid + 10] for lid in path.link_ids]
    assert not result.U[twins].any() and not result.V[twins].any()


def test_criterion_05_bottleneck_shockwaves(preset_runs):
    start = time.perf_counter()
    net, demand, cfg, state, report = preset_runs[4]
    res = state.loading
    curves = {lid: (res.U[res.link_index[lid]], res.V[res.link_index[lid]]) for lid in net.links}
    ts = build_time_space(net, curves, list(range(1, 11)), cfg.dt)
    tolerance = ts.cell_length() / ts.dt

    demand_end = max(e.depart_s for e in demand.entries if e.rate > 0)
    loading = detect_shockwaves(ts.slice_time(0.0, demand_end))
    bottleneck_x = ts.x_edges[-2]  # upstream end of the narrowed last segment
    backward = [
        f for f in loading
        if f.direction == "backward" and f.positions.max() <= bottleneck_x + 1e-9
    ]
    assert backward, "no backward-moving interface upstream of the bottleneck"
    front = max(backward, key=lambda f: len(f.times))

    # interface speed implied by the two simulated states it separates
    k1 = ts.density[1, 30:50].mean()
    q1 = ts.flow[1, 30:50].mean()
    k2 = ts.density[7, 60:80].mean()
    q2 = ts.flow[7, 60:80].mean()
    implied = (q1 - q2) / (k1 - k2)
    assert implied < 0
    assert abs(front.speed - implied) <= tolerance

    recovery = detect_shockwaves(ts.slice_time(demand_end + 5.0, cfg.horizon))
    assert any(f.direction == "forward" for f in recovery), "no forward recovery wave"
    assert time.perf_counter() - start < 5.0


def preset4_states(preset_runs):
    """Preset 4's time-space matrix over its ten segments and its two plateau
    states (k1, q1, k2, q2) on the triangular diagram.

    Upstream the peak demand walks freely: q1 = rate / width, k1 = q1 / v_f.
    The queue passes the 1 m bottleneck's capacity v_f k_jam omega / (v_f +
    omega) per metre of its width, so on the wide segments q2 is that over
    their width and k2 = k_jam - q2 / omega, on the congested branch."""
    net, demand, cfg, state, _ = preset_runs[4]
    res = state.loading
    curves = {lid: (res.U[res.link_index[lid]], res.V[res.link_index[lid]]) for lid in net.links}
    ts = build_time_space(net, curves, list(range(1, 11)), cfg.dt)
    wide, narrow = net.link_between(1, 2), net.link_between(9, 10)
    v_f, k_jam, omega = wide.v_f, wide.k_jam, wide.omega
    q1 = max(e.rate for e in demand.entries) / wide.width
    q2 = v_f * k_jam * omega / (v_f + omega) * narrow.width / wide.width
    return ts, (q1 / v_f, q1, k_jam - q2 / omega, q2)


def test_bottleneck_front_moves_at_the_rankine_hugoniot_speed(preset_runs):
    """Preset 4's two plateaus are states of the triangular diagram, and the
    backward front between them moves at their Rankine-Hugoniot speed: the
    front fitted by detect_shockwaves lies within 0.01 m/s of
    (q1 - q2) / (k1 - k2) = -0.1327 m/s."""
    demand = preset_runs[4][1]
    ts, (k1, q1, k2, q2) = preset4_states(preset_runs)
    assert (k1, q1, k2, q2) == pytest.approx((0.667, 1.0, 4.3875, 0.50625), abs=5e-4)
    # segment 2 while the demand is at its peak, segment 8 once the queue has reached it
    for segment, bins, k, q in ((1, slice(30, 50), k1, q1), (7, slice(60, 80), k2, q2)):
        np.testing.assert_allclose(ts.density[segment, bins], k, rtol=1e-9)
        np.testing.assert_allclose(ts.flow[segment, bins], q, rtol=1e-9)
    shock = (q1 - q2) / (k1 - k2)
    assert shock == pytest.approx(-0.1327, abs=5e-5)

    demand_end = max(e.depart_s for e in demand.entries if e.rate > 0)
    backward = [f for f in detect_shockwaves(ts.slice_time(0.0, demand_end))
                if f.direction == "backward" and f.positions.max() <= ts.x_edges[-2] + 1e-9]
    front = max(backward, key=lambda f: len(f.times))
    assert abs(front.speed - shock) <= 0.01


def test_recovery_front_moves_at_the_rankine_hugoniot_speed(preset_runs):
    """Once preset 4's demand ends, the corridor upstream of the queue (k2,
    q2) empties, so the queue's tail moves forward at the Rankine-Hugoniot
    speed of the two states, (q2 - 0) / (k2 - 0) = 0.1154 m/s: the forward
    front fitted by detect_shockwaves from 5 s after the demand ends lies
    within 0.01 m/s of it."""
    _, demand, cfg, _, _ = preset_runs[4]
    ts, (_, _, k2, q2) = preset4_states(preset_runs)
    recovery = q2 / k2
    assert recovery == pytest.approx(0.1154, abs=5e-5)

    demand_end = max(e.depart_s for e in demand.entries if e.rate > 0)
    forward = [f for f in detect_shockwaves(ts.slice_time(demand_end + 5.0, cfg.horizon))
               if f.direction == "forward"]
    front = max(forward, key=lambda f: len(f.times))
    assert abs(front.speed - recovery) <= 0.01


def test_criterion_06_bidirectional_route_avoidance(preset_runs):
    net, demand, cfg, state, report = preset_runs[2]
    res = state.loading
    u12 = res.U[link_row(res, net, 1, 2)]
    u14 = res.U[link_row(res, net, 1, 4)]
    assert u12[-1] > u14[-1] + 1e-9  # strictly more flow through 1-2
    u69 = res.U[link_row(res, net, 6, 9)]
    u89 = res.U[link_row(res, net, 8, 9)]
    window_end = int(max(e.depart_s for e in demand.entries) / cfg.dt) + 1
    assert (u69[:window_end] >= u89[:window_end] - 1e-9).all()


def test_criterion_07_closure_empties_the_blocked_route(preset_runs):
    net, demand, cfg, state, report = preset_runs[3]
    od = (1, 9)
    closed = net.path_from_nodes((1, 4, 7, 8, 9))
    rows = {p.link_ids: i for i, p in enumerate(state.paths[od])}
    assert closed.link_ids in rows  # the route is considered, not silently missing
    flows = state.flows[od][rows[closed.link_ids]]
    for pos, k in enumerate(state.k_bins[od]):
        if k * cfg.dt > 20.0:
            assert flows[pos] == 0.0


def test_criterion_08_conservation_on_every_preset(preset_runs):
    for preset, (net, demand, cfg, state, report) in sorted(preset_runs.items()):
        res = state.loading
        assert res.conservation_violations() == [], f"preset {preset}"
        assert (np.diff(res.U, axis=1) >= -1e-9).all(), f"preset {preset}"
        assert (np.diff(res.V, axis=1) >= -1e-9).all(), f"preset {preset}"
        occ = res.U - res.V
        storage = net.arrays.k_jam * net.arrays.area  # rows in res.link_order
        assert (occ >= -1e-6).all() and (occ <= storage[:, None] + 1e-6).all(), f"preset {preset}"


def test_criterion_09_equilibrium_gap_and_relative_difficulty():
    start = time.perf_counter()
    finals = {}
    for preset in (1, 2, 3):
        net, demand, cfg = generate_grid_scenario(preset=preset)
        state, report = run_due(net, demand, cfg)
        assert report.reason == "gap_below_tol", f"preset {preset} did not converge"
        assert report.iterations <= 50
        assert report.rel_gaps[-1] <= 0.01
        finals[preset] = report.rel_gaps[-1]

    forced = {}
    for preset in (1, 2):
        net, demand, cfg = generate_grid_scenario(preset=preset)
        probe = ScenarioConfig(dt=cfg.dt, horizon=cfg.horizon, pvdf=cfg.pvdf,
                               max_iters=10, gap_tol=1e-15, penalties=cfg.penalties)
        state, report = run_due(net, demand, probe)
        forced[preset] = np.array(report.rel_gaps)
    n = min(len(forced[1]), len(forced[2]), 10)
    assert n == 10
    assert (forced[2][:n] >= forced[1][:n] - 1e-12).all(), (
        "two-way loading should converge no faster than one-way for the first 10 iterations"
    )
    assert time.perf_counter() - start < 60.0


def test_criterion_10_saturated_counterflow_never_deadlocks():
    net, _, base = generate_corridor_scenario(preset=6)
    horizon = 150.0
    demand = DemandProfile()
    for k in range(int(horizon)):
        demand.add(1, 10, float(k), 4.0)
        demand.add(10, 1, float(k), 4.0)
    cfg = ScenarioConfig(dt=1.0, horizon=horizon, pvdf=PRESET_PVDF, max_iters=1, gap_tol=1e-9)
    state, report = run_due(net, demand, cfg)
    res = state.loading
    activity = np.diff(res.U.sum(axis=0)) + np.diff(res.V.sum(axis=0))
    assert (activity > 1e-9).all(), "a step passed with no movement anywhere"
    assert res.conservation_violations() == []


def test_criterion_11_desk_scale_performance():
    n = 50
    net = make_grid_network(n, origins={1, n * n}, destinations={1, n * n})
    assert len(net.links) == 9800
    demand = DemandProfile()
    for k in range(120):
        demand.add(1, n * n, float(k), 3.0)
        demand.add(n * n, 1, float(k), 3.0)
    cfg = ScenarioConfig(dt=1.0, horizon=600.0, pvdf=PRESET_PVDF, max_iters=3,
                         gap_tol=1e-15, node_trace=False, enumerate_paths=False)
    start = time.perf_counter()
    state, report = run_due(net, demand, cfg)
    wall = time.perf_counter() - start
    assert report.iterations == 3
    res = state.loading
    assert res.loaded.sum() > 0
    assert res.conservation_violations() == []
    assert wall < 300.0, f"600-step, 3-iteration run took {wall:.0f}s"

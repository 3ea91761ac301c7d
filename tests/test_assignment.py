import tracemalloc

import numpy as np
import pytest

from pedflow.assignment import (
    AssignmentState,
    costs_from_loading,
    free_flow_costs,
    path_from_successors,
    relative_gap,
    run_due,
    shortest_paths,
    update_flows,
)
from pedflow.config import ScenarioConfig
from pedflow.loading import load_network as load_flows
from pedflow.network import DemandProfile, Link, Network, Node, TimeGrid, default_capacity
from pedflow.scenarios import PRESET_PVDF, generate_corridor_scenario, generate_grid_scenario, make_grid_network


def free_flow_column(network):
    """Free-flow link costs as a one-bin cost array, rows in sorted link id order."""
    return np.array([[network.links[lid].free_flow_time] for lid in network.sorted_link_ids()])


def tree(network, costs, destination):
    """The one-column tree toward destination: (times by node id, successor row)."""
    trees = shortest_paths(network, costs, [0], [destination])
    times = {n: d for n, d in zip(network.arrays.nodes, trees.dist[0].tolist()) if d < np.inf}
    return times, trees.succ[0]


class TestShortestPaths:
    def test_grid_ties_break_lexicographically(self):
        net = make_grid_network(3)
        dist, succ = tree(net, free_flow_column(net), 9)
        path = path_from_successors(net, succ, 1, 9)
        assert path.nodes(net) == (1, 2, 3, 6, 9)
        assert dist[1] == pytest.approx(4 * 2.0 / 1.5)

    def test_corridor_unique_route(self):
        net, _, _ = generate_corridor_scenario(preset=4)
        dist, succ = tree(net, free_flow_column(net), 10)
        path = path_from_successors(net, succ, 1, 10)
        assert path.nodes(net) == tuple(range(1, 11))

    def test_penalized_link_is_avoided(self):
        net = make_grid_network(3)
        costs = free_flow_column(net)
        blocked = net.link_between(4, 7)
        costs[net.arrays.index[blocked.id]] += 1e4
        dist, succ = tree(net, costs, 9)
        path = path_from_successors(net, succ, 1, 9)
        assert blocked.id not in path.link_ids
        assert dist[1] < 1e3

    def test_unreachable_node_missing_from_times(self):
        nodes = [Node(1), Node(2), Node(3)]
        links = [Link(1, 1, 2, 2.0, 4.0, 1.5, 5.4, 0.5, 8.1)]
        net = Network(nodes, links)
        dist, succ = tree(net, np.array([[1.0]]), 2)
        assert 3 not in dist
        assert path_from_successors(net, succ, 3, 2) is None

    def test_negative_cost_rejected(self):
        net = make_grid_network(3)
        costs = free_flow_column(net)
        costs[net.arrays.index[1]] = -1.0
        with pytest.raises(ValueError):
            shortest_paths(net, costs, [0], [9])


class TestCostField:
    def test_penalty_applies_from_start_instant(self):
        net = make_grid_network(3)
        grid = TimeGrid(1.0, 30.0)
        lid = net.link_between(4, 7).id
        costs = free_flow_costs(net, grid, penalties=[(lid, 20.0, 1e4)])
        row = net.sorted_link_ids().index(lid)
        tau = net.links[lid].free_flow_time
        assert costs[row, 19] == pytest.approx(tau)
        assert costs[row, 20] == pytest.approx(tau + 1e4)
        assert costs[row, 29] == pytest.approx(tau + 1e4)

    def test_columns_index_by_link_id(self):
        net = make_grid_network(3)
        grid = TimeGrid(1.0, 10.0)
        costs = free_flow_costs(net, grid)
        assert costs.shape == (len(net.links), grid.n_bins)
        row = net.sorted_link_ids().index(5)
        assert costs[row, 3] == pytest.approx(net.links[5].free_flow_time)


class TestUpdateFlowsAndGap:
    def make_state(self):
        net = make_grid_network(3, origins={1}, destinations={9})
        grid = TimeGrid(1.0, 20.0)
        demand = DemandProfile()
        demand.add(1, 9, 0.0, 2.0)
        demand.add(1, 9, 1.0, 2.0)
        return net, grid, demand, AssignmentState(net, grid, demand)

    def test_first_iteration_is_pure_shortest_path_loading(self):
        net, grid, demand, state = self.make_state()
        p = net.path_from_nodes((1, 2, 3, 6, 9))
        update_flows(state, {(1, 9): [p, p]}, 1)
        assert state.flows[(1, 9)].flatten() == pytest.approx([2.0, 2.0])

    def test_msa_preserves_feasibility(self):
        net, grid, demand, state = self.make_state()
        p1 = net.path_from_nodes((1, 2, 3, 6, 9))
        p2 = net.path_from_nodes((1, 4, 7, 8, 9))
        update_flows(state, {(1, 9): [p1, p1]}, 1)
        update_flows(state, {(1, 9): [p2, p1]}, 2)
        update_flows(state, {(1, 9): [p2, p2]}, 3)
        totals = state.flows[(1, 9)].sum(axis=0)
        assert totals == pytest.approx([2.0, 2.0])
        assert (state.flows[(1, 9)] >= 0).all()

    def test_gap_zero_when_all_flow_is_shortest(self):
        net, grid, demand, state = self.make_state()
        p = net.path_from_nodes((1, 2, 3, 6, 9))
        update_flows(state, {(1, 9): [p, p]}, 1)
        state.path_times[(1, 9)] = np.array([[8.0, 8.0]])
        state.shortest_times[(1, 9)] = np.array([8.0, 8.0])
        assert relative_gap(state) == pytest.approx(0.0, abs=1e-12)

    def test_gap_closed_form(self):
        net, grid, demand, state = self.make_state()
        demand2 = DemandProfile()
        demand2.add(1, 9, 0.0, 1.0)
        state = AssignmentState(net, grid, demand2)
        p = net.path_from_nodes((1, 4, 7, 8, 9))
        update_flows(state, {(1, 9): [p]}, 1)
        state.path_times[(1, 9)] = np.array([[10.0]])
        state.shortest_times[(1, 9)] = np.array([8.0])
        assert relative_gap(state) == pytest.approx(0.25)

    def test_gap_zero_without_demand(self):
        net = make_grid_network(3, origins={1}, destinations={9})
        grid = TimeGrid(1.0, 20.0)
        state = AssignmentState(net, grid, DemandProfile())
        assert relative_gap(state) == 0.0


def diamond_network():
    """Two identical one-way routes (via node 2 and via node 3) from 1 to 4."""
    nodes = [Node(1, kind="origin-centroid"), Node(2), Node(3), Node(4, kind="destination-centroid")]
    mk = lambda lid, a, b: Link(lid, a, b, 2.0, 4.0, 1.5, 5.4, 0.5,
                                default_capacity(4.0, 1.5, 5.4, 0.5))
    links = [mk(1, 1, 2), mk(2, 2, 4), mk(3, 1, 3), mk(4, 3, 4)]
    return Network(nodes, links)


class TestRunDue:
    def test_corridor_needs_one_iteration(self):
        net, demand, cfg = generate_corridor_scenario(preset=4)
        state, report = run_due(net, demand, cfg)
        assert report.iterations == 1
        assert report.reason == "gap_below_tol"
        assert report.rel_gaps[0] == pytest.approx(0.0, abs=1e-9)

    def test_zero_demand_stops_immediately(self):
        net, _, cfg = generate_corridor_scenario(preset=4)
        state, report = run_due(net, DemandProfile(), cfg)
        assert report.iterations == 1
        assert report.rel_gaps == (0.0,)

    def test_equal_routes_split_evenly(self):
        net = diamond_network()
        demand = DemandProfile()
        demand.add(1, 4, 0.0, 1.0)
        cfg = ScenarioConfig(dt=1.0, horizon=30.0, max_iters=40, gap_tol=1e-12)
        state, report = run_due(net, demand, cfg)
        flows = state.flows[(1, 4)]
        assert flows.shape[0] == 2
        assert flows[:, 0] == pytest.approx([0.5, 0.5], abs=1e-9)

    def test_symmetric_grid_splits_between_first_moves(self):
        # with one-way demand on the symmetric grid, routes leaving through
        # either first link end up carrying roughly equal flow
        net, demand, cfg = generate_grid_scenario(preset=1)
        state, report = run_due(net, demand, cfg)
        od = (1, 9)
        first = {net.link_between(1, 2).id: 0.0, net.link_between(1, 4).id: 0.0}
        for row, path in enumerate(state.paths[od]):
            first[path.link_ids[0]] += state.flows[od][row].sum()
        total = sum(first.values())
        share = first[net.link_between(1, 2).id] / total
        assert 0.4 <= share <= 0.6

    def test_path_flows_cover_demand_in_steady_window(self):
        net, demand, cfg = generate_grid_scenario(preset=1)
        state, report = run_due(net, demand, cfg)
        od = (1, 9)
        for pos, k in enumerate(state.k_bins[od]):
            if 8.0 <= k * cfg.dt <= 42.0:
                assert state.flows[od][:, pos].sum() == pytest.approx(6.0)

    def test_gap_history_nonnegative(self):
        net, demand, cfg = generate_grid_scenario(preset=1)
        cfg = ScenarioConfig(dt=cfg.dt, horizon=cfg.horizon, max_iters=5, gap_tol=1e-12)
        state, report = run_due(net, demand, cfg)
        assert all(g >= -1e-9 for g in report.rel_gaps)

    def test_deterministic_flow_trajectories(self):
        net, demand, cfg = generate_grid_scenario(preset=2)
        cfg = ScenarioConfig(dt=cfg.dt, horizon=cfg.horizon, max_iters=4, gap_tol=1e-12)
        s1, r1 = run_due(net, demand, cfg)
        s2, r2 = run_due(net, demand, cfg)
        assert r1.rel_gaps == r2.rel_gaps
        for od in s1.ods:
            assert np.array_equal(s1.flows[od], s2.flows[od])
        assert np.array_equal(s1.loading.U, s2.loading.U)
        assert np.array_equal(s1.loading.V, s2.loading.V)

    def test_previous_loading_is_dropped_before_the_next(self):
        # the loader builds each iteration's curves with the last ones already let go
        net, demand, cfg = generate_grid_scenario(preset=1)
        cfg = ScenarioConfig(dt=cfg.dt, horizon=cfg.horizon, max_iters=3, gap_tol=1e-15)
        calls = []

        def loader(network, grid, demand, fractions, state):
            assert state.loading is None
            calls.append(state.iteration)
            return load_flows(network, grid, demand, fractions)

        state, report = run_due(net, demand, cfg, loader=loader)
        assert calls == [0, 1, 2]
        assert state.loading is not None

    def test_unreachable_destination_raises(self):
        net = Network([Node(1), Node(2)], [Link(1, 2, 1, 2.0, 4.0, 1.5, 5.4, 0.5, 8.1)])
        demand = DemandProfile()
        demand.add(1, 2, 0.0, 1.0)
        with pytest.raises(RuntimeError, match=r"^destination 2 unreachable from 1 at bin 0$"):
            run_due(net, demand, ScenarioConfig(dt=1.0, horizon=10.0))


class StaticResult:
    """Loading stand-in: every path flow hits all its links at the departure bin."""

    def __init__(self, network, grid, state):
        self.link_order = network.sorted_link_ids()
        self.link_index = {lid: i for i, lid in enumerate(self.link_order)}
        self.grid = grid
        u = np.zeros((len(self.link_order), grid.n_bins))
        for od in state.ods:
            for row, path in enumerate(state.paths[od]):
                for pos, k in enumerate(state.k_bins[od]):
                    f = state.flows[od][row, pos]
                    for lid in path.link_ids:
                        u[self.link_index[lid], k] += f
        self.U = np.concatenate((np.zeros((len(u), 1)), np.cumsum(u * grid.dt, axis=1)), axis=1)  # cumulative entries


def static_loader(network, grid, demand, fractions, state):
    return StaticResult(network, grid, state)


class TestStaticEquilibriumCrossCheck:
    def asymmetric_two_route_network(self):
        nodes = [Node(1, kind="origin-centroid"), Node(2), Node(3),
                 Node(4, kind="destination-centroid")]
        links = [
            Link(1, 1, 2, 10.0, 1.0, 1.0, 2.0, 0.5, 4.0),
            Link(2, 2, 4, 10.0, 1.0, 1.0, 2.0, 0.5, 4.0),
            Link(3, 1, 3, 12.0, 1.0, 1.0, 2.0, 0.5, 2.0),
            Link(4, 3, 4, 12.0, 1.0, 1.0, 2.0, 0.5, 2.0),
        ]
        return Network(nodes, links)

    def test_msa_with_frozen_costs_matches_bisection_equilibrium(self):
        net = self.asymmetric_two_route_network()
        demand = DemandProfile()
        q = 4.0
        demand.add(1, 4, 0.0, q)
        cfg = ScenarioConfig(dt=1.0, horizon=2.0, max_iters=300, gap_tol=1e-12)

        def c_a(f):  # two 10 s links of capacity 4
            return 2 * 10.0 * (1 + 0.5 * (f / 4.0) ** 2)

        def c_b(f):  # two 12 s links of capacity 2
            return 2 * 12.0 * (1 + 0.5 * (f / 2.0) ** 2)

        lo, hi = 0.0, q
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if c_a(mid) < c_b(q - mid):
                lo = mid
            else:
                hi = mid
        f_star = 0.5 * (lo + hi)
        assert 0.0 < f_star < q  # interior equilibrium for this setup

        state, report = run_due(net, demand, cfg, loader=static_loader)
        via_2 = None
        for row, path in enumerate(state.paths[(1, 4)]):
            if path.nodes(net) == (1, 2, 4):
                via_2 = state.flows[(1, 4)][row, 0]
        assert via_2 == pytest.approx(f_star, abs=0.05)
        assert report.rel_gaps[-1] < 0.01


class TestCostsFromLoading:
    def test_costs_follow_bidirectional_inflows(self):
        from pedflow.pvdf import link_cost

        net, demand, cfg = generate_corridor_scenario(preset=6)
        state, report = run_due(net, demand, cfg)
        result = state.loading
        costs = costs_from_loading(net, TimeGrid(cfg.dt, cfg.horizon), result, cfg.pvdf)
        lid = net.link_between(5, 6).id
        row = net.sorted_link_ids().index(lid)
        at_rest = link_cost(net.links[lid], cfg.pvdf, 0.0, 0.0)
        assert costs[row, 0] == pytest.approx(at_rest)  # empty network at t=0
        mid = int(30 / cfg.dt)
        assert costs[row, mid] > at_rest  # two-way flow raises the cost

    def test_memory_stays_near_the_output_on_a_large_grid(self):
        """On the 50x50 grid (9,800 links) after one loading, only the few
        hundred links entered and their twins go through the cost formula, so
        the allocation peak stays within 1.5x the cost array itself; the
        formula on every row would allocate several arrays of its size."""
        n = 50
        net = make_grid_network(n, origins={1, n * n}, destinations={1, n * n})
        demand = DemandProfile()
        for k in range(8):
            demand.add(1, n * n, float(k), 3.0)
            demand.add(n * n, 1, float(k), 3.0)
        cfg = ScenarioConfig(dt=1.0, horizon=40.0, pvdf=PRESET_PVDF, max_iters=1, gap_tol=1e-15,
                             node_trace=False, enumerate_paths=False)
        state, _ = run_due(net, demand, cfg)
        tracemalloc.start()
        try:
            costs = costs_from_loading(net, TimeGrid(cfg.dt, cfg.horizon), state.loading, cfg.pvdf)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert costs.shape == (9800, 40)
        assert peak <= 1.5 * costs.nbytes

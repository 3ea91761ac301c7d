import itertools

import numpy as np
import pytest

from pedflow import nodemodel
from pedflow.ltm import counterflow_at
from pedflow.network import TimeGrid, Trees
from pedflow.nodemodel import (
    ORIGIN,
    SINK,
    NodeFlowProblem,
    TurningFractions,
    paths_to_turning_fractions,
    solve_node,
)
from pedflow.scenarios import make_corridor_network, make_grid_network


def brute_force_max_total(S, available):
    """Independent oracle: enumerate every vertex of the reduction-factor
    polytope {0 <= theta <= 1, sum_i theta_i S_ij <= available_j} and return
    the maximal total transfer."""
    n_in, n_out = S.shape
    act = [i for i in range(n_in) if S[i].sum() > 0]
    n = len(act)
    if n == 0:
        return 0.0
    row_tot = S.sum(axis=1)[act]
    rows, rhs = [], []
    for p in range(n):
        e = np.zeros(n)
        e[p] = 1.0
        rows.append(e.copy())
        rhs.append(1.0)  # theta <= 1
        rows.append(-e)
        rhs.append(0.0)  # theta >= 0
    for j in range(n_out):
        rows.append(np.array([S[i, j] for i in act], dtype=float))
        rhs.append(available[j])
    rows = np.array(rows)
    rhs = np.array(rhs)
    best = 0.0
    for combo in itertools.combinations(range(len(rows)), n):
        A = rows[list(combo)]
        b = rhs[list(combo)]
        try:
            theta = np.linalg.solve(A, b)
        except np.linalg.LinAlgError:
            continue
        if (rows @ theta <= rhs + 1e-9).all():
            best = max(best, float(row_tot @ theta))
    return best


class TestWorkedIntersection:
    # four incoming (a, b, c, d) and four outgoing (a', b', c', d') links with
    # crossing demands and counterflow reservations on three of the exits
    S = np.array([
        [0.0, 1.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.5],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, 0.0, 0.0],
    ])
    R = np.array([3.0, 2.0, 2.0, 1.0])
    RESERVED = np.array([1.0, 1.5, 1.0, 0.0])

    def test_reference_solution_exact(self):
        sol = solve_node(NodeFlowProblem(self.S, self.R, self.RESERVED))
        expected = np.array([
            [0.0, 0.5, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.5],
            [0.0, 0.0, 0.0, 0.5],
            [0.0, 0.0, 0.0, 0.0],
        ])
        assert np.abs(sol.flows - expected).max() <= 1e-9
        assert sol.reductions == pytest.approx([0.5, 1.0, 0.5, 1.0], abs=1e-12)
        assert sol.total == pytest.approx(2.5, abs=1e-12)

    def test_reserved_supply_is_respected(self):
        sol = solve_node(NodeFlowProblem(self.S, self.R, self.RESERVED))
        delivered = sol.flows.sum(axis=0) + self.RESERVED
        assert (delivered <= self.R + 1e-12).all()


class TestSolveNodeBasics:
    def test_unconstrained_node_passes_demand(self):
        S = np.array([[1.0, 2.0], [0.5, 0.0]])
        sol = solve_node(NodeFlowProblem(S, np.array([5.0, 5.0])))
        assert sol.flows == pytest.approx(S)
        assert sol.reductions == pytest.approx([1.0, 1.0])

    def test_single_movement_min_rule(self):
        S = np.array([[5.0]])
        sol = solve_node(NodeFlowProblem(S, np.array([4.0]), np.array([2.0])))
        assert sol.total == pytest.approx(2.0)

    def test_equal_priority_merge_splits_supply(self):
        S = np.array([[1.0], [1.0]])
        sol = solve_node(NodeFlowProblem(S, np.array([1.0])))
        assert sol.flows[:, 0] == pytest.approx([0.5, 0.5])

    def test_merge_redistributes_unused_share(self):
        S = np.array([[0.2], [2.0]])
        sol = solve_node(NodeFlowProblem(S, np.array([1.0])))
        assert sol.flows[:, 0] == pytest.approx([0.2, 0.8])

    def test_negative_effective_supply_clamps(self):
        S = np.array([[1.0]])
        sol = solve_node(NodeFlowProblem(S, np.array([1.0]), np.array([2.0])))
        assert sol.total == 0.0
        assert sol.clamped == (0,)

    def test_zero_demand(self):
        sol = solve_node(NodeFlowProblem(np.zeros((2, 2)), np.array([1.0, 1.0])))
        assert sol.total == 0.0


class TestOptimalityAndProportionality:
    def test_random_problems_match_vertex_enumeration(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            n_in = rng.integers(1, 5)
            n_out = rng.integers(1, 5)
            S = rng.uniform(0.0, 3.0, size=(n_in, n_out))
            S *= rng.random(size=S.shape) < 0.7
            R = rng.uniform(0.0, 4.0, size=n_out)
            reserved = rng.uniform(0.0, 1.0, size=n_out) * (rng.random(n_out) < 0.5)
            sol = solve_node(NodeFlowProblem(S, R, reserved))
            available = np.maximum(R - reserved, 0.0)
            best = brute_force_max_total(S, available)
            assert sol.total == pytest.approx(best, abs=1e-6)
            # feasibility
            assert (sol.flows.sum(axis=0) <= available + 1e-9).all()
            assert (sol.flows <= S + 1e-9).all()
            # proportional movements per incoming link
            row_tot = sol.flows.sum(axis=1)
            S_tot = S.sum(axis=1)
            for i in range(n_in):
                if row_tot[i] > 1e-12:
                    assert sol.flows[i] / row_tot[i] == pytest.approx(
                        S[i] / S_tot[i], abs=1e-9
                    )

    def test_invariance_to_scaling_a_blocked_demand(self):
        S = np.array([[3.0], [1.0]])
        base = solve_node(NodeFlowProblem(S, np.array([1.0])))
        scaled = solve_node(NodeFlowProblem(S * np.array([[5.0], [1.0]]), np.array([1.0])))
        # the first row stays supply-constrained; flows into the bottleneck unchanged
        assert base.flows[:, 0] == pytest.approx(scaled.flows[:, 0], abs=1e-12)

    def test_simplex_pivot_cap_fails_loudly(self, monkeypatch):
        S = np.array([[4.0, 2.0, 1.0], [3.0, 5.0, 0.0], [1.0, 1.0, 6.0]])
        available = np.array([3.0, 4.0, 2.0])
        q, _ = nodemodel._max_total_vertex(S, available)
        assert q.sum() == pytest.approx(brute_force_max_total(S, available), rel=1e-9)
        monkeypatch.setattr(nodemodel, "PIVOTS_PER_DIMENSION", 0)
        with pytest.raises(RuntimeError, match="pivot"):
            nodemodel._max_total_vertex(S, available)


def reservation(net, link_id, U, t):
    """counterflow_at for one link, with dt = 1 s."""
    arrays = net.arrays
    return counterflow_at(U, t, 1.0, arrays.twin, arrays.length, arrays.v_f)[arrays.index[link_id]]


class TestLookAhead:
    def make_pair_net(self):
        return make_corridor_network(2)

    def curves(self, net):
        return np.zeros((len(net.links), 11))

    def test_one_way_link_reserves_nothing(self):
        net = make_grid_network(3)
        link = next(iter(net.links.values()))
        object.__setattr__(link, "opposite", None)
        assert reservation(net, link.id, self.curves(net), 3) == 0.0

    def test_idle_twin_reserves_nothing(self):
        net = self.make_pair_net()
        assert reservation(net, 1, self.curves(net), 3) == 0.0

    def test_steady_counterflow_hand_trace(self):
        # twin carries 2 ped/s; the reservation window is shifted by the
        # twin's free-flow traversal (2 m / 1.5 m/s) and spans one step
        net = self.make_pair_net()
        U = self.curves(net)
        twin = net.links[1].opposite
        U[net.arrays.index[twin]] = 2.0 * np.arange(11)
        got = reservation(net, 1, U, 3)
        shift = 2.0 / 1.5
        expected = 2.0 * (4 - shift) - 2.0 * (3 - shift)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(2.0, abs=1e-12)

    def test_window_before_start_reads_zero(self):
        net = self.make_pair_net()
        U = self.curves(net)
        twin = net.links[1].opposite
        U[net.arrays.index[twin]] = 2.0 * np.arange(11)
        # at t=0 the shifted window lies entirely before the start
        assert reservation(net, 1, U, 0) == 0.0
        # at t=1 it straddles the start: only the in-horizon part counts
        shift = 2.0 / 1.5
        expected = 2.0 * (2 - shift) - 0.0
        assert reservation(net, 1, U, 1) == pytest.approx(expected, abs=1e-12)


def lookup(tf, dest, node, in_key, t):
    """One query of the array-form TurningFractions.fractions, as [(out_key, fraction), ...]."""
    query, out_keys, fracs = tf.fractions([dest], [node], [in_key], t)
    assert (query == 0).all()
    return list(zip(out_keys.tolist(), fracs.tolist()))


class TestTurningFractions:
    def grid_paths(self):
        net = make_grid_network(3, origins={1, 8}, destinations={9, 4})
        return net, TimeGrid(1.0, 20.0)

    def test_one_fraction_set_per_destination(self):
        net, grid = self.grid_paths()
        flows = [
            (net.path_from_nodes((1, 2, 3, 6, 9)), 0, 1.0),
            (net.path_from_nodes((1, 4, 7, 8, 9)), 0, 1.0),
            (net.path_from_nodes((2, 5, 4)), 0, 1.0),
            (net.path_from_nodes((8, 5, 4)), 0, 1.0),
            (net.path_from_nodes((7, 4)), 0, 1.0),
        ]
        tf = paths_to_turning_fractions(flows, net, grid)
        assert tf.destinations == [4, 9]

    def test_single_path_routes_everything(self):
        net, grid = self.grid_paths()
        path = net.path_from_nodes((1, 2, 3, 6, 9))
        tf = paths_to_turning_fractions([(path, 0, 2.0)], net, grid)
        first_link = path.link_ids[0]
        second_link = path.link_ids[1]
        assert lookup(tf, 9, 1, ORIGIN, 0) == [(first_link, 1.0)]
        k_at_2 = int(net.links[first_link].free_flow_time)  # arrival bin at node 2
        assert lookup(tf, 9, 2, first_link, k_at_2) == [(second_link, 1.0)]

    def test_equal_split_at_diverge(self):
        net, grid = self.grid_paths()
        p1 = net.path_from_nodes((1, 2, 3, 6, 9))
        p2 = net.path_from_nodes((1, 4, 7, 8, 9))
        tf = paths_to_turning_fractions([(p1, 0, 1.5), (p2, 0, 1.5)], net, grid)
        fracs = dict(lookup(tf, 9, 1, ORIGIN, 0))
        assert fracs[p1.link_ids[0]] == pytest.approx(0.5)
        assert fracs[p2.link_ids[0]] == pytest.approx(0.5)

    def test_destination_always_sinks(self):
        net, grid = self.grid_paths()
        path = net.path_from_nodes((1, 2, 3, 6, 9))
        tf = paths_to_turning_fractions([(path, 0, 1.0)], net, grid)
        assert lookup(tf, 9, 9, path.link_ids[-1], 19) == [(SINK, 1.0)]

    @staticmethod
    def one_tree(net, dest, successors):
        succ = np.full((1, len(net.nodes)), -1)
        for node, lid in successors.items():
            succ[0, net.arrays.node_index[node]] = lid
        return Trees(np.array([0]), np.array([dest]), np.zeros(succ.shape), succ, net.arrays.node_index)

    def test_zero_flow_falls_back_to_successor(self):
        net, grid = self.grid_paths()
        tf = TurningFractions(grid.n_bins, self.one_tree(net, 9, {1: 1, 2: 5}))
        assert lookup(tf, 9, 1, ORIGIN, 7) == [(1, 1.0)]
        assert lookup(tf, 9, 2, 1, 0) == [(5, 1.0)]

    def test_no_route_gives_empty(self):
        net, grid = self.grid_paths()
        tf = TurningFractions(grid.n_bins, self.one_tree(net, 9, {}))
        assert lookup(tf, 9, 5, ORIGIN, 0) == []

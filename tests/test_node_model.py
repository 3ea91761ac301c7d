import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_fractions
import reference_nodemodel
from pedflow import nodemodel
from pedflow.ltm import counterflow_at
from pedflow.network import Path, TimeGrid, Trees
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


@st.composite
def node_problems(draw, shape=None):
    """Node problems of 1-4 incoming by 1-4 outgoing links, or of the
    (incoming, outgoing) shape given.  Demands are zero, quarters or
    arbitrary floats, with whole rows and columns zeroed at random.  Each
    column is a sink (infinite supply, nothing reserved), a reservation
    larger than its supply, or an available supply that is arbitrary or
    within 1e-10 of the column's load, under a reservation that is zero or
    arbitrary."""
    n_in, n_out = shape or (draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    entry = st.one_of(st.just(0.0), st.integers(1, 12).map(lambda v: v / 4), st.floats(1e-3, 5.0))
    S = np.array(draw(st.lists(st.lists(entry, min_size=n_out, max_size=n_out), min_size=n_in, max_size=n_in)))
    S[sorted(draw(st.sets(st.integers(0, n_in - 1), max_size=n_in)))] = 0.0
    S[:, sorted(draw(st.sets(st.integers(0, n_out - 1), max_size=n_out)))] = 0.0
    supplies, reserved = np.zeros(n_out), np.zeros(n_out)
    for j, load in enumerate(S.sum(axis=0).tolist()):
        kind = draw(st.sampled_from(["sink", "over", "free", "tie"]))
        if kind == "sink":
            supplies[j] = np.inf
        elif kind == "over":
            supplies[j] = draw(st.floats(0.0, 3.0))
            reserved[j] = supplies[j] + draw(st.floats(1e-3, 3.0))
        else:
            available = draw(st.floats(0.0, 3.0)) if kind == "free" else load + draw(st.floats(-1e-10, 1e-10))
            reserved[j] = draw(st.one_of(st.just(0.0), st.floats(0.0, 3.0)))
            supplies[j] = available + reserved[j]
    return NodeFlowProblem(S, supplies, reserved)


class TestSolverParity:
    @settings(max_examples=500, deadline=None)
    @given(node_problems())
    def test_bit_identical_to_the_reference_solver(self, problem):
        """solve_node returns the reference solver's flows and reductions,
        bit for bit (the sign of zero included), and its clamped columns."""
        got = solve_node(problem)
        want = reference_nodemodel.reference_solve_node(problem)
        assert got.flows.tobytes() == want.flows.tobytes()
        assert got.reductions.tobytes() == want.reductions.tobytes()
        assert got.clamped == want.clamped


@st.composite
def node_stacks(draw):
    """1-6 node problems of one shape, up to 4 by 4, each drawn as
    `node_problems` draws one."""
    shape = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    return draw(st.lists(node_problems(shape), min_size=1, max_size=6))


class TestStackParity:
    @settings(max_examples=300, deadline=None)
    @given(node_stacks())
    def test_each_problem_of_a_stack_solves_as_alone(self, problems):
        """solve_node on a stack returns, for every problem, the reference
        solver's flows and reductions on that problem alone, bit for bit (the
        sign of zero included); clamped holds flat indices into the stack's
        supplies."""
        stack = NodeFlowProblem(*(np.stack([getattr(p, field) for p in problems])
                                  for field in ("demands", "supplies", "counterflow")))
        got = solve_node(stack)
        n_out = stack.supplies.shape[1]
        clamped = []
        for p, problem in enumerate(problems):
            want = reference_nodemodel.reference_solve_node(problem)
            assert got.flows[p].tobytes() == want.flows.tobytes()
            assert got.reductions[p].tobytes() == want.reductions.tobytes()
            clamped += [p * n_out + j for j in want.clamped]
        assert got.clamped == tuple(clamped)


class TestProblemChecks:
    @pytest.mark.parametrize("field, values", [
        ("demands", [[np.nan, 1.0]]),
        ("supplies", [np.nan, 1.0]),
        ("counterflow", [0.0, np.nan]),
    ])
    def test_nan_is_rejected(self, field, values):
        # unchecked, a NaN demand dropped its row's 1.0 that fits, and a NaN
        # supply or reservation passed its column's whole demand
        args = {"demands": [[0.5, 1.0]], "supplies": [1.0, 1.0], "counterflow": [0.0, 0.0], field: values}
        with pytest.raises(ValueError, match=field):
            NodeFlowProblem(**args)

    @pytest.mark.parametrize("field, values", [
        ("demands", [[np.inf, 5.0]]),
        ("counterflow", [np.inf, 0.0]),
    ])
    def test_infinity_is_rejected(self, field, values):
        # unchecked, an infinite demand passed whole through finite supplies
        # (the fit test's scale became inf), and an infinite reservation on a
        # sink left inf - inf, a NaN column read as unlimited
        args = {"demands": [[1.0, 2.0]], "supplies": [np.inf, 1.0], "counterflow": [0.0, 0.0], field: values}
        with pytest.raises(ValueError, match=field):
            NodeFlowProblem(**args)

    def test_infinite_sink_supply_is_allowed(self):
        sol = solve_node(NodeFlowProblem([[2.0, 1.0]], [np.inf, 0.5]))
        assert sol.flows.tolist() == [[1.0, 0.5]]


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


def as_row(net, key):
    """A link id's row; ORIGIN and SINK stay themselves."""
    return key if key in (ORIGIN, SINK) else net.arrays.index[key]


def as_positions(net, key):
    """An id key (dest, node, link id or ORIGIN) as (dest position, node position, link row or ORIGIN)."""
    dest, node, in_key = key
    return net.arrays.node_index[dest], net.arrays.node_index[node], as_row(net, in_key)


def lookup(net, tf, dest, node, in_key, t):
    """One query of the array-form TurningFractions.fractions in node and link
    ids, as [(out_key, fraction), ...]: positions and rows at the boundary."""
    dest, node, in_key = as_positions(net, (dest, node, in_key))
    query, out_keys, fracs = tf.fractions([dest], [node], [in_key], t)
    assert (query == 0).all()
    return [(SINK if key == SINK else net.arrays.order[key], frac)
            for key, frac in zip(out_keys.tolist(), fracs.tolist())]


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
        assert [net.arrays.nodes[d] for d in tf.destinations] == [4, 9]

    def test_single_path_routes_everything(self):
        net, grid = self.grid_paths()
        path = net.path_from_nodes((1, 2, 3, 6, 9))
        tf = paths_to_turning_fractions([(path, 0, 2.0)], net, grid)
        first_link = path.link_ids[0]
        second_link = path.link_ids[1]
        assert lookup(net, tf, 9, 1, ORIGIN, 0) == [(first_link, 1.0)]
        k_at_2 = int(net.links[first_link].free_flow_time)  # arrival bin at node 2
        assert lookup(net, tf, 9, 2, first_link, k_at_2) == [(second_link, 1.0)]

    def test_equal_split_at_diverge(self):
        net, grid = self.grid_paths()
        p1 = net.path_from_nodes((1, 2, 3, 6, 9))
        p2 = net.path_from_nodes((1, 4, 7, 8, 9))
        tf = paths_to_turning_fractions([(p1, 0, 1.5), (p2, 0, 1.5)], net, grid)
        fracs = dict(lookup(net, tf, 9, 1, ORIGIN, 0))
        assert fracs[p1.link_ids[0]] == pytest.approx(0.5)
        assert fracs[p2.link_ids[0]] == pytest.approx(0.5)

    def test_destination_always_sinks(self):
        net, grid = self.grid_paths()
        path = net.path_from_nodes((1, 2, 3, 6, 9))
        tf = paths_to_turning_fractions([(path, 0, 1.0)], net, grid)
        assert lookup(net, tf, 9, 9, path.link_ids[-1], 19) == [(SINK, 1.0)]

    @staticmethod
    def one_tree(net, dest, successors):
        pos = net.arrays.node_index
        succ = np.full((1, len(net.nodes)), -1)
        for node, lid in successors.items():
            succ[0, pos[node]] = net.arrays.index[lid]
        return Trees(np.array([0]), np.array([dest]), np.zeros(succ.shape), succ, np.array([pos[dest]]))

    def test_zero_flow_falls_back_to_successor(self):
        net, grid = self.grid_paths()
        tf = TurningFractions(grid.n_bins, self.one_tree(net, 9, {1: 1, 2: 5}))
        assert lookup(net, tf, 9, 1, ORIGIN, 7) == [(1, 1.0)]
        assert lookup(net, tf, 9, 2, 1, 0) == [(5, 1.0)]

    def test_no_route_gives_empty(self):
        net, grid = self.grid_paths()
        tf = TurningFractions(grid.n_bins, self.one_tree(net, 9, {}))
        assert lookup(net, tf, 9, 5, ORIGIN, 0) == []

    def test_sums_follow_contribution_order(self):
        # float sums that depend on their order: a cell sums its contributions
        # as given, a group total its out keys in the order they first appear
        net, grid = self.grid_paths()
        movements = (np.full(6, 8), np.full(6, 4), np.full(6, ORIGIN), np.array([21, 9, 19, 9, 9, 9]),
                     np.array([0, 0, 0, 1, 1, 1]), np.array([0.1, 0.2, 0.3, 0.3, 0.2, 0.1]))
        tf = TurningFractions(grid.n_bins, self.one_tree(net, 9, {}), movements)
        g = tf.groups[(8, 4, ORIGIN)]  # node positions of nodes 9 and 5; link rows
        assert tf.out_key[tf.first[g]:tf.first[g] + tf.count[g]].tolist() == [9, 19, 21]
        assert 0.1 + 0.2 + 0.3 != 0.2 + 0.3 + 0.1
        assert tf.totals[g, 0] == 0.1 + 0.2 + 0.3
        assert 0.3 + 0.2 + 0.1 != 0.1 + 0.2 + 0.3
        assert tf.mass[tf.first[g], 1] == 0.3 + 0.2 + 0.1

    def test_paths_contribute_item_by_item(self):
        # three paths meet on one movement at node 3, the first at its third
        # link and the others at their second: the cell sums them in item order
        net, grid = self.grid_paths()
        long, short = net.path_from_nodes((1, 2, 3, 6, 9)), net.path_from_nodes((2, 3, 6, 9))
        costs = np.full((len(net.links), grid.n_bins), 0.1)
        tf = paths_to_turning_fractions([(long, 0, 0.1), (short, 0, 0.2), (short, 0, 0.3)], net, grid, costs)
        pos, row = net.arrays.node_index, net.arrays.index
        g = tf.groups[(pos[9], pos[3], row[long.link_ids[1]])]
        assert tf.out_key[tf.first[g]] == row[long.link_ids[2]] and tf.count[g] == 1
        assert tf.mass[tf.first[g], 0] == 0.1 + 0.2 + 0.3

    def test_entry_bin_tolerates_float_noise(self):
        # link costs 0.7, 0.2 and 0.1 arrive a few ulp before t = 1, which is bin 1
        net, grid = self.grid_paths()
        path = net.path_from_nodes((1, 2, 3, 6))
        costs = np.ones((len(net.links), grid.n_bins))
        for lid, cost in zip(path.link_ids, (0.7, 0.2, 0.1)):
            costs[net.arrays.index[lid]] = cost
        tf = paths_to_turning_fractions([(path, 0, 1.0)], net, grid, costs)
        assert 0.7 + 0.2 + 0.1 < 1.0
        pos = net.arrays.node_index
        g = tf.groups[(pos[6], pos[6], net.arrays.index[path.link_ids[-1]])]
        assert tf.mass[tf.first[g]].tolist() == [0.0, 1.0] + [0.0] * (grid.n_bins - 2)


@st.composite
def route_flows(draw):
    """A paired 2x2 to 4x4 grid or 2- to 6-segment corridor, per-bin link
    costs up to 12 s on a 2- to 8-bin grid (so paths run past the horizon;
    some are tenths, whose sums land a few ulp off whole seconds), and 1-40
    (path, departure bin, flow) items.  Paths are loop-free random walks
    from a few origins that stop at one of a few destinations or after 8
    links, so many share their movements; some flows are zero and some
    departures lie past the last cost column."""
    if draw(st.booleans()):
        net = make_grid_network(draw(st.integers(2, 4)))
    else:
        net = make_corridor_network(draw(st.integers(2, 6)))
    n_bins = draw(st.integers(2, 8))
    grid = TimeGrid(1.0, float(n_bins))
    cost = st.one_of(st.integers(1, 120).map(lambda c: c / 10), st.floats(0.05, 12.0))
    costs = np.array(draw(st.lists(st.lists(cost, min_size=n_bins, max_size=n_bins),
                                   min_size=len(net.links), max_size=len(net.links))))
    nodes = st.sampled_from(sorted(net.nodes))
    origins, dests = draw(st.lists(nodes, min_size=1, max_size=3)), draw(st.lists(nodes, min_size=1, max_size=2))
    items = []
    for _ in range(draw(st.integers(1, 40))):
        node = draw(st.sampled_from(origins))
        seen, link_ids = {node}, []
        while len(link_ids) < 8 and (not link_ids or node not in dests):
            steps = [lid for lid in net.out_links[node] if net.links[lid].to_node not in seen]
            if not steps:
                break
            lid = draw(st.sampled_from(steps))
            link_ids.append(lid)
            node = net.links[lid].to_node
            seen.add(node)
        if link_ids:
            path = Path(od=(net.links[link_ids[0]].from_node, node), link_ids=tuple(link_ids))
            flow = draw(st.one_of(st.just(0.0), st.floats(0.01, 10.0)))
            items.append((path, draw(st.integers(0, n_bins + 1)), flow))
    return net, grid, costs, items


class TestFractionsParity:
    @settings(max_examples=150, deadline=None)
    @given(route_flows())
    def test_table_holds_the_movement_dict(self, case):
        """The dense table is the add_mass-built dict: the same keys, out keys
        ascending, the same mass per bin, and each group total summed over
        its out keys in their insertion order."""
        net, grid, costs, items = case
        got = paths_to_turning_fractions(items, net, grid, costs)
        want = reference_fractions.paths_to_turning_fractions(items, net, grid, costs)
        assert sorted(got.groups) == sorted(as_positions(net, key) for key in want.movements)
        for key, outs in want.movements.items():
            g = got.groups[as_positions(net, key)]
            rows = slice(got.first[g], got.first[g] + got.count[g])
            assert got.out_key[rows].tolist() == [as_row(net, k) for k in sorted(outs)]
            assert got.mass[rows].tobytes() == np.array([outs[k] for k in sorted(outs)]).tobytes()
            total = np.zeros(grid.n_bins)
            for arr in outs.values():
                total += arr
            assert got.totals[g].tobytes() == total.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(route_flows())
    def test_bit_identical_to_the_movement_dict(self, case):
        """fractions() answers every key of the add_mass-built dict, every
        (destination, node) from an origin, and sinks, at every bin (one
        past the last too), with the reference dict lookup's bytes."""
        net, grid, costs, items = case
        got = paths_to_turning_fractions(items, net, grid, costs)
        want = reference_fractions.paths_to_turning_fractions(items, net, grid, costs)
        assert [net.arrays.nodes[d] for d in got.destinations] == want.destinations
        keys = list(want.movements)
        keys += [(dest, node, ORIGIN) for dest in want.destinations for node in sorted(net.nodes)]
        keys += [(dest, dest, lid) for dest in want.destinations for lid in net.in_links[dest]]
        keys += [(node, node, ORIGIN) for node in sorted(net.nodes)]
        dests, nodes, in_keys = (np.array(column) for column in zip(*(as_positions(net, key) for key in keys)))
        for t in range(grid.n_bins + 1):
            query, out_keys, fracs = got.fractions(dests, nodes, in_keys, t)
            expected = [(q, key, frac) for q, (dest, node, in_key) in enumerate(keys)
                        for key, frac in reference_fractions.turning_fractions(want, dest, node, in_key, t, net.arrays)]
            assert query.tolist() == [q for q, _, _ in expected]
            assert out_keys.tolist() == [as_row(net, key) for _, key, _ in expected]
            assert fracs.tobytes() == np.array([frac for _, _, frac in expected], dtype=float).tobytes()

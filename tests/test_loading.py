import functools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pedflow.assignment import run_due
from pedflow.config import LinkPenalty, ScenarioConfig
from pedflow.fd import FDParams, FDState, density_ratio, effective_speed, effective_speed_profile
from pedflow.loading import load_network as load_flows
from pedflow.ltm import _counts_up_to_rank
from pedflow.network import DemandProfile, Link, Network, Node, TimeGrid, Trees, default_capacity
from pedflow.nodemodel import ORIGIN, SINK, TurningFractions, paths_to_turning_fractions
from pedflow.pvdf import experienced_route_times
from pedflow.scenarios import DEFAULT_WIDTH, generate_corridor_scenario, make_corridor_network, make_grid_network
import reference_route_times
from reference_loader import reference_load_network


def one_way_chain():
    """Three one-way links 1-2-3-4 with a narrow middle link (2 m, v_f 1,
    omega 0.5, k_jam 2) so lookbacks sit exactly on the 1 s grid."""
    nodes = [
        Node(1, 0, 0, "origin-centroid"),
        Node(2, 2, 0),
        Node(3, 4, 0),
        Node(4, 6, 0, "destination-centroid"),
    ]
    widths = [1.0, 0.5, 1.0]
    links = [
        Link(i + 1, i + 1, i + 2, 2.0, widths[i], 1.0, 2.0, 0.5,
             default_capacity(widths[i], 1.0, 2.0, 0.5))
        for i in range(3)
    ]
    return Network(nodes, links)


def classic_recursion(demand_rates, n_bins):
    """Independent oracle: the textbook cumulative-count recursion for the
    one-way chain above, written with plain integer lookbacks."""
    C = np.array([2.0 / 3.0, 1.0 / 3.0, 2.0 / 3.0])
    storage = np.array([4.0, 2.0, 4.0])
    U = np.zeros((3, n_bins + 1))
    V = np.zeros((3, n_bins + 1))
    queue = 0.0
    for t in range(n_bins):
        queue += demand_rates[t]
        S = np.zeros(3)
        R = np.zeros(3)
        for i in range(3):
            u_back = U[i, t - 1] if t - 1 >= 0 else 0.0  # free-flow lookback: 2 bins
            v_back = V[i, t - 3] if t - 3 >= 0 else 0.0  # wave lookback: 4 bins
            S[i] = max(min(u_back - V[i, t], C[i]), 0.0)
            R[i] = max(min(v_back + storage[i] - U[i, t], C[i]), 0.0)
        inflow = min(queue, R[0])
        q12 = min(S[0], R[1])
        q23 = min(S[1], R[2])
        out = S[2]
        U[0, t + 1] = U[0, t] + inflow
        V[0, t + 1] = V[0, t] + q12
        U[1, t + 1] = U[1, t] + q12
        V[1, t + 1] = V[1, t] + q23
        U[2, t + 1] = U[2, t] + q23
        V[2, t + 1] = V[2, t] + out
        queue -= inflow
    return U, V


class TestClassicEquivalence:
    def test_one_way_chain_matches_cumulative_recursion(self):
        net = one_way_chain()
        grid = TimeGrid(1.0, 40.0)
        demand = DemandProfile()
        rates = np.zeros(40)
        rates[:10] = 0.5
        for k in range(10):
            demand.add(1, 4, float(k), 0.5)
        path = net.path_from_nodes((1, 2, 3, 4))
        fractions = paths_to_turning_fractions(
            [(path, k, 0.5) for k in range(10)], net, grid
        )
        result = load_flows(net, grid, demand, fractions)
        U_ref, V_ref = classic_recursion(rates, 40)
        # exact up to one ulp: the node solver writes flows as theta * demand
        assert np.abs(result.U - U_ref).max() <= 1e-12
        assert np.abs(result.V - V_ref).max() <= 1e-12

    def test_chain_conserves_and_completes(self):
        net = one_way_chain()
        grid = TimeGrid(1.0, 40.0)
        demand = DemandProfile()
        for k in range(10):
            demand.add(1, 4, float(k), 0.5)
        path = net.path_from_nodes((1, 2, 3, 4))
        fractions = paths_to_turning_fractions([(path, k, 0.5) for k in range(10)], net, grid)
        result = load_flows(net, grid, demand, fractions)
        assert result.conservation_violations() == []
        assert result.demanded.sum() == pytest.approx(5.0)
        assert result.completed.sum() == pytest.approx(5.0, abs=1e-9)


class TestOriginQueue:
    def test_release_never_exceeds_demand_and_eventually_clears(self):
        net = one_way_chain()
        grid = TimeGrid(1.0, 120.0)
        demand = DemandProfile()
        for k in range(5):
            demand.add(1, 4, float(k), 3.0)  # far above the 1/3 ped/s bottleneck
        path = net.path_from_nodes((1, 2, 3, 4))
        fractions = paths_to_turning_fractions([(path, k, 3.0) for k in range(5)], net, grid)
        result = load_flows(net, grid, demand, fractions)
        assert result.conservation_violations() == []
        assert result.loaded.sum() <= result.demanded.sum() + 1e-9
        assert result.queued.sum() == pytest.approx(0.0, abs=1e-9)
        # the first link only ever admits what its receiving flow allows
        inflow = np.diff(result.U[0])
        assert inflow.max() <= 2.0 / 3.0 + 1e-9

    def test_queue_holds_unreleased_demand_at_horizon_end(self):
        net = one_way_chain()
        grid = TimeGrid(1.0, 6.0)
        demand = DemandProfile()
        demand.add(1, 4, 0.0, 30.0)
        path = net.path_from_nodes((1, 2, 3, 4))
        fractions = paths_to_turning_fractions([(path, 0, 30.0)], net, grid)
        result = load_flows(net, grid, demand, fractions)
        assert result.conservation_violations() == []
        assert result.queued.sum() > 0
        assert result.loaded.sum() + result.queued.sum() == pytest.approx(30.0)


def fd_travel_time(result, link_id, t_s):
    """One query of the array-form LoadingResult.fd_travel_times, None where it reads NaN."""
    got = result.fd_travel_times(np.array([result.link_index[link_id]]), np.array([t_s]))
    assert got.shape == (1,)
    return None if np.isnan(got[0]) else float(got[0])


class TestLoadedTravelTimes:
    def test_free_flow_traversal_on_empty_link(self):
        net = one_way_chain()
        grid = TimeGrid(1.0, 10.0)
        result = load_flows(net, grid, DemandProfile(), paths_to_turning_fractions([], net, grid))
        assert fd_travel_time(result, 1, 0.0) == pytest.approx(2.0)  # 2 m at 1 m/s

    def test_queueing_adds_delay(self):
        net = one_way_chain()
        grid = TimeGrid(1.0, 60.0)
        demand = DemandProfile()
        for k in range(10):
            demand.add(1, 4, float(k), 0.5)
        path = net.path_from_nodes((1, 2, 3, 4))
        fractions = paths_to_turning_fractions([(path, k, 0.5) for k in range(10)], net, grid)
        result = load_flows(net, grid, demand, fractions)
        # the first link queues behind the narrow middle link
        assert fd_travel_time(result, 1, 8.0) > 2.0 + 1e-6

    def test_float_noise_occupancy_reads_as_empty(self):
        # exits one ulp above entries (occupancy -2.2e-16) is an empty link
        net = one_way_chain()
        grid = TimeGrid(1.0, 10.0)
        result = load_flows(net, grid, DemandProfile(), paths_to_turning_fractions([], net, grid))
        result.U[0] = 1.0
        result.V[0] = np.nextafter(1.0, 2.0)
        assert fd_travel_time(result, 1, 0.0) == pytest.approx(2.0)

    @pytest.mark.parametrize("variant, gamma", [("logistic", None), ("power", 1.7)])
    def test_rho_and_vhat_match_scalar_fd(self, variant, gamma):
        # the rho and vhat fd_travel_times reads, against fd's scalar functions,
        # on random occupancies with empty links, empty pairs and float noise
        net, _, _ = generate_corridor_scenario(preset=6)
        grid = TimeGrid(1.0, 20.0)
        result = load_flows(net, grid, DemandProfile(), paths_to_turning_fractions([], net, grid),
                            fd_variant=variant, fd_gamma=gamma)
        rng = np.random.default_rng(7)
        occ = rng.uniform(0.0, 3.0, result.U.shape)
        occ[rng.random(occ.shape) < 0.3] = 0.0
        result.U[:] = 1.0
        result.V[:] = 1.0 - occ
        result.V[rng.random(occ.shape) < 0.1] = np.nextafter(1.0, 2.0)
        k, rho = result.densities()
        twin = net.arrays.twin
        for i, lid in enumerate(result.link_order):
            link = net.links[lid]
            params = FDParams(v_f=link.v_f, omega=link.omega, k_jam=link.k_jam,
                              variant=variant, gamma=gamma)
            area = link.length * link.width
            for b in range(grid.n_bins):
                k_ref = max(result.U[i, b] - result.V[i, b], 0.0) / area
                k_opp = 0.0 if twin[i] < 0 else max(result.U[twin[i], b] - result.V[twin[i], b], 0.0) / area
                rho_ref = density_ratio(FDState(k=k_ref, k_opp=k_opp))
                assert k[i, b] == k_ref
                assert rho[i, b] == pytest.approx(rho_ref, rel=1e-12, abs=0.0)
                vhat = effective_speed_profile(link.v_f, rho[i, b], variant, gamma)
                assert vhat == pytest.approx(effective_speed(params, rho_ref), rel=1e-12, abs=0.0)


class TestPowerVariantFloatNoise:
    def test_exits_a_few_ulp_above_entries_do_not_stop_the_run(self):
        # a narrow 3x3 crossing where float noise leaves a link's occupancy at
        # -8.8e-16 while its twin is loaded: the power variant's effective
        # speed was NaN there, and the loader raised IndexError
        demand = DemandProfile()
        demand.add(4, 9, 0.0, 8.995601256849882)
        demand.add(6, 1, 0.0, 8.995601256849882)
        net = make_grid_network(3, width=0.5, origins={4, 6}, destinations={9, 1})
        cfg = ScenarioConfig(dt=1.0, horizon=25.0, max_iters=2, fd_variant="power", fd_gamma=0.5,
                             effective_storage=True)
        result = run_due(net, demand, cfg)[0].loading
        assert result.conservation_violations() == []
        assert np.isfinite(result.U).all() and np.isfinite(result.V).all()


class TestStuckMass:
    def test_a_person_without_a_turning_fraction_stops_the_loading(self):
        # hand-built fractions: the mass at node 2 sits in bin 0, before the
        # person walking 1 -> 3 arrives, and the tree gives no successor, so
        # nothing routes them on from link 1
        net = make_corridor_network(2, origins={1}, destinations={3})
        pos, row = net.arrays.node_index, net.arrays.index
        grid = TimeGrid(1.0, 20.0)
        demand = DemandProfile()
        demand.add(1, 3, 0.0, 1.0)
        succ = np.full((1, len(net.nodes)), -1)
        trees = Trees(np.array([0]), np.array([3]), np.zeros(succ.shape), succ, np.array([pos[3]]))
        movements = (np.full(2, pos[3]), np.array([pos[1], pos[2]]), np.array([ORIGIN, row[1]]),
                     np.array([row[1], row[3]]), np.zeros(2, dtype=int), np.ones(2))
        with pytest.raises(RuntimeError, match=r"on link 1 reach node 2 with no turning fraction toward "
                                               r"destination 3"):
            load_flows(net, grid, demand, TurningFractions(grid.n_bins, trees, movements))

    def test_demand_queued_without_a_turning_fraction_stops_the_loading(self):
        # no movements and no successor: the origin's queue has nowhere to go
        net = make_corridor_network(2, origins={1}, destinations={3})
        grid = TimeGrid(1.0, 20.0)
        demand = DemandProfile()
        demand.add(1, 3, 0.0, 1.0)
        succ = np.full((1, len(net.nodes)), -1)
        trees = Trees(np.array([0]), np.array([3]), np.zeros(succ.shape), succ,
                      np.array([net.arrays.node_index[3]]))
        with pytest.raises(RuntimeError, match=r"queued at origin 1 with no turning fraction toward destination 3"):
            load_flows(net, grid, demand, TurningFractions(grid.n_bins, trees))


class TestConservationTolerance:
    def test_curve_checks_scale_with_the_trips_loaded(self):
        """Preset 4 with its widths and demand scaled by 2**22 (1.3e9 trips)
        holds no breach.  A dip of 1e-14 of the trips, float noise at that
        scale, in a curve's last sample is none either; a dip of 1e-5 of them
        is, and it unbalances the trips too."""
        scale = 2.0 ** 22
        preset, demand, cfg = generate_corridor_scenario(preset=4)
        net = make_corridor_network(9, width=DEFAULT_WIDTH * scale, bottleneck_segment=8,
                                    bottleneck_width=preset.link_between(9, 10).width * scale,
                                    origins={1}, destinations={10})
        scaled = DemandProfile()
        for e in demand.entries:
            scaled.add(e.origin, e.destination, e.depart_s, e.rate * scale)
        result = run_due(net, scaled, cfg)[0].loading
        trips = result.loaded.sum()
        assert trips > 1e9 and result.conservation_violations() == []
        busiest = int(np.argmax(result.U[:, -1]))
        real = ["a cumulative curve decreases", "negative occupancy (exits overtook entries)",
                "loaded trips do not match completed + still-walking trips"]
        for dip, breaches in ((1e-14 * trips, []), (1e-5 * trips, real)):
            for curve in (result.U, result.Ud[:, 0]):
                curve[busiest, -1] -= dip
            assert result.conservation_violations() == breaches
            for curve in (result.U, result.Ud[:, 0]):
                curve[busiest, -1] += dip


class TestEffectiveStorage:
    @pytest.mark.xfail(strict=True, reason="an empty link whose twin holds anyone has density ratio 0 and "
                       "so storage 0 under the effective-storage rule: the two walkers block each other")
    def test_walkers_meeting_head_on_both_arrive(self):
        demand = DemandProfile()
        demand.add(1, 3, 0.0, 1.0)
        demand.add(3, 1, 0.0, 1.0)
        net = make_corridor_network(2, origins={1, 3}, destinations={1, 3})
        cfg = ScenarioConfig(dt=1.0, horizon=100.0, max_iters=1, effective_storage=True)
        result = run_due(net, demand, cfg)[0].loading
        assert result.completed == pytest.approx([1.0, 1.0], rel=1e-9)


class TestBidirectionalCorridor:
    def test_two_way_loading_conserves(self):
        net, demand, cfg = generate_corridor_scenario(preset=6)
        grid = TimeGrid(cfg.dt, 60.0)
        clipped = DemandProfile()
        for e in demand.entries:
            if e.depart_s < 40.0:
                clipped.add(e.origin, e.destination, e.depart_s, e.rate)
        fwd = net.path_from_nodes(tuple(range(1, 11)))
        bwd = net.path_from_nodes(tuple(range(10, 0, -1)))
        flows = []
        for e in clipped.entries:
            flows.append((fwd if e.origin == 1 else bwd, int(e.depart_s), e.rate))
        fractions = paths_to_turning_fractions(flows, net, grid)
        result = load_flows(net, grid, clipped, fractions)
        assert result.conservation_violations() == []
        assert result.loaded.sum() > 0
        # counterflow slows both streams: travel time above free flow mid-run
        assert fd_travel_time(result, 1, 30.0) > net.links[1].free_flow_time + 1e-9

    def test_counterflow_reservation_throttles_entry(self):
        # identical one-way demand with and without an opposing stream:
        # the opposing stream must strictly reduce what gets through
        net, _, cfg = generate_corridor_scenario(preset=6)
        grid = TimeGrid(1.0, 50.0)
        fwd = net.path_from_nodes(tuple(range(1, 11)))
        bwd = net.path_from_nodes(tuple(range(10, 0, -1)))

        one_way = DemandProfile()
        for k in range(30):
            one_way.add(1, 10, float(k), 3.0)
        fr1 = paths_to_turning_fractions([(fwd, k, 3.0) for k in range(30)], net, grid)
        res1 = load_flows(net, grid, one_way, fr1)

        two_way = DemandProfile()
        for k in range(30):
            two_way.add(1, 10, float(k), 3.0)
            two_way.add(10, 1, float(k), 3.0)
        fr2 = paths_to_turning_fractions(
            [(fwd, k, 3.0) for k in range(30)] + [(bwd, k, 3.0) for k in range(30)],
            net, grid,
        )
        res2 = load_flows(net, grid, two_way, fr2)
        d10 = res2.destinations.index(10)
        assert res2.completed[d10] < res1.completed.sum() - 1e-6
        assert res2.conservation_violations() == []


@st.composite
def paired_networks(draw, max_rate=8.0, widths=(DEFAULT_WIDTH,), max_ods=3):
    """A 2x2 to 4x4 grid or a 2- to 6-segment corridor with a bottleneck, all
    links paired, with 1 to max_ods OD pairs, each with random rates over a
    few departure bins."""
    width = draw(st.sampled_from(widths))
    corridor = draw(st.booleans())
    if corridor:
        segments = draw(st.integers(2, 6))
        neck, neck_width = draw(st.integers(0, segments - 1)), draw(st.sampled_from((0.5, 1.0, width)))
        n_nodes = segments + 1
    else:
        n = draw(st.integers(2, 4))
        n_nodes = n * n
    nodes = st.integers(1, n_nodes)
    ods = draw(st.lists(st.tuples(nodes, nodes).filter(lambda od: od[0] != od[1]),
                        min_size=1, max_size=max_ods, unique=True))
    demand = DemandProfile()
    for origin, dest in ods:
        for k in range(draw(st.integers(1, 6))):
            demand.add(origin, dest, float(k), draw(st.floats(0.1, max_rate)))
    ends = dict(origins={o for o, _ in ods}, destinations={d for _, d in ods})
    if corridor:
        net = make_corridor_network(segments, width=width, bottleneck_segment=neck, bottleneck_width=neck_width,
                                    **ends)
    else:
        net = make_grid_network(n, width=width, **ends)
    return net, demand


@st.composite
def loader_assignments(draw):
    """Paired networks with 0-2 scheduled link penalties."""
    net, demand = draw(paired_networks())
    penalties = tuple(
        LinkPenalty(str(draw(st.sampled_from(sorted(net.links)))), float(draw(st.integers(0, 20))),
                    draw(st.floats(1.0, 60.0)))
        for _ in range(draw(st.integers(0, 2)))
    )
    cfg = ScenarioConfig(dt=1.0, horizon=30.0, max_iters=2, enumerate_paths=draw(st.booleans()),
                         penalties=penalties)
    return net, demand, cfg


class TestLoaderInvariants:
    @settings(max_examples=40, deadline=None)
    @given(loader_assignments())
    def test_loading_through_run_due(self, case):
        net, demand, cfg = case
        result = run_due(net, demand, cfg)[0].loading
        assert result.conservation_violations() == []
        assert result.unroutable == 0

        rerun = run_due(net, demand, cfg)[0].loading
        for name in ("U", "V", "Ud", "Vd"):
            assert np.array_equal(getattr(result, name), getattr(rerun, name)), name

        # the node trace's transfers add up to every link's exit and entry steps
        n_bins = result.grid.n_bins
        exits = np.zeros((len(result.link_order), n_bins))
        entries = np.zeros_like(exits)
        reduced = np.full(len(result.link_order), n_bins)  # first step a node cut the link's exits
        for node, t_s, in_key, out_key, s_ij, _, _, q_ij in result.node_trace:  # keys: link rows, < 0 origin/sink
            b = int(round(t_s / cfg.dt))
            if in_key >= 0:
                exits[in_key, b] += q_ij
                if q_ij < s_ij:
                    reduced[in_key] = min(reduced[in_key], b)
            if out_key >= 0:
                entries[out_key, b] += q_ij
        scale = max(1.0, float(result.U.max()))
        assert np.allclose(exits, np.diff(result.V, axis=1), rtol=1e-9, atol=1e-9 * scale)
        assert np.allclose(entries, np.diff(result.U, axis=1), rtol=1e-9, atol=1e-9 * scale)

        # per-destination FIFO: exits by destination follow the entry order, up
        # to and including the first step a node reduced the link's exits (see
        # test_exits_after_a_reduced_step_follow_entry_order for the rest)
        for l in range(len(result.link_order)):
            for t in range(reduced[l] + 1):
                expected = _counts_up_to_rank(result.U, result.Ud, [result.V[l, t]], n_bins, rows=[l])[0][0]
                assert np.abs(result.Vd[l, :, t] - expected).max() <= 1e-9 * max(1.0, result.U[l, -1])

    @pytest.mark.xfail(strict=True, reason="a node that reduces an in-link's exits scales the "
                       "composition of its whole sending window, so exits drift from entry order")
    def test_exits_after_a_reduced_step_follow_entry_order(self):
        # a 4x4 crossing where a node cuts link 29's exits at step 4; from step
        # 5 on its exits per destination differ from entry order by 7.4e-4 persons
        demand = DemandProfile()
        for origin, dest, rates in [(13, 10, [1.0]), (9, 11, [1.0, 1.0, 1.0, 7.0]),
                                    (11, 1, [1.0, 1.0, 3.0, 8.0])]:
            for k, rate in enumerate(rates):
                demand.add(origin, dest, float(k), rate)
        net = make_grid_network(4, origins={13, 9, 11}, destinations={10, 11, 1})
        cfg = ScenarioConfig(dt=1.0, horizon=30.0, max_iters=2)
        result = run_due(net, demand, cfg)[0].loading
        l, n_bins = result.link_index[29], result.grid.n_bins
        for t in range(n_bins + 1):
            expected = _counts_up_to_rank(result.U, result.Ud, [result.V[l, t]], n_bins, rows=[l])[0][0]
            assert np.abs(result.Vd[l, :, t] - expected).max() <= 1e-9 * max(1.0, result.U[l, -1])


@st.composite
def congested_assignments(draw):
    """Paired networks with narrow links, rates up to 20 ped/s and up to 6 OD
    pairs, so nodes congest and reservations clamp, under either storage rule
    and FD variant.  With 6 pairs, some steps congest nodes of 8 or more
    (sender, out key) cells beside smaller ones, which the loader pads into
    one stack."""
    net, demand = draw(paired_networks(max_rate=20.0, widths=(0.5, 1.0, 2.0), max_ods=6))
    variant, gamma = draw(st.sampled_from((("logistic", None), ("power", 0.5), ("power", 2.0))))
    cfg = ScenarioConfig(dt=1.0, horizon=25.0, max_iters=2, fd_variant=variant, fd_gamma=gamma,
                         effective_storage=draw(st.booleans()), node_trace=True,
                         enumerate_paths=draw(st.booleans()))
    return net, demand, cfg


class TestLoaderParity:
    @settings(max_examples=60, deadline=None)
    @given(congested_assignments())
    def test_bit_identical_to_the_per_node_loader(self, case):
        """The one-pass loader step reproduces the per-node loader of
        tests/reference_loader.py bit for bit, on every loading of a run."""
        net, demand, cfg = case
        options = dict(fd_variant=cfg.fd_variant, fd_gamma=cfg.fd_gamma,
                       effective_storage=cfg.effective_storage, node_trace=True)

        def both(network, grid, demand, fractions, state):
            got = load_flows(network, grid, demand, fractions, **options)
            want = reference_load_network(network, grid, demand, fractions, **options)
            for name in ("U", "V", "Ud", "Vd", "completed", "loaded", "queued"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
            assert got.supply_clamps == want.supply_clamps
            assert got.unroutable == want.unroutable
            nodes, order = network.arrays.nodes, network.arrays.order  # the trace in ids, as the reference keeps it
            in_ids = [(nodes[node], t, ORIGIN if in_key == ORIGIN else order[in_key],
                       SINK if out_key == SINK else order[out_key], *flows)
                      for node, t, in_key, out_key, *flows in got.node_trace]
            assert in_ids == want.node_trace
            return got

        run_due(net, demand, cfg, loader=both)


LATE = 45  # the late release's bin, long after the first burst has walked off


@st.composite
def quiet_assignments(draw):
    """Paired networks loaded in two bursts: a first one over bins 0-5 at up
    to 3 ped/s per OD, then one OD released again at bin LATE.  The network
    is empty well before LATE, so a loading skips quiet steps in mid-horizon,
    and empty again well before the 100-s horizon, so it ends on the final
    fill.  Some draws add a release past the horizon, which never comes."""
    net, demand = draw(paired_networks(max_rate=3.0, max_ods=2))
    origin, dest = draw(st.sampled_from(demand.od_pairs()))
    demand.add(origin, dest, float(LATE), draw(st.floats(0.1, 3.0)))
    if draw(st.booleans()):
        demand.add(origin, dest, 150.0, 1.0)
    variant, gamma = draw(st.sampled_from((("logistic", None), ("power", 0.5), ("power", 2.0))))
    # not the effective storage rule: under it two persons walking toward
    # each other on a 2-segment corridor can block each other for good
    cfg = ScenarioConfig(dt=1.0, horizon=100.0, max_iters=2, fd_variant=variant, fd_gamma=gamma, node_trace=True)
    return net, demand, cfg


class TestQuietStepParity:
    @settings(max_examples=40, deadline=None)
    @given(quiet_assignments())
    def test_quiet_steps_and_the_final_fill_match_the_per_node_loader(self, case):
        """Steps where nobody is on a link or queued, in mid-horizon and after
        the last release, give the per-node loader's curves, node trace,
        unroutable and queued persons bit for bit."""
        net, demand, cfg = case
        options = dict(fd_variant=cfg.fd_variant, fd_gamma=cfg.fd_gamma,
                       effective_storage=cfg.effective_storage, node_trace=True)

        def both(network, grid, demand, fractions, state):
            got = load_flows(network, grid, demand, fractions, **options)
            want = reference_load_network(network, grid, demand, fractions, **options)
            for name in ("U", "V", "Ud", "Vd", "completed", "loaded", "queued"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
            assert got.unroutable == want.unroutable
            nodes, order = network.arrays.nodes, network.arrays.order
            in_ids = [(nodes[node], t, ORIGIN if in_key == ORIGIN else order[in_key],
                       SINK if out_key == SINK else order[out_key], *flows)
                      for node, t, in_key, out_key, *flows in got.node_trace]
            assert in_ids == want.node_trace
            # the inputs reach both quiet cases: nobody on a link before the
            # late release, and nobody left on one or queued at the horizon
            assert (got.U[:, LATE] - got.V[:, LATE] <= 1e-12).all()
            assert (got.U[:, -1] - got.V[:, -1] <= 1e-12).all() and got.queued.sum() == 0
            return got

        run_due(net, demand, cfg, loader=both)


@st.composite
def long_link_assignments(draw):
    """A 2- to 4-segment corridor of 30-m segments with 1 or 2 OD pairs, each
    released over bins 0-2 at up to 2 ped/s.  A walker needs 20 s per
    segment, so on many steps links hold people while nobody reaches a link
    end and nobody is queued."""
    segments = draw(st.integers(2, 4))
    nodes = st.integers(1, segments + 1)
    ods = draw(st.lists(st.tuples(nodes, nodes).filter(lambda od: od[0] != od[1]), min_size=1, max_size=2,
                        unique=True))
    demand = DemandProfile()
    for origin, dest in ods:
        for k in range(draw(st.integers(1, 3))):
            demand.add(origin, dest, float(k), draw(st.floats(0.1, 2.0)))
    net = make_corridor_network(segments, length=30.0, origins={o for o, _ in ods},
                                destinations={d for _, d in ods})
    variant, gamma = draw(st.sampled_from((("logistic", None), ("power", 0.5), ("power", 2.0))))
    cfg = ScenarioConfig(dt=1.0, horizon=150.0, max_iters=2, fd_variant=variant, fd_gamma=gamma, node_trace=True)
    return net, demand, cfg


class TestNobodyLeavesParity:
    @settings(max_examples=25, deadline=None)
    @given(long_link_assignments())
    def test_steps_without_senders_match_the_per_node_loader(self, case):
        """Steps where links hold people but nobody can leave a link or a
        queue give the per-node loader's curves, node trace, unroutable and
        queued persons bit for bit; the loader skips the fraction lookup on at
        least one of them."""
        net, demand, cfg = case
        options = dict(fd_variant=cfg.fd_variant, fd_gamma=cfg.fd_gamma, node_trace=True)
        skipped = []

        def both(network, grid, demand, fractions, state):
            asked, lookup = set(), fractions.fractions
            fractions.fractions = lambda *query: asked.add(query[-1]) or lookup(*query)
            got = load_flows(network, grid, demand, fractions, **options)
            del fractions.fractions
            want = reference_load_network(network, grid, demand, fractions, **options)
            for name in ("U", "V", "Ud", "Vd", "completed", "loaded", "queued"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
            assert got.unroutable == want.unroutable
            nodes, order = network.arrays.nodes, network.arrays.order
            in_ids = [(nodes[node], t, ORIGIN if in_key == ORIGIN else order[in_key],
                       SINK if out_key == SINK else order[out_key], *flows)
                      for node, t, in_key, out_key, *flows in got.node_trace]
            assert in_ids == want.node_trace
            skipped.extend(t for t in range(grid.n_bins) if (got.U[:, t] - got.V[:, t] > 1e-9).any() and t not in asked)
            return got

        run_due(net, demand, cfg, loader=both)
        assert skipped


class TestRouteTimeParity:
    @settings(max_examples=60, deadline=None)
    @given(congested_assignments(), st.integers(6, 25))
    def test_bit_identical_to_the_scalar_chain(self, case, horizon):
        """The lockstep walk over every trip of a run reproduces the scalar
        fd_travel_time -> crossing_time chain of tests/reference_route_times.py
        trip by trip, NaN where it returns None; short horizons leave trips
        incomplete."""
        net, demand, cfg = case
        cfg = replace(cfg, horizon=float(horizon))
        state = run_due(net, demand, cfg)[0]
        result, dt = state.loading, cfg.dt
        trips = [(od, row, k) for od in state.ods for row in range(len(state.paths[od])) for k in state.k_bins[od]]
        got = experienced_route_times([state.link_rows[od][row] for od, row, _ in trips], [k * dt for *_, k in trips],
                                      result.fd_travel_times, cfg.horizon)
        link_time = functools.partial(reference_route_times.fd_travel_time, result)
        want = [reference_route_times.experienced_route_time(state.paths[od][row], link_time, k * dt, cfg.horizon)
                for od, row, k in trips]
        assert got.tobytes() == np.array([np.nan if w is None else w for w in want]).tobytes()

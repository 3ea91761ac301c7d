import heapq
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pedflow.network import (
    DemandProfile,
    Link,
    Network,
    NetworkFormatError,
    Node,
    TimeGrid,
    default_capacity,
    enumerate_paths,
    load_demand,
    load_network,
    shortest_paths,
    validate_demand,
    validate_network,
    validate_time_grid,
    write_demand,
    write_network,
)
from pedflow.scenarios import make_corridor_network, make_grid_network


def simple_pair(link_id, a, b, length=2.0, width=4.0, **kw):
    base = dict(length=length, width=width, v_f=1.5, k_jam=5.4, omega=0.5, capacity=8.1)
    base.update(kw)
    fwd = Link(link_id, a, b, opposite=link_id + 1, **base)
    bwd = Link(link_id + 1, b, a, opposite=link_id, **base)
    return fwd, bwd


class TestValidateNetwork:
    def test_generated_grid_is_clean(self):
        net = make_grid_network(3)
        assert len(net.nodes) == 9
        assert len(net.links) == 24
        assert sum(1 for l in net.links.values() if l.opposite is not None) == 24
        assert validate_network(net) == []

    def test_self_opposite_is_flagged(self):
        nodes = [Node(1), Node(2)]
        links = [Link(1, 1, 2, 2.0, 4.0, 1.5, 5.4, 0.5, 8.1, opposite=1)]
        violations = validate_network(Network(nodes, links))
        assert len(violations) == 1
        assert "itself" in violations[0]

    def test_mismatched_pair_length_is_flagged(self):
        nodes = [Node(1), Node(2)]
        fwd = Link(1, 1, 2, 2.0, 4.0, 1.5, 5.4, 0.5, 8.1, opposite=2)
        bwd = Link(2, 2, 1, 3.0, 4.0, 1.5, 5.4, 0.5, 8.1, opposite=1)
        violations = validate_network(Network(nodes, [fwd, bwd]))
        assert any("length differs" in v for v in violations)

    def test_dangling_opposite_and_bad_attributes(self):
        nodes = [Node(1), Node(2)]
        links = [Link(1, 1, 2, 2.0, -4.0, 1.5, 5.4, 0.5, 8.1, opposite=99)]
        violations = validate_network(Network(nodes, links))
        assert any("dangling opposite" in v for v in violations)
        assert any("nonpositive width" in v for v in violations)

    def test_nan_and_inf_attributes_are_flagged(self):
        nodes = [Node(1), Node(2)]
        links = [Link(1, 1, 2, math.nan, 4.0, math.inf, 5.4, 0.5, 8.1)]
        violations = validate_network(Network(nodes, links))
        assert any("non-finite length" in v for v in violations)
        assert any("non-finite v_f" in v for v in violations)

    def test_pairing_is_an_involution_on_generated_networks(self):
        for net in (make_grid_network(3), make_corridor_network(9)):
            for link in net.links.values():
                twin = net.links[link.opposite]
                assert twin.opposite == link.id
                assert twin.id != link.id


class TestTimeGrid:
    def test_bins(self):
        grid = TimeGrid(dt=0.5, horizon=10.0)
        assert grid.n_bins == 20
        assert grid.bin_of(2.5) == 5

    def test_off_grid_instant_rejected(self):
        with pytest.raises(ValueError):
            TimeGrid(dt=1.0, horizon=10.0).bin_of(2.3)

    def test_horizon_must_be_multiple_of_dt(self):
        with pytest.raises(ValueError):
            TimeGrid(dt=3.0, horizon=10.0)

    def test_step_size_limit(self):
        net = make_grid_network(3)  # 2 m links, v_f 1.5 -> limit 4/3 s
        assert validate_time_grid(net, TimeGrid(1.0, 10.0)) == []
        violations = validate_time_grid(net, TimeGrid(2.0, 10.0))
        assert len(violations) == len(net.links)


class TestValidateDemand:
    def test_centroid_rule(self):
        net = make_grid_network(3, origins={1}, destinations={9})
        demand = DemandProfile()
        demand.add(1, 9, 0.0, 2.0)
        assert validate_demand(net, demand) == []
        demand.add(2, 9, 0.0, 1.0)  # node 2 is plain
        violations = validate_demand(net, demand)
        assert any("not a centroid" in v for v in violations)

    def test_degenerate_and_negative(self):
        net = make_grid_network(3, origins={1}, destinations={9})
        demand = DemandProfile()
        demand.add(1, 1, 0.0, -2.0)
        violations = validate_demand(net, demand)
        assert any("origin equals destination" in v for v in violations)
        assert any("negative rate" in v for v in violations)

    def test_nan_and_inf_rates_are_flagged(self):
        net = make_grid_network(3, origins={1}, destinations={9})
        demand = DemandProfile()
        demand.add(1, 9, 0.0, math.nan)
        demand.add(1, 9, 1.0, math.inf)
        violations = validate_demand(net, demand)
        assert sum("non-finite rate" in v for v in violations) == 2

    def test_off_grid_departure(self):
        net = make_grid_network(3, origins={1}, destinations={9})
        demand = DemandProfile()
        demand.add(1, 9, 0.7, 1.0)
        violations = validate_demand(net, demand, TimeGrid(1.0, 10.0))
        assert any("off-grid" in v for v in violations)


class TestEnumeratePaths:
    def test_grid_corner_to_corner_has_six_minimal_paths(self):
        net = make_grid_network(3)
        for max_paths in (6, 10, 50):
            paths = enumerate_paths(net, (1, 9), max_paths=max_paths)
            assert len(paths) == 6
        nodes = [p.nodes(net) for p in enumerate_paths(net, (1, 9), 6)]
        assert nodes == sorted(nodes)  # lexicographic order
        assert (1, 2, 3, 6, 9) in nodes
        assert (1, 4, 7, 8, 9) in nodes

    def test_truncation(self):
        net = make_grid_network(3)
        assert len(enumerate_paths(net, (1, 9), max_paths=4)) == 4

    def test_corridor_has_single_path(self):
        net = make_corridor_network(9)
        paths = enumerate_paths(net, (1, 10), max_paths=5)
        assert len(paths) == 1
        assert paths[0].nodes(net) == tuple(range(1, 11))

    def test_degenerate_od_raises(self):
        net = make_grid_network(3)
        with pytest.raises(ValueError):
            enumerate_paths(net, (1, 1), max_paths=3)

    def test_unconnected_od_gives_empty_list(self):
        nodes = [Node(1), Node(2), Node(3)]
        links = [Link(1, 1, 2, 2.0, 4.0, 1.5, 5.4, 0.5, 8.1)]
        net = Network(nodes, links)
        assert enumerate_paths(net, (1, 3), max_paths=3) == []

    def test_detour_factor_admits_longer_paths(self):
        net = make_grid_network(3)
        longer = enumerate_paths(net, (1, 9), max_paths=50, detour=1.6)
        assert len(longer) > 6
        times = [p.free_flow_time(net) for p in longer]
        assert times == sorted(times)

    def test_expansion_cap_raises(self):
        with pytest.raises(RuntimeError, match=r"^path enumeration budget exceeded; "
                                               r"lower max_paths or the detour factor$"):
            enumerate_paths(make_grid_network(6), (1, 36), 10**6, detour=3.0)

    def test_deterministic(self):
        net = make_grid_network(3)
        a = [p.link_ids for p in enumerate_paths(net, (1, 9), 6)]
        b = [p.link_ids for p in enumerate_paths(net, (1, 9), 6)]
        assert a == b


def reference_tree(network, costs_by_link, destination):
    """Heap Dijkstra toward destination, then each node's tight link with the
    smallest (next node id, link id): (times by node id, successor by node id)."""
    dist = {destination: 0.0}
    heap = [(0.0, destination)]
    done = set()
    while heap:
        d, node = heapq.heappop(heap)
        if node in done:
            continue
        done.add(node)
        for lid in network.in_links[node]:
            tail = network.links[lid].from_node
            nd = d + costs_by_link[lid]
            if nd < dist.get(tail, math.inf):
                dist[tail] = nd
                heapq.heappush(heap, (nd, tail))
    succ = {}
    for node, d in dist.items():
        if node == destination:
            continue
        tight = [
            (network.links[lid].to_node, lid)
            for lid in network.out_links[node]
            if network.links[lid].to_node in dist
            and costs_by_link[lid] + dist[network.links[lid].to_node] <= d + 1e-9 * max(1.0, d)
        ]
        if tight:
            succ[node] = min(tight)[1]
    return dist, succ


# Few distinct costs, zero among them, so that equal-cost routes are common;
# 1 + 1e-10 ties with 1 only within the successor tolerance.
COSTS = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 1.0 + 1e-10, 1.5, 2.0]),
    st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def trees_problems(draw):
    """A small network of paired and one-way links with scattered node and link
    ids, a cost array over a few bins, and several (bin, destination) columns."""
    n_nodes = draw(st.integers(2, 8))
    node_ids = draw(st.lists(st.integers(1, 60), min_size=n_nodes, max_size=n_nodes, unique=True))
    link_ids = iter(draw(st.lists(st.integers(1, 500), min_size=28, max_size=28, unique=True)))
    attrs = dict(length=2.0, width=4.0, v_f=1.5, k_jam=5.4, omega=0.5, capacity=8.1)
    links = []
    segments = st.tuples(st.sampled_from(node_ids), st.sampled_from(node_ids), st.booleans())
    for a, b, paired in draw(st.lists(segments, max_size=14)):
        if a == b:
            continue
        lid = next(link_ids)
        if paired:
            twin = next(link_ids)
            links += [Link(lid, a, b, opposite=twin, **attrs), Link(twin, b, a, opposite=lid, **attrs)]
        else:
            links.append(Link(lid, a, b, **attrs))
    net = Network([Node(n) for n in node_ids], links)
    n_bins = draw(st.integers(1, 3))
    rows = st.lists(COSTS, min_size=n_bins, max_size=n_bins)
    costs = np.array(draw(st.lists(rows, min_size=len(links), max_size=len(links))), dtype=float)
    costs = costs.reshape(len(links), n_bins)
    columns = draw(st.lists(st.tuples(st.integers(0, n_bins - 1), st.sampled_from(node_ids)),
                            min_size=1, max_size=6))
    return net, costs, columns


@st.composite
def repeated_column_problems(draw):
    """trees_problems widened to up to 8 bins, each a copy of one of its drawn
    cost columns, so that runs of equal columns are common; a penalty may add
    to one link from some bin on; the columns requested repeat bins and
    destinations."""
    net, costs, _ = draw(trees_problems())
    n_bins = draw(st.integers(1, 8))
    costs = costs[:, draw(st.lists(st.integers(0, costs.shape[1] - 1), min_size=n_bins, max_size=n_bins))]
    if len(net.links) and draw(st.booleans()):
        start = draw(st.integers(0, n_bins - 1))
        costs[draw(st.integers(0, len(net.links) - 1)), start:] += draw(COSTS)
    columns = st.tuples(st.integers(0, n_bins - 1), st.sampled_from(sorted(net.nodes)))
    return net, costs, draw(st.lists(columns, min_size=1, max_size=16))


class TestShortestPathKernel:
    @settings(max_examples=200, deadline=None)
    @given(repeated_column_problems())
    def test_every_column_as_if_built_alone(self, problem):
        net, costs, columns = problem
        trees = shortest_paths(net, costs, [b for b, _ in columns], [d for _, d in columns])
        for c, (b, dest) in enumerate(columns):
            alone = shortest_paths(net, costs[:, b : b + 1], [0], [dest])
            assert trees.dist[c].tobytes() == alone.dist[0].tobytes()
            assert trees.succ[c].tobytes() == alone.succ[0].tobytes()

    def test_memory_stays_near_the_output_at_desk_scale(self):
        """Criterion 11's shape: 240 columns over 120 distinct cost bins on the
        50x50 grid (9,800 links).  The trees and their successors allocate at
        most 3x the output, dist and succ; a successor pass over every column
        at once would allocate several arrays of one entry per column and link,
        each 4x the size of dist."""
        n = 50
        net = make_grid_network(n, origins={1, n * n}, destinations={1, n * n})
        free = net.arrays.free_flow
        costs = free[:, None] * (1.0 + np.random.default_rng(0).random((len(free), 120)))
        tracemalloc.start()
        try:
            trees = shortest_paths(net, costs, np.repeat(np.arange(120), 2), [1, n * n] * 120)
            succ = trees.succ
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert succ.shape == (240, n * n)
        assert peak <= 3 * (trees.dist.nbytes + succ.nbytes)

    @settings(max_examples=200, deadline=None)
    @given(trees_problems())
    def test_matches_heap_dijkstra_reference(self, problem):
        net, costs, columns = problem
        trees = shortest_paths(net, costs, [b for b, _ in columns], [d for _, d in columns])
        index = net.arrays.node_index
        assert trees.dist.shape == trees.succ.shape == (len(columns), len(net.nodes))
        for c, (b, dest) in enumerate(columns):
            by_link = {lid: costs[row, b] for row, lid in enumerate(net.sorted_link_ids())}
            ref_dist, ref_succ = reference_tree(net, by_link, dest)
            dist, succ = trees.dist[c], trees.succ[c]
            for node in net.nodes:
                d = dist[index[node]]
                if node not in ref_dist:
                    assert d == math.inf
                    assert succ[index[node]] == -1
                    continue
                assert d == ref_dist[node]
                assert succ[index[node]] == net.arrays.index.get(ref_succ.get(node), -1)  # a link row
                # the exact fixed point of the Bellman equations
                if node == dest:
                    assert d == 0.0
                else:
                    assert d == min(by_link[lid] + dist[index[net.links[lid].to_node]]
                                    for lid in net.out_links[node])

    @settings(max_examples=50, deadline=None)
    @given(trees_problems(), st.data())
    def test_negative_cost_rejected(self, problem, data):
        net, costs, columns = problem
        if not len(net.links):
            return
        b, _ = data.draw(st.sampled_from(columns))
        row = data.draw(st.integers(0, len(net.links) - 1))
        costs[row, b] = -data.draw(st.floats(1e-12, 10.0))
        with pytest.raises(ValueError, match="negative cost"):
            shortest_paths(net, costs, [b for b, _ in columns], [d for _, d in columns])


class TestFileFormats:
    def test_network_round_trip(self, tmp_path):
        net = make_grid_network(3, origins={1}, destinations={9})
        path = tmp_path / "grid.net"
        write_network(net, path)
        back = load_network(path)
        assert sorted(back.nodes) == sorted(net.nodes)
        assert sorted(back.links) == sorted(net.links)
        for lid, link in net.links.items():
            twin = back.links[lid]
            assert (twin.from_node, twin.to_node, twin.opposite) == (
                link.from_node, link.to_node, link.opposite,
            )
            assert twin.capacity == pytest.approx(link.capacity)
        assert back.nodes[1].kind == "origin-centroid"

    def test_demand_round_trip(self, tmp_path):
        demand = DemandProfile()
        demand.add(1, 9, 0.0, 2.0)
        demand.add(1, 9, 1.0, 4.0)
        path = tmp_path / "demand.dem"
        write_demand(demand, path)
        back = load_demand(path)
        assert [(e.origin, e.destination, e.depart_s, e.rate) for e in back.entries] == [
            (1, 9, 0.0, 2.0), (1, 9, 1.0, 4.0),
        ]

    def test_missing_header_rejected(self, tmp_path):
        bad = tmp_path / "bad.net"
        bad.write_text("node,1,0,0,plain\n")
        with pytest.raises(NetworkFormatError):
            load_network(bad)

    def test_capacity_dash_uses_apex_default(self, tmp_path):
        content = (
            "pedflow-net v1\n"
            "node,1,0,0,plain\n"
            "node,2,2,0,plain\n"
            "link,1,1,2,2.0,4.0,1.5,5.4,0.5,-,-\n"
        )
        path = tmp_path / "net.net"
        path.write_text(content)
        net = load_network(path)
        assert net.links[1].capacity == pytest.approx(
            default_capacity(4.0, 1.5, 5.4, 0.5)
        )
        assert net.links[1].capacity == pytest.approx(8.1)

    def test_malformed_line_reports_position(self, tmp_path):
        path = tmp_path / "net.net"
        path.write_text("pedflow-net v1\nnode,1,0,0\n")
        with pytest.raises(NetworkFormatError, match=":2:"):
            load_network(path)

    def test_errors_report_the_physical_line(self, tmp_path):
        net = tmp_path / "net.net"
        net.write_text("# sidewalks\npedflow-net v1\n\nnode,1,0,0,plain\n# two\nlink,1,1,2,x,4,1.5,5.4,0.5,-,-\n")
        with pytest.raises(NetworkFormatError, match=":6:"):
            load_network(net)
        dem = tmp_path / "demand.dem"
        dem.write_text("pedflow-dem v1\n\n# morning\nod,1,9,0,fast\n")
        with pytest.raises(NetworkFormatError, match=":4:"):
            load_demand(dem)

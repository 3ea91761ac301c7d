import hashlib

import pytest

from pedflow.config import write_config
from pedflow.network import validate_demand, validate_network, write_demand, write_network, TimeGrid
from pedflow.scenarios import (
    generate_corridor_scenario,
    generate_grid_scenario,
    make_corridor_network,
    make_grid_network,
    trapezoid_profile,
)


def rates_by_bin(demand, origin):
    return {e.depart_s: e.rate for e in demand.entries if e.origin == origin}


class TestGridScenarios:
    def test_preset_1_geometry_and_demand(self):
        net, demand, cfg = generate_grid_scenario(preset=1)
        assert len(net.nodes) == 9
        assert len(net.links) == 24
        assert validate_network(net) == []
        assert validate_demand(net, demand, TimeGrid(cfg.dt, cfg.horizon)) == []
        assert demand.od_pairs() == [(1, 9)]
        rates = rates_by_bin(demand, 1)
        for t in range(8, 43):
            assert rates[float(t)] == pytest.approx(6.0)
        assert rates.get(50.0) is None

    def test_preset_2_adds_crossing_od(self):
        net, demand, cfg = generate_grid_scenario(preset=2)
        assert demand.od_pairs() == [(1, 9), (8, 4)]
        assert net.nodes[8].kind == "origin-centroid"
        assert net.nodes[4].kind == "destination-centroid"

    def test_preset_3_schedules_closure_cost(self):
        net, demand, cfg = generate_grid_scenario(preset=3)
        assert len(cfg.penalties) == 1
        pen = cfg.penalties[0]
        assert pen.start_s == 20.0
        lid = pen.resolve(net)
        link = net.links[lid]
        assert (link.from_node, link.to_node) == (4, 7)
        assert demand.od_pairs() == [(1, 9)]

    def test_link_geometry(self):
        net, _, _ = generate_grid_scenario(preset=1)
        for link in net.links.values():
            assert link.length == 2.0
            assert link.width == 4.0

    def test_other_sizes_for_baseline_preset(self):
        net = make_grid_network(2)
        assert len(net.nodes) == 4
        assert len(net.links) == 8

    def test_bad_preset_rejected(self):
        with pytest.raises(ValueError):
            generate_grid_scenario(preset=7)
        with pytest.raises(ValueError):
            generate_grid_scenario(n=4, preset=2)


class TestCorridorScenarios:
    def test_geometry(self):
        net, demand, cfg = generate_corridor_scenario(preset=4)
        assert len(net.nodes) == 10
        assert len(net.links) == 18
        assert validate_network(net) == []

    def test_preset_4_bottleneck_pair(self):
        net, _, _ = generate_corridor_scenario(preset=4, bottleneck_width=1.0)
        narrow = net.link_between(9, 10)
        assert narrow.width == 1.0
        assert net.links[narrow.opposite].width == 1.0
        assert net.link_between(8, 9).width == 4.0
        # capacity follows the narrowed width
        wide = net.link_between(1, 2)
        assert narrow.capacity == pytest.approx(wide.capacity / 4.0)

    def test_preset_4_demand_profile(self):
        _, demand, _ = generate_corridor_scenario(preset=4)
        rates = rates_by_bin(demand, 1)
        assert rates[4.0] == pytest.approx(4.0)
        assert rates[79.0] == pytest.approx(4.0)
        assert rates[80.0] == pytest.approx(4.0)
        assert rates[82.0] == pytest.approx(4.0 / 3.0)
        assert 84.0 not in rates

    def test_preset_5_minor_stream_peaks_at_two(self):
        _, demand, _ = generate_corridor_scenario(preset=5)
        minor = rates_by_bin(demand, 10)
        assert max(minor.values()) == pytest.approx(2.0)
        assert minor[49.0] == pytest.approx(2.0)
        assert 54.0 not in minor

    def test_preset_6_balanced_peaks(self):
        _, demand, _ = generate_corridor_scenario(preset=6)
        major = rates_by_bin(demand, 1)
        minor = rates_by_bin(demand, 10)
        assert max(major.values()) == pytest.approx(4.0)
        assert max(minor.values()) == pytest.approx(4.0)
        assert 52.0 in minor and 55.0 not in minor
        assert 82.0 in major and 85.0 not in major

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError):
            generate_corridor_scenario(preset=1)
        with pytest.raises(ValueError):
            generate_corridor_scenario(segments=1)


class TestTrapezoidProfile:
    def test_shape(self):
        rate = trapezoid_profile(1.0, 4.0, 4.0, 80.0, 83.0)
        assert rate(0.5) == 0.0
        assert rate(2.5) == pytest.approx(2.0)
        assert rate(4.0) == pytest.approx(4.0)
        assert rate(50.0) == pytest.approx(4.0)
        assert rate(81.5) == pytest.approx(2.0)
        assert rate(83.0) == 0.0
        assert rate(200.0) == 0.0


def corners(n):
    return {1, n, n * n - n + 1, n * n}


# Builder calls that no preset pin covers, each giving (network[, demand, config]);
# the grids carry corner centroids as the benchmark's workloads set them.
BUILDS = {
    "generate_grid_scenario(n=5)": lambda: generate_grid_scenario(n=5),
    "generate_corridor_scenario(segments=5, bottleneck_width=2.5)":
        lambda: generate_corridor_scenario(segments=5, bottleneck_width=2.5),
    "make_grid_network(1)": lambda: (make_grid_network(1, origins=corners(1)),),
    "make_grid_network(2)": lambda: (make_grid_network(2, origins=corners(2)),),
    "make_grid_network(20)": lambda: (make_grid_network(20, origins=corners(20)),),
    "make_grid_network(50)": lambda: (make_grid_network(50, origins={1, 2500}),),
    "make_corridor_network(5, bottleneck_segment=2)":
        lambda: (make_corridor_network(5, bottleneck_segment=2, origins={1}, destinations={6}),),
    "make_corridor_network(1)": lambda: (make_corridor_network(1),),
}

BUILT_SHA256 = {
    "generate_grid_scenario(n=5)": {
        "network.net": "48845e2100d02b8d9149140df656ff50edaea8c0144913e9e21c69b497ca8768",
        "demand.dem": "ef374615f15294d197a3c9ce2a8416aeb2022876279c13479beecd777825cb37",
        "config.cfg": "ad7afc902fc468953d002c29a9f1835b5450e0a30b1f084082bf660ec9a3b5a5",
    },
    "generate_corridor_scenario(segments=5, bottleneck_width=2.5)": {
        "network.net": "eec621cd6d5bb3523ea124162ee9d44fc09f84efbd1a887fc84a21cd19ba0877",
        "demand.dem": "3f1642184bbb33fa7ced6f6f412e1554bfe48e87012b8a930f8f317f32a9cbe9",
        "config.cfg": "cf3a18dfc088058a38e1789366c197fcfa9aba5967d6230b0ac18b8f81948bf5",
    },
    "make_grid_network(1)": {"network.net": "ffd78f6962721d1ea9f8ead7adc4ad09f8676ad0ba582b56788c45d6ba425a80"},
    "make_grid_network(2)": {"network.net": "f55f6c2321da0a52a9275d5f9a28d72fd4e3d0cf06ff61825d0762d71a8afff5"},
    "make_grid_network(20)": {"network.net": "29ba6fb407bdd222090ea97fd2fecee00888f816c40e9b93c0a45d1266136814"},
    "make_grid_network(50)": {"network.net": "5f19efde58306edfb22cb4248ae08a368462ab03f9c94d3b9501fc6869f4c306"},
    "make_corridor_network(5, bottleneck_segment=2)": {
        "network.net": "e412b0d36ae4a07fdc2b9c93f429aad07133e5ca72f6338f70b4a04297ee5da6",
    },
    "make_corridor_network(1)": {"network.net": "3d2cc8f94fa27b88ada4022fca3b59635dfb3e28589c36897532d2ba260b1745"},
}


@pytest.mark.parametrize("call", sorted(BUILDS))
def test_built_files_are_byte_identical(call, tmp_path):
    """The files written from each builder call hash as recorded, and nodes
    and links are held in ascending id order, as they were built."""
    built = BUILDS[call]()
    digests = {}
    for obj, write, name in zip(built, (write_network, write_demand, write_config),
                                ("network.net", "demand.dem", "config.cfg")):
        write(obj, tmp_path / name)
        digests[name] = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
    assert digests == BUILT_SHA256[call]
    net = built[0]
    assert list(net.nodes) == sorted(net.nodes) and list(net.links) == sorted(net.links)

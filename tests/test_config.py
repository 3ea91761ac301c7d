import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pedflow.config import KEYS, ConfigError, LinkPenalty, ScenarioConfig, parse_config, read_config, write_config
from pedflow.network import Network
from pedflow.pvdf import PvdfParams
from pedflow.scenarios import generate_corridor_scenario


def written(lo, hi):
    """Floats in [lo, hi] that config.cfg's 10 significant digits write exactly."""
    return st.floats(lo, hi, allow_nan=False).map(lambda x: float(f"{x:.10g}"))


link_refs = st.one_of(
    st.integers(-999, 999).map(str),
    st.tuples(st.integers(-999, 999), st.integers(-999, 999)).map(lambda ab: f"{ab[0]}-{ab[1]}"),
)


@st.composite
def configs(draw):
    mode = draw(st.sampled_from(("symmetric", "asymmetric")))
    bump = {}
    if mode == "asymmetric":  # symmetric mode ignores the bump, and config.cfg leaves it out
        bump = dict(mu=draw(written(0.0, 50.0)), eta_r=draw(written(-50.0, 0.0)),
                    lambda_r=draw(written(-2.0, 2.0)), eta_c=draw(written(-50.0, 0.0)),
                    lambda_c=draw(written(-2.0, 2.0)))
    variant = draw(st.sampled_from(("logistic", "power")))
    penalties = st.builds(LinkPenalty, link_refs, written(0.0, 1e4), written(0.0, 1e6))
    return ScenarioConfig(
        dt=draw(written(0.01, 10.0)),
        horizon=draw(written(1.0, 1e5)),
        fd_variant=variant,
        fd_gamma=draw(written(0.0, 5.0)) if variant == "power" else None,
        pvdf=PvdfParams(alpha=draw(written(0.0, 10.0)), beta=draw(written(1.0, 8.0)), mode=mode, **bump),
        max_iters=draw(st.integers(1, 10_000)),
        gap_tol=draw(written(1e-12, 1.0)),
        effective_storage=draw(st.booleans()),
        penalties=tuple(draw(st.lists(penalties, max_size=3))),
        node_trace=draw(st.booleans()),
        max_paths=draw(st.integers(0, 100)),
        detour=draw(written(1.0, 5.0)),
        enumerate_paths=draw(st.booleans()),
    )


@pytest.fixture(scope="module")
def cfg_path(tmp_path_factory):
    return tmp_path_factory.mktemp("cfg") / "config.cfg"


@settings(max_examples=200, deadline=None)
@given(configs())
def test_round_trip(cfg_path, cfg):
    write_config(cfg, cfg_path)
    assert read_config(cfg_path) == cfg


def test_absent_keys_take_the_dataclass_defaults():
    assert parse_config("# nothing set\n\n") == ScenarioConfig()


# A value each key rejects: text that does not read as the key's type, a name
# outside its choices, or a number outside its range.
BAD_VALUES = {
    "time.dt": "fast",
    "time.horizon": "2 min",
    "fd.variant": "logistc",
    "fd.gamma": "-2",
    "pvdf.mode": "both",
    "pvdf.alpha": "-0.5",
    "pvdf.beta": "0.5",
    "pvdf.mu": "-1",
    "pvdf.eta_r": "1",
    "pvdf.lambda_r": "wide",
    "pvdf.eta_c": "2",
    "pvdf.lambda_c": "",
    "due.max_iters": "2.5",
    "due.gap_tol": "0",
    "ltm.effective_storage": "maybe",
    "debug.node_trace": "2",
    "paths.max_paths": "many",
    "paths.detour": "far",
    "paths.enumerate": "sometimes",
    "penalty": "4-7@20",
}


# Values that read as the key's type but are not finite, out of range, or
# (for penalty) name a link by anything but an id or a node pair.
MORE_BAD_VALUES = [
    ("time.dt", "0"),
    ("time.horizon", "inf"),
    ("pvdf.alpha", "nan"),
    ("pvdf.lambda_c", "inf"),
    ("due.gap_tol", "nan"),
    ("paths.max_paths", "-3"),
    ("paths.detour", "nan"),
    ("penalty", "abc@1:2"),
    ("penalty", "4-7@20:inf"),
    ("penalty", "4-7@nan:5"),
    ("penalty", "2-5@20:nan"),
    ("penalty", "4-7@0:-1000"),
    ("penalty", "4-7@0:-0.5"),
]


def test_every_key_has_a_bad_value():
    assert set(KEYS) == set(BAD_VALUES)


@pytest.mark.parametrize("key, value", [*BAD_VALUES.items(), *MORE_BAD_VALUES])
def test_bad_value_names_its_key(key, value):
    with pytest.raises(ConfigError, match=re.escape(key)):
        parse_config(f"# header\n{key} = {value}\n")


@pytest.mark.parametrize("text, key", [
    ("fd.variant = Logistic\nfd.gamma = 1.0\n", "fd.variant"),
    ("fd.variant = power\nfd.gamma = -2\n", "fd.gamma"),
    ("fd.variant = power\nfd.gamma = nan\n", "fd.gamma"),
    ("fd.variant = power\n", "fd.gamma"),
    ("fd.gamma = 1.0\n", "fd.gamma"),
])
def test_speed_law_names_its_key(text, key):
    with pytest.raises(ConfigError, match=re.escape(key)):
        parse_config(text)


def test_unknown_keys_are_all_named():
    with pytest.raises(ConfigError, match=r"unknown config keys: \['fd.gama', 'time.step'\]"):
        parse_config("time.step = 1\nfd.gama = 2\n")


def test_penalties_keep_their_order_and_reference_form():
    cfg = parse_config("penalty = 4-7@20:1e4\npenalty = 12@0:5\n")
    assert cfg.penalties == (LinkPenalty("4-7", 20.0, 1e4), LinkPenalty("12", 0.0, 5.0))


def test_penalty_names_a_link_by_negative_end_nodes():
    """Corridor preset 4 with its node ids moved by -5 (1-10 become -4-5):
    '-4--3' names the link from node -4 to node -3, as its id does."""
    net, _, _ = generate_corridor_scenario(preset=4)
    shifted = Network([replace(n, id=n.id - 5) for n in net.nodes.values()],
                      [replace(l, from_node=l.from_node - 5, to_node=l.to_node - 5) for l in net.links.values()])
    link = shifted.link_between(-4, -3)
    by_nodes, by_id = parse_config(f"penalty = -4--3@0:1\npenalty = {link.id}@0:1\n").penalties
    assert by_nodes == LinkPenalty("-4--3", 0.0, 1.0)
    assert by_nodes.resolve(shifted) == by_id.resolve(shifted) == link.id
    assert LinkPenalty.parse("-3--4@0:1").resolve(shifted) == shifted.link_between(-3, -4).id != link.id
    assert LinkPenalty.parse("0-1@0:1").resolve(shifted) == shifted.link_between(0, 1).id
    with pytest.raises(ConfigError, match="missing link -4--2"):
        LinkPenalty.parse("-4--2@0:1").resolve(shifted)
    for bad in ("-4---3", "--4-3", "-4-", "4--"):
        with pytest.raises(ValueError, match="link must be"):
            LinkPenalty.parse(f"{bad}@0:1")

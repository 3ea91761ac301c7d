"""Built-in demonstration scenarios: a 3x3 walking grid and a long corridor.

Geometry that the experiments fix (2 m long, 4 m wide segments; grid of 9
nodes / 24 links; corridor of 10 nodes / 18 links) is wired in here.  Flow
parameters that are deliberately inputs (free-flow speed, jam density, wave
speed, bottleneck width, demand ramps where only the plateau is pinned) ship
as the documented package defaults below; they are not calibrated values.
"""

from __future__ import annotations

from .config import LinkPenalty, ScenarioConfig
from .fd import default_capacity
from .network import DemandProfile, Link, Network, Node
from .pvdf import PvdfParams

# Package default walking parameters (inputs, not calibrated constants).
DEFAULT_V_F = 1.5  # m/s
DEFAULT_K_JAM = 5.4  # ped/m^2
DEFAULT_OMEGA = 0.5  # m/s
DEFAULT_WIDTH = 4.0  # m
DEFAULT_LENGTH = 2.0  # m

# Cost function shipped with the presets: a mild congestion term plus a
# counterflow-specific bump that makes opposed sidewalks genuinely expensive.
# These are demonstration values, not calibrated ones.
PRESET_PVDF = PvdfParams(
    alpha=0.1, beta=2.0, mode="asymmetric",
    mu=2.0, eta_r=0.0, lambda_r=0.0, eta_c=-30.0, lambda_c=0.35,
)

GRID_PRESETS = (1, 2, 3)
CORRIDOR_PRESETS = (4, 5, 6)


def _pair(link_id: int, a: int, b: int, length: float, width: float,
          v_f=DEFAULT_V_F, k_jam=DEFAULT_K_JAM, omega=DEFAULT_OMEGA) -> tuple[Link, Link]:
    cap = default_capacity(width, v_f, k_jam, omega)
    fwd = Link(link_id, a, b, length, width, v_f, k_jam, omega, cap, opposite=link_id + 1)
    bwd = Link(link_id + 1, b, a, length, width, v_f, k_jam, omega, cap, opposite=link_id)
    return fwd, bwd


def _kind(nid: int, origins, destinations) -> str:
    if nid in origins:
        return "origin-centroid"
    return "destination-centroid" if nid in destinations else "plain"


def make_grid_network(n: int = 3, length: float = DEFAULT_LENGTH, width: float = DEFAULT_WIDTH,
                      origins=(), destinations=()) -> Network:
    """n x n lattice of bidirectional sidewalk segments, nodes numbered row-major from 1."""
    nodes = [Node(row * n + col + 1, x=col * length, y=-row * length,
                  kind=_kind(row * n + col + 1, origins, destinations))
             for row in range(n) for col in range(n)]
    links = []
    next_id = 1
    for row in range(n):
        for col in range(n):
            nid = row * n + col + 1
            if col + 1 < n:
                links.extend(_pair(next_id, nid, nid + 1, length, width))
                next_id += 2
            if row + 1 < n:
                links.extend(_pair(next_id, nid, nid + n, length, width))
                next_id += 2
    return Network(nodes, links)


def make_corridor_network(segments: int = 9, length: float = DEFAULT_LENGTH,
                          width: float = DEFAULT_WIDTH, bottleneck_segment: int | None = None,
                          bottleneck_width: float = 1.0, origins=(), destinations=()) -> Network:
    """Straight chain of bidirectional segments, nodes numbered 1..segments+1."""
    nodes = [Node(i + 1, x=i * length, y=0.0, kind=_kind(i + 1, origins, destinations))
             for i in range(segments + 1)]
    links = []
    next_id = 1
    for i in range(segments):
        w = bottleneck_width if bottleneck_segment is not None and i == bottleneck_segment else width
        links.extend(_pair(next_id, i + 1, i + 2, length, w))
        next_id += 2
    return Network(nodes, links)


def trapezoid_profile(ramp_start: float, peak_start: float, peak: float,
                      fall_start: float, fall_end: float):
    """Piecewise-linear demand rate: 0, ramp up, plateau, ramp down, 0."""

    def rate(t: float) -> float:
        if t <= ramp_start or t >= fall_end:
            return 0.0
        if t < peak_start:
            return peak * (t - ramp_start) / (peak_start - ramp_start)
        if t <= fall_start:
            return peak
        return peak * (fall_end - t) / (fall_end - fall_start)

    return rate


def sample_demand(demand: DemandProfile, origin: int, destination: int, rate_fn,
                  grid_dt: float, horizon: float) -> None:
    n_bins = int(round(horizon / grid_dt))
    for k in range(n_bins):
        t = k * grid_dt
        r = rate_fn(t)
        if r > 1e-12:
            demand.add(origin, destination, t, r)


def generate_grid_scenario(n: int = 3, preset: int = 1):
    """Grid presets: 1 = one-way demand, 2 = two crossing demands, 3 = preset 1
    plus a scheduled closure-sized cost on link 4-7 from t = 20 s.

    Returns (network, demand, config).
    """
    if preset not in GRID_PRESETS:
        raise ValueError(f"grid preset must be one of {GRID_PRESETS}, got {preset}")
    if n != 3 and preset != 1:
        raise ValueError("presets 2 and 3 are defined on the 3x3 grid")
    corner = n * n
    origins, destinations = {1}, {corner}
    if preset == 2:
        origins.add(8)
        destinations.add(4)
    network = make_grid_network(n, origins=origins, destinations=destinations)
    demand = DemandProfile()
    main = trapezoid_profile(1.0, 8.0, 6.0, 42.0, 45.0)
    sample_demand(demand, 1, corner, main, 1.0, 120.0)
    if preset == 2:
        sample_demand(demand, 8, 4, trapezoid_profile(1.0, 8.0, 6.0, 42.0, 45.0), 1.0, 120.0)
    penalties = ()
    if preset == 3:
        penalties = (LinkPenalty(link_ref="4-7", start_s=20.0, added_cost_s=1e4),)
    cfg = ScenarioConfig(dt=1.0, horizon=120.0, pvdf=PRESET_PVDF, penalties=penalties)
    return network, demand, cfg


def generate_corridor_scenario(segments: int = 9, preset: int = 4, bottleneck_width: float = 1.0):
    """Corridor presets: 4 = one-way demand into an end bottleneck, 5 = unbalanced
    two-way streams, 6 = balanced two-way streams ending at different times.

    Returns (network, demand, config).
    """
    if preset not in CORRIDOR_PRESETS:
        raise ValueError(f"corridor preset must be one of {CORRIDOR_PRESETS}, got {preset}")
    if segments < 2:
        raise ValueError("a corridor needs at least 2 segments")
    last = segments + 1
    horizon = 200.0 if preset == 4 else 240.0
    network = make_corridor_network(
        segments,
        bottleneck_segment=segments - 1 if preset == 4 else None,
        bottleneck_width=bottleneck_width,
        origins={1}, destinations={last},
    )
    # Presets 5 and 6 also source demand at the far end; the kind labels mark
    # each end's primary role and any centroid may source or sink demand.
    demand = DemandProfile()
    major = trapezoid_profile(1.0, 4.0, 4.0, 80.0, 83.0)
    sample_demand(demand, 1, last, major, 1.0, horizon)
    if preset == 5:
        minor = trapezoid_profile(1.0, 4.0, 2.0, 50.0, 53.0)
        sample_demand(demand, last, 1, minor, 1.0, horizon)
    elif preset == 6:
        minor = trapezoid_profile(1.0, 4.0, 4.0, 50.0, 53.0)
        sample_demand(demand, last, 1, minor, 1.0, horizon)
    cfg = ScenarioConfig(dt=1.0, horizon=horizon, pvdf=PRESET_PVDF)
    return network, demand, cfg

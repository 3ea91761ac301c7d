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


def _lattice(rows: int, cols: int, length: float, widths: list[float], origins, destinations) -> Network:
    """rows x cols nodes numbered row-major from 1, `length` apart, joined by two paired links per segment
    (each node's segment to the east, then to the south), numbered 1, 2, 3, ... in segment order; segment i
    is widths[i] wide."""
    nodes, links = [], []
    for nid in range(1, rows * cols + 1):
        row, col = divmod(nid - 1, cols)
        kind = "origin-centroid" if nid in origins else "destination-centroid" if nid in destinations else "plain"
        nodes.append(Node(nid, x=col * length, y=-row * length, kind=kind))
        for end, exists in ((nid + 1, col < cols - 1), (nid + cols, row < rows - 1)):
            if exists:
                i, width = len(links), widths[len(links) // 2]
                cap = default_capacity(width, DEFAULT_V_F, DEFAULT_K_JAM, DEFAULT_OMEGA)
                links += (Link(i + 1, nid, end, length, width, DEFAULT_V_F, DEFAULT_K_JAM, DEFAULT_OMEGA, cap, i + 2),
                          Link(i + 2, end, nid, length, width, DEFAULT_V_F, DEFAULT_K_JAM, DEFAULT_OMEGA, cap, i + 1))
    return Network(nodes, links)


def make_grid_network(n: int = 3, length: float = DEFAULT_LENGTH, width: float = DEFAULT_WIDTH,
                      origins=(), destinations=()) -> Network:
    """n x n lattice of bidirectional sidewalk segments, nodes numbered row-major from 1."""
    return _lattice(n, n, length, [width] * (2 * n * (n - 1)), origins, destinations)  # 2n(n - 1) segments


def make_corridor_network(segments: int = 9, length: float = DEFAULT_LENGTH,
                          width: float = DEFAULT_WIDTH, bottleneck_segment: int | None = None,
                          bottleneck_width: float = 1.0, origins=(), destinations=()) -> Network:
    """Straight chain of bidirectional segments, nodes numbered 1..segments+1: a one-row lattice."""
    widths = [bottleneck_width if i == bottleneck_segment else width for i in range(segments)]
    return _lattice(1, segments + 1, length, widths, origins, destinations)


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


def _preset(network: Network, streams, horizon: float, penalties=()):
    """A preset's (network, demand, config): each (origin, destination, trapezoid) stream sampled at 1 s."""
    demand = DemandProfile()
    for origin, destination, trapezoid in streams:
        rate = trapezoid_profile(*trapezoid)
        for t in map(float, range(int(round(horizon)))):
            if (r := rate(t)) > 1e-12:
                demand.add(origin, destination, t, r)
    return network, demand, ScenarioConfig(dt=1.0, horizon=horizon, pvdf=PRESET_PVDF, penalties=penalties)


def generate_grid_scenario(n: int = 3, preset: int = 1):
    """Grid presets: 1 = one-way demand, 2 = two crossing demands, 3 = preset 1
    plus a scheduled closure-sized cost on link 4-7 from t = 20 s.

    Returns (network, demand, config).
    """
    if preset not in GRID_PRESETS:
        raise ValueError(f"grid preset must be one of {GRID_PRESETS}, got {preset}")
    if n != 3 and preset != 1:
        raise ValueError("presets 2 and 3 are defined on the 3x3 grid")
    ods = [(1, n * n)] + [(8, 4)] * (preset == 2)
    network = make_grid_network(n, origins={o for o, _ in ods}, destinations={d for _, d in ods})
    penalties = (LinkPenalty(link_ref="4-7", start_s=20.0, added_cost_s=1e4),) if preset == 3 else ()
    return _preset(network, [(o, d, (1.0, 8.0, 6.0, 42.0, 45.0)) for o, d in ods], 120.0, penalties)


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
    network = make_corridor_network(segments, bottleneck_segment=segments - 1 if preset == 4 else None,
                                    bottleneck_width=bottleneck_width, origins={1}, destinations={last})
    # Presets 5 and 6 also source demand at the far end; the kind labels mark
    # each end's primary role and any centroid may source or sink demand.
    streams = [(1, last, (1.0, 4.0, 4.0, 80.0, 83.0))]
    if preset in (5, 6):  # unbalanced (a 2 ped/s plateau) or balanced
        streams.append((last, 1, (1.0, 4.0, 2.0 if preset == 5 else 4.0, 50.0, 53.0)))
    return _preset(network, streams, horizon)

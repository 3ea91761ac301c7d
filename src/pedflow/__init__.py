"""Dynamic pedestrian traffic assignment for bidirectional sidewalk networks.

The package couples an equilibrium route-choice layer (volume delay costs,
successive averaging, relative-gap convergence) with a first-order network
loader built on cumulative link counts, a bidirectional triangular
fundamental diagram, and a node model that reserves supply for counterflow.
"""

from .assignment import (
    AssignmentState,
    ConvergenceReport,
    relative_gap,
    run_due,
    shortest_paths,
    update_flows,
)
from .config import LinkPenalty, ScenarioConfig, parse_config, read_config, write_config
from .engine import (
    ShockFront,
    SimulationInputError,
    TimeSpaceMatrix,
    build_time_space,
    detect_shockwaves,
    export_time_space,
    run_scenario,
)
from .fd import FDParams, FDState, critical_density, density_ratio, effective_jam_density, effective_speed, flow
from .loading import LoadingResult, load_network as load_flows
from .network import (
    DemandEntry,
    DemandProfile,
    Link,
    Network,
    NetworkFormatError,
    Node,
    Path,
    TimeGrid,
    enumerate_paths,
    load_demand,
    load_network,
    validate_demand,
    validate_network,
    validate_time_grid,
    write_demand,
    write_network,
)
from .nodemodel import (
    NodeFlowProblem,
    NodeFlowSolution,
    TurningFractions,
    paths_to_turning_fractions,
    solve_node,
)
from .pvdf import PvdfParams, experienced_route_time, instantaneous_route_time, link_cost
from .scenarios import generate_corridor_scenario, generate_grid_scenario

__version__ = "0.1.0"

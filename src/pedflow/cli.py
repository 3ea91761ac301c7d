"""Command-line interface.

    pedflow validate <net> <dem>
    pedflow scenario grid|corridor --preset N --out DIR
    pedflow run --net F --dem F --config F --out DIR
    pedflow export-ts --run DIR --path "1,2,3,6,9"

Exit codes: 0 success, 1 validation error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path as FsPath

from .config import ConfigError, ScenarioConfig, read_config, write_config
from .engine import SimulationInputError, export_time_space, run_scenario
from .network import (
    NetworkFormatError,
    load_demand,
    load_network,
    validate_demand,
    validate_network,
    write_demand,
    write_network,
)
from .scenarios import generate_corridor_scenario, generate_grid_scenario

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_RUNTIME = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pedflow", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="check a network and demand file")
    p_val.add_argument("net")
    p_val.add_argument("dem")

    p_scn = sub.add_parser("scenario", help="write a built-in scenario to a directory")
    p_scn.add_argument("kind", choices=("grid", "corridor"))
    p_scn.add_argument("--preset", type=int, required=True)
    p_scn.add_argument("--out", required=True)
    p_scn.add_argument("--bottleneck-width", type=float, default=1.0)

    p_run = sub.add_parser("run", help="run a scenario end to end")
    p_run.add_argument("--net", required=True)
    p_run.add_argument("--dem", required=True)
    p_run.add_argument("--config", default=None)
    p_run.add_argument("--out", required=True)

    p_ts = sub.add_parser("export-ts", help="export time-space matrices from a run")
    p_ts.add_argument("--run", required=True)
    p_ts.add_argument("--path", required=True, help='comma-separated node ids, e.g. "1,2,3,6,9"')
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (SimulationInputError, NetworkFormatError, ConfigError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except Exception as exc:  # runtime failure after inputs were accepted
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def _cmd_validate(args) -> int:
    network = load_network(args.net)
    demand = load_demand(args.dem)
    problems = validate_network(network) + validate_demand(network, demand)
    if problems:
        for p in problems:
            print(p)
        print(f"{len(problems)} violation(s)")
        return EXIT_INVALID
    print(f"ok: {len(network.nodes)} nodes, {len(network.links)} links, "
          f"{len(demand.entries)} demand entries")
    return EXIT_OK


def _cmd_scenario(args) -> int:
    if args.kind == "grid":
        network, demand, cfg = generate_grid_scenario(preset=args.preset)
    else:
        network, demand, cfg = generate_corridor_scenario(
            preset=args.preset, bottleneck_width=args.bottleneck_width
        )
    out = FsPath(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_network(network, out / "network.net")
    write_demand(demand, out / "demand.dem")
    write_config(cfg, out / "config.cfg")
    print(f"wrote scenario preset {args.preset} to {out}")
    return EXIT_OK


def _cmd_run(args) -> int:
    network = load_network(args.net)
    demand = load_demand(args.dem)
    cfg = read_config(args.config) if args.config else ScenarioConfig()
    summary = run_scenario(cfg, network, demand, args.out)
    r = summary["results"]
    print(
        f"done: {r['iterations']} iteration(s), final gap {r['final_rel_gap']:.6g}, "
        f"{r['trips']['completed']:.6g}/{r['trips']['demanded']:.6g} trips completed"
    )
    return EXIT_OK


def _cmd_export_ts(args) -> int:
    nodes = [int(x) for x in args.path.split(",") if x.strip()]
    density_path, flow_path = export_time_space(args.run, nodes)
    print(density_path)
    print(flow_path)
    return EXIT_OK


COMMANDS = {"validate": _cmd_validate, "scenario": _cmd_scenario, "run": _cmd_run, "export-ts": _cmd_export_ts}

if __name__ == "__main__":
    raise SystemExit(main())

"""The benchmark's workloads: seeded inputs, set-up, calls and output checks.

A workload is a list of cases; one pass runs every case once through a public
entry point (`pedflow.assignment.run_due` or `pedflow.engine.run_scenario`)
and checks what it produced.  Every entry point is looked up on its module at
call time, so a tracer installed on the module sees the call.

The seed varies only the per-entry demand rates: seed 0 is the nominal case;
any other seed scales each demand entry by its own factor drawn uniformly
from [1 - JITTER, 1 + JITTER].  Network size, horizon and iteration cap never
depend on the seed, so timings compare across seeds.
"""

from __future__ import annotations

import hashlib
import math
import shutil
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from pedflow import assignment, engine, network
from pedflow.config import ScenarioConfig
from pedflow.network import DemandProfile, TimeGrid
from pedflow.scenarios import (
    PRESET_PVDF,
    generate_corridor_scenario,
    generate_grid_scenario,
    make_grid_network,
)

# Small enough that the presets keep their nominal iteration counts (2, 9, 2,
# 1, 1, 1) on every seed; at +-10% preset 2 needs up to 50 iterations on some
# seeds, which would make run_s a property of the seed, not of the code.
JITTER = 0.02


@dataclass
class Case:
    """One run_* call's inputs and what its outputs must satisfy."""

    label: str
    network: object
    demand: DemandProfile
    cfg: ScenarioConfig
    trips: float  # persons demanded, summed by the benchmark from its own entries
    fixed_iterations: int | None  # gap_tol 1e-15 means every iteration runs


@dataclass
class Outcome:
    """What one call produced."""

    label: str
    seconds: float
    error: str | None  # exception type name when the call raised
    state: object | None  # AssignmentState, also captured when a writer raised
    report: object | None
    bytes_written: int = 0


def _jitter(demand: DemandProfile, rng) -> DemandProfile:
    if rng is None:
        return demand
    out = DemandProfile()
    factors = rng.uniform(1.0 - JITTER, 1.0 + JITTER, len(demand.entries))
    for e, f in zip(demand.entries, factors):
        out.add(e.origin, e.destination, e.depart_s, e.rate * f)
    return out


def _case(label, net, demand, cfg, fixed_iterations=None) -> Case:
    trips = sum(e.rate for e in demand.entries if e.rate > 0) * cfg.dt
    return Case(label, net, demand, cfg, trips, fixed_iterations)


def _corner_streams(n, pairs, rate, bins, horizon, node_trace, rng, label):
    net = make_grid_network(n, origins={o for o, _ in pairs} | {d for _, d in pairs})
    demand = DemandProfile()
    for k in range(bins):
        for o, d in pairs:
            demand.add(o, d, float(k), rate)
    cfg = ScenarioConfig(dt=1.0, horizon=horizon, pvdf=PRESET_PVDF, max_iters=3, gap_tol=1e-15,
                         node_trace=node_trace, enumerate_paths=False)
    return [_case(label, net, _jitter(demand, rng), cfg, fixed_iterations=3)]


def desk_grid50(rng, smoke: bool) -> list[Case]:
    # Acceptance criterion 11 (120 demand bins, 600 steps) takes about 45 s
    # a call, too long to repeat within a run.  Cutting bins and steps by the
    # same factor keeps its network, its arrays' width and its split of time
    # between trees and loading, in a pass of about 2 s.
    n, bins, horizon = (8, 20, 100.0) if smoke else (50, 8, 40.0)
    return _corner_streams(n, [(1, n * n), (n * n, 1)], 3.0, bins, horizon, False, rng,
                           f"grid{n}")


def crowd_grid20(rng, smoke: bool) -> list[Case]:
    # A 900-s horizon takes about 20 s a call, too long to repeat within a
    # run; 120 s still holds the congested crossing (about 38% of node solves
    # congested, with supply clamps) in a pass of about 5 s.
    n, horizon = (6, 150.0) if smoke else (20, 120.0)
    corners = (1, n, n * n - n + 1, n * n)
    pairs = [(c, corners[3 - i]) for i, c in enumerate(corners)]
    return _corner_streams(n, pairs, 40.0, 10, horizon, True, rng, f"grid{n}")


def presets_rundir(rng, smoke: bool) -> list[Case]:
    cases = []
    for preset in range(1, 7):
        scenario = generate_grid_scenario if preset <= 3 else generate_corridor_scenario
        net, demand, cfg = scenario(preset=preset)
        if smoke:
            cfg = replace(cfg, max_iters=2)
        cases.append(_case(f"preset{preset}", net, _jitter(demand, rng), cfg))
    return cases


WORKLOADS = {
    "desk_grid50": (desk_grid50, "run_due"),
    "crowd_grid20": (crowd_grid20, "run_scenario"),
    "presets_rundir": (presets_rundir, "run_scenario"),
}


def set_up(name: str, seed: int, smoke: bool = False) -> list[Case]:
    """Build and validate one workload's inputs; raises if any is invalid."""
    make, _ = WORKLOADS[name]
    cases = make(np.random.default_rng(seed) if seed else None, smoke)
    for case in cases:
        grid = TimeGrid(case.cfg.dt, case.cfg.horizon)
        problems = network.validate_network(case.network)
        problems += network.validate_time_grid(case.network, grid)
        problems += network.validate_demand(case.network, case.demand, grid)
        if problems:
            raise ValueError(f"{name}/{case.label}: invalid inputs: {problems[:3]}")
    return cases


class ResultTap:
    """Keeps what `engine.run_due` returned inside `engine.run_scenario`.

    run_scenario returns only its summary and raises if a writer fails after
    the assignment finished; the tap lets the benchmark check the loading in
    both cases.  It adds one Python call per run_scenario call and records
    no spans.
    """

    def __init__(self):
        self.last = None
        self._original = None

    def __enter__(self):
        self._original = engine.__dict__["run_due"]
        original = self._original

        def run_due(*args, **kwargs):
            self.last = original(*args, **kwargs)
            return self.last

        engine.run_due = run_due
        return self

    def __exit__(self, *exc):
        engine.run_due = self._original


def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.iterdir() if f.is_file())


def run_pass(name: str, cases: list[Case], tap: ResultTap, scratch: Path) -> list[Outcome]:
    """Run every case once; a call that raises is recorded, not re-raised."""
    via = WORKLOADS[name][1]
    outcomes = []
    for case in cases:
        error, result, written = None, None, 0
        if via == "run_due":
            started = time.perf_counter()
            try:
                result = assignment.run_due(case.network, case.demand, case.cfg)
            except Exception as exc:  # counted in error_rate
                error = type(exc).__name__
            seconds = time.perf_counter() - started
        else:
            out_dir = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
            tap.last = None
            started = time.perf_counter()
            try:
                engine.run_scenario(case.cfg, case.network, case.demand, out_dir)
            except Exception as exc:  # counted in error_rate
                error = type(exc).__name__
            seconds = time.perf_counter() - started
            result, tap.last = tap.last, None
            written = _dir_bytes(out_dir)
            shutil.rmtree(out_dir)
        state, report = result if result is not None else (None, None)
        outcomes.append(Outcome(case.label, seconds, error, state, report, written))
    return outcomes


def curve_digest(outcomes: list[Outcome]) -> str:
    """SHA-256 over every case's U, V, Ud and Vd curves, in case order."""
    h = hashlib.sha256()
    for o in outcomes:
        h.update(o.label.encode())
        if o.state is None:
            h.update(b"<no loading>")
            continue
        res = o.state.loading
        for arr in (res.U, res.V, res.Ud, res.Vd):
            h.update(str(arr.shape).encode())
            h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    return h.hexdigest()


def check(cases: list[Case], outcomes: list[Outcome]) -> list[str]:
    """Everything wrong with one pass's outputs (empty list = correct)."""
    problems = []
    for case, o in zip(cases, outcomes):
        where = case.label
        if o.state is None:
            if o.error is None:
                problems.append(f"{where}: no loading result")
            continue  # a call that raised before loading is counted as failed
        res, report = o.state.loading, o.report
        problems += [f"{where}: {v}" for v in res.conservation_violations()]
        demanded = float(res.demanded.sum())
        if not math.isclose(demanded, case.trips, rel_tol=1e-9, abs_tol=1e-9):
            problems.append(f"{where}: program demanded {demanded} trips, inputs hold {case.trips}")
        balance = float(res.completed.sum() + res.in_network().sum() + res.queued.sum())
        if abs(balance - demanded) > 1e-6 * max(1.0, demanded):
            problems.append(f"{where}: completed + walking + queued = {balance} != {demanded}")
        gaps = report.rel_gaps
        if not gaps or not all(math.isfinite(g) for g in gaps):
            problems.append(f"{where}: non-finite or missing gaps {gaps}")
        elif case.fixed_iterations is not None and len(gaps) != case.fixed_iterations:
            problems.append(f"{where}: {len(gaps)} iterations, expected {case.fixed_iterations}")
        elif report.reason == "gap_below_tol" and gaps[-1] > case.cfg.gap_tol:
            problems.append(f"{where}: stopped at gap {gaps[-1]} above tolerance")
    return problems


def work_link_steps(cases: list[Case], outcomes: list[Outcome]) -> int:
    """links x steps x iterations actually run in one pass."""
    return sum(
        len(c.network.links) * TimeGrid(c.cfg.dt, c.cfg.horizon).n_bins * o.report.iterations
        for c, o in zip(cases, outcomes) if o.report is not None
    )

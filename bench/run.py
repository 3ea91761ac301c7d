#!/usr/bin/env python3
"""pedflow benchmark: end-to-end metrics per workload, per-layer metrics when traced.

Run from the repository root:

    python3 bench/run.py --workload desk_grid50 --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --workload all             # every workload, one child process each

A run repeats passes over the workload until --seconds have elapsed, at least
one pass, each after a full garbage collection; run_s is the median pass, the
first one left out as a warm-up when there are three or more.  Every pass
takes a few seconds, so a run's median rests on several of them.  Before the
first pass and after the last it times a batch of set-ups, with the garbage
collector paused so that a collection the passes left due is not charged to
set-up, and one more set-up before each later pass.  setup_s is the fastest
of them all: on a shared host, pure-Python set-up runs at two speeds about
1.8x apart that alternate every second or so, in shares that drift from
minute to minute, so a median or quartile of set-up times jumps between the
two and the minimum does not.  With --trace 1 the same untraced passes run
first, then traced passes (set-up included) for a third of --seconds give
the per-layer metrics and the tracing overhead.

attempted and failed count each distinct call of the workload once: every
pass repeats the same calls on the same inputs, and a call must raise on
every pass or on none.  At seed 0 the curves must match the digest recorded
in bench/baseline.json.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  The package is imported from src/ next to this directory, never
from an installed copy.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".bench_build" / "runs"
WORKLOAD_NAMES = ("desk_grid50", "crowd_grid20", "presets_rundir")

E2E_UNITS = {"setup_s": "s", "run_s": "s", "link_steps_per_s": "1/s", "peak_rss_mb": "MB"}
SETUP_BATCH = 5  # set-ups per batch, at least
SETUP_BATCH_S = 1.5  # and at least this much timed per batch, to span both speeds of the host


def import_pedflow():
    """Import the package under test from this checkout's src/ only, then the
    benchmark modules that use it; returns (workloads, spans)."""
    sys.path.insert(0, str(ROOT / "src"))
    import pedflow

    origin = Path(pedflow.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise ImportError(f"pedflow imported from {origin}, not from {ROOT / 'src'}")
    sys.path.insert(0, str(HERE))
    import spans
    import workloads

    return workloads, spans


@dataclass
class PassRecord:
    run_s: float
    link_steps: int
    errors: list[str]
    digest: str
    problems: list[str]
    loaded: bool  # at least one call produced a loading to check
    gaps: list[float]
    iterations: int
    unroutable: float
    bytes_written: int


def one_pass(wl, name, cases, tap) -> PassRecord:
    gc.collect()  # so that no pass pays for garbage an earlier one left
    outcomes = wl.run_pass(name, cases, tap, SCRATCH)
    return PassRecord(
        run_s=sum(o.seconds for o in outcomes),
        link_steps=wl.work_link_steps(cases, outcomes),
        errors=[f"{o.label} {o.error}" for o in outcomes if o.error],
        digest=wl.curve_digest(outcomes),
        problems=wl.check(cases, outcomes),
        loaded=any(o.state is not None for o in outcomes),
        gaps=[o.report.rel_gaps[-1] for o in outcomes if o.report is not None and o.report.rel_gaps],
        iterations=sum(o.report.iterations for o in outcomes if o.report is not None),
        unroutable=sum(o.state.loading.unroutable for o in outcomes if o.state is not None),
        bytes_written=sum(o.bytes_written for o in outcomes),
    )


def passes_until(deadline, run_one) -> list[PassRecord]:
    """Repeat run_one until time.perf_counter() reaches deadline."""
    records = []
    while time.perf_counter() < deadline:
        records.append(run_one())
    return records


def timed_set_up(wl, name, seed, smoke, times):
    """Build the workload's inputs once, timing it into times."""
    gc.disable()
    try:
        started = time.perf_counter()
        cases = wl.set_up(name, seed, smoke)
        times.append(time.perf_counter() - started)
    finally:
        gc.enable()
    return cases


def setup_batch(wl, name, seed, smoke, times):
    """Time one batch of set-ups into times; returns the inputs built last."""
    cases, timed = None, []
    while len(timed) < SETUP_BATCH or sum(timed) < SETUP_BATCH_S:
        cases = None  # let the previous inputs go before building the next
        cases = timed_set_up(wl, name, seed, smoke, timed)
    times += timed
    return cases


def recorded_digest(name, smoke):
    """The curve digest recorded for the workload at seed 0 and the given size."""
    with open(HERE / "baseline.json") as fh:
        recorded = json.load(fh)["workloads"][name]
    return recorded["smoke_default_seed_digest" if smoke else "default_seed_digest"]


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False):
    """Run one workload; returns (human-readable lines, result object)."""
    wl, spans = import_pedflow()
    SCRATCH.mkdir(parents=True, exist_ok=True)
    setup_times = []
    cases = setup_batch(wl, name, seed, smoke, setup_times)
    with wl.ResultTap() as tap:
        started = time.perf_counter()
        records = [one_pass(wl, name, cases, tap)]
        # after set-up and one pass, so it does not grow with the number of passes
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        def untraced_pass():
            timed_set_up(wl, name, seed, smoke, setup_times)  # one more sample, later in the run
            return one_pass(wl, name, cases, tap)
        records += passes_until(started + seconds, untraced_pass)
        setup_batch(wl, name, seed, smoke, setup_times)
        traced, tracer = [], spans.Tracer()
        if trace:
            def traced_pass():
                with tracer:
                    return one_pass(wl, name, wl.set_up(name, seed, smoke), tap)
            started = time.perf_counter()
            traced = [traced_pass()]
            traced += passes_until(started + seconds / 3, traced_pass)

    setup_s = min(setup_times)
    timed = records[1:] if len(records) >= 3 else records
    run_s = statistics.median(r.run_s for r in timed)
    first = records[0]
    everything = records + traced
    digests = {r.digest for r in everything}
    problems = [p for r in everything for p in r.problems]
    if len(digests) > 1:
        problems.append(f"curves differ between passes ({len(digests)} distinct digests)")
    if not all(r.loaded for r in everything):
        problems.append("a pass produced no loading to check")
    if len({tuple(r.errors) for r in everything}) > 1:
        problems.append("the calls that raise differ between passes")
    same_as_recorded = seed != 0 or first.digest == recorded_digest(name, smoke)
    if not same_as_recorded:
        problems.append("curves differ from the recorded default-seed digest (bench/baseline.json)")
    # each distinct call counts once, so the counts depend on the seed, not
    # on how many passes fit in --seconds
    attempted = len(cases)
    failed = len(first.errors)

    lines = [
        f"workload {name}: seed {seed}{' (nominal demand)' if seed == 0 else ''}, "
        f"{len(cases)} call(s) per pass, {len(records)} untraced pass(es)"
        + (f", {len(traced)} traced pass(es)" if trace else "") + (", smoke size" if smoke else ""),
        f"  setup_s          {setup_s:.6f} s      fastest of {len(setup_times)} set-ups",
        f"  run_s            {run_s:.6f} s      median of {len(timed)} pass(es)",
        f"  link_steps_per_s {first.link_steps / run_s:.1f} 1/s",
        f"  peak_rss_mb      {peak_rss_mb:.1f} MB     set-up and first pass, this process only",
        f"  final_rel_gap    {max(first.gaps, default=float('nan')):.6g} 1"
        + ("       max over calls" if len(cases) > 1 else ""),
        f"  iterations       {first.iterations} count" + ("   summed over calls" if len(cases) > 1 else ""),
        f"  error_rate       {failed / attempted:.4f} failed/attempted ({failed}/{attempted} distinct calls)"
        + (f" raised: {', '.join(first.errors)}" if first.errors else ""),
        f"  curve digest     {first.digest}",
    ]
    if seed == 0:
        lines.append("                   " + ("matches" if same_as_recorded else "DIFFERS from")
                     + " the recorded default-seed digest (bench/baseline.json)")
    lines.append(f"  correct          {not problems}")
    lines += [f"  problem: {p}" for p in problems[:20]]

    if trace:
        overhead = statistics.median(r.run_s for r in traced) - run_s
        layers = tracer.layer_metrics(
            calls=len(traced), unroutable=traced[0].unroutable,
            bytes_written=traced[0].bytes_written, overhead_s=overhead,
        )
        lines.append(f"  per layer, per pass ({len(tracer)} spans over {len(traced)} traced pass(es)):")
        lines += [f"    {k:32s} {layers[k]:.6g} {u}" for k, u in spans.LAYER_UNITS.items()]
        lines.append("    (loading.unroutable is person-steps: the loader adds the stuck mass "
                     "again on every step)")
        metrics = {k: {"value": layers[k], "unit": u} for k, u in spans.LAYER_UNITS.items()}
    else:
        values = {"setup_s": setup_s, "run_s": run_s, "link_steps_per_s": first.link_steps / run_s,
                  "peak_rss_mb": peak_rss_mb}
        metrics = {k: {"value": values[k], "unit": u} for k, u in E2E_UNITS.items()}
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    return lines, result


def run_all(args) -> int:
    """Each workload in its own child process, so each peak_rss_mb is its own."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        out = child.stdout.rstrip("\n").split("\n")
        print("\n".join(out[:-1]), flush=True)
        if child.returncode != 0:
            print(f"workload {name} exited with code {child.returncode}", file=sys.stderr)
            return child.returncode
        result = json.loads(out[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0, help="0 = nominal demand")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.workload == "all":
        return run_all(args)
    try:
        lines, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as exc:
        print(f"cannot import the package under test: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

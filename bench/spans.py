"""Span tracing around pedflow's module boundaries, from outside the package.

`Tracer.install()` replaces the module attributes listed in `TARGETS` with
wrappers that record one span per call: the target's name, start, end and the
span that was open when it was called.  Spans stay in memory (compact arrays)
until `layer_metrics` reads them at the end of the run.  `restore()` puts
every original attribute back; untraced runs execute with none of the
wrappers in place.

A wrapper only sees calls that go through the attribute it replaced, so the
targets name each attribute at the place its callers look it up: e.g.
`pedflow.loading.solve_node`, because `loading` imported `solve_node` by name,
but `pedflow.ltm.interp_at`, because callers reach it through the module.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np

from pedflow import assignment, engine, fd, loading, ltm, network, nodemodel, pvdf

# (owner, attribute, span name)
TARGETS = (
    (assignment, "run_due", "assignment.run_due"),
    (engine, "run_due", "assignment.run_due"),
    (assignment, "shortest_paths", "assignment.shortest_paths"),
    (assignment, "update_flows", "assignment.update_flows"),
    (assignment, "relative_gap", "assignment.relative_gap"),
    (assignment, "load_network", "loading.load_network"),
    (assignment, "paths_to_turning_fractions", "nodemodel.paths_to_turning_fractions"),
    (assignment, "costs_from_loading", "pvdf.costs_from_loading"),
    (assignment, "enumerate_paths", "network.enumerate_paths"),
    (pvdf, "instantaneous_route_time", "pvdf.instantaneous_route_time"),
    (loading, "solve_node", "nodemodel.solve_node"),
    (nodemodel.TurningFractions, "fractions", "nodemodel.TurningFractions.fractions"),
    (ltm, "sending_flows_at", "ltm.sending_flows_at"),
    (ltm, "receiving_flows_at", "ltm.receiving_flows_at"),
    (ltm, "interp_at", "ltm.interp_at"),
    (ltm, "split_by_entry_order", "ltm.split_by_entry_order"),
    (fd, "effective_speed_profile", "fd.effective_speed_profile"),
    (engine, "effective_speed_profile", "fd.effective_speed_profile"),
    (engine, "run_scenario", "engine.run_scenario"),
    (network, "validate_network", "network.validate_network"),
    (network, "validate_time_grid", "network.validate_time_grid"),
    (network, "validate_demand", "network.validate_demand"),
    (engine, "validate_network", "network.validate_network"),
    (engine, "validate_time_grid", "network.validate_time_grid"),
    (engine, "validate_demand", "network.validate_demand"),
)

KERNELS = ("ltm.sending_flows_at", "ltm.receiving_flows_at", "ltm.interp_at")
VALIDATORS = ("network.validate_network", "network.validate_time_grid", "network.validate_demand")

# Metrics a traced run reports: name -> unit.  Some read 0 on a workload
# that lacks the layer (engine.write_s and engine.bytes_written on
# desk_grid50, which calls run_due directly; network.enumerate_s where
# enumerate_paths is off; nodemodel.clamps where no node is congested).
LAYER_UNITS = {
    "assignment.trees_s": "s",
    "assignment.trees_calls": "count",
    "assignment.self_s": "s",
    "assignment.update_s": "s",
    "assignment.gap_s": "s",
    "loading.load_s": "s",
    "loading.self_s": "s",
    "loading.node_problems_per_step": "1/step",
    "loading.unroutable": "person-steps",
    "nodemodel.solve_s": "s",
    "nodemodel.solve_calls": "count",
    "nodemodel.uncongested_share": "share",
    "nodemodel.clamps": "count",
    "nodemodel.fractions_build_s": "s",
    "nodemodel.lookup_s": "s",
    "nodemodel.lookup_calls": "count",
    "ltm.kernels_s": "s",
    "ltm.interp_calls": "count",
    "ltm.fifo_split_s": "s",
    "ltm.fifo_split_calls": "count",
    "fd.speed_s": "s",
    "pvdf.cost_s": "s",
    "pvdf.route_time_s": "s",
    "pvdf.route_time_calls": "count",
    "network.validate_s": "s",
    "network.enumerate_s": "s",
    "engine.write_s": "s",
    "engine.bytes_written": "bytes",
    "trace.overhead_s": "s",
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        # results of selected calls, read by layer_metrics
        self.node_solutions = 0
        self.uncongested = 0
        self.clamps = 0
        self.load_steps = 0

    def __len__(self) -> int:
        return len(self.start)

    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer already installed")
        observers = {"nodemodel.solve_node": self._observe_solution,
                     "loading.load_network": self._observe_loading}
        for owner, attr, name in TARGETS:
            original = owner.__dict__[attr]
            setattr(owner, attr, self._wrap(original, name, observers.get(name)))
            self._patches.append((owner, attr, original))
        return self

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()

    def _wrap(self, original, name, observe):
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        stack, ids, parents, starts, ends = self._stack, self.name_id, self.parent, self.start, self.end
        clock = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = len(starts)
            ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(result)
            return result

        traced.bench_span = name
        return traced

    def _observe_solution(self, sol) -> None:
        self.node_solutions += 1
        self.uncongested += bool((sol.reductions == 1.0).all())
        self.clamps += len(sol.clamped)

    def _observe_loading(self, result) -> None:
        self.load_steps += result.grid.n_bins

    def layer_metrics(self, calls: int, unroutable: float, bytes_written: float,
                      overhead_s: float) -> dict[str, float]:
        """Per-layer figures per workload call, from the recorded spans.

        unroutable and bytes_written are per-call figures the caller read
        off the outputs; overhead_s is traced minus untraced run_s.
        """
        ids = np.frombuffer(self.name_id, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0], minlength=len(dur))
        parent_id = np.where(parent >= 0, ids[np.maximum(parent, 0)], -1)

        def mask(*names):
            wanted = [self._name_ids[n] for n in names if n in self._name_ids]
            return np.isin(ids, wanted)

        def total(*names):
            return float(dur[mask(*names)].sum())

        def count(*names):
            return int(mask(*names).sum())

        def self_time(name):
            m = mask(name)
            return float((dur[m] - child[m]).sum())

        kernel = mask(*KERNELS)
        kernel_parent = np.isin(parent_id, [self._name_ids[n] for n in KERNELS if n in self._name_ids])
        scenario = mask("engine.run_scenario")
        under_scenario = np.isin(parent, np.where(scenario)[0]) & mask("assignment.run_due", *VALIDATORS)
        solves = count("nodemodel.solve_node")
        per_call = {
            "assignment.trees_s": total("assignment.shortest_paths"),
            "assignment.trees_calls": count("assignment.shortest_paths"),
            "assignment.self_s": self_time("assignment.run_due"),
            "assignment.update_s": total("assignment.update_flows"),
            "assignment.gap_s": total("assignment.relative_gap"),
            "loading.load_s": total("loading.load_network"),
            "loading.self_s": self_time("loading.load_network"),
            "nodemodel.solve_s": total("nodemodel.solve_node"),
            "nodemodel.solve_calls": solves,
            "nodemodel.clamps": self.clamps,
            "nodemodel.fractions_build_s": total("nodemodel.paths_to_turning_fractions"),
            "nodemodel.lookup_s": total("nodemodel.TurningFractions.fractions"),
            "nodemodel.lookup_calls": count("nodemodel.TurningFractions.fractions"),
            "ltm.kernels_s": float(dur[kernel & ~kernel_parent].sum()),
            "ltm.interp_calls": count("ltm.interp_at"),
            "ltm.fifo_split_s": total("ltm.split_by_entry_order"),
            "ltm.fifo_split_calls": count("ltm.split_by_entry_order"),
            "fd.speed_s": total("fd.effective_speed_profile"),
            "pvdf.cost_s": total("pvdf.costs_from_loading"),
            "pvdf.route_time_s": total("pvdf.instantaneous_route_time"),
            "pvdf.route_time_calls": count("pvdf.instantaneous_route_time"),
            "network.validate_s": total(*VALIDATORS),
            "network.enumerate_s": total("network.enumerate_paths"),
            "engine.write_s": float(dur[scenario].sum() - dur[under_scenario].sum()),
        }
        values = {name: v / calls for name, v in per_call.items()}
        values["loading.node_problems_per_step"] = solves / self.load_steps if self.load_steps else 0.0
        values["nodemodel.uncongested_share"] = (
            self.uncongested / self.node_solutions if self.node_solutions else 1.0)
        values["loading.unroutable"] = unroutable
        values["engine.bytes_written"] = bytes_written
        values["trace.overhead_s"] = overhead_s
        return values

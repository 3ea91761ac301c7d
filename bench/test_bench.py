"""Self-test of the benchmark at reduced size: python -m pytest bench/test_bench.py"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _units(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_emits_every_metric_with_its_unit(workload, trace):
    lines, result = run.run_workload(workload, seed=3, seconds=0, trace=trace, smoke=True)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], lines
    calls = len(run.import_pedflow()[0].set_up(workload, 3, smoke=True))
    assert result["attempted"] == calls, "each distinct call counts once, however many passes ran"
    assert 0 <= result["failed"] <= result["attempted"]
    expected = _units("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        assert any(line.split()[:1] == [name] for line in lines), f"{name} not printed"
    json.dumps(result)


@pytest.mark.parametrize("recorded, correct", [(None, True), ("0" * 64, False)])
def test_default_seed_curves_are_checked_against_the_recorded_digest(monkeypatch, recorded, correct):
    if recorded is not None:
        monkeypatch.setattr(run, "recorded_digest", lambda name, smoke: recorded)
    lines, result = run.run_workload("presets_rundir", seed=0, seconds=0, trace=False, smoke=True)
    assert result["correct"] is correct, lines


def test_no_wrapper_leaks_into_untraced_runs():
    wl, spans = run.import_pedflow()
    originals = [owner.__dict__[attr] for owner, attr, _ in spans.TARGETS]
    tracer = spans.Tracer()
    cases = wl.set_up("presets_rundir", 0, smoke=True)[:1]
    with wl.ResultTap() as tap:
        with tracer:
            assert all(hasattr(owner.__dict__[attr], "bench_span") for owner, attr, _ in spans.TARGETS)
            traced = run.one_pass(wl, "presets_rundir", cases, tap)
        recorded = len(tracer)
        untraced = run.one_pass(wl, "presets_rundir", cases, tap)
    assert recorded > 0
    assert len(tracer) == recorded, "spans were recorded after the tracer was restored"
    assert [owner.__dict__[attr] for owner, attr, _ in spans.TARGETS] == originals
    assert traced.digest == untraced.digest


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    child = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload", "presets_rundir",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert child.returncode != 0
    assert '"metrics"' not in child.stdout

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pedflow
from pedflow.cli import EXIT_INVALID, EXIT_OK, main


@pytest.fixture()
def grid_dir(tmp_path):
    out = tmp_path / "scn"
    assert main(["scenario", "grid", "--preset", "1", "--out", str(out)]) == EXIT_OK
    return out


class TestScenarioAndValidate:
    def test_scenario_writes_inputs(self, grid_dir):
        for name in ("network.net", "demand.dem", "config.cfg"):
            assert (grid_dir / name).exists()

    def test_validate_accepts_generated_scenario(self, grid_dir, capsys):
        code = main(["validate", str(grid_dir / "network.net"), str(grid_dir / "demand.dem")])
        assert code == EXIT_OK
        assert "ok: 9 nodes, 24 links" in capsys.readouterr().out

    def test_validate_flags_broken_pairing(self, grid_dir, capsys):
        net_file = grid_dir / "network.net"
        lines = net_file.read_text().splitlines()
        # corrupt one link record's length so its pair no longer matches
        for i, line in enumerate(lines):
            if line.startswith("link,1,"):
                parts = line.split(",")
                parts[4] = "9.9"
                lines[i] = ",".join(parts)
                break
        net_file.write_text("\n".join(lines) + "\n")
        code = main(["validate", str(net_file), str(grid_dir / "demand.dem")])
        assert code == EXIT_INVALID
        assert "violation" in capsys.readouterr().out

    @pytest.mark.parametrize("speeds, violation", [
        ("-0.5,5.4,0.5", "nonpositive v_f (-0.5)"),
        ("1.5,5.4,-1.5", "nonpositive omega (-1.5)"),
    ])
    def test_validate_lists_speeds_that_sum_to_zero(self, tmp_path, capsys, speeds, violation):
        net = tmp_path / "x.net"
        net.write_text("pedflow-net v1\nnode,1,0,0,origin-centroid\nnode,2,2,0,destination-centroid\n"
                       f"link,1,1,2,2.0,4.0,{speeds},-,-\n")
        dem = tmp_path / "x.dem"
        dem.write_text("pedflow-dem v1\nod,1,2,0,1\n")
        assert main(["validate", str(net), str(dem)]) == EXIT_INVALID
        assert violation in capsys.readouterr().out

    def test_validate_rejects_missing_header(self, tmp_path, capsys):
        bad = tmp_path / "x.net"
        bad.write_text("not a network\n")
        dem = tmp_path / "x.dem"
        dem.write_text("pedflow-dem v1\n")
        assert main(["validate", str(bad), str(dem)]) == EXIT_INVALID


class TestRunAndExport:
    def test_corridor_run_and_time_space_export(self, tmp_path, capsys):
        scn = tmp_path / "scn"
        assert main(["scenario", "corridor", "--preset", "4", "--out", str(scn)]) == EXIT_OK
        run_dir = tmp_path / "run"
        code = main([
            "run", "--net", str(scn / "network.net"), "--dem", str(scn / "demand.dem"),
            "--config", str(scn / "config.cfg"), "--out", str(run_dir),
        ])
        assert code == EXIT_OK
        summary = json.loads((run_dir / "summary.json").read_text())
        assert summary["results"]["iterations"] == 1  # single route, no re-routing needed
        assert main(["export-ts", "--run", str(run_dir), "--path", "1,2,3,4,5,6,7,8,9,10"]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert (run_dir / "ts_density_1-2-3-4-5-6-7-8-9-10.csv").exists()
        assert any("ts_flow" in line for line in out)

    def test_run_with_unstable_step_exits_one(self, tmp_path, capsys):
        scn = tmp_path / "scn"
        main(["scenario", "grid", "--preset", "1", "--out", str(scn)])
        cfg = scn / "config.cfg"
        cfg.write_text(cfg.read_text().replace("time.dt = 1", "time.dt = 2"))
        code = main([
            "run", "--net", str(scn / "network.net"), "--dem", str(scn / "demand.dem"),
            "--config", str(cfg), "--out", str(tmp_path / "run"),
        ])
        assert code == EXIT_INVALID
        assert "stability" in capsys.readouterr().err

    def test_run_with_zero_speeds_exits_one_naming_them(self, tmp_path, capsys):
        scn = tmp_path / "scn"
        main(["scenario", "grid", "--preset", "1", "--out", str(scn)])
        net_file = scn / "network.net"
        lines = net_file.read_text().splitlines()
        for i, line in enumerate(lines):
            if line.startswith("link,1,"):
                parts = line.split(",")
                parts[6] = parts[8] = "0"  # v_f and omega; the capacity stays explicit
                lines[i] = ",".join(parts)
        net_file.write_text("\n".join(lines) + "\n")
        code = main([
            "run", "--net", str(net_file), "--dem", str(scn / "demand.dem"),
            "--config", str(scn / "config.cfg"), "--out", str(tmp_path / "run"),
        ])
        err = capsys.readouterr().err
        assert code == EXIT_INVALID
        assert "link 1: nonpositive v_f (0.0)" in err and "link 1: nonpositive omega (0.0)" in err

    def test_unknown_config_key_exits_one(self, tmp_path, capsys):
        scn = tmp_path / "scn"
        main(["scenario", "grid", "--preset", "1", "--out", str(scn)])
        cfg = scn / "config.cfg"
        cfg.write_text(cfg.read_text() + "no.such.key = 1\n")
        code = main([
            "run", "--net", str(scn / "network.net"), "--dem", str(scn / "demand.dem"),
            "--config", str(cfg), "--out", str(tmp_path / "run"),
        ])
        assert code == EXIT_INVALID

    def test_export_from_bad_node_path_exits_one(self, tmp_path):
        scn = tmp_path / "scn"
        main(["scenario", "corridor", "--preset", "4", "--out", str(scn)])
        run_dir = tmp_path / "run"
        main(["run", "--net", str(scn / "network.net"), "--dem", str(scn / "demand.dem"),
              "--config", str(scn / "config.cfg"), "--out", str(run_dir)])
        assert main(["export-ts", "--run", str(run_dir), "--path", "1,9"]) == EXIT_INVALID


class TestConsoleScript:
    def test_installed_entry_point(self, grid_dir):
        proc = subprocess.run(
            [sys.executable, "-m", "pedflow.cli", "validate",
             str(grid_dir / "network.net"), str(grid_dir / "demand.dem")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "ok:" in proc.stdout

    def test_import_does_not_load_scipy(self):
        # scipy.sparse.csgraph alone adds about 28 MB of resident memory
        src = str(Path(pedflow.__file__).resolve().parents[1])
        code = "import sys, pedflow, pedflow.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from surfband.cli import main, parse_config, run


class TestParseConfig:
    def test_spectrum_flags(self):
        cfg = parse_config(["spectrum", "--surface", "ring", "--R", "1", "--n", "64", "--k", "5"])
        assert cfg.subcommand == "spectrum"
        assert cfg.surface == "ring" and cfg.R == 1.0
        assert cfg.n1 == 64 and cfg.n2 == 64 and cfg.k == 5

    def test_thin_layer_sweep(self):
        cfg = parse_config(["thin-layer", "--surface", "cylinder", "--R", "1",
                            "--l", "1", "--d", "0.1,0.05,0.025"])
        assert cfg.ds() == [0.1, 0.05, 0.025]
        assert cfg.l == 1

    def test_negative_radius_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            parse_config(["spectrum", "--surface", "ring", "--R", "-1"])
        assert exc.value.code == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            parse_config(["spectrum", "--no-such-flag", "1"])
        assert exc.value.code == 2

    def test_gke_needs_decreasing_sweep(self):
        with pytest.raises(SystemExit) as exc:
            parse_config(["gke", "--d", "0.1,0.2,0.3"])
        assert exc.value.code == 2

    def test_config_file_merge_and_override(self, tmp_path):
        cfile = tmp_path / "run.json"
        cfile.write_text(json.dumps({"surface": "cylinder", "R": 2.0, "n1": 24, "n2": 24}))
        cfg = parse_config(["spectrum", "--config", str(cfile), "--R", "3.0"])
        assert cfg.surface == "cylinder"
        assert cfg.R == 3.0  # flag wins
        assert cfg.n1 == 24

    def test_config_file_unknown_keys_rejected(self, tmp_path):
        cfile = tmp_path / "run.json"
        cfile.write_text(json.dumps({"surfaec": "ring"}))
        with pytest.raises(SystemExit) as exc:
            parse_config(["spectrum", "--config", str(cfile)])
        assert exc.value.code == 2


class TestRun:
    def test_gke_prints_shift(self, tmp_path, capsys):
        cfg = parse_config(["gke", "--surface", "cylinder", "--R", "1",
                            "--output", str(tmp_path / "r.json")])
        assert run(cfg) == 0
        assert capsys.readouterr().out.strip() == "-0.125"

    def test_hermiticity_prints_both_diagnostics(self, tmp_path, capsys):
        cfg = parse_config(["hermiticity", "--surface", "cylinder", "--R", "1",
                            "--n", "12", "--variant", "pragmatic", "--field", "ab-flux",
                            "--A-r", "1", "--output", str(tmp_path / "h.json")])
        assert run(cfg) == 0
        out = capsys.readouterr().out
        assert "antihermitian_max = 0.5" in out
        assert "hermiticity_residual = 1" in out

    def test_gauge_check_constant_lambda(self, tmp_path, capsys):
        cfg = parse_config(["gauge-check", "--surface", "ring", "--n1", "32",
                            "--lam", "const", "--output", str(tmp_path / "g.json")])
        assert run(cfg) == 0
        report = json.loads((tmp_path / "g.json").read_text())
        assert report["diagnostics"]["gauge_residual"] <= 1e-12

    def test_spectrum_report_schema(self, tmp_path):
        out = tmp_path / "s.json"
        cfg = parse_config(["spectrum", "--surface", "ring", "--R", "1", "--n1", "64",
                            "--k", "3", "--output", str(out)])
        assert run(cfg) == 0
        rep = json.loads(out.read_text())
        assert set(rep) == {"config", "eigenvalues", "hermiticity_residual", "diagnostics"}
        assert rep["config"]["subcommand"] == "spectrum"
        assert len(rep["eigenvalues"]) == 3
        assert rep["eigenvalues"][0][0] == pytest.approx(-0.125, abs=1e-12)
        assert rep["eigenvalues"][0][1] == 0.0

    def test_report_embeds_full_config(self, tmp_path):
        out = tmp_path / "s.json"
        run(parse_config(["spectrum", "--surface", "ring", "--n1", "16",
                          "--output", str(out)]))
        rep = json.loads(out.read_text())
        for key in ("surface", "R", "L", "n1", "n2", "k", "format", "coupling"):
            assert key in rep["config"]

    def test_csv_spectrum_format(self, tmp_path):
        out = tmp_path / "s.csv"
        run(parse_config(["spectrum", "--surface", "ring", "--n1", "16", "--k", "2",
                          "--format", "csv", "--output", str(out)]))
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "index,Re(E),Im(E)"
        idx, re, im = lines[1].split(",")
        assert idx == "0" and float(re) == pytest.approx(-0.125) and float(im) == 0.0

    def test_thin_layer_csv_table(self, tmp_path):
        out = tmp_path / "t.csv"
        run(parse_config(["thin-layer", "--surface", "cylinder", "--R", "1", "--l", "0",
                          "--d", "0.1,0.05", "--format", "csv", "--output", str(out)]))
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "d,l,E_raw,E_box,E_surface,shift"
        assert len(lines) == 3

    def test_solver_failure_exit_1(self, tmp_path, capsys):
        # d >= 2R collapses the shell: reported on stderr with exit 1
        cfg = parse_config(["thin-layer", "--surface", "cylinder", "--R", "0.04",
                            "--d", "0.1,0.05", "--output", str(tmp_path / "x.json")])
        assert run(cfg) == 1
        assert "collapses" in capsys.readouterr().err

    def test_thread_cap_env_var_keeps_output(self, tmp_path, monkeypatch):
        args = ["thin-layer", "--surface", "cylinder", "--R", "1", "--l", "1",
                "--d", "0.1,0.05,0.025"]
        out_a, out_b = tmp_path / "serial.json", tmp_path / "pool.json"
        monkeypatch.setenv("SURFBAND_THREADS", "1")
        run(parse_config(args + ["--output", str(out_a)]))
        monkeypatch.setenv("SURFBAND_THREADS", "4")
        run(parse_config(args + ["--output", str(out_b)]))
        a = json.loads(out_a.read_text())["diagnostics"]["table"]
        b = json.loads(out_b.read_text())["diagnostics"]["table"]
        assert a == b

    def test_exact_extrapolation_report_is_valid_json(self, tmp_path):
        # l = 0 on the sphere is a flat box: every surface energy is exactly 0,
        # so no convergence order can be measured (NaN inside the library)
        out = tmp_path / "g.json"
        assert run(parse_config(["gke", "--surface", "sphere", "--l", "0",
                                 "--d", "0.08,0.04,0.02,0.01", "--output", str(out)])) == 0
        rep = json.loads(out.read_text())
        assert rep["diagnostics"]["empirical_order"] is None
        assert rep["diagnostics"]["limit"] == 0.0

    def test_spectrum_reports_solver(self, tmp_path):
        out = tmp_path / "s.json"
        run(parse_config(["spectrum", "--surface", "ring", "--n1", "16", "--k", "2",
                          "--output", str(out)]))
        assert json.loads(out.read_text())["diagnostics"]["solver"] == "dense-eigh"

    def test_no_temp_files_left(self, tmp_path):
        out = tmp_path / "r.json"
        run(parse_config(["gke", "--surface", "sphere", "--output", str(out)]))
        leftovers = [f for f in os.listdir(tmp_path) if f.startswith(".surfband-")]
        assert leftovers == []
        assert out.exists()


class TestDeterminism:
    def test_identical_configs_identical_bytes(self, tmp_path):
        path = tmp_path / "report.json"
        args = ["spectrum", "--surface", "cylinder", "--R", "1", "--n", "16",
                "--field", "uniform-axial", "--B", "1", "--k", "8",
                "--output", str(path)]
        outs = []
        for _ in range(2):
            assert main(list(args)) == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_seventeen_digit_floats(self, tmp_path):
        out = tmp_path / "s.json"
        run(parse_config(["spectrum", "--surface", "ring", "--n1", "32", "--k", "2",
                          "--output", str(out)]))
        text = out.read_text()
        # round-trip: parse and re-format reproduces the text values
        rep = json.loads(text)
        val = rep["eigenvalues"][1][0]
        assert f"{val:.17g}" in text


def test_cli_import_leaves_scipy_unloaded():
    # scipy is imported by the functions that need it, never at import time
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys, surfband.cli; "
            "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert out.stdout.strip() == "[]"

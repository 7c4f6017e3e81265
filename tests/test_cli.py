import errno
import io
import json
import os
import stat
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from surfband.cli import main, parse_config, run


def _exit_code(argv, tmp_path):
    """main's exit code, whether parse_config exits with it or run returns it."""
    try:
        return main([*argv, "--output", str(tmp_path / "r.json")])
    except SystemExit as exc:
        return exc.code


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

    def test_negative_radius_exits_2(self, tmp_path):
        assert main(["spectrum", "--surface", "ring", "--R", "-1",
                     "--output", str(tmp_path / "r.json")]) == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            parse_config(["spectrum", "--no-such-flag", "1"])
        assert exc.value.code == 2

    def test_gke_needs_decreasing_sweep(self, tmp_path):
        assert main(["gke", "--d", "0.1,0.2,0.3", "--output", str(tmp_path / "r.json")]) == 2

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

    @pytest.mark.parametrize("content", [{"n1": "abc"}, [], {"surface": "torus"},
                                         {"spin": "false"}, {"R": float("nan")},
                                         {"R": 10**400}])
    def test_bad_config_file_exits_2(self, tmp_path, content):
        cfile = tmp_path / "run.json"
        cfile.write_text(json.dumps(content))
        with pytest.raises(SystemExit) as exc:
            parse_config(["spectrum", "--config", str(cfile)])
        assert exc.value.code == 2

    @pytest.mark.parametrize("content", [None, "{\"R\": 2"], ids=["missing", "not-json"])
    def test_unreadable_config_file_exits_2(self, tmp_path, capsys, content):
        cfile = tmp_path / "run.json"
        if content is not None:
            cfile.write_text(content)
        with pytest.raises(SystemExit) as exc:
            parse_config(["spectrum", "--config", str(cfile)])
        assert exc.value.code == 2
        assert f"--config: cannot read {cfile}" in capsys.readouterr().err

    def test_config_file_int_accepted_for_float(self, tmp_path):
        cfile = tmp_path / "run.json"
        cfile.write_text(json.dumps({"R": 2, "spin": True, "output": None}))
        cfg = parse_config(["spectrum", "--config", str(cfile)])
        assert cfg.R == 2 and cfg.spin is True

    @pytest.mark.parametrize("flags", [["--R", "nan"], ["--d", "0.1,inf"], ["--d", "0.1,abc"]])
    def test_non_finite_flag_exits_2(self, flags, tmp_path):
        # the CLI checks the floats it parses; the shell rejects a width d = inf
        assert _exit_code(["thin-layer", *flags], tmp_path) == 2

    @pytest.mark.parametrize("argv", [["thin-layer", "--n-levels", "0"],
                                      ["thin-layer", "--n-levels", "300"],
                                      ["gke", "--n-levels", "3"]])
    def test_n_levels_outside_thin_layer_range_exits_2(self, argv, tmp_path):
        # thin-layer takes 1..n_r levels; gke reports one limit and has no such flag
        assert _exit_code(argv, tmp_path) == 2

    def test_consecutive_parses_are_independent(self, tmp_path):
        # the parser is built once per process and shared by every call
        first = parse_config(["thin-layer", "--surface", "sphere", "--l", "2", "--n-levels", "3"])
        second = parse_config(["gke", "--R", "2"])
        third = parse_config(["spectrum", "--n", "12", "--k", "4"])
        assert (first.subcommand, first.surface, first.l, first.n_levels) == ("thin-layer", "sphere", 2, 3)
        assert (second.subcommand, second.surface, second.R, second.l, second.n_levels) == \
            ("gke", "ring", 2.0, 0, 1)
        assert (third.subcommand, third.n1, third.n2, third.k, third.R) == ("spectrum", 12, 12, 4, 1.0)
        cfile = tmp_path / "bad.json"
        cfile.write_text(json.dumps({"n1": "abc"}))
        with pytest.raises(SystemExit) as exc:
            parse_config(["spectrum", "--config", str(cfile)])
        assert exc.value.code == 2
        assert parse_config(["spectrum"]) == parse_config(["spectrum"])


# flags that thin-layer, gke and gauge-check do not read, and so do not take
_GRID_FLAGS = ("--L", "--n", "--n1", "--n2", "--order", "--coupling", "--spin", "--field",
               "--B", "--phi", "--charge", "--A-r", "--dA-r-dr")
REMOVED = ([("thin-layer", f) for f in _GRID_FLAGS] + [("gke", f) for f in _GRID_FLAGS]
           + [("gauge-check", "--A-r"), ("gauge-check", "--dA-r-dr"), ("gauge-check", "--order")])
# a value for each kept flag and the RunConfig field it sets
KEPT = {"--surface": ("sphere", "surface", "sphere"), "--R": ("2.5", "R", 2.5),
        "--L": ("1.5", "L", 1.5), "--n": ("7", "n1", 7), "--n1": ("7", "n1", 7),
        "--n2": ("9", "n2", 9), "--order": ("4", "order", 4),
        "--coupling": ("expanded", "coupling", "expanded"),
        "--variant": ("pragmatic", "variant", "pragmatic"), "--spin": (None, "spin", True),
        "--field": ("ab-flux", "field", "ab-flux"), "--B": ("2.5", "B", 2.5),
        "--phi": ("0.5", "phi", 0.5), "--A-r": ("0.5", "a_r", 0.5),
        "--dA-r-dr": ("0.5", "da_r_dr", 0.5), "--k": ("7", "k", 7),
        "--lam": ("sin-theta", "lam", "sin-theta"), "--lam-amp": ("0.5", "lam_amp", 0.5),
        "--resampled": (None, "exact_gauge", False),
        "--d": ("0.2,0.1,0.05", "d_list", "0.2,0.1,0.05"), "--l": ("3", "l", 3),
        "--n-r": ("300", "n_r", 300), "--n-levels": ("2", "n_levels", 2),
        "--hbar": ("2.5", "hbar", 2.5), "--mass": ("2.5", "mass", 2.5),
        "--charge": ("2.5", "charge", 2.5), "--output": ("x.json", "output", "x.json"),
        "--format": ("csv", "format", "csv")}
SUBCOMMAND_FLAGS = {
    "spectrum": set(KEPT) - {"--lam", "--lam-amp", "--resampled", "--d", "--l", "--n-r",
                             "--n-levels"},
    "hermiticity": set(KEPT) - {"--k", "--lam", "--lam-amp", "--resampled", "--d", "--l",
                                "--n-r", "--n-levels"},
    "gauge-check": set(KEPT) - {"--order", "--variant", "--A-r", "--dA-r-dr", "--d", "--l",
                                "--n-r", "--n-levels"},
    "thin-layer": {"--surface", "--R", "--hbar", "--mass", "--output", "--format", "--d", "--l",
                   "--n-r", "--n-levels"},
    "gke": {"--surface", "--R", "--hbar", "--mass", "--output", "--format", "--d", "--l", "--n-r"},
}


class TestFlagTable:
    @pytest.mark.parametrize("subcommand, flag", REMOVED)
    def test_flag_a_subcommand_does_not_read_exits_2(self, subcommand, flag):
        value = [] if flag == "--spin" else ["3"]
        with pytest.raises(SystemExit) as exc:
            parse_config([subcommand, flag, *value])
        assert exc.value.code == 2

    @pytest.mark.parametrize("subcommand, flag", [(s, f) for s, flags in SUBCOMMAND_FLAGS.items()
                                                  for f in sorted(flags)])
    def test_kept_flag_sets_its_key(self, subcommand, flag):
        value, key, expected = KEPT[flag]
        cfg = parse_config([subcommand, flag, *([] if value is None else [value])])
        assert getattr(cfg, key) == expected
        if flag == "--n":
            assert cfg.n2 == 7

    @pytest.mark.parametrize("argv", [["gke", "--n", "64"], ["thin-layer", "--n-l", "2"],
                                      ["spectrum", "--va", "pragmatic"]])
    def test_abbreviated_flag_exits_2(self, argv):
        # a prefix of a flag is not that flag: --n is not --n-r, --va not --variant
        with pytest.raises(SystemExit) as exc:
            parse_config(argv)
        assert exc.value.code == 2

    def test_option_count(self):
        from surfband.cli import _build_parser

        sub = next(a for a in _build_parser()._actions if a.choices and "gke" in a.choices)
        options = {name: {o for a in sp._actions for o in a.option_strings} - {"-h", "--help"}
                   for name, sp in sub.choices.items()}
        assert options == {name: flags | {"--config"} for name, flags in SUBCOMMAND_FLAGS.items()}
        assert sum(map(len, options.values())) == 85

    @pytest.mark.parametrize("subcommand", ["thin-layer", "gke"])
    def test_spectrum_config_block_is_accepted(self, tmp_path, subcommand):
        # a report's config block names every key, read by its subcommand or not
        report = tmp_path / "s.json"
        assert main(["spectrum", "--surface", "cylinder", "--n", "8", "--k", "2", "--spin",
                     "--field", "uniform-axial", "--B", "2", "--output", str(report)]) == 0
        cfile = tmp_path / "c.json"
        cfile.write_text(json.dumps(json.loads(report.read_text())["config"]))
        cfg = parse_config([subcommand, "--config", str(cfile),
                            "--output", str(tmp_path / "t.json")])
        assert (cfg.subcommand, cfg.surface, cfg.n1, cfg.B) == (subcommand, "cylinder", 8, 2.0)
        assert run(cfg) == 0


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
        assert report["diagnostics"]["max_eigenvalue_shift_relative"] <= 1e-12

    def test_gauge_check_ignores_a_config_a_r(self, tmp_path):
        # the correct operator never reads A_r, so a config file's a_r changes nothing
        reports = []
        for extra in ({}, {"a_r": 1.0, "da_r_dr": 0.5}):
            cfile = tmp_path / "c.json"
            cfile.write_text(json.dumps({"surface": "cylinder", "n1": 8, "n2": 8, **extra}))
            out = tmp_path / f"g{len(reports)}.json"
            assert main(["gauge-check", "--config", str(cfile), "--output", str(out)]) == 0
            reports.append(json.loads(out.read_text()))
        assert reports[0]["diagnostics"] == reports[1]["diagnostics"]
        assert "field=UniformAxial" in reports[1]["diagnostics"]["operator_label"]

    def test_gauge_check_ignores_a_config_order(self, tmp_path):
        # gauge-check always has a field, and field operators are order 2 only
        cfile = tmp_path / "c.json"
        cfile.write_text(json.dumps({"surface": "sphere", "n1": 8, "n2": 8, "order": 4}))
        assert main(["gauge-check", "--config", str(cfile),
                     "--output", str(tmp_path / "g.json")]) == 0

    @pytest.mark.parametrize("subcommand", ["thin-layer", "gke"])
    @pytest.mark.parametrize("extra", [{"n1": 2}, {"k": 0}])
    def test_config_keys_a_subcommand_does_not_read_pass(self, tmp_path, subcommand, extra):
        cfile = tmp_path / "c.json"
        cfile.write_text(json.dumps(extra))
        [(key, value)] = extra.items()
        assert getattr(parse_config([subcommand, "--config", str(cfile)]), key) == value

    @pytest.mark.parametrize("extra", [{"n1": 2}, {"k": 0}])
    def test_config_keys_spectrum_reads_are_checked(self, tmp_path, extra):
        cfile = tmp_path / "c.json"
        cfile.write_text(json.dumps(extra))
        assert main(["spectrum", "--config", str(cfile),
                     "--output", str(tmp_path / "r.json")]) == 2

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

    @pytest.mark.parametrize("argv, keys", [
        (["hermiticity", "--surface", "cylinder", "--n", "8", "--variant", "pragmatic",
          "--field", "ab-flux", "--A-r", "1"], ["antihermitian_max"]),
        (["gauge-check", "--surface", "ring", "--n1", "16", "--lam", "cos-theta"],
         ["gauge_residual", "max_eigenvalue_shift", "max_eigenvalue_shift_relative"]),
        (["gke", "--surface", "sphere", "--l", "0"], ["limit", "empirical_order", "closed_form"]),
    ], ids=["hermiticity", "gauge-check", "gke"])
    def test_key_value_csv_rows_match_the_json_report(self, argv, keys, tmp_path):
        # one row per numeric diagnostic, in report order, then the residual;
        # string diagnostics (operator_label, lambda) have no row
        for fmt in ("json", "csv"):
            out = str(tmp_path / f"r.{fmt}")
            assert run(parse_config([*argv, "--format", fmt, "--output", out])) == 0
        text = (tmp_path / "r.json").read_text()
        report = json.loads(text)
        rows = [line.split(",") for line in (tmp_path / "r.csv").read_text().splitlines()]
        assert rows[0] == ["key", "value"]
        assert [key for key, _ in rows[1:]] == [*keys, "hermiticity_residual"]
        values = {**report["diagnostics"], "hermiticity_residual": report["hermiticity_residual"]}
        for key, value in rows[1:]:
            assert value == ("nan" if values[key] is None else f"{values[key]:.16e}")
        if argv[0] == "gke":  # the sphere's curvature energy is +0, in both formats
            assert ["empirical_order", "nan"] in rows
            assert ["closed_form", "0.0000000000000000e+00"] in rows
            assert '    "closed_form": 0' in text.splitlines()

    def test_resampled_gauge_check_converges_with_the_grid(self, tmp_path):
        # A + grad(lambda) materialized as samples is covariant only to stencil
        # order; attached as exact link increments it is covariant to round-off
        def gauge_residual(n, *flags, lam="sin-theta-z"):
            out = tmp_path / "g.json"
            assert run(parse_config(["gauge-check", "--surface", "cylinder", "--n", str(n),
                                     "--field", "uniform-axial", "--lam", lam,
                                     "--lam-amp", "0.6", "--k", "8", *flags,
                                     "--output", str(out)])) == 0
            return json.loads(out.read_text())["diagnostics"]["gauge_residual"]

        coarse, fine = gauge_residual(16, "--resampled"), gauge_residual(32, "--resampled")
        assert 1e-3 < fine < coarse
        assert gauge_residual(16) <= 1e-10 and gauge_residual(32) <= 1e-10
        # the samples keep their source's B, which no gauge changes: the Zeeman term adds nothing
        spin = [gauge_residual(n, "--resampled", "--spin") for n in (16, 32)]
        np.testing.assert_allclose(spin, [coarse, fine], rtol=1e-10)
        assert gauge_residual(16, "--resampled", "--spin", lam="const") <= 1e-12

    def test_collapsed_shell_exits_2(self, tmp_path, capsys):
        # d >= 2R collapses the shell: an invalid argument, reported on stderr
        cfg = parse_config(["thin-layer", "--surface", "cylinder", "--R", "0.04",
                            "--d", "0.1,0.05", "--output", str(tmp_path / "x.json")])
        assert run(cfg) == 2
        assert "must lie in (0, 2R)" in capsys.readouterr().err

    def test_exact_extrapolation_report_is_valid_json(self, tmp_path):
        # l = 0 on the sphere is a flat box: every surface energy is exactly 0,
        # so no convergence order can be measured (NaN inside the library)
        out = tmp_path / "g.json"
        assert run(parse_config(["gke", "--surface", "sphere", "--l", "0",
                                 "--d", "0.08,0.04,0.02,0.01", "--output", str(out)])) == 0
        rep = json.loads(out.read_text())
        assert rep["diagnostics"]["empirical_order"] is None
        assert rep["diagnostics"]["limit"] == 0.0

    def test_gke_order_at_round_off_is_null(self, tmp_path):
        # default --d: the surface energies are exact up to round-off, so no order is fitted
        out = tmp_path / "g.json"
        assert run(parse_config(["gke", "--surface", "sphere", "--l", "0",
                                 "--output", str(out)])) == 0
        rep = json.loads(out.read_text())
        assert rep["diagnostics"]["empirical_order"] is None
        assert abs(rep["diagnostics"]["limit"]) < 1e-10

    def test_oversized_grid_exits_1_before_allocating(self, tmp_path, capsys):
        import time
        import tracemalloc

        from surfband.discretize import ASSEMBLY_BYTES_PER_NODE, dense_memory_limit

        if dense_memory_limit() >= 20000**2 * ASSEMBLY_BYTES_PER_NODE:
            pytest.skip("enough memory to assemble a 4e8-node grid")
        out = tmp_path / "big.json"
        tracemalloc.start()
        start = time.perf_counter()
        try:
            code = run(parse_config(["spectrum", "--surface", "cylinder", "--n", "20000",
                                     "--k", "4", "--output", str(out)]))
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1 and "limit" in err
        assert not out.exists()
        assert elapsed < 1.0
        assert peak < 2**20  # the node weights alone would be 3.2 GB

    def test_spectrum_reports_solver(self, tmp_path):
        out = tmp_path / "s.json"
        run(parse_config(["spectrum", "--surface", "ring", "--n1", "16", "--k", "2",
                          "--output", str(out)]))
        diagnostics = json.loads(out.read_text())["diagnostics"]
        # every CLI spectrum operator commutes with the azimuthal shift
        assert diagnostics["solver"] == "sector-eigh"
        assert diagnostics["eigen_residual"] <= 1e-12  # the returned pairs are checked

    def test_eigen_residual_of_a_stiff_operator_is_finite(self, tmp_path):
        # max|H| is about 1e302 at R = 1e-150; squaring the unscaled residual overflowed
        out = tmp_path / "s.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(parse_config(["spectrum", "--R", "1e-150", "--output", str(out)])) == 0
        assert json.loads(out.read_text())["diagnostics"]["eigen_residual"] <= 1e-12

    def test_gauge_residual_of_a_stiff_operator_is_finite(self, tmp_path):
        # W-normalized psi near 2e49 against entries near 1.5e200: |H psi|^2 overflowed
        out = tmp_path / "g.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(parse_config(["gauge-check", "--surface", "cylinder", "--R", "1e-100",
                                     "--n", "8", "--spin", "--field", "uniform-axial",
                                     "--lam", "sin-theta-z", "--k", "8",
                                     "--output", str(out)])) == 0
        residual = json.loads(out.read_text())["diagnostics"]["gauge_residual"]
        assert residual is not None and residual <= 1e-12 * 1.5e200  # round-off of max|H|

    def test_pragmatic_spectrum_takes_the_shifted_sector_path(self, tmp_path):
        out = tmp_path / "p.json"
        assert run(parse_config(["spectrum", "--surface", "cylinder", "--n", "32", "--k", "16",
                                 "--variant", "pragmatic", "--field", "ab-flux", "--phi", "0.3",
                                 "--A-r", "0.7", "--dA-r-dr", "0.3", "--output", str(out)])) == 0
        rep = json.loads(out.read_text())
        assert rep["diagnostics"]["solver"] == "shifted-sector-eigh"
        assert rep["diagnostics"]["eigen_residual"] <= 1e-12
        assert {im for _, im in rep["eigenvalues"]} == {0.5 * (0.7 + 0.3)}
        assert [re for re, _ in rep["eigenvalues"]] == sorted(re for re, _ in rep["eigenvalues"])

    def test_field_none_ignores_phi(self, tmp_path):
        # --A-r alone rides on a zero flux: --phi applies only with --field ab-flux
        argv = ["spectrum", "--surface", "cylinder", "--n", "12", "--variant", "pragmatic",
                "--field", "none", "--A-r", "1", "--k", "3"]
        reports = []
        for extra in ([], ["--phi", "0.7"]):
            out = tmp_path / f"r{len(reports)}.json"
            assert run(parse_config([*argv, *extra, "--output", str(out)])) == 0
            reports.append(json.loads(out.read_text()))
        assert reports[0]["eigenvalues"] == reports[1]["eigenvalues"]

    def test_no_temp_files_left(self, tmp_path):
        out = tmp_path / "r.json"
        run(parse_config(["gke", "--surface", "sphere", "--output", str(out)]))
        leftovers = [f for f in os.listdir(tmp_path) if f.startswith(".surfband-")]
        assert leftovers == []
        assert out.exists()

    def test_failed_rename_leaves_no_temp_file(self, tmp_path, monkeypatch, capsys):
        def refuse(src, dst):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr(os, "replace", refuse)
        out = tmp_path / "r.json"
        assert run(parse_config(["gke", "--surface", "sphere", "--output", str(out)])) == 1
        assert "cannot write the report" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_report_without_output_is_written_to_the_working_directory(self, tmp_path,
                                                                        monkeypatch):
        from surfband.cli import _json_text

        monkeypatch.chdir(tmp_path)
        assert main(["spectrum", "--surface", "ring", "--n", "16", "--k", "2"]) == 0
        assert main(["gke", "--surface", "cylinder", "--format", "csv"]) == 0
        assert sorted(os.listdir(tmp_path)) == ["surfband_report.csv", "surfband_report.json"]
        text = (tmp_path / "surfband_report.json").read_text()
        assert '    "output": null,' in text.splitlines()
        (tmp_path / "c.json").write_text(json.dumps(json.loads(text)["config"]))
        cfg = parse_config(["spectrum", "--config", "c.json"])
        assert (cfg.output, cfg.surface, cfg.n1, cfg.k) == (None, "ring", 16, 2)
        assert (tmp_path / "surfband_report.csv").read_text().startswith("key,value\n")
        assert json.loads(_json_text({"config": {}})) == {"config": {}}


class TestReportWrite:
    """A report reaches its path by one rename of a fully written temp file."""

    def _write(self, out, surface="sphere"):
        assert run(parse_config(["gke", "--surface", surface, "--output", str(out)])) == 0
        return out.read_bytes()

    @pytest.mark.skipif(not hasattr(os, "posix_fallocate"), reason="no posix_fallocate")
    def test_blocks_are_reserved_for_exactly_the_report(self, tmp_path, monkeypatch):
        calls, real = [], os.posix_fallocate

        def record(fd, offset, length):
            calls.append((offset, length))
            real(fd, offset, length)

        monkeypatch.setattr(os, "posix_fallocate", record)
        out = tmp_path / "r.json"
        data = self._write(out)
        assert calls == [(0, len(data))]
        assert os.stat(out).st_size == len(data)
        assert b"\0" not in data and data.endswith(b"}\n")
        assert json.loads(data)["config"]["surface"] == "sphere"

    @pytest.mark.parametrize("fallocate", ["missing", "unsupported"])
    def test_same_bytes_without_reserved_blocks(self, tmp_path, monkeypatch, fallocate):
        out = tmp_path / "r.json"
        expected = self._write(out)
        out.unlink()
        if fallocate == "missing":
            monkeypatch.delattr(os, "posix_fallocate", raising=False)
        else:
            def refuse(fd, offset, length):
                raise OSError(errno.EOPNOTSUPP, "Operation not supported")

            monkeypatch.setattr(os, "posix_fallocate", refuse)
        assert self._write(out) == expected
        assert os.listdir(tmp_path) == ["r.json"]

    def test_failed_write_keeps_the_previous_report(self, tmp_path, monkeypatch, capsys):
        from surfband import cli

        out = tmp_path / "r.json"
        before = self._write(out)
        opened = []

        class DiskFull(io.FileIO):
            def write(self, b):
                opened.append(os.path.basename(self.name))
                raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(cli, "open", DiskFull, raising=False)
        assert run(parse_config(["gke", "--surface", "cylinder", "--output", str(out)])) == 1
        assert "cannot write the report" in capsys.readouterr().err
        assert len(opened) == 1 and opened[0].startswith(".surfband-")
        assert out.read_bytes() == before
        assert os.listdir(tmp_path) == ["r.json"]

    def test_rewrite_replaces_the_report_by_rename(self, tmp_path):
        out = tmp_path / "r.json"
        before = self._write(out)
        old = tmp_path / "old.json"
        os.link(out, old)  # a second name for the first report's inode
        after = self._write(out, surface="cylinder")
        assert after != before
        assert os.stat(out).st_ino != os.stat(old).st_ino
        assert old.read_bytes() == before  # never truncated in place

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                             ids=["umask-022", "umask-077"])
    def test_report_mode_follows_the_umask(self, tmp_path, umask, mode):
        out = tmp_path / "r.json"
        out.write_text("{}\n")
        os.chmod(out, 0o644 ^ 0o600 ^ mode)  # the replaced report's mode is not kept
        saved = os.umask(umask)
        try:
            self._write(out)
        finally:
            os.umask(saved)
        assert stat.S_IMODE(os.stat(out).st_mode) == mode


class TestExitCodes:
    """The library checks every input; run maps ValueError to exit 2."""

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--surface", "sphere", "--variant", "pragmatic", "--field", "uniform-axial"],
        ["spectrum", "--surface", "sphere", "--order", "4", "--field", "uniform-axial"],
        ["spectrum", "--surface", "cylinder", "--order", "4"],
        ["spectrum", "--surface", "sphere", "--n1", "8", "--n2", "7", "--order", "4"],
        ["gauge-check", "--surface", "sphere", "--lam", "sin-theta-z"],
        ["thin-layer", "--R", "0.04", "--d", "0.1"],
        ["thin-layer", "--d", ","],
        ["thin-layer", "--hbar", "1e200"],  # hbar^2 overflows a float
        ["gke", "--surface", "sphere", "--l", "-1"],
        ["thin-layer", "--surface", "sphere", "--l", "-2"],
    ])
    def test_invalid_input_exits_2_with_one_error_line(self, argv, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main([*argv, "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("argv, named", [
        (["thin-layer", "--hbar", "1e200"], "hbar=1e+200"),
        (["spectrum", "--R", "1e-200"], "R=1e-200"),
        (["gke", "--l", str(10**300)], "l=1e+300"),
        (["thin-layer", "--d", "5e-324"], "d=4.94e-324"),  # the stencil coupling squared overflows
    ])
    def test_out_of_range_input_is_named(self, argv, named, tmp_path, capsys):
        assert main([*argv, "--output", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert named in err and "outside float range" in err

    def test_output_path_with_a_control_character_round_trips(self, tmp_path):
        out = tmp_path / "tab\there.json"
        assert run(parse_config(["gke", "--output", str(out)])) == 0
        assert json.loads(out.read_text())["config"]["output"] == str(out)

    def test_unwritable_output_exits_1_with_one_error_line(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.json"
        assert main(["spectrum", "--surface", "ring", "--n", "16", "--output", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: cannot write the report to {out}: No such file or directory\n"
        assert captured.out == ""

    def test_L_is_not_read_off_the_cylinder(self, tmp_path):
        assert main(["spectrum", "--surface", "ring", "--L", "-1",
                     "--output", str(tmp_path / "r.json")]) == 0


def _reports_of_two_runs(args, path):
    outs = []
    for _ in range(2):
        assert main(list(args)) == 0
        outs.append(path.read_bytes())
    return outs


class TestDeterminism:
    def test_identical_configs_identical_bytes(self, tmp_path):
        path = tmp_path / "report.json"
        args = ["spectrum", "--surface", "cylinder", "--R", "1", "--n", "16",
                "--field", "uniform-axial", "--B", "1", "--k", "8",
                "--output", str(path)]
        outs = _reports_of_two_runs(args, path)
        assert outs[0] == outs[1]

    def test_shifted_sparse_report_identical_bytes(self, tmp_path):
        # the shifted sector path, and a numeric eigen_residual
        path = tmp_path / "report.json"
        args = ["spectrum", "--surface", "cylinder", "--R", "1", "--n", "32",
                "--variant", "pragmatic", "--field", "ab-flux", "--phi", "0.3",
                "--A-r", "0.7", "--k", "16", "--output", str(path)]
        outs = _reports_of_two_runs(args, path)
        assert outs[0] == outs[1]
        assert json.loads(outs[0])["diagnostics"]["eigen_residual"] is not None

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


@pytest.mark.parametrize("argv", [["thin-layer", "--surface", "cylinder", "--l", "1", "--d", "0.1,0.05"],
                                  ["gke", "--surface", "sphere", "--l", "1"]])
def test_thin_layer_runs_leave_scipy_unloaded(argv, tmp_path):
    # the radial solve is numpy-only: importing scipy.linalg would raise the
    # peak RSS of a thin-layer run by tens of MiB
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys, surfband.cli; "
            f"assert surfband.cli.main({argv + ['--output', str(tmp_path / 'r.json')]!r}) == 0; "
            "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert out.stdout.strip().splitlines()[-1] == "[]"

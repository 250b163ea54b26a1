"""Command-line interface: config parsing, output files, exit codes,
manifest reproducibility."""

import numpy as np
import pytest

from prionpde import cli, parse_config_text
from prionpde.cli import main
from prionpde.errors import BlowUp, ConfigParseError


BASE = """
kernel.family = special
kernel.growth = 1.0
kernel.death = 0.1
kernel.frag = 0.5
kernel.join = 0.2
model.production = 1.0
model.degradation = 0.5
grid.n_cells = 48
grid.ymax = 100.0
solver.dt = 0.01
solver.t_end = 0.1
solver.snapshot_times = 0.05
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestConfigParsing:
    def test_defaults_fill_unset_keys(self):
        cfg = parse_config_text("kernel.join = 0.3\n")
        assert cfg["kernel.join"] == 0.3
        assert cfg["kernel.family"] == "special"
        assert cfg["solver.splitting"] == "strang"
        assert cfg["truncation.levels"] == ()

    def test_comments_and_blank_lines(self):
        cfg = parse_config_text("# header\n\nsolver.dt = 0.5  # trailing\n")
        assert cfg["solver.dt"] == 0.5

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigParseError, match="unknown key"):
            parse_config_text("solver.dtt = 0.1\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigParseError, match="duplicate"):
            parse_config_text("solver.dt = 0.1\nsolver.dt = 0.2\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigParseError, match="bad value"):
            parse_config_text("grid.n_cells = many\n")

    def test_bad_family_rejected(self):
        with pytest.raises(ConfigParseError, match="kernel.family"):
            parse_config_text("kernel.family = mystery\n")

    def test_resolved_text_roundtrip(self):
        cfg = parse_config_text("solver.dt = 0.0071\nkernel.join = 0.13\n")
        again = parse_config_text(cfg.resolved_text())
        assert again.values == cfg.values

    def test_missing_equals_sign(self):
        with pytest.raises(ConfigParseError, match="key = value"):
            parse_config_text("solver.dt 0.1\n")


class TestSimulate:
    def test_happy_path_outputs(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, BASE + f"output.dir = {tmp_path}/out\n")
        assert main(["simulate", "--config", cfg]) == 0
        out = tmp_path / "out"
        assert (out / "timeseries.csv").exists()
        assert (out / "run_manifest").exists()
        # snapshots: initial, requested 0.05, final
        names = sorted(p.name for p in out.glob("density_t*.csv"))
        assert names == ["density_t0.05.csv", "density_t0.1.csv",
                         "density_t0.csv"]
        header = (out / "density_t0.csv").read_text().splitlines()[0]
        assert header == "y,u"
        assert "11 rows" in capsys.readouterr().out

    def test_zero_horizon_initial_snapshot_only(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE.replace("solver.t_end = 0.1",
                                               "solver.t_end = 0.0")
                        + f"output.dir = {tmp_path}/out\n")
        assert main(["simulate", "--config", cfg]) == 0
        snaps = list((tmp_path / "out").glob("density_t*.csv"))
        assert [p.name for p in snaps] == ["density_t0.csv"]
        rows = (tmp_path / "out" / "timeseries.csv").read_text().splitlines()
        assert len(rows) == 2  # header plus the initial row

    def test_missing_config_exit_2_no_outputs(self, tmp_path, capsys):
        code = main(["simulate", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert not (tmp_path / "out").exists()
        assert "ConfigParseError" in capsys.readouterr().err

    def test_bad_config_value_exit_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "solver.dt = -1\n")
        assert main(["simulate", "--config", cfg]) == 2
        assert "dt must be positive" in capsys.readouterr().err

    def test_solver_failure_mapped_exit_code(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, BASE + "initial.monomer = -2.0\n"
                        + f"output.dir = {tmp_path}/out\n")
        assert main(["simulate", "--config", cfg]) == 4
        assert "NegativeMonomer" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_oracle_failure_leaves_no_outputs(self, tmp_path, capsys,
                                              monkeypatch):
        def failing_oracle(*args, **kwargs):
            raise BlowUp("oracle diverged")

        monkeypatch.setattr(cli, "integrate_oracle", failing_oracle)
        cfg = write_cfg(tmp_path, BASE + "oracle.enabled = true\n"
                        + "diagnostics.sigma = 1.5\n"
                        + f"output.dir = {tmp_path}/out\n")
        assert main(["simulate", "--config", cfg]) == 3
        assert "oracle diverged" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_out_flag_overrides_config_dir(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE + f"output.dir = {tmp_path}/ignored\n")
        assert main(["simulate", "--config", cfg,
                     "--out", str(tmp_path / "chosen")]) == 0
        assert (tmp_path / "chosen" / "timeseries.csv").exists()
        assert not (tmp_path / "ignored").exists()

    def test_manifest_rerun_is_bit_identical(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE + "oracle.enabled = true\n"
                        + "diagnostics.sigma = 1.5\n"
                        + f"output.dir = {tmp_path}/a\n")
        assert main(["simulate", "--config", cfg]) == 0
        manifest = tmp_path / "a" / "run_manifest"
        assert main(["simulate", "--config", str(manifest),
                     "--out", str(tmp_path / "b")]) == 0
        for name in ("timeseries.csv", "density_t0.1.csv", "oracle.csv",
                     "compare.txt", "sigma_moments.csv"):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, name

    def test_test_function_selection(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE
                        + "diagnostics.test_functions = one,size\n"
                        + f"output.dir = {tmp_path}/out\n")
        assert main(["simulate", "--config", cfg]) == 0
        header = (tmp_path / "out" / "timeseries.csv").read_text().splitlines()[0]
        assert header.endswith("wf_one,wf_size")
        assert "wf_soft_exp" not in header

    def test_unknown_test_function_exit_1(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, BASE
                        + "diagnostics.test_functions = one,nope\n"
                        + f"output.dir = {tmp_path}/out\n")
        assert main(["simulate", "--config", cfg]) == 1
        assert "unknown test functions" in capsys.readouterr().err


class TestValidate:
    def test_valid_kernel_exit_0(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, BASE)
        assert main(["validate", "--config", cfg]) == 0
        assert "[pass]" in capsys.readouterr().out

    def test_failed_hypothesis_exit_8(self, tmp_path, capsys):
        # uniform daughters cannot meet the large-size mass-fraction
        # condition, so the default powerlaw family must fail validation
        cfg = write_cfg(tmp_path, "kernel.family = powerlaw\n")
        assert main(["validate", "--config", cfg]) == 8
        out = capsys.readouterr().out
        assert "[FAIL] daughter_large_size_mass" in out


class TestOracle:
    def test_oracle_alone(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE + f"output.dir = {tmp_path}/out\n")
        assert main(["oracle", "--config", cfg]) == 0
        text = (tmp_path / "out" / "oracle.csv").read_text().splitlines()
        assert text[0] == "t,v,U0,U1"
        assert not (tmp_path / "out" / "compare.txt").exists()

    def test_oracle_compares_against_existing_run(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE + f"output.dir = {tmp_path}/out\n")
        assert main(["simulate", "--config", cfg]) == 0
        assert main(["oracle", "--config", cfg]) == 0
        lines = (tmp_path / "out" / "compare.txt").read_text().splitlines()
        errs = {}
        for line in lines:
            if line.startswith("max_rel_err_"):
                key, val = line.split(" = ")
                errs[key.removeprefix("max_rel_err_")] = float(val)
        assert set(errs) == {"v", "U0", "U1"}
        # coarse dt and coarse grid, so loose bound; just not garbage
        assert all(val < 1e-3 for val in errs.values())


class TestTruncation:
    TRUNC = BASE.replace("kernel.frag = 0.5", "kernel.frag = 1.0") + """
initial.cut_sigmas = 6.0
truncation.levels = 1,2,4
truncation.pair_base = 6.0
truncation.pair_step = 8.0
"""

    def test_ladder_outputs_and_convergence_table(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, self.TRUNC + f"output.dir = {tmp_path}/out\n")
        assert main(["truncation", "--config", cfg]) == 0
        out = tmp_path / "out"
        for idx in (1, 2, 4):
            assert (out / f"level_{idx}" / "timeseries.csv").exists()
        table = np.loadtxt(out / "convergence.csv", delimiter=",",
                           skiprows=1, ndmin=2)
        assert table.shape == (2, 5)
        # nested cutoffs: consecutive differences shrink
        assert np.all(table[1, 2:] <= table[0, 2:])
        assert "levels" in capsys.readouterr().out

    def test_threads_do_not_change_results(self, tmp_path):
        cfg_a = write_cfg(tmp_path, self.TRUNC + f"output.dir = {tmp_path}/a\n",
                          name="a.cfg")
        cfg_b = write_cfg(tmp_path, self.TRUNC + f"output.dir = {tmp_path}/b\n",
                          name="b.cfg")
        assert main(["truncation", "--config", cfg_a, "--threads", "1"]) == 0
        assert main(["truncation", "--config", cfg_b, "--threads", "4"]) == 0
        for idx in (1, 2, 4):
            a = (tmp_path / "a" / f"level_{idx}" / "timeseries.csv").read_bytes()
            b = (tmp_path / "b" / f"level_{idx}" / "timeseries.csv").read_bytes()
            assert a == b
        conv_a = (tmp_path / "a" / "convergence.csv").read_bytes()
        conv_b = (tmp_path / "b" / "convergence.csv").read_bytes()
        assert conv_a == conv_b

    def test_single_level_degenerate_table(self, tmp_path, capsys):
        text = self.TRUNC.replace("truncation.levels = 1,2,4",
                                  "truncation.levels = 3")
        cfg = write_cfg(tmp_path, text + f"output.dir = {tmp_path}/out\n")
        assert main(["truncation", "--config", cfg]) == 0
        lines = (tmp_path / "out" / "convergence.csv").read_text().splitlines()
        assert len(lines) == 1  # header only
        assert "(single)" in capsys.readouterr().out

    def test_no_levels_exit_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, BASE)
        assert main(["truncation", "--config", cfg]) == 2
        assert "truncation.levels" in capsys.readouterr().err

    def test_inconsistent_level_exit_7(self, tmp_path, capsys):
        text = self.TRUNC + "output.dir = {}\n".format(tmp_path / "out")
        text = text.replace("truncation.pair_base = 6.0",
                            "truncation.pair_base = 1.5")
        cfg = write_cfg(tmp_path, text)
        assert main(["truncation", "--config", cfg]) == 7
        assert "LevelInconsistent" in capsys.readouterr().err

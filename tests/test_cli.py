"""Command-line interface: config parsing, output files, exit codes,
manifest reproducibility."""

import threading
from pathlib import Path

import numpy as np
import pytest

from prionpde import cli, config, grid, load_config, parse_config_text, solver
from prionpde.cli import main
from prionpde.errors import BlowUp, ConfigParseError, MismatchedRates

SHIPPED_CONFIGS = sorted(
    (Path(__file__).resolve().parents[1] / "demos" / "configs").glob("*.cfg"))


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


def tree(root):
    """Relative path -> bytes for every file under root (None for dirs)."""
    return {str(p.relative_to(root)): p.read_bytes() if p.is_file() else None
            for p in sorted(root.rglob("*"))}


# one value per key, none of them the default
NON_DEFAULT = {
    "kernel.family": "powerlaw",
    "kernel.growth": "1.25",
    "kernel.death": "0.0",
    "kernel.frag": "0.75",
    "kernel.join": "0.13",
    "kernel.join_exp_low": "0.25",
    "kernel.join_exp_high": "0.75",
    "kernel.join_cutoff": "40.0",
    "kernel.k0_profile": "parabolic",
    "model.production": "1.5",
    "model.degradation": "0.1",
    "model.saturation": "0.3",
    "model.min_size": "0.5",
    "grid.n_cells": "64",
    "grid.ymax": "129.0",
    "grid.spacing": "uniform",
    "initial.monomer": "0.1",
    "initial.center": "8.0",
    "initial.width": "1.5",
    "initial.count": "0.0",
    "initial.cut_sigmas": "6.0",
    "solver.dt": "0.0071",
    "solver.t_end": "0.5",
    "solver.splitting": "lie",
    "solver.reaction_integrator": "euler",
    "solver.snapshot_times": "0.1,0.2",
    "solver.tail_mass_bound": "1e-06",
    "solver.positivity_tolerance": "1e-12",
    "solver.skip_joining": "true",
    "diagnostics.test_functions": "one,size",
    "diagnostics.sigma": "1.5,2.5",
    "diagnostics.uniform_integrability": "true",
    "oracle.enabled": "true",
    "oracle.dt": "0.001",
    "output.dir": "elsewhere",
    "truncation.levels": "1,2,4",
    "truncation.pair_base": "6.0",
    "truncation.pair_step": "8.0",
    "run.label": "a label",
}

CHOICES = {
    "kernel.family": config.FAMILIES,
    "kernel.k0_profile": tuple(config.K0_PROFILES),
    "grid.spacing": grid.SPACINGS,
    "solver.splitting": solver.SPLITTINGS,
    "solver.reaction_integrator": solver.REACTION_INTEGRATORS,
}


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

    @pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.name)
    def test_shipped_configs_round_trip(self, path):
        cfg = load_config(path)
        assert parse_config_text(cfg.resolved_text()).values == cfg.values

    def test_every_key_round_trips_a_non_default_value(self):
        keys = [key for key, _, _ in config.DEFAULTS]
        assert sorted(NON_DEFAULT) == sorted(keys)
        defaults = parse_config_text("")
        cfg = parse_config_text("".join(f"{key} = {NON_DEFAULT[key]}\n"
                                        for key in keys))
        for key in keys:
            assert cfg[key] != defaults[key], key
        assert parse_config_text(cfg.resolved_text()).values == cfg.values

    @pytest.mark.parametrize("key", sorted(CHOICES))
    def test_choice_keys_accept_exactly_their_owners_list(self, key):
        for option in CHOICES[key]:
            assert parse_config_text(f"{key} = {option}\n")[key] == option
        others = {opt for opts in CHOICES.values() for opt in opts}
        others |= {"mystery", CHOICES[key][0].upper(), "none"}
        for other in sorted(others - set(CHOICES[key])):
            with pytest.raises(ConfigParseError, match=f"bad value for {key}"):
                parse_config_text(f"{key} = {other}\n")

    def test_overrides_are_parsed(self):
        cfg = parse_config_text("").with_overrides(
            {"solver.dt": "0.5", "truncation.levels": "1,3",
             "output.dir": "there"})
        assert cfg["solver.dt"] == 0.5
        assert cfg["truncation.levels"] == (1, 3)
        assert cfg["output.dir"] == "there"

    def test_overrides_refuse_unknown_key(self):
        with pytest.raises(ConfigParseError, match="unknown config key"):
            parse_config_text("").with_overrides({"solver.dtt": "0.1"})

    def test_overrides_refuse_bad_value(self):
        with pytest.raises(ConfigParseError, match="bad value for grid.n_cells"):
            parse_config_text("").with_overrides({"grid.n_cells": "many"})

    @pytest.mark.parametrize("line", ["initial.width = 0",
                                      "initial.width = -0.3",
                                      "initial.count = -0.4",
                                      "initial.cut_sigmas = -1",
                                      "initial.cut_sigmas = 0"])
    def test_bad_initial_value_exit_2_no_outputs(self, tmp_path, capsys,
                                                 line):
        cfg = write_cfg(tmp_path, BASE + line + "\n"
                        + f"output.dir = {tmp_path}/out\n")
        assert main(["simulate", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ConfigParseError: bad value for "
                              + line.split(" =")[0])
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("line", ["oracle.dt = 0",
                                      "model.min_size = 0",
                                      "kernel.join_cutoff = 1.5",
                                      "grid.n_cells = 2",
                                      "grid.ymax = 0.5",
                                      "kernel.growth = 0",
                                      "kernel.death = -1",
                                      "kernel.frag = -0.5",
                                      "model.production = -1",
                                      "model.saturation = -1"])
    def test_value_a_builder_refuses_exit_2_before_the_solve(
            self, tmp_path, capsys, monkeypatch, line):
        monkeypatch.setattr(cli, "run", lambda *args: pytest.fail("solved"))
        key = line.split(" =")[0]
        kept = [row for row in BASE.splitlines() if not row.startswith(key)]
        kept += [line, "oracle.enabled = true", f"output.dir = {tmp_path}/out"]
        cfg = write_cfg(tmp_path, "\n".join(kept) + "\n")
        assert main(["simulate", "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith("ConfigParseError: bad ")
        assert not (tmp_path / "out").exists()


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

    @pytest.mark.parametrize("family", ["bounded", "powerlaw", "k0"])
    def test_refuses_other_families_before_the_solve(
            self, family, tmp_path, capsys, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("the solver ran")

        monkeypatch.setattr(cli, "run", no_solve)
        cfg = write_cfg(tmp_path, BASE.replace("special", family)
                        + "kernel.k0_profile = parabolic\n"
                        + "oracle.enabled = true\n"
                        + f"output.dir = {tmp_path}/out\n")
        assert main(["simulate", "--config", cfg]) == cli.exit_code_for(
            MismatchedRates("")) == 12
        assert "MismatchedRates" in capsys.readouterr().err
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

    def test_repeated_test_function_exit_1(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, BASE
                        + "diagnostics.test_functions = one,one\n"
                        + f"output.dir = {tmp_path}/out\n")
        assert main(["simulate", "--config", cfg]) == 1
        assert "repeated test functions" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("line", ["solver.snapshot_times = nan",
                                      "solver.snapshot_times = 0.05,inf",
                                      "diagnostics.sigma = inf"])
    def test_non_finite_list_entry_exit_2(self, tmp_path, capsys, line):
        cfg = write_cfg(tmp_path, BASE.replace("solver.snapshot_times = 0.05\n", "")
                        + line + "\n" + f"output.dir = {tmp_path}/out\n")
        assert main(["simulate", "--config", cfg]) == 2
        assert "must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


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

    @pytest.mark.parametrize("line", ["grid.n_cells = 2", "solver.dt = -1"])
    def test_refuses_what_the_other_commands_refuse(self, tmp_path, capsys,
                                                    line):
        key = line.split(" =")[0]
        kept = [row for row in BASE.splitlines() if not row.startswith(key)]
        cfg = write_cfg(tmp_path, "\n".join(kept + [line]) + "\n")
        for command in ("validate", "oracle"):
            assert main([command, "--config", cfg]) == 2
            assert capsys.readouterr().err.startswith("ConfigParseError: bad ")


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

    @pytest.mark.parametrize("t_end", ["0.0", "0.1"])
    def test_refuses_other_families(self, t_end, tmp_path, capsys):
        cfg = write_cfg(tmp_path, BASE.replace("special", "bounded")
                        .replace("solver.t_end = 0.1", f"solver.t_end = {t_end}")
                        + f"output.dir = {tmp_path}/out\n")
        assert main(["oracle", "--config", cfg]) == 12
        assert "MismatchedRates" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_short_horizon_comparison_leaves_no_outputs(self, tmp_path,
                                                        capsys):
        cfg = write_cfg(tmp_path, BASE + f"output.dir = {tmp_path}/out\n")
        assert main(["simulate", "--config", cfg]) == 0
        capsys.readouterr()
        short = write_cfg(tmp_path, BASE.replace("solver.t_end = 0.1",
                                                 "solver.t_end = 0.05")
                          + f"output.dir = {tmp_path}/out\n", name="short.cfg")
        assert main(["oracle", "--config", short]) == 1
        captured = capsys.readouterr()
        assert "oracle horizon is shorter than the run" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "out" / "oracle.csv").exists()
        assert not (tmp_path / "out" / "compare.txt").exists()


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

    def test_levels_run_without_threads(self, tmp_path, monkeypatch):
        def refuse(self):
            raise RuntimeError("no thread may start")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        cfg = write_cfg(tmp_path, self.TRUNC + f"output.dir = {tmp_path}/out\n")
        assert main(["truncation", "--config", cfg, "--threads", "4"]) == 0
        for idx in (1, 2, 4):
            assert (tmp_path / "out" / f"level_{idx}" / "timeseries.csv").exists()

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


class TestOutputReplacement:
    """A rerun replaces the whole output directory; a failed one leaves
    the previous directory as it was and no temporary files."""

    FIRST = (BASE.replace("solver.snapshot_times = 0.05",
                          "solver.snapshot_times = 0.03")
             + "oracle.enabled = true\ndiagnostics.sigma = 1.5\n")
    SECOND = BASE.replace("solver.snapshot_times = 0.05",
                          "solver.snapshot_times = 0.04")

    def test_simulate_rerun_leaves_only_its_own_files(self, tmp_path):
        out = str(tmp_path / "out")
        first = write_cfg(tmp_path, self.FIRST, name="first.cfg")
        second = write_cfg(tmp_path, self.SECOND, name="second.cfg")
        assert main(["simulate", "--config", first, "--out", out]) == 0
        assert (tmp_path / "out" / "compare.txt").exists()
        assert main(["simulate", "--config", second, "--out", out]) == 0
        assert sorted(tree(tmp_path / "out")) == [
            "density_t0.04.csv", "density_t0.1.csv", "density_t0.csv",
            "run_manifest", "timeseries.csv"]
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "first.cfg", "out", "second.cfg"]

    def test_truncation_rerun_leaves_only_its_own_levels(self, tmp_path):
        out = str(tmp_path / "out")
        first = write_cfg(tmp_path, TestTruncation.TRUNC.replace(
            "truncation.levels = 1,2,4", "truncation.levels = 1,2"),
            name="first.cfg")
        second = write_cfg(tmp_path, TestTruncation.TRUNC.replace(
            "truncation.levels = 1,2,4", "truncation.levels = 3"),
            name="second.cfg")
        assert main(["truncation", "--config", first, "--out", out]) == 0
        assert main(["truncation", "--config", second, "--out", out]) == 0
        assert sorted(tree(tmp_path / "out")) == [
            "convergence.csv", "level_3", "level_3/timeseries.csv",
            "run_manifest"]

    def test_failed_simulate_keeps_previous_directory(self, tmp_path, capsys,
                                                      monkeypatch):
        out = str(tmp_path / "out")
        first = write_cfg(tmp_path, self.FIRST, name="first.cfg")
        second = write_cfg(tmp_path, self.SECOND, name="second.cfg")
        assert main(["simulate", "--config", first, "--out", out]) == 0
        before = tree(tmp_path)
        real, calls = cli._write_density, []

        def fail_second(snapshot, path):
            calls.append(path)
            if len(calls) == 2:
                raise OSError("disk full")
            real(snapshot, path)

        monkeypatch.setattr(cli, "_write_density", fail_second)
        assert main(["simulate", "--config", second, "--out", out]) == 1
        assert len(calls) == 2
        assert "OSError: disk full" in capsys.readouterr().err
        assert tree(tmp_path) == before

    def test_failed_truncation_keeps_previous_directory(self, tmp_path,
                                                        capsys, monkeypatch):
        out = str(tmp_path / "out")
        first = write_cfg(tmp_path, TestTruncation.TRUNC, name="first.cfg")
        second = write_cfg(tmp_path, TestTruncation.TRUNC.replace(
            "truncation.levels = 1,2,4", "truncation.levels = 3"),
            name="second.cfg")
        assert main(["truncation", "--config", first, "--out", out]) == 0
        before = tree(tmp_path)

        def fail(cfg, path):
            raise OSError("disk full")

        monkeypatch.setattr(cli, "_write_manifest", fail)
        assert main(["truncation", "--config", second, "--out", out]) == 1
        assert "OSError: disk full" in capsys.readouterr().err
        assert tree(tmp_path) == before

    def test_failed_oracle_keeps_previous_files(self, tmp_path, capsys,
                                                monkeypatch):
        out = str(tmp_path / "out")
        cfg = write_cfg(tmp_path, BASE)
        finer = write_cfg(tmp_path, BASE + "oracle.dt = 0.002\n",
                          name="finer.cfg")
        assert main(["simulate", "--config", cfg, "--out", out]) == 0
        assert main(["oracle", "--config", cfg, "--out", out]) == 0
        before = tree(tmp_path)

        def fail(report, path):
            raise OSError("disk full")

        monkeypatch.setattr(cli, "_write_compare", fail)
        assert main(["oracle", "--config", finer, "--out", out]) == 1
        assert "OSError: disk full" in capsys.readouterr().err
        assert tree(tmp_path) == before

    @pytest.mark.parametrize("command", ["simulate", "truncation"])
    def test_refuses_a_directory_that_is_not_a_run(self, tmp_path, capsys,
                                                   monkeypatch, command):
        """Refused before any solve."""
        for name in ("run", "truncate"):
            monkeypatch.setattr(cli, name, lambda *args: pytest.fail("solved"))
        out = tmp_path / "notes"
        out.mkdir()
        (out / "keep.txt").write_text("hand-written\n")
        cfg = write_cfg(tmp_path, TestTruncation.TRUNC)
        before = tree(tmp_path)
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert "holds no run_manifest" in capsys.readouterr().err
        assert tree(tmp_path) == before

    def test_simulate_replaces_what_oracle_wrote(self, tmp_path):
        out = str(tmp_path / "out")
        cfg = write_cfg(tmp_path, BASE)
        assert main(["oracle", "--config", cfg, "--out", out]) == 0
        assert sorted(tree(tmp_path / "out")) == ["oracle.csv"]
        assert main(["simulate", "--config", cfg, "--out", out]) == 0
        assert sorted(tree(tmp_path / "out")) == [
            "density_t0.05.csv", "density_t0.1.csv", "density_t0.csv",
            "run_manifest", "timeseries.csv"]

    def test_refuses_oracle_files_beside_others(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        (out / "oracle.csv").write_text("t,v,U0,U1\n")
        (out / "keep.txt").write_text("hand-written\n")
        cfg = write_cfg(tmp_path, BASE)
        before = tree(tmp_path)
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        assert "holds no run_manifest" in capsys.readouterr().err
        assert tree(tmp_path) == before

    def test_refuses_a_file(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("not a directory\n")
        cfg = write_cfg(tmp_path, BASE)
        before = tree(tmp_path)
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        assert "is not a directory" in capsys.readouterr().err
        assert tree(tmp_path) == before

    def test_empty_directory_is_used(self, tmp_path):
        (tmp_path / "out").mkdir()
        cfg = write_cfg(tmp_path, BASE)
        assert main(["simulate", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "run_manifest").exists()

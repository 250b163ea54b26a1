"""Every numeric config key set to a hostile value, through every
command, in-process: each case exits 0 or a code of cli.EXIT_CODES, and
leaves either the command's complete output directory or none.  A case
that exits 0 writes only finite numbers to its CSV files.

The run bounds (solver.MAX_STEPS, solver.MAX_SUBSTEPS) are what make
every case end, so the sweep needs no alarm."""

import csv
import math

import pytest

from prionpde import cli, config, load_config

BASE = """
grid.n_cells = 24
grid.ymax = 40.0
solver.dt = 0.01
solver.t_end = 0.03
oracle.enabled = true
truncation.levels = 1,2
"""

VALUES = ("0", "-1", "1e-300", "1e300")
COMMANDS = ("simulate", "validate", "oracle", "truncation")

# CSV columns that may hold inf in a successful run: the support
# envelope is infinite by design while joining is not cut
NON_FINITE_BY_DESIGN = frozenset({"support_bound"})


def _is_numeric(parse) -> bool:
    """The key's parser reads "1" as a number or a list of numbers."""
    try:
        value = parse("1")
    except ValueError:
        return False
    values = value if isinstance(value, tuple) else (value,)
    return all(isinstance(x, (int, float)) and not isinstance(x, bool)
               for x in values)


NUMERIC_KEYS = tuple(key for key, _, parse in config.DEFAULTS
                     if _is_numeric(parse))


def test_the_sweep_covers_numbers_and_lists_only():
    assert {"kernel.growth", "grid.n_cells", "kernel.join_cutoff",
            "solver.snapshot_times", "oracle.dt",
            "truncation.levels"} <= set(NUMERIC_KEYS)
    assert not {"kernel.family", "solver.skip_joining", "output.dir",
                "diagnostics.test_functions", "run.label"} & set(NUMERIC_KEYS)


def missing_outputs(command, cfg, out):
    """The files a successful command promises that out lacks."""
    if command == "validate":
        return set()
    if command == "oracle":
        want = {"oracle.csv"}
    elif command == "simulate":
        want = {"timeseries.csv", "run_manifest"}
        if cfg["solver.t_end"] > 0.0:
            want |= {"oracle.csv", "compare.txt"}
        if cfg["diagnostics.sigma"]:
            want.add("sigma_moments.csv")
    else:
        want = {"run_manifest", "convergence.csv"}
        want |= {f"level_{i}/timeseries.csv" for i in cfg["truncation.levels"]}
    have = {str(p.relative_to(out)) for p in out.rglob("*")}
    missing = want - have
    if command == "simulate" and not any(name.startswith("density_t")
                                         for name in have):
        missing.add("density_t*.csv")
    return missing


def non_finite_values(out):
    """(file, column, value) of every non-finite number in the CSV files
    under out, outside the columns NON_FINITE_BY_DESIGN."""
    found = []
    for path in sorted(out.rglob("*.csv")):
        with open(path, newline="") as fh:
            header, *rows = csv.reader(fh)
        for row in rows:
            found += [(str(path.relative_to(out)), name, value)
                      for name, value in zip(header, row)
                      if name not in NON_FINITE_BY_DESIGN
                      and not math.isfinite(float(value))]
    return found


@pytest.mark.parametrize("value", VALUES)
@pytest.mark.parametrize("key", NUMERIC_KEYS)
@pytest.mark.parametrize("command", COMMANDS)
def test_hostile_value_ends_classified_and_whole(tmp_path, capsys, command,
                                                 key, value):
    kept = [row for row in BASE.splitlines() if not row.startswith(key)]
    path = tmp_path / "run.cfg"
    path.write_text("\n".join(kept + [f"{key} = {value}"]) + "\n")
    out = tmp_path / "out"
    code = cli.main([command, "--config", str(path), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 0 or code in cli.EXIT_CODES.values(), err
    written = code == 0 and command != "validate"
    assert sorted(p.name for p in tmp_path.iterdir()) == (
        ["out", "run.cfg"] if written else ["run.cfg"]), err
    if written:
        assert not missing_outputs(command, load_config(path), out)
        assert not non_finite_values(out)

"""Command-line front end.

Four subcommands: simulate (time series, density snapshots, manifest,
optional closed-moment cross-check), validate (kernel hypothesis
report), oracle (closed moment system on its own), truncation
(nested-cutoff convergence study).  Exit codes are a stable API; the
mapping lives in EXIT_CODES and the README.

Outputs are deterministic: same config and build, same bytes.  The run
manifest is itself a loadable config that reproduces the run.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .config import RunConfig, load_config
from .diagnostics import write_csv
from .errors import (
    BlowUp,
    ConfigParseError,
    EtaCutoffViolated,
    LevelInconsistent,
    MassEscape,
    MismatchedRates,
    NegativeMonomer,
    PairOutOfRange,
    PositivityError,
    PrionPdeError,
    SupportExceedsGrid,
    ValidationFailed,
)
from .kernels import plan_truncation_levels, truncate, validate_kernel_set
from .operators import GridTables
from .oracle import (
    MomentOdeState,
    compare,
    integrate_oracle,
    rates_from_kernel_set,
)
from .solver import run

__all__ = ["main", "EXIT_CODES", "exit_code_for"]

# Ordered generic-to-specific is irrelevant here: one code per class,
# resolved by MRO walk so subclasses inherit their parent's code unless
# listed themselves.
EXIT_CODES = {
    ConfigParseError: 2,
    BlowUp: 3,
    NegativeMonomer: 4,
    MassEscape: 5,
    PairOutOfRange: 6,
    LevelInconsistent: 7,
    ValidationFailed: 8,
    EtaCutoffViolated: 9,
    SupportExceedsGrid: 10,
    PositivityError: 11,
    MismatchedRates: 12,
}


def exit_code_for(exc: BaseException) -> int:
    for klass in type(exc).__mro__:
        if klass in EXIT_CODES:
            return EXIT_CODES[klass]
    return 1


# -- output writers --------------------------------------------------------

def _density_filename(t: float) -> str:
    return f"density_t{t:.12g}.csv"


def _write_density(snapshot, path: Path) -> None:
    write_csv(path, ("y", "u"),
              zip(snapshot.u.grid.centers, snapshot.u.values))


def _write_manifest(cfg: RunConfig, path: Path) -> None:
    with open(path, "w") as fh:
        fh.write("# run manifest: resolved configuration, loadable as-is\n")
        fh.write(f"# version: {__version__}\n")
        fh.write(cfg.resolved_text())


def _write_oracle_csv(traj_columns, path: Path) -> None:
    names = ("t", "v", "U0", "U1")
    write_csv(path, names, zip(*(traj_columns[name] for name in names)))


def _write_compare(report: dict, path: Path) -> None:
    with open(path, "w") as fh:
        for name in ("v", "U0", "U1"):
            fh.write(f"max_rel_err_{name} = {report[name]:.17g}\n")
        fh.write(f"oracle_self_error = {report['oracle_self_error']:.17g}\n")
        for note in report["caveats"]:
            fh.write(f"caveat: {note}\n")


def _write_sigma_moments(result, sigmas, path: Path) -> None:
    write_csv(path, ["t"] + [f"M_{s:g}" for s in sigmas],
              ([snap.t] + [snap.u.moment(s) for s in sigmas]
               for snap in result.snapshots))


_ORACLE_FILES = ("oracle.csv", "compare.txt")   # every file oracle writes


def _check_replaceable(out: Path) -> None:
    """ConfigParseError unless `out` is absent, a run directory (one
    holding a `run_manifest`) or a directory holding nothing but files
    that oracle writes (none at all included)."""
    if out.exists() and not out.is_dir():
        raise ConfigParseError(f"output path {out} is not a directory")
    if (out.is_dir() and not (out / "run_manifest").exists()
            and not all(p.name in _ORACLE_FILES and p.is_file()
                        for p in out.iterdir())):
        raise ConfigParseError(
            f"output directory {out} is not empty and holds no run_manifest; "
            "refusing to replace it")


@contextmanager
def _replacing_dir(out: Path):
    """Yield a fresh directory for every file of a run; on a clean exit
    it replaces `out` whole.

    The fresh directory sits next to `out`. The old `out` is moved aside,
    the fresh one renamed into place and the old one removed, so a
    failure at any point leaves the old directory or the new one, never
    a mix, and no temporary directory. Only a directory that
    _check_replaceable accepts is replaced; anything else is refused
    before it is touched.
    """
    _check_replaceable(out)
    target = Path(os.path.abspath(out))
    fresh = target.with_name(f".{target.name}.new-{os.getpid()}")
    old = target.with_name(f".{target.name}.old-{os.getpid()}")
    fresh.mkdir(parents=True)
    try:
        yield fresh
        if target.exists():
            os.replace(target, old)
        try:
            os.replace(fresh, target)
        except OSError:
            if old.exists():
                os.replace(old, target)
            raise
    finally:
        for path in (fresh, old):
            if path.exists():
                shutil.rmtree(path, ignore_errors=True)


def _replace_files(out: Path, writers) -> None:
    """Add files to `out`: each `name: write` pair writes its file under
    a temporary name, and only when all are written are they
    os.replace'd into place."""
    out.mkdir(parents=True, exist_ok=True)
    staged = {name: out / f".{name}.tmp" for name in writers}
    try:
        for name, write in writers.items():
            write(staged[name])
        for name, tmp in staged.items():
            os.replace(tmp, out / name)
    finally:
        for tmp in staged.values():
            tmp.unlink(missing_ok=True)


class _CsvColumns:
    """Minimal column reader so the oracle comparison can consume a
    previously written time-series file."""

    def __init__(self, path):
        with open(path) as fh:
            names = fh.readline().strip().split(",")
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        self._cols = {name: data[:, i] for i, name in enumerate(names)}

    def column(self, name: str) -> np.ndarray:
        if name not in self._cols:
            raise KeyError(f"column {name!r} not in file")
        return self._cols[name]


# -- subcommands -----------------------------------------------------------

def _run_from_config(cfg: RunConfig):
    k = cfg.build_kernel()
    grid = cfg.build_grid()
    u0 = cfg.build_initial(grid)
    v0 = cfg["initial.monomer"]
    return k, grid, u0, v0, cfg.solver_config()


def _oracle_for(cfg: RunConfig, rates, u0, v0):
    state0 = MomentOdeState(v=v0, U0=u0.moment(0), U1=u0.moment(1))
    t_end = cfg["solver.t_end"]
    dt = min(cfg["oracle.dt"], t_end / 10.0)
    return integrate_oracle(state0, rates, t_end, dt)


def cmd_simulate(cfg: RunConfig) -> int:
    out = Path(cfg["output.dir"])
    _check_replaceable(out)  # again when the writes start; here to fail fast
    k, grid, u0, v0, scfg = _run_from_config(cfg)
    oracle = cfg["oracle.enabled"] and cfg["solver.t_end"] > 0.0
    rates = rates_from_kernel_set(k) if oracle else None  # refused before the solve
    result = run(u0, v0, k, scfg)
    if oracle:  # it can fail, so it runs before the first file is written
        traj = _oracle_for(cfg, rates, u0, v0)
        report = compare(result.ledger, traj, rates)
    sigmas = cfg["diagnostics.sigma"]
    with _replacing_dir(out) as fresh:
        result.ledger.to_csv(fresh / "timeseries.csv")
        for snap in result.snapshots:
            _write_density(snap, fresh / _density_filename(snap.t))
        _write_manifest(cfg, fresh / "run_manifest")
        if sigmas:
            _write_sigma_moments(result, sigmas, fresh / "sigma_moments.csv")
        if oracle:
            _write_oracle_csv(traj.as_columns(), fresh / "oracle.csv")
            _write_compare(report, fresh / "compare.txt")
    led = result.ledger
    print(f"simulate: {len(led)} rows, {len(result.snapshots)} snapshots "
          f"-> {out}")
    print(f"  final t={led.column('t')[-1]:.6g}  v={led.column('v')[-1]:.6g}  "
          f"U0={led.column('U0')[-1]:.6g}  U1={led.column('U1')[-1]:.6g}")
    print(f"  max |balance residual| = "
          f"{np.max(np.abs(led.column('balance_residual'))):.3e}")
    return 0


def cmd_validate(cfg: RunConfig) -> int:
    # builds what every other command builds, so it refuses what they refuse
    k, *_ = _run_from_config(cfg)
    report = validate_kernel_set(k)
    print(report.format())
    return 0 if report.all_passed else EXIT_CODES[ValidationFailed]


def cmd_oracle(cfg: RunConfig) -> int:
    k, grid, u0, v0, _ = _run_from_config(cfg)
    out = Path(cfg["output.dir"])
    t_end = cfg["solver.t_end"]
    rates = rates_from_kernel_set(k)
    if t_end == 0.0:
        state0 = MomentOdeState(v=v0, U0=u0.moment(0), U1=u0.moment(1))
        columns = {"t": [0.0], "v": [state0.v], "U0": [state0.U0],
                   "U1": [state0.U1]}
        _replace_files(out, {
            "oracle.csv": lambda path: _write_oracle_csv(columns, path)})
        print(f"oracle: horizon 0, wrote initial state -> {out}")
        return 0
    traj = _oracle_for(cfg, rates, u0, v0)
    ts_path = out / "timeseries.csv"
    # the comparison can fail, so it runs before the first file is written
    report = (compare(_CsvColumns(ts_path), traj, rates)
              if ts_path.exists() else None)
    writers = {"oracle.csv":
               lambda path: _write_oracle_csv(traj.as_columns(), path)}
    if report is not None:
        writers["compare.txt"] = lambda path: _write_compare(report, path)
    _replace_files(out, writers)
    print(f"oracle: {traj.times.size} rows, self error "
          f"{traj.step_halving_error:.3e} -> {out}")
    if report is not None:
        print(f"  vs run: v {report['v']:.3e}  U0 {report['U0']:.3e}  "
              f"U1 {report['U1']:.3e}")
    return 0


def cmd_truncation(cfg: RunConfig) -> int:
    out = Path(cfg["output.dir"])
    _check_replaceable(out)  # again when the writes start; here to fail fast
    k, grid, u0, v0, scfg = _run_from_config(cfg)
    indices = cfg["truncation.levels"]
    if not indices:
        raise ConfigParseError(
            "truncation.levels must list at least one level index")
    levels = plan_truncation_levels(
        k, u0, v0, scfg.t_end, indices,
        pair_base=cfg["truncation.pair_base"],
        pair_step=cfg["truncation.pair_step"])
    # one horizon verification for the whole ladder, and one set of the
    # tables no rate enters: truncation keeps the daughter and the grid.
    # Levels run one after another; --threads is accepted and ignored
    truncated = truncate(k, levels, scfg.t_end, u0, v0)
    shared = GridTables.build(k.daughter, grid, joining=not scfg.skip_joining)
    results = [(level, run(u0n, v0, kn, scfg, shared))
               for level, (kn, u0n) in zip(levels, truncated)]

    rows = []
    for (la, ra), (lb, rb) in zip(results, results[1:]):
        diffs = {}
        for name in ("v", "U0", "U1"):
            ca, cb = ra.ledger.column(name), rb.ledger.column(name)
            diffs[name] = float(np.max(np.abs(ca - cb)))
        rows.append((la.index, lb.index, diffs))

    with _replacing_dir(out) as fresh:
        for level, result in results:
            level_dir = fresh / f"level_{level.index}"
            level_dir.mkdir()
            result.ledger.to_csv(level_dir / "timeseries.csv")
        _write_manifest(cfg, fresh / "run_manifest")
        write_csv(fresh / "convergence.csv",
                  ("level_from", "level_to", "sup_dv", "sup_dU0", "sup_dU1"),
                  ((ia, ib, diffs["v"], diffs["U0"], diffs["U1"])
                   for ia, ib, diffs in rows))

    print(f"truncation: {len(results)} levels -> {out}")
    print(f"{'levels':>12} {'sup|dv|':>12} {'sup|dU0|':>12} {'sup|dU1|':>12}")
    if not rows:
        print(f"{'(single)':>12} {'-':>12} {'-':>12} {'-':>12}")
    for ia, ib, diffs in rows:
        print(f"{f'{ia}->{ib}':>12} {diffs['v']:>12.3e} "
              f"{diffs['U0']:>12.3e} {diffs['U1']:>12.3e}")
    return 0


# -- entry point -----------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prionpde",
        description="Deterministic solver and verification toolkit for a "
                    "size-structured aggregation model")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    # built on every call, so a patched cmd_* function is the one dispatched
    for name, command, help_text in (
        ("simulate", cmd_simulate,
         "run the solver and write time series, density snapshots, and a "
         "reloadable manifest"),
        ("validate", cmd_validate,
         "check the configured kernel set against its declared hypotheses"),
        ("oracle", cmd_oracle,
         "integrate the closed moment system; compare against an existing "
         "run if present"),
        ("truncation", cmd_truncation,
         "run a ladder of nested cutoffs and report convergence of the "
         "moment histories"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run_command=command)
        p.add_argument("--config", required=True, help="path to config file")
        p.add_argument("--out", default=None,
                       help="output directory (overrides output.dir)")
        p.add_argument("--threads", type=int, default=1,
                       help="ignored; kept so existing scripts still run")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.out is not None:
            cfg = cfg.with_overrides({"output.dir": args.out})
        return args.run_command(cfg)
    except (PrionPdeError, ValueError, OSError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return exit_code_for(exc)


if __name__ == "__main__":
    sys.exit(main())

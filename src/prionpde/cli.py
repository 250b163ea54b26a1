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
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .config import RunConfig, load_config
from .errors import (
    BlowUp,
    ConfigParseError,
    EtaCutoffViolated,
    LevelInconsistent,
    MassEscape,
    NegativeMonomer,
    PairOutOfRange,
    PositivityError,
    PrionPdeError,
    SupportExceedsGrid,
    ValidationFailed,
)
from .kernels import plan_truncation_levels, truncate, validate_kernel_set
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
    with open(path, "w") as fh:
        fh.write("y,u\n")
        for y, u in zip(snapshot.u.grid.centers, snapshot.u.values):
            fh.write(f"{y:.17g},{u:.17g}\n")


def _write_manifest(cfg: RunConfig, path: Path) -> None:
    with open(path, "w") as fh:
        fh.write("# run manifest: resolved configuration, loadable as-is\n")
        fh.write(f"# version: {__version__}\n")
        fh.write(cfg.resolved_text())


def _write_oracle_csv(traj_columns, path: Path) -> None:
    with open(path, "w") as fh:
        fh.write("t,v,U0,U1\n")
        for row in zip(traj_columns["t"], traj_columns["v"],
                       traj_columns["U0"], traj_columns["U1"]):
            fh.write(",".join(f"{x:.17g}" for x in row) + "\n")


def _write_compare(report: dict, path: Path) -> None:
    with open(path, "w") as fh:
        for name in ("v", "U0", "U1"):
            fh.write(f"max_rel_err_{name} = {report[name]:.17g}\n")
        fh.write(f"oracle_self_error = {report['oracle_self_error']:.17g}\n")
        for note in report["caveats"]:
            fh.write(f"caveat: {note}\n")


def _write_sigma_moments(result, sigmas, path: Path) -> None:
    headers = ["t"] + [f"M_{s:g}" for s in sigmas]
    with open(path, "w") as fh:
        fh.write(",".join(headers) + "\n")
        for snap in result.snapshots:
            vals = [snap.t] + [snap.u.moment(s) for s in sigmas]
            fh.write(",".join(f"{x:.17g}" for x in vals) + "\n")


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

def _resolve_out(cfg: RunConfig, out_flag: Optional[str]) -> RunConfig:
    if out_flag is not None:
        cfg = cfg.with_overrides(**{"output__dir": out_flag})
    return cfg


def _run_from_config(cfg: RunConfig):
    k = cfg.build_kernel()
    grid = cfg.build_grid()
    u0 = cfg.build_initial(grid)
    v0 = cfg["initial.monomer"]
    return k, grid, u0, v0, cfg.solver_config()


def _oracle_for(cfg: RunConfig, k, u0, v0):
    rates = rates_from_kernel_set(k)
    state0 = MomentOdeState(v=v0, U0=u0.moment(0), U1=u0.moment(1))
    t_end = cfg["solver.t_end"]
    dt = min(cfg["oracle.dt"], t_end / 10.0)
    return integrate_oracle(state0, rates, t_end, dt), rates


def cmd_simulate(cfg: RunConfig) -> int:
    k, grid, u0, v0, scfg = _run_from_config(cfg)
    result = run(u0, v0, k, scfg)
    oracle = cfg["oracle.enabled"] and cfg["solver.t_end"] > 0.0
    if oracle:  # it can fail, so it runs before the first file is written
        traj, rates = _oracle_for(cfg, k, u0, v0)
        report = compare(result.ledger, traj, rates)
    out = Path(cfg["output.dir"])
    out.mkdir(parents=True, exist_ok=True)
    result.ledger.to_csv(out / "timeseries.csv")
    for snap in result.snapshots:
        _write_density(snap, out / _density_filename(snap.t))
    _write_manifest(cfg, out / "run_manifest")
    sigmas = cfg["diagnostics.sigma"]
    if sigmas:
        _write_sigma_moments(result, sigmas, out / "sigma_moments.csv")
    if oracle:
        _write_oracle_csv(traj.as_columns(), out / "oracle.csv")
        _write_compare(report, out / "compare.txt")
    led = result.ledger
    print(f"simulate: {len(led)} rows, {len(result.snapshots)} snapshots "
          f"-> {out}")
    print(f"  final t={led.column('t')[-1]:.6g}  v={led.column('v')[-1]:.6g}  "
          f"U0={led.column('U0')[-1]:.6g}  U1={led.column('U1')[-1]:.6g}")
    print(f"  max |balance residual| = "
          f"{np.max(np.abs(led.column('balance_residual'))):.3e}")
    return 0


def cmd_validate(cfg: RunConfig) -> int:
    k = cfg.build_kernel()
    report = validate_kernel_set(k)
    print(report.format())
    return 0 if report.all_passed else EXIT_CODES[ValidationFailed]


def cmd_oracle(cfg: RunConfig) -> int:
    k, grid, u0, v0, _ = _run_from_config(cfg)
    out = Path(cfg["output.dir"])
    out.mkdir(parents=True, exist_ok=True)
    t_end = cfg["solver.t_end"]
    if t_end == 0.0:
        state0 = MomentOdeState(v=v0, U0=u0.moment(0), U1=u0.moment(1))
        _write_oracle_csv({"t": [0.0], "v": [state0.v], "U0": [state0.U0],
                           "U1": [state0.U1]}, out / "oracle.csv")
        print(f"oracle: horizon 0, wrote initial state -> {out}")
        return 0
    traj, rates = _oracle_for(cfg, k, u0, v0)
    _write_oracle_csv(traj.as_columns(), out / "oracle.csv")
    print(f"oracle: {traj.times.size} rows, self error "
          f"{traj.step_halving_error:.3e} -> {out}")
    ts_path = out / "timeseries.csv"
    if ts_path.exists():
        report = compare(_CsvColumns(ts_path), traj, rates)
        _write_compare(report, out / "compare.txt")
        print(f"  vs run: v {report['v']:.3e}  U0 {report['U0']:.3e}  "
              f"U1 {report['U1']:.3e}")
    return 0


def cmd_truncation(cfg: RunConfig, threads: int) -> int:
    k, grid, u0, v0, scfg = _run_from_config(cfg)
    indices = cfg["truncation.levels"]
    if not indices:
        raise ConfigParseError(
            "truncation.levels must list at least one level index")
    levels = plan_truncation_levels(
        k, u0, v0, scfg.t_end, indices,
        pair_base=cfg["truncation.pair_base"],
        pair_step=cfg["truncation.pair_step"])
    out = Path(cfg["output.dir"])

    def run_level(level):
        kn, u0n = truncate(k, level, scfg.t_end, u0, v0)
        return level, run(u0n, v0, kn, scfg)

    # Runs are independent; thread count changes wall time only.
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run_level, levels))
    else:
        results = [run_level(level) for level in levels]

    out.mkdir(parents=True, exist_ok=True)
    for level, result in results:
        level_dir = out / f"level_{level.index}"
        level_dir.mkdir(parents=True, exist_ok=True)
        result.ledger.to_csv(level_dir / "timeseries.csv")
    _write_manifest(cfg, out / "run_manifest")

    rows = []
    for (la, ra), (lb, rb) in zip(results, results[1:]):
        diffs = {}
        for name in ("v", "U0", "U1"):
            ca, cb = ra.ledger.column(name), rb.ledger.column(name)
            diffs[name] = float(np.max(np.abs(ca - cb)))
        rows.append((la.index, lb.index, diffs))
    with open(out / "convergence.csv", "w") as fh:
        fh.write("level_from,level_to,sup_dv,sup_dU0,sup_dU1\n")
        for ia, ib, diffs in rows:
            fh.write(f"{ia},{ib},{diffs['v']:.17g},{diffs['U0']:.17g},"
                     f"{diffs['U1']:.17g}\n")

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
    for name, help_text in (
        ("simulate", "run the solver and write time series, density "
                     "snapshots, and a reloadable manifest"),
        ("validate", "check the configured kernel set against its declared "
                     "hypotheses"),
        ("oracle", "integrate the closed moment system; compare against an "
                   "existing run if present"),
        ("truncation", "run a ladder of nested cutoffs and report "
                       "convergence of the moment histories"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to config file")
        p.add_argument("--out", default=None,
                       help="output directory (overrides output.dir)")
        p.add_argument("--threads", type=int, default=1,
                       help="worker threads; affects speed, never results")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _resolve_out(load_config(args.config), args.out)
        if args.command == "simulate":
            return cmd_simulate(cfg)
        if args.command == "validate":
            return cmd_validate(cfg)
        if args.command == "oracle":
            return cmd_oracle(cfg)
        if args.command == "truncation":
            return cmd_truncation(cfg, max(1, args.threads))
        raise ValueError(f"unhandled command {args.command!r}")
    except (PrionPdeError, ValueError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return exit_code_for(exc)


if __name__ == "__main__":
    sys.exit(main())

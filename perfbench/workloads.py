"""The benchmark's workloads: inputs made from a seed, one invocation of
the program, and the checks every invocation's outputs must pass.

Every workload starts from the shipped initial Gaussian (centre 3.0,
width 0.3, count 0.4, monomer 2.0).  A non-zero seed scales centre,
width and count by factors drawn from 1 +- 3%; seed 0 gives the shipped
values exactly.  The checks hold for any seed except the reference
check, which compares final (v, U0, U1) at seed 0 with values recorded
from the solver and so applies only there.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import math
import os
import random
import shutil
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from prionpde import cli, config, oracle, solver
from prionpde.grid import build_grid, project
from prionpde.kernels import ModelParams, make_special_family

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SHIPPED_GAUSSIAN = (3.0, 0.3, 0.4)
V0 = 2.0
SEED_SPREAD = 0.03
BALANCE_BUDGET = 1e-4   # acceptance #01: max |R| <= 1e-4 (v0 + U1(0))
ORACLE_BOUND = 1e-2     # acceptance #02
ORACLE_DT = 1e-4        # the CLI's default oracle step
REFERENCE_RTOL = 1e-10  # rounding level, so that reordered sums pass

Ledger = Mapping[str, np.ndarray]


def gaussian_params(seed: int):
    """(centre, width, count) of the initial Gaussian for a seed."""
    if seed == 0:
        return SHIPPED_GAUSSIAN
    rng = random.Random(seed)
    return tuple(b * (1.0 + SEED_SPREAD * rng.uniform(-1.0, 1.0))
                 for b in SHIPPED_GAUSSIAN)


def outer_steps(dt: float, t_end: float) -> int:
    """Steps the solver takes to reach t_end (same rule as solver.run)."""
    return 0 if t_end == 0.0 else max(1, int(math.ceil(t_end / dt - 1e-9)))


@dataclasses.dataclass
class Outcome:
    ledgers: List[Ledger]   # one per solver run (per level for the ladder)
    digest: str             # sha256 of the ledgers or of every output file
    output_bytes: int = 0   # bytes the CLI wrote; 0 for library workloads


class Workload:
    """One benchmark workload.  Subclasses define how an invocation runs
    and how its outputs are read back."""

    name: str
    why: str
    dt: float
    t_end: float
    runs_per_invocation = 1
    oracle_checked = True
    threads = 1

    def start(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self._oracles: Dict[tuple, object] = {}

    def steps(self, t_end: float) -> int:
        return self.runs_per_invocation * outer_steps(self.dt, t_end)

    def reset(self, t_end: float) -> None:
        """Prepare one invocation; not timed."""

    def invoke(self, t_end: float):
        """The timed call into the program."""
        raise NotImplementedError

    def collect(self, raw) -> Outcome:
        raise NotImplementedError

    def rates(self):
        """Closed-moment coefficients the oracle check uses."""
        raise NotImplementedError

    # -- checks -------------------------------------------------------------

    def check(self, out: Outcome, t_end: float) -> List[str]:
        """Problems with one invocation's outputs; empty when it passes."""
        problems = []
        if len(out.ledgers) != self.runs_per_invocation:
            return [f"{len(out.ledgers)} ledgers, expected "
                    f"{self.runs_per_invocation}"]
        rows = outer_steps(self.dt, t_end) + 1
        for i, led in enumerate(out.ledgers):
            if led["t"].size != rows:
                problems.append(f"run {i}: {led['t'].size} rows, expected {rows}")
                continue
            budget = BALANCE_BUDGET * (led["v"][0] + led["U1"][0])
            worst = float(np.max(np.abs(led["balance_residual"])))
            if not worst <= budget:
                problems.append(f"run {i}: balance residual {worst:.3e} "
                                f"above {budget:.3e}")
            low = float(np.min(led["min_u"]))
            if not low >= 0.0:
                problems.append(f"run {i}: negative density {low:.3e}")
        if problems or t_end == 0.0:
            return problems
        if self.oracle_checked:
            problems += self._check_oracle(out.ledgers[0], t_end)
        if t_end == self.t_end:
            problems += self._check_full_horizon(out)
        return problems

    def _check_oracle(self, led: Ledger, t_end: float) -> List[str]:
        state0 = oracle.MomentOdeState(v=float(led["v"][0]),
                                       U0=float(led["U0"][0]),
                                       U1=float(led["U1"][0]))
        key = (t_end, state0)
        if key not in self._oracles:
            self._oracles[key] = oracle.integrate_oracle(
                state0, self.rates(), t_end, min(ORACLE_DT, t_end / 10.0))
        report = oracle.compare(_Columns(led), self._oracles[key])
        return [f"oracle disagreement {name} {report[name]:.3e}"
                for name in ("v", "U0", "U1")
                if not report[name] <= ORACLE_BOUND]

    def _check_full_horizon(self, out: Outcome) -> List[str]:
        if self.seed != 0:
            return []
        ref = np.asarray(reference_values()[self.name])
        got = np.asarray(final_values(out))
        if got.shape != ref.shape or not np.allclose(got, ref, rtol=REFERENCE_RTOL,
                                                     atol=0.0):
            return [f"final (v, U0, U1) {got.tolist()} differ from the "
                    f"reference {ref.tolist()}"]
        return []


class _Columns:
    """Ledger adapter for oracle.compare, which reads columns by name."""

    def __init__(self, led: Ledger):
        self._led = led

    def column(self, name: str) -> np.ndarray:
        return self._led[name]


def final_values(out: Outcome) -> List[List[float]]:
    """Final (v, U0, U1) of every run in an invocation."""
    return [[float(led[name][-1]) for name in ("v", "U0", "U1")]
            for led in out.ledgers]


def reference_values() -> Dict[str, list]:
    with open(HERE / "reference.json") as fh:
        return json.load(fh)


# -- library workloads ---------------------------------------------------------

MAIN_PARAMS = ModelParams(production=1.0, degradation=0.5, saturation=0.0,
                          min_size=1.0)


class LibraryRun(Workload):
    """solver.run on the acceptance main configuration: special family
    (1.0, 0.1, 0.5, 0.2) on a geometric grid over [1, 200]."""

    dt = 1e-3

    def __init__(self, name: str, why: str, n_cells: int, skip_joining: bool,
                 t_end: float):
        self.name, self.why = name, why
        self.n_cells, self.skip_joining, self.t_end = n_cells, skip_joining, t_end

    def start(self, seed: int, workdir: Path) -> None:
        super().start(seed, workdir)
        self.kernel = make_special_family(1.0, 0.1, 0.5, 0.2, MAIN_PARAMS)
        grid = build_grid(1.0, 200.0, self.n_cells, "geometric")
        centre, width, count = gaussian_params(seed)
        amp = count / (width * math.sqrt(2.0 * math.pi))
        self.u0 = project(
            lambda y: amp * np.exp(-0.5 * ((np.asarray(y) - centre) / width) ** 2),
            grid)

    def invoke(self, t_end: float):
        cfg = solver.SolverConfig(dt=self.dt, t_end=t_end,
                                  skip_joining=self.skip_joining)
        return solver.run(self.u0, V0, self.kernel, cfg)

    def collect(self, raw) -> Outcome:
        led = raw.ledger
        columns = {name: led.column(name) for name in led.column_order()}
        digest = hashlib.sha256()
        for name, col in columns.items():
            digest.update(name.encode())
            digest.update(col.tobytes())
        return Outcome(ledgers=[columns], digest=digest.hexdigest())

    def rates(self):
        rates = oracle.rates_from_kernel_set(self.kernel)
        return dataclasses.replace(rates, join=0.0) if self.skip_joining else rates


# -- CLI workloads -------------------------------------------------------------

class CliRun(Workload):
    """In-process ``prionpde <command>`` on a shipped config, with the
    seeded Gaussian, the workload's horizon and any overrides."""

    def __init__(self, name: str, why: str, command: str, config_file: str,
                 t_end: float, overrides: Mapping[str, str], threads: int = 1):
        self.name, self.why, self.command = name, why, command
        self.config_file = REPO / config_file
        self.t_end, self.overrides = t_end, dict(overrides)
        self.threads = threads

    def start(self, seed: int, workdir: Path) -> None:
        super().start(seed, workdir)
        self.shipped = config.load_config(self.config_file)
        self.dt = self.shipped["solver.dt"]

    def _config_text(self, t_end: float) -> str:
        centre, width, count = gaussian_params(self.seed)
        changes = dict(self.overrides)
        changes.update({"initial.center": repr(centre),
                        "initial.width": repr(width),
                        "initial.count": repr(count),
                        "initial.monomer": repr(V0),
                        "solver.t_end": repr(t_end)})
        kept = [line for line in self.config_file.read_text().splitlines()
                if line.split("#", 1)[0].split("=", 1)[0].strip() not in changes]
        kept += [f"{key} = {value}" for key, value in changes.items()]
        return "\n".join(kept) + "\n"

    def _config_path(self, t_end: float) -> Path:
        return self.workdir / f"{self.name}-t{t_end!r}.cfg"

    @property
    def out_dir(self) -> Path:
        return self.workdir / "out"

    def reset(self, t_end: float) -> None:
        self._config_path(t_end).write_text(self._config_text(t_end))
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def invoke(self, t_end: float):
        argv = [self.command, "--config", str(self._config_path(t_end)),
                "--out", str(self.out_dir), "--threads", str(self.threads)]
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"prionpde {self.command} exited {code}: "
                               f"{err.getvalue().strip()}")
        return code

    def collect(self, raw) -> Outcome:
        digest = hashlib.sha256()
        size = 0
        files = sorted(p for p in self.out_dir.rglob("*") if p.is_file())
        for path in files:
            data = path.read_bytes()
            size += len(data)
            digest.update(str(path.relative_to(self.out_dir)).encode())
            digest.update(data)
        ledgers = [_read_csv(p) for p in files if p.name == "timeseries.csv"]
        return Outcome(ledgers=ledgers, digest=digest.hexdigest(),
                       output_bytes=size)

    def rates(self):
        k = config.parse_config_text(self._config_text(self.t_end)).build_kernel()
        return oracle.rates_from_kernel_set(k)


def _read_csv(path: Path) -> Dict[str, np.ndarray]:
    with open(path) as fh:
        names = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: data[:, i] for i, name in enumerate(names)}


class Ladder(CliRun):
    """The truncation ladder: one run per configured level, checked by the
    rungs of acceptance #08 rather than by the oracle, which holds only for
    untruncated rates."""

    oracle_checked = False

    def start(self, seed: int, workdir: Path) -> None:
        super().start(seed, workdir)
        self.runs_per_invocation = len(self.shipped["truncation.levels"])

    def _check_full_horizon(self, out: Outcome) -> List[str]:
        problems = super()._check_full_horizon(out)
        diffs = [{name: float(np.max(np.abs(a[name] - b[name])))
                  for name in ("v", "U0", "U1")}
                 for a, b in zip(out.ledgers, out.ledgers[1:])]
        for name in ("v", "U0", "U1"):
            if not diffs[0][name] > 0.0:
                problems.append(f"first rung of {name} is inactive")
            for a, b in zip(diffs, diffs[1:]):
                if not a[name] >= 2.0 * b[name]:
                    problems.append(f"rung of {name}: {a[name]:.3e} is below "
                                    f"twice the next, {b[name]:.3e}")
        return problems


def nproc() -> int:
    return len(os.sched_getaffinity(0))


WORKLOADS: Sequence[Workload] = (
    LibraryRun(
        "main-geo400",
        "acceptance main config, 400 geometric cells, dt 1e-3, 50 steps; "
        "joining-bound (5 joining applies per step), the ROADMAP 5 ms/step "
        "target. n=800 with joining (245 ms/step) is left out as too slow",
        n_cells=400, skip_joining=False, t_end=0.05),
    LibraryRun(
        "nojoin-geo800",
        "main model with skip_joining on 800 geometric cells, 500 steps; "
        "joining bypassed, so fragmentation, transport, ledger and "
        "per-step overhead show",
        n_cells=800, skip_joining=True, t_end=0.5),
    CliRun(
        "simulate-uniform",
        "in-process prionpde simulate on basic.cfg with a uniform grid: "
        "i+j joining targets, oracle, config parser and CSV writers",
        command="simulate", config_file="demos/configs/basic.cfg", t_end=0.25,
        overrides={"grid.spacing": "uniform"}),
    Ladder(
        "truncation-ladder",
        "in-process prionpde truncation on truncation.cfg, levels 1,2,4,8 "
        "on 192 cells, nproc threads: four runs on one grid, planning and "
        "table rebuilds",
        command="truncation", config_file="demos/configs/truncation.cfg",
        t_end=0.1, overrides={}, threads=nproc()),
)


def get(name: str) -> Optional[Workload]:
    return next((w for w in WORKLOADS if w.name == name), None)

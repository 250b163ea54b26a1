"""Run records and verification functionals.

A run is a sequence of Snapshot states (t, v, u).  LedgerAccumulator
turns that sequence into ledger rows, one per state, and is the only
place where run integrals are accumulated: the monomer and death-moment
integrals of the balance, and one weak-form flux integral per test
function.  The solver drives it step by step; recompute_ledger replays
it over stored snapshots, so a ledger rebuilt from every-step snapshots
is bit-identical to the one the solver wrote, with every balance and
wf_<name> column in one pass.  Post-hoc checks (support envelope,
second-moment bound, uniform-integrability split) work on snapshot
trajectories alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Callable, Dict, Iterable, List, Mapping,
                    Optional, Sequence, Tuple)

import numpy as np

from .errors import (
    EtaCutoffViolated,
    InsufficientSnapshots,
    WrongFamily,
    ZeroMass,
)
from ._ode import rk4_step
from .grid import GridFunction, SizeGrid, moment
from .kernels import ConstantRate, HypothesisFamily, KernelSet
from .operators import Evaluation, ReactionOperator, integrability_coefficients

if TYPE_CHECKING:  # solver imports this module
    from .solver import SolverConfig

__all__ = [
    "TestFunction",
    "builtin_test_functions",
    "select_test_functions",
    "consistency_residual",
    "Snapshot",
    "RunResult",
    "DiagnosticsLedger",
    "LedgerAccumulator",
    "recompute_ledger",
    "support_bound",
    "m2_bound_check",
    "higher_moment_series",
    "vallee_poussin_weight",
    "uniform_integrability_report",
    "write_csv",
]

SUPPORT_THRESHOLD = 1e-10
TAIL_FRACTION = 0.9

CORE_COLUMNS = (
    "t", "v", "U0", "U1", "M2", "balance_residual", "min_u",
    "tail_mass", "support_numeric", "support_bound",
)


# -- test functions --------------------------------------------------------

@dataclass(frozen=True)
class TestFunction:
    """A weight for weak-form bookkeeping: value and slope closures must
    agree (probed by finite differences away from declared kinks)."""

    __test__ = False  # not a test case, despite the name

    name: str
    value: Callable
    slope: Callable
    kinks: Tuple[float, ...] = ()


def consistency_residual(tf: TestFunction, ys: np.ndarray) -> float:
    """Largest mismatch between the slope closure and a fourth-order
    central difference of the value closure, relative to the value
    scale.  Points too close to a declared kink are skipped."""
    ys = np.asarray(ys, dtype=float)
    scale = max(1.0, float(np.max(np.abs(tf.value(ys)))))
    h = 1e-3 * max(1.0, float(np.max(np.abs(ys)))) * 1e-2
    keep = np.ones(ys.shape, dtype=bool)
    for kink in tf.kinks:
        keep &= np.abs(ys - kink) > 10.0 * h
    ys = ys[keep]
    if ys.size == 0:
        return 0.0
    fd = (8.0 * (tf.value(ys + h) - tf.value(ys - h))
          - (tf.value(ys + 2 * h) - tf.value(ys - 2 * h))) / (12.0 * h)
    return float(np.max(np.abs(fd - tf.slope(ys)))) / scale


def _cosine_taper(a: float, b: float):
    def taper(y):
        y = np.asarray(y, dtype=float)
        s = np.clip((y - a) / (b - a), 0.0, 1.0)
        return 0.5 * (1.0 + np.cos(np.pi * s))

    def taper_slope(y):
        y = np.asarray(y, dtype=float)
        s = (y - a) / (b - a)
        inside = (s > 0.0) & (s < 1.0)
        out = np.zeros_like(y)
        out[inside] = -0.5 * np.pi * np.sin(np.pi * s[inside]) / (b - a)
        return out

    return taper, taper_slope


def select_test_functions(grid: SizeGrid, k: KernelSet,
                          names: Optional[Sequence[str]]
                          ) -> Optional[Tuple[TestFunction, ...]]:
    """The built-in test functions with the given names, in that order,
    each named once; None (the accumulator's default, all of them) when
    names is None."""
    if names is None:
        return None
    available = {tf.name: tf for tf in builtin_test_functions(grid, k)}
    unknown = [name for name in names if name not in available]
    if unknown:
        raise ValueError(
            f"unknown test functions {unknown}; "
            f"choose from {sorted(available)}")
    if len(set(names)) < len(names):
        raise ValueError(f"repeated test functions in {list(names)}")
    return tuple(available[name] for name in names)


def builtin_test_functions(grid: SizeGrid, k: KernelSet) -> Tuple[TestFunction, ...]:
    """The standard weight set: constant, size, capped size, tapered
    square, and a soft exponential."""
    cap = k.join_zero_beyond if k.join_zero_beyond is not None else 0.5 * grid.ymax
    a, b = 0.45 * grid.ymax, 0.7 * grid.ymax
    taper, taper_slope = _cosine_taper(a, b)
    ymax = grid.ymax

    def capped(y):
        return np.minimum(np.asarray(y, dtype=float), cap)

    def capped_slope(y):
        return (np.asarray(y, dtype=float) < cap).astype(float)

    return (
        TestFunction(
            "one",
            value=lambda y: np.ones_like(np.asarray(y, dtype=float)),
            slope=lambda y: np.zeros_like(np.asarray(y, dtype=float)),
        ),
        TestFunction(
            "size",
            value=lambda y: np.asarray(y, dtype=float),
            slope=lambda y: np.ones_like(np.asarray(y, dtype=float)),
        ),
        TestFunction("size_capped", value=capped, slope=capped_slope,
                     kinks=(cap,)),
        TestFunction(
            "square_tapered",
            value=lambda y: np.asarray(y, dtype=float) ** 2 * taper(y),
            slope=lambda y: (2.0 * np.asarray(y, dtype=float) * taper(y)
                             + np.asarray(y, dtype=float) ** 2 * taper_slope(y)),
            kinks=(a, b),
        ),
        TestFunction(
            "soft_exp",
            value=lambda y: np.exp(-np.asarray(y, dtype=float) / ymax),
            slope=lambda y: -np.exp(-np.asarray(y, dtype=float) / ymax) / ymax,
        ),
    )


# -- trajectory containers -------------------------------------------------

@dataclass(frozen=True)
class Snapshot:
    t: float
    v: float
    u: GridFunction


@dataclass(frozen=True)
class RunResult:
    """A run, finished or cut short: the kept snapshots, the ledger and
    the solver options it ran with, which are all a replay needs."""

    snapshots: Tuple[Snapshot, ...]
    ledger: "DiagnosticsLedger"
    config: "SolverConfig"


class DiagnosticsLedger:
    """Column store of per-step run records, the columns in their
    on-disk order; LedgerAccumulator decides which columns a run has."""

    def __init__(self, columns: Sequence[str]):
        self._columns: Dict[str, List[float]] = {name: [] for name in columns}
        self._keys = frozenset(self._columns)

    def column_order(self) -> Tuple[str, ...]:
        return tuple(self._columns)

    def record(self, row: Mapping[str, float]) -> None:
        if row.keys() != self._keys:
            missing = self._keys - set(row)
            extra = set(row) - self._keys
            raise ValueError(f"row keys mismatch: missing {sorted(missing)}, "
                             f"unexpected {sorted(extra)}")
        for name, value in row.items():
            self._columns[name].append(float(value))

    def __len__(self) -> int:
        return len(self._columns["t"])

    def column(self, name: str) -> np.ndarray:
        return np.asarray(self._columns[name], dtype=float)

    def to_csv(self, path) -> None:
        names = self.column_order()
        write_csv(path, names, zip(*(self._columns[name] for name in names)))


def write_csv(path, header: Sequence[str],
              rows: Iterable[Sequence[float]]) -> None:
    """The header line, then one line per row with every value at 17
    significant digits, enough to round-trip a double.  A row of another
    length than the header raises TypeError."""
    line = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(line % tuple(row))


# -- incremental accumulator ----------------------------------------------

class LedgerAccumulator:
    """Produces ledger rows from a state sequence.  The run integrals
    are one trapezoid over one integrand vector per state: the monomer
    count, the death moment, then one weak-form flux per test function.
    They and the support envelope advance in step with the calls, using
    only the visited states, so a replay over the same states reproduces
    every row bit for bit.

    The weak-form fluxes need each state's reaction right-hand side.
    The solver evaluates it once per state for its own stepping and
    hands it, as ReactionOperator.rhs returns it, to start and advance;
    a replay passes none, and the accumulator evaluates it from the
    stored state with the same operator.  Either way the value is the
    same floats, so replay stays independent of the run and still
    bit-identical to it.

    The ledger's columns are the core columns, one wf_<name> per test
    function, then M_sigma with an extra moment and I1, I2 with an
    integrability weight."""

    def __init__(
        self,
        k: KernelSet,
        reaction: ReactionOperator,
        test_functions: Optional[Sequence[TestFunction]] = None,
        extra_moment: Optional[float] = None,
        integrability_weight: Optional[TestFunction] = None,
    ):
        self.k = k
        self.reaction = reaction
        self.grid = grid = reaction.grid
        self.tfs = tuple(test_functions if test_functions is not None
                         else builtin_test_functions(grid, k))
        self.extra_moment = extra_moment
        self.weight = integrability_weight
        c = grid.centers
        # the second-moment weights, and the cells of the tail (centers
        # increase); the first moment's are the reaction operator's
        self._m2_weights = grid.widths * c ** 2
        self._tail = slice(grid.n - np.count_nonzero(c > TAIL_FRACTION * grid.ymax),
                           None)
        self._phi_vals = [np.asarray(tf.value(c), dtype=float) for tf in self.tfs]
        self._phi_slopes = [np.asarray(tf.slope(c), dtype=float) for tf in self.tfs]
        self._wf_columns = tuple(f"wf_{tf.name}" for tf in self.tfs)
        columns = CORE_COLUMNS + self._wf_columns
        if extra_moment is not None:
            columns += ("M_sigma",)
        if self.weight is not None:
            self._i_coeffs = integrability_coefficients(k, grid, self.weight.value)
            columns += ("I1", "I2")
        self.ledger = DiagnosticsLedger(columns)
        self._started = False

    @classmethod
    def for_run(cls, k: KernelSet, reaction: ReactionOperator,
                u0: GridFunction, cfg: "SolverConfig") -> "LedgerAccumulator":
        """The accumulator of a run of k from u0 under cfg, with the test
        functions, extra moment and integrability weight cfg selects:
        the one rule the solver and the replay share."""
        weight = vallee_poussin_weight(u0) if cfg.uniform_integrability else None
        tfs = select_test_functions(u0.grid, k, cfg.test_functions)
        return cls(k, reaction, tfs, cfg.extra_moment, weight)

    # per-state quantities -------------------------------------------------

    def _integrands(self, v: float, speed: float, u: np.ndarray,
                    rhs: Optional[Evaluation]) -> np.ndarray:
        """[v, death moment, one weak-form flux per test function] at a
        state; without test functions the rhs is not needed."""
        out = np.empty(2 + len(self.tfs))
        out[0] = v
        out[1] = self.reaction.death_moment(u)
        if not self.tfs:
            return out
        w = self.grid.widths
        grown = self.reaction.growth_at_centers * u * w
        reacted = (self.reaction.rhs(u) if rhs is None else rhs)[0] * w
        for i in range(len(self.tfs)):
            transport = speed * float(np.dot(self._phi_slopes[i], grown))
            out[2 + i] = transport + float(np.dot(self._phi_vals[i], reacted))
        return out

    def _support_numeric(self, u: np.ndarray) -> float:
        peak = float(np.max(u))
        if peak <= 0.0:
            return self.grid.y0
        above = u > SUPPORT_THRESHOLD * peak
        if not np.any(above):
            return self.grid.y0
        return float(self.grid.centers[np.flatnonzero(above)[-1]])

    def _envelope_rhs(self, s: float) -> float:
        if isinstance(self.k.growth, ConstantRate):
            return self.k.growth.value
        s = min(s, self.grid.ymax)
        return float(np.asarray(self.k.growth(np.array([s])), dtype=float)[0])

    def _advance_envelope(self, dt: float, sp0: float, sp1: float) -> None:
        if not np.isfinite(self._envelope):
            return

        def f(t_local, s):
            w0 = 1.0 - t_local / dt
            sp = w0 * sp0 + (1.0 - w0) * sp1
            return sp * self._envelope_rhs(s)

        self._envelope = min(rk4_step(f, 0.0, self._envelope, dt), self.grid.ymax)

    # row production -------------------------------------------------------

    def start(self, t: float, v: float, u: GridFunction,
              envelope_start: Optional[float] = None,
              rhs: Optional[Evaluation] = None) -> Mapping[str, float]:
        """First row.  The support envelope starts at the numeric support
        or the pair cutoff (infinite for uncut joining); envelope_start,
        when given, raises that start (replacing an infinite one).  rhs,
        when given, is self.reaction.rhs(u.values)."""
        if self._started:
            raise RuntimeError("accumulator already started")
        self._started = True
        arr = u.values
        self._t = t
        self._speed_prev = self.reaction.speed(v, arr)
        self._init_total = v + moment(self.grid, arr, 1)
        self._phi0 = [float(np.dot(pv, arr * self.grid.widths))
                      for pv in self._phi_vals]
        self._prev = self._integrands(v, self._speed_prev, arr, rhs)
        self._integrals = np.zeros_like(self._prev)
        self._t0 = t
        if self.reaction.joins and self.k.join_zero_beyond is None:
            self._envelope = math.inf
        else:
            s1 = self.k.join_zero_beyond or 0.0
            self._envelope = max(self._support_numeric(arr), s1)
        if envelope_start is not None:
            finite = self._envelope if np.isfinite(self._envelope) else 0.0
            self._envelope = max(finite, envelope_start)
        row = self._row(t, v, arr)
        self.ledger.record(row)
        return row

    def advance(self, t: float, v: float, u: GridFunction,
                rhs: Optional[Evaluation] = None) -> Mapping[str, float]:
        """Next row; rhs, when given, is self.reaction.rhs(u.values)."""
        if not self._started:
            raise RuntimeError("call start first")
        dt = t - self._t
        if dt <= 0.0:
            raise ValueError("times must increase")
        arr = u.values
        speed_now = self.reaction.speed(v, arr)
        now = self._integrands(v, speed_now, arr, rhs)
        self._integrals += 0.5 * dt * (self._prev + now)
        self._advance_envelope(dt, self._speed_prev, speed_now)
        self._t, self._speed_prev, self._prev = t, speed_now, now
        row = self._row(t, v, arr)
        self.ledger.record(row)
        return row

    @property
    def accum_v_integral(self) -> float:
        return float(self._integrals[0])

    @property
    def accum_mu_integral(self) -> float:
        return float(self._integrals[1])

    def _row(self, t: float, v: float, arr: np.ndarray) -> Dict[str, float]:
        g = self.grid
        counts = arr * g.widths
        u1 = float(np.dot(arr, self.reaction.first_moment_weights))
        p = self.k.params
        accum_v, accum_mu = self._integrals[:2]
        balance = ((v + u1) - self._init_total - p.production * (t - self._t0)
                   + p.degradation * accum_v + accum_mu)
        tail = self._tail
        row: Dict[str, float] = {
            "t": t,
            "v": v,
            "U0": float(np.dot(arr, g.widths)),
            "U1": u1,
            "M2": float(np.dot(arr, self._m2_weights)),
            "balance_residual": balance,
            "min_u": float(np.min(arr)),
            "tail_mass": float(np.dot(arr[tail], g.widths[tail])),
            "support_numeric": self._support_numeric(arr),
            "support_bound": self._envelope,
        }
        wf_accum = self._integrals[2:]
        for i, name in enumerate(self._wf_columns):
            lhs = float(np.dot(self._phi_vals[i], counts)) - self._phi0[i]
            row[name] = (lhs - wf_accum[i]) / max(1.0, abs(lhs))
        if self.extra_moment is not None:
            row["M_sigma"] = moment(g, arr, self.extra_moment)
        if self.weight is not None:
            i1c, i2c = self._i_coeffs
            intensity = self.reaction.frag.frag_at_centers * arr * g.widths
            row["I1"] = float(np.dot(intensity, i1c))
            row["I2"] = float(np.dot(intensity, i2c))
        return row


def _replay(result: RunResult, k: KernelSet,
            envelope_start: Optional[float] = None,
            **options) -> LedgerAccumulator:
    """An accumulator driven over the snapshots, with joining on or off
    as the run had it, and the run's ledger options unless options
    (LedgerAccumulator keywords) are given."""
    snaps = result.snapshots
    reaction = ReactionOperator.build(k, snaps[0].u.grid,
                                      result.config.skip_joining)
    acc = (LedgerAccumulator(k, reaction, **options) if options else
           LedgerAccumulator.for_run(k, reaction, snaps[0].u, result.config))
    acc.start(snaps[0].t, snaps[0].v, snaps[0].u, envelope_start=envelope_start)
    for snap in snaps[1:]:
        acc.advance(snap.t, snap.v, snap.u)
    return acc


def recompute_ledger(result: RunResult, k: KernelSet) -> DiagnosticsLedger:
    """Rebuild a ledger from a snapshot trajectory, with the ledger
    options of the run's solver options.  Over every-step snapshots this
    reproduces the solver's ledger bit for bit, because both paths drive
    the same accumulator with the same states; that holds for a partial
    result too.  Over sparser snapshots the trapezoid integrals are
    taken between them, so column("wf_<name>")[-1] is the off-line
    weak-form residual of each test function."""
    snaps = result.snapshots
    if len(snaps) < 1:
        raise InsufficientSnapshots("need at least one snapshot")
    return _replay(result, k).ledger


# -- standalone functionals ------------------------------------------------

def support_bound(
    result: RunResult,
    k: KernelSet,
    S0: Optional[float] = None,
    S1: Optional[float] = None,
) -> np.ndarray:
    """Envelope S(t) with S' = speed * growth(S) along the snapshot
    times, started from max(S0, S1).  Requires the joining rate to
    vanish for pair sizes beyond S1; verified on a sample lattice."""
    snaps = result.snapshots
    if len(snaps) < 2:
        raise InsufficientSnapshots("need at least two snapshots")
    grid = snaps[0].u.grid
    cutoff = S1 if S1 is not None else k.join_zero_beyond
    if S0 is not None or S1 is not None:
        start = max(S0 if S0 is not None else 0.0, cutoff or 0.0)
    else:
        start = None
    acc = _replay(result, k, start, test_functions=[])
    if acc.reaction.joins:
        if cutoff is None:
            raise EtaCutoffViolated(
                "the joining rate declares no pair-size cutoff")
        ys = np.linspace(grid.y0, grid.ymax, 128)
        yy, zz = np.meshgrid(ys, ys)
        sel = yy + zz > cutoff
        vals = np.asarray(k.join(yy[sel], zz[sel]), dtype=float)
        scale = max(1.0, float(np.max(np.abs(acc.reaction.join.rate))))
        if vals.size and float(np.max(np.abs(vals))) > 1e-12 * scale:
            raise EtaCutoffViolated(
                "joining rate does not vanish beyond the declared cutoff")
    return acc.ledger.column("support_bound")


def m2_bound_check(result: RunResult, k: KernelSet,
                   refined: Optional[RunResult] = None) -> Dict[str, float]:
    """Fit the constant in the second-moment barrier M2 <= C(1+t^{-1/zeta})
    for the unbounded family with superlinear pair rates.  With a refined
    run, also report the relative change of the fitted constant."""
    if k.hypothesis_family is not HypothesisFamily.WEAK_UNBOUNDED:
        raise WrongFamily("second-moment barrier applies to the unbounded family")
    gc = k.growth_constants
    theta = gc.join_exp_total
    if theta is None or theta <= 1.0:
        raise WrongFamily("pair-rate exponent sum must exceed one")
    zeta = gc.frag_floor_exp
    if zeta is None or zeta <= 0.0:
        raise WrongFamily("splitting growth floor exponent missing")

    def fit(res: RunResult) -> float:
        best = 0.0
        for snap in res.snapshots:
            if snap.t <= 0.0:
                continue
            m2 = moment(snap.u.grid, snap.u.values, 2)
            best = max(best, m2 / (1.0 + snap.t ** (-1.0 / zeta)))
        return best

    report = {"constant": fit(result), "zeta": zeta, "theta": theta}
    if refined is not None:
        other = fit(refined)
        report["refined_constant"] = other
        report["relative_change"] = (abs(other - report["constant"])
                                     / max(report["constant"], 1e-300))
    return report


def higher_moment_series(result: RunResult, sigma: float):
    """Moment of order sigma along the snapshots, with an exponential
    envelope fitted on the first quarter of the horizon and a flag for
    whether the rest of the series stays below it."""
    times = np.array([s.t for s in result.snapshots])
    values = np.array([moment(s.u.grid, s.u.values, sigma)
                       for s in result.snapshots])
    if values[0] <= 0.0:
        raise ZeroMass("initial moment vanishes; no envelope to fit")
    t_end = times[-1]
    rate = 0.0
    for t, m in zip(times, values):
        if 0.0 < t <= 0.25 * t_end and m > 0.0:
            rate = max(rate, math.log(m / values[0]) / t)
    envelope = values[0] * np.exp(rate * times)
    ok = bool(np.all(values <= envelope * (1.0 + 1e-8)))
    return times, values, ok, rate


def vallee_poussin_weight(u0: GridFunction) -> TestFunction:
    """Convex superlinear weight adapted to the initial density: grows
    like y log y past the size below which 99 percent of the bound mass
    sits.  Integrable against any density with finite first moment yet
    stricter than it, which is what uniform-integrability arguments
    need."""
    grid = u0.grid
    masses = u0.values * grid.widths * grid.centers
    total = float(np.sum(masses))
    if total <= 0.0:
        raise ZeroMass("initial density carries no bound mass")
    cum = np.cumsum(masses)
    idx = int(np.searchsorted(cum, 0.99 * total))
    y_tail = float(grid.centers[min(idx, grid.n - 1)])

    def value(y):
        y = np.asarray(y, dtype=float)
        return y * np.log1p(y / y_tail)

    def slope(y):
        y = np.asarray(y, dtype=float)
        return np.log1p(y / y_tail) + y / (y_tail + y)

    return TestFunction("uniform_integrability", value=value, slope=slope)


def uniform_integrability_report(
    result: RunResult, k: KernelSet, weight: Optional[TestFunction] = None
) -> Dict[str, np.ndarray]:
    """Per-snapshot weighted moment and the two dissipation series, the
    ledger's I1 and I2 replayed with the weight; both series must be
    non-negative, which the caller should assert."""
    snaps = result.snapshots
    grid = snaps[0].u.grid
    weight = weight if weight is not None else vallee_poussin_weight(snaps[0].u)
    ledger = _replay(result, k, test_functions=(),
                     integrability_weight=weight).ledger
    report = {name: ledger.column(name) for name in ("t", "I1", "I2")}
    phi_c = np.asarray(weight.value(grid.centers), dtype=float)
    report["weighted_moment"] = np.array(
        [float(np.dot(phi_c, s.u.values * grid.widths)) for s in snaps])
    return report

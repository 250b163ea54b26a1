"""Time integration of the coupled monomer / size-density system.

One step is a symmetric splitting: half a reaction interval, the full
transport interval, half a reaction interval.  The reaction part evolves
the density by degradation, splitting, and joining with an explicit
Heun rule (sub-stepped so no cell loses more than half its content per
substep; an interval needing more than MAX_SUBSTEPS raises BlowUp) and
the monomer by the exact solution of its linear equation
with coefficients frozen to the average of the interval's endpoint
states.  Transport moves cell masses along exact characteristics with an
effective time speed * dt, the speed taken from the splitting midpoint.

The density stays non-negative structurally (explicit sub-stepping of
loss-bounded rates, mass re-deposit, positive closed form for the
monomer); negatives can only appear at rounding level and are clipped
within the configured tolerance, anything larger is a hard error.

The state between steps is a diagnostics.Snapshot (t, v, u).  The run
integrals that the ledger's balance needs (monomer and death moment)
are accumulated by diagnostics.LedgerAccumulator alone.

Each run builds one Machinery (reaction operator, characteristic map,
positivity floor) and evaluates each accepted state once, the "first
same as last" reuse of explicit Runge-Kutta pairs carried across the
step boundary: run evaluates the initial state, each step its new state
after the step's checks.  The evaluation, ReactionOperator.rhs's
right-hand side and largest loss rate, goes to the ledger's weak-form
fluxes and to the next step as its first stage and substep scale.  It
is passed explicitly, never cached; Snapshot stays a pure state record,
and a replay of the ledger evaluates its own.  A Strang step's last
reaction half ends on the new state, so the step also hands over the
monomer drain and gain that half evaluated there, and the next step's
first half starts from them (a Handover); a Lie step ends on a
transported state, and the next step evaluates both.  Every accepted
state is evaluated, with or without test functions, so the
evaluation's checks (joining flux leaving the grid) read the same
states in every run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple, Union

import numpy as np

from .diagnostics import LedgerAccumulator, RunResult, Snapshot
from .errors import (
    BlowUp,
    MassEscape,
    NegativeMonomer,
    PositivityError,
)
from .grid import GridFunction
from .kernels import KernelSet
from .operators import (
    CharacteristicMap,
    Evaluation,
    GridTables,
    ReactionOperator,
    characteristic_map,
    transport_remap,
)

__all__ = [
    "SolverConfig",
    "Machinery",
    "build_machinery",
    "step",
    "run",
]

SPLITTINGS = ("lie", "strang")
REACTION_INTEGRATORS = ("euler", "rk2")
MAX_STEPS = 10**7       # a longer run is refused as configured
MAX_SUBSTEPS = 10**4    # a reaction interval needing more raises BlowUp


@dataclass(frozen=True)
class SolverConfig:
    dt: float
    t_end: float
    splitting: str = "strang"
    reaction_integrator: str = "rk2"
    positivity_tolerance: Optional[float] = None
    snapshot_times: Tuple[float, ...] = ()
    tail_mass_bound: Optional[float] = None
    skip_joining: bool = False
    extra_moment: Optional[float] = None
    uniform_integrability: bool = False
    test_functions: Optional[Tuple[str, ...]] = None

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError("dt must be positive and finite")
        if not (math.isfinite(self.t_end) and self.t_end >= 0.0):
            raise ValueError("t_end must be non-negative and finite")
        if not self.t_end / self.dt <= MAX_STEPS:
            raise ValueError(f"t_end / dt = {self.t_end}/{self.dt} is not a "
                             f"finite step count of at most {MAX_STEPS}")
        if self.splitting not in SPLITTINGS:
            raise ValueError(f"splitting must be one of {SPLITTINGS}")
        if self.reaction_integrator not in REACTION_INTEGRATORS:
            raise ValueError(
                f"reaction_integrator must be one of {REACTION_INTEGRATORS}")
        tol = self.positivity_tolerance
        if tol is not None and not (math.isfinite(tol) and tol >= 0):
            raise ValueError(
                f"positivity_tolerance must be non-negative and finite, got {tol}")
        bound = self.tail_mass_bound
        if bound is not None and math.isnan(bound):
            raise ValueError("tail_mass_bound must not be nan (inf means no bound)")
        if bound is not None and bound < 0.0:
            raise ValueError(f"tail_mass_bound must be non-negative, got {bound}")
        if not all(math.isfinite(ts) for ts in self.snapshot_times):
            raise ValueError("snapshot_times must be finite")
        if self.extra_moment is not None and not math.isfinite(self.extra_moment):
            raise ValueError("extra_moment must be finite")


@dataclass(frozen=True)
class Machinery:
    """The apparatus of one run: reaction, transport and clipping floor."""

    reaction: ReactionOperator
    transport: CharacteristicMap
    positivity_floor: float


def build_machinery(k: KernelSet, u0: GridFunction, cfg: SolverConfig,
                    shared: Optional[GridTables] = None) -> Machinery:
    """The apparatus of k on u0's grid; the default positivity floor
    scales with u0's peak.  shared, when given, holds the rate-free
    tables (see GridTables)."""
    peak = float(np.max(u0.values)) if u0.values.size else 0.0
    floor = (cfg.positivity_tolerance if cfg.positivity_tolerance is not None
             else 1e-12 * max(peak, 1e-300))
    return Machinery(
        reaction=ReactionOperator.build(k, u0.grid, cfg.skip_joining, shared),
        transport=characteristic_map(k.growth, u0.grid),
        positivity_floor=floor)


def _clip_positive(u: np.ndarray, floor: float) -> np.ndarray:
    low = float(np.min(u))
    if low < -floor:
        raise PositivityError(
            f"density dipped to {low}, beyond the tolerance {-floor}")
    if low < 0.0:
        u = np.where(u < 0.0, 0.0, u)
    return u


class Handover(NamedTuple):
    """What a reaction interval starts from: ReactionOperator.rhs's
    right-hand side and largest loss rate at its density, and the
    monomer (drain, gain) there when the caller has them, else None."""

    rhs: np.ndarray
    scale: float
    monomer: Optional[Tuple[float, float]] = None


def _react(v: float, u: np.ndarray, h: float, mach: Machinery, cfg: SolverConfig,
           start: Handover) -> Tuple[float, np.ndarray, Tuple[float, float]]:
    """Advance density and monomer over a reaction interval of length h
    from start, the Handover at u.  Returns the new monomer count and
    density, and the drain and gain at that density."""
    r = mach.reaction
    f0, scale, monomer = start
    want = h * scale / 0.5
    if not want <= MAX_SUBSTEPS:
        raise BlowUp(f"loss rate {scale:g} needs {want:g} reaction substeps, "
                     f"more than {MAX_SUBSTEPS}; shrink dt")
    drain0, gain0 = monomer if monomer is not None else (r.drain(u),
                                                         r.frag.monomer_gain(u))
    substeps = max(1, int(math.ceil(want)))
    hs = h / substeps
    for i in range(substeps):
        if i > 0:
            f0, _ = r.rhs(u)
        if cfg.reaction_integrator == "euler":
            u = _clip_positive(u + hs * f0, mach.positivity_floor)
        else:
            pred = _clip_positive(u + hs * f0, mach.positivity_floor)
            f1, _ = r.rhs(pred)
            u = _clip_positive(u + 0.5 * hs * (f0 + f1), mach.positivity_floor)
    drain1 = r.drain(u)
    gain1 = r.frag.monomer_gain(u)
    a = r.params.degradation + 0.5 * (drain0 + drain1)
    b = r.params.production + 0.5 * (gain0 + gain1)
    if a > 0.0:
        v_new = (v - b / a) * math.exp(-a * h) + b / a
    else:
        v_new = v + b * h
    return v_new, u, (drain1, gain1)


def step(state: Snapshot, cfg: SolverConfig, mach: Machinery,
         start: Union[Evaluation, Handover], dt: float) -> Tuple[Snapshot, Handover]:
    """One splitting step of length dt from the given state.

    start is mach.reaction.rhs(state.u.values), or the Handover the step
    that produced the state returned, and serves as the first stage.
    The step returns the new state and the Handover at its density, made
    after the step's checks, for the caller to hand to the ledger and to
    the next step.  A Strang step's last reaction half ends on the new
    state, so its Handover carries the drain and gain there; a Lie
    step's carries None."""
    grid = state.u.grid
    strang = cfg.splitting == "strang"
    v, u, monomer = _react(state.v, state.u.values, 0.5 * dt if strang else dt,
                           mach, cfg, Handover(*start))
    moved, esc_count, _esc_mass = transport_remap(
        mach.transport, GridFunction(grid, u), mach.reaction.speed(v, u) * dt)
    u = moved.values
    if strang:
        v, u, monomer = _react(v, u, 0.5 * dt, mach, cfg,
                               Handover(*mach.reaction.rhs(u)))
    else:
        monomer = None
    if esc_count > 0.0:
        raise MassEscape(
            f"{esc_count:g} polymers crossed the grid end during transport")
    if not (np.all(np.isfinite(u)) and np.isfinite(v)):
        raise BlowUp("non-finite state; shrink dt")
    scale = max(1.0, abs(state.v))
    if v < -1e-12 * scale:
        raise NegativeMonomer(f"monomer count fell to {v}")
    new = Snapshot(t=state.t + dt, v=max(v, 0.0), u=GridFunction(grid, u))
    return new, Handover(*mach.reaction.rhs(new.u.values), monomer)


def _step_count(cfg: SolverConfig) -> int:
    """Steps to t_end: steps of dt, the last one t_end less the time
    reached, so the clock ends on t_end exactly.  A remainder under the
    clock's worst rounding drift (a half ulp of t_end per step) or under
    1e-9 dt goes into the step before, which keeps the last step
    positive."""
    if cfg.t_end == 0.0:
        return 0
    ratio = cfg.t_end / cfg.dt
    return max(1, int(math.ceil(ratio - max(1e-9, 2.3e-16 * ratio * ratio))))


def _snapshot_steps(cfg: SolverConfig, n_steps: int) -> set:
    wanted = {0, n_steps}
    for ts in cfg.snapshot_times:
        idx = int(round(ts / cfg.dt))
        wanted.add(min(max(idx, 0), n_steps))
    return wanted


def run(
    u0: GridFunction,
    v0: float,
    k: KernelSet,
    cfg: SolverConfig,
    shared: Optional[GridTables] = None,
) -> RunResult:
    """Integrate from the initial pair to the horizon, recording one
    ledger row per step and snapshots at the steps nearest the requested
    times (the initial and final states are always kept).  shared, when
    given, holds the rate-free tables of k's daughter on u0's grid, built
    once for runs that share them (the levels of a truncation ladder);
    the run builds its own otherwise.

    On a solver error the exception carries the work so far, a RunResult
    like the one a finished run returns, in its partial_result
    attribute."""
    if not math.isfinite(v0):
        raise BlowUp(f"initial monomer count {v0} is not finite")
    if v0 < 0.0:
        raise NegativeMonomer(f"initial monomer count {v0} is negative")
    mach = build_machinery(k, u0, cfg, shared)
    acc = LedgerAccumulator.for_run(k, mach.reaction, u0, cfg)
    state = Snapshot(t=0.0, v=float(v0), u=u0.copy())
    tail_bound = (cfg.tail_mass_bound if cfg.tail_mass_bound is not None
                  else 1e-8 * max(1.0, u0.moment(1)))
    n_steps = _step_count(cfg)
    snap_steps = _snapshot_steps(cfg, n_steps)
    snapshots = [state]
    try:
        f = mach.reaction.rhs(state.u.values)  # the current state's evaluation
        acc.start(state.t, state.v, state.u, rhs=f)
        for i in range(1, n_steps + 1):
            h = cfg.dt if i < n_steps else cfg.t_end - state.t
            state, f = step(state, cfg, mach, f, h)
            row = acc.advance(state.t, state.v, state.u, rhs=f)
            if row["tail_mass"] > tail_bound:
                raise MassEscape(
                    f"count {row['tail_mass']:g} in the outer tenth of the "
                    f"grid exceeded the bound {tail_bound:g}")
            if i in snap_steps:
                snapshots.append(state)
    except Exception as err:
        err.partial_result = RunResult(tuple(snapshots), acc.ledger, cfg)
        raise
    return RunResult(tuple(snapshots), acc.ledger, cfg)

"""Time integration of the coupled monomer / size-density system.

One step is a symmetric splitting: half a reaction interval, the full
transport interval, half a reaction interval.  The reaction part evolves
the density by degradation, splitting, and joining with an explicit
Heun rule (sub-stepped so no cell loses more than half its content per
substep) and the monomer by the exact solution of its linear equation
with coefficients frozen to the average of the interval's endpoint
states.  Transport moves cell masses along exact characteristics with an
effective time speed * dt, the speed taken from the splitting midpoint.

The density stays non-negative structurally (explicit sub-stepping of
loss-bounded rates, mass re-deposit, positive closed form for the
monomer); negatives can only appear at rounding level and are clipped
within the configured tolerance, anything larger is a hard error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .diagnostics import (
    LedgerAccumulator,
    RunResult,
    Snapshot,
    select_test_functions,
    vallee_poussin_weight,
)
from .errors import (
    BlowUp,
    MassEscape,
    NegativeMonomer,
    PositivityError,
)
from .grid import GridFunction, moment
from .kernels import KernelSet
from .operators import (
    CharacteristicMap,
    ReactionOperator,
    characteristic_map,
    transport_remap,
)

__all__ = [
    "SolverConfig",
    "SimulationState",
    "Machinery",
    "build_machinery",
    "step",
    "run",
]

SPLITTINGS = ("lie", "strang")
REACTION_INTEGRATORS = ("euler", "rk2")


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
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.t_end < 0.0:
            raise ValueError("t_end must be non-negative")
        if self.splitting not in SPLITTINGS:
            raise ValueError(f"splitting must be one of {SPLITTINGS}")
        if self.reaction_integrator not in REACTION_INTEGRATORS:
            raise ValueError(
                f"reaction_integrator must be one of {REACTION_INTEGRATORS}")
        if self.positivity_tolerance is not None and self.positivity_tolerance < 0:
            raise ValueError("positivity_tolerance must be non-negative")


@dataclass
class SimulationState:
    t: float
    v: float
    u: GridFunction
    accum_v_integral: float = 0.0
    accum_mu_integral: float = 0.0


@dataclass(frozen=True)
class Machinery:
    """Precomputed per-(kernel set, grid) apparatus for stepping."""

    reaction: ReactionOperator
    positivity_floor: float


def build_machinery(k: KernelSet, grid, cfg: SolverConfig,
                    initial_peak: float) -> Machinery:
    floor = (cfg.positivity_tolerance if cfg.positivity_tolerance is not None
             else 1e-12 * max(initial_peak, 1e-300))
    return Machinery(reaction=ReactionOperator.build(k, grid, cfg.skip_joining),
                     positivity_floor=floor)


def _clip_positive(u: np.ndarray, floor: float) -> np.ndarray:
    low = float(np.min(u))
    if low < -floor:
        raise PositivityError(
            f"density dipped to {low}, beyond the tolerance {-floor}")
    if low < 0.0:
        u = np.where(u < 0.0, 0.0, u)
    return u


def _react(v: float, u: np.ndarray, h: float, k: KernelSet,
           mach: Machinery, cfg: SolverConfig) -> Tuple[float, np.ndarray]:
    """Advance density and monomer over a reaction interval of length h."""
    r = mach.reaction
    drain0 = r.drain(u)
    gain0 = r.frag.monomer_gain(u)
    substeps = max(1, int(math.ceil(h * r.loss_scale(u) / 0.5)))
    hs = h / substeps
    for _ in range(substeps):
        f0 = r.rhs(u)
        if cfg.reaction_integrator == "euler":
            u = _clip_positive(u + hs * f0, mach.positivity_floor)
        else:
            pred = _clip_positive(u + hs * f0, mach.positivity_floor)
            f1 = r.rhs(pred)
            u = _clip_positive(u + 0.5 * hs * (f0 + f1), mach.positivity_floor)
    drain1 = r.drain(u)
    gain1 = r.frag.monomer_gain(u)
    a = k.params.degradation + 0.5 * (drain0 + drain1)
    b = k.params.production + 0.5 * (gain0 + gain1)
    if a > 0.0:
        v_new = (v - b / a) * math.exp(-a * h) + b / a
    else:
        v_new = v + b * h
    return v_new, u


def step(
    state: SimulationState,
    k: KernelSet,
    cm: CharacteristicMap,
    cfg: SolverConfig,
    mach: Optional[Machinery] = None,
    dt: Optional[float] = None,
) -> SimulationState:
    """One splitting step from the given state; returns the new state
    with the monomer and death-moment accumulators advanced by the
    trapezoid rule over the step endpoints."""
    grid = state.u.grid
    if mach is None:
        mach = build_machinery(k, grid, cfg, float(np.max(state.u.values)))
    h = cfg.dt if dt is None else dt
    strang = cfg.splitting == "strang"
    v, u = _react(state.v, state.u.values, 0.5 * h if strang else h, k, mach, cfg)
    moved, esc_count, _esc_mass = transport_remap(
        cm, GridFunction(grid, u), mach.reaction.speed(v, u) * h)
    u = moved.values
    if strang:
        v, u = _react(v, u, 0.5 * h, k, mach, cfg)
    if esc_count > 0.0:
        raise MassEscape(
            f"{esc_count:g} polymers crossed the grid end during transport")
    if not (np.all(np.isfinite(u)) and np.isfinite(v)):
        raise BlowUp("non-finite state; shrink dt")
    scale = max(1.0, abs(state.v))
    if v < -1e-12 * scale:
        raise NegativeMonomer(f"monomer count fell to {v}")
    v = max(v, 0.0)
    return SimulationState(
        t=state.t + h,
        v=v,
        u=GridFunction(grid, u),
        accum_v_integral=state.accum_v_integral + 0.5 * h * (state.v + v),
        accum_mu_integral=state.accum_mu_integral
        + 0.5 * h * (mach.reaction.death_moment(state.u.values)
                     + mach.reaction.death_moment(u)),
    )


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
) -> RunResult:
    """Integrate from the initial pair to the horizon, recording one
    ledger row per step and snapshots at the steps nearest the requested
    times (the initial and final states are always kept).

    On a solver error the exception carries the work so far in its
    partial_result attribute."""
    grid = u0.grid
    if v0 < 0.0:
        raise NegativeMonomer(f"initial monomer count {v0} is negative")
    mach = build_machinery(k, grid, cfg,
                           float(np.max(u0.values)) if u0.values.size else 0.0)
    cm = characteristic_map(k, grid)
    weight = None
    if cfg.uniform_integrability:
        weight = vallee_poussin_weight(u0)
    acc = LedgerAccumulator(
        k, mach.reaction,
        test_functions=select_test_functions(grid, k, cfg.test_functions),
        extra_moment=cfg.extra_moment,
        integrability_weight=weight,
    )
    state = SimulationState(t=0.0, v=float(v0), u=u0.copy())
    u1_init = moment(grid, u0.values, 1)
    tail_bound = (cfg.tail_mass_bound if cfg.tail_mass_bound is not None
                  else 1e-8 * max(1.0, u1_init))
    n_steps = (0 if cfg.t_end == 0.0
               else max(1, int(math.ceil(cfg.t_end / cfg.dt - 1e-9))))
    snap_steps = _snapshot_steps(cfg, n_steps)
    snapshots = [Snapshot(t=state.t, v=state.v, u=state.u.copy())]
    row = acc.start(state.t, state.v, state.u)
    try:
        for i in range(1, n_steps + 1):
            h = cfg.dt if i < n_steps else cfg.t_end - cfg.dt * (n_steps - 1)
            state = step(state, k, cm, cfg, mach, dt=h)
            row = acc.advance(state.t, state.v, state.u)
            if row["tail_mass"] > tail_bound:
                raise MassEscape(
                    f"count {row['tail_mass']:g} in the outer tenth of the "
                    f"grid exceeded the bound {tail_bound:g}")
            if i in snap_steps:
                snapshots.append(Snapshot(t=state.t, v=state.v, u=state.u.copy()))
    except Exception as err:
        err.partial_result = RunResult(snapshots=tuple(snapshots),
                                       ledger=acc.ledger)
        raise
    acc.ledger.meta.update({
        "config": cfg,
        "kernel_label": k.label,
        "params": k.params,
        "grid": grid,
        "final_state": state,
    })
    return RunResult(snapshots=tuple(snapshots), ledger=acc.ledger)

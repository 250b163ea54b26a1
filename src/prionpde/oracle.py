"""Closed moment system for constant growth, constant degradation,
linear splitting with uniform daughters, and constant joining.

For that coefficient choice the first two moments of the size equation
close on themselves, giving a three-component ODE that serves as an
independent reference for the full solver:

    v'  = lam - gamma*v - V*tau*U0 + beta*y0^2*U0
    U0' = -mu*U0 + beta*(U1 - 2*y0*U0) - eta*U0^2
    U1' = V*tau*U0 - mu*U1 - beta*y0^2*U0

with V = v/(1 + nu*U1).  Every term is the exact moment of the
corresponding mechanism; the derivation is spelled out term by term in
the test suite.  Summing the first and third lines gives the total
monomer count law (v + U1)' = lam - gamma*v - mu*U1, which the
integrator must preserve exactly at the level of the right-hand side.

integrate_oracle runs RK4 on three Python floats in the operation order
of _ode.rk4_step.  Both are IEEE binary64 rounded to nearest and numpy
fuses no multiply-add, so it matches the array RK4 over moment_ode_rhs
(kept in the tests as the reference) bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from typing import Mapping

import numpy as np

from .errors import BlowUp, MismatchedRates
from .kernels import KernelSet
from .solver import MAX_STEPS

__all__ = [
    "MomentOdeState",
    "MomentRates",
    "rates_from_kernel_set",
    "moment_ode_rhs",
    "integrate_oracle",
    "OracleTrajectory",
    "compare",
]


@dataclass(frozen=True)
class MomentOdeState:
    v: float
    U0: float
    U1: float


@dataclass(frozen=True)
class MomentRates:
    """Scalar coefficients of the closed system."""

    production: float = 0.0
    degradation: float = 0.0
    saturation: float = 0.0
    growth: float = 1.0
    death: float = 0.0
    frag_slope: float = 0.0
    join: float = 0.0
    min_size: float = 1.0

    def __post_init__(self):
        for name in ("production", "degradation", "saturation", "death",
                     "frag_slope", "join"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be non-negative")
        if self.growth <= 0.0:
            raise ValueError("growth must be positive")
        if self.min_size <= 0.0:
            raise ValueError("min_size must be positive")


# probe sizes in units of min_size, the coefficients read at the first;
# daughter sizes as fractions of the parent
_PROBE_SIZES = np.array([2.0, 1.0, 1.5, 4.0, 7.3, 16.0, 64.0])
_PROBE_FRACTIONS = np.array([0.01, 0.3, 0.5, 0.77, 0.99])


def _require_constant(name: str, values, value=None) -> float:
    """The value (the first of `values` unless given) all `values` equal to 1e-12."""
    values = np.asarray(values, dtype=float)
    value = values.flat[0] if value is None else value
    if not np.allclose(values, value, rtol=1e-12, atol=0.0):
        raise MismatchedRates(f"{name} is not {value!r} on every probe; the closed "
                              "moment system does not describe this kernel set")
    return float(value)


def rates_from_kernel_set(k: KernelSet) -> MomentRates:
    """Read the scalar coefficients off a kernel set by probing its
    closures.  Raises MismatchedRates unless, to 1e-12 relative on every
    probe, growth, death, frag(y)/y and join are constant and
    daughter(z, y)*y is 1 on (0, y): the family whose moments close."""
    y = k.params.min_size * _PROBE_SIZES
    parents = y[:, None]
    daughters = k.daughter(parents * _PROBE_FRACTIONS, parents)
    _require_constant("daughter(z, y)*y", np.asarray(daughters) * parents, 1.0)
    return MomentRates(
        production=k.params.production,
        degradation=k.params.degradation,
        saturation=k.params.saturation,
        growth=_require_constant("growth", k.growth(y)),
        death=_require_constant("death", k.death(y)),
        frag_slope=_require_constant("frag(y)/y", np.asarray(k.frag(y)) / y),
        join=_require_constant("join", k.join(parents, y)),
        min_size=k.params.min_size,
    )


def _moment_derivatives(v, u0, u1, r: MomentRates):
    """(v', U0', U1') at (v, U0, U1): the one formula of the closed system."""
    speed = v / (1.0 + r.saturation * u1)
    y0 = r.min_size
    dv = (r.production - r.degradation * v - speed * r.growth * u0
          + r.frag_slope * y0 * y0 * u0)
    du0 = (-r.death * u0 + r.frag_slope * (u1 - 2.0 * y0 * u0)
           - r.join * u0 * u0)
    du1 = speed * r.growth * u0 - r.death * u1 - r.frag_slope * y0 * y0 * u0
    return dv, du0, du1


def moment_ode_rhs(state: MomentOdeState, rates: MomentRates) -> MomentOdeState:
    return MomentOdeState(*_moment_derivatives(state.v, state.U0, state.U1, rates))


@dataclass(frozen=True)
class OracleTrajectory:
    times: np.ndarray
    v: np.ndarray
    U0: np.ndarray
    U1: np.ndarray
    step_halving_error: float
    rates: "MomentRates" = None

    def as_columns(self) -> Mapping[str, np.ndarray]:
        return {"t": self.times, "v": self.v, "U0": self.U0, "U1": self.U1}


def integrate_oracle(
    state0: MomentOdeState,
    rates: MomentRates,
    t_end: float,
    dt: float,
) -> OracleTrajectory:
    """Classical fourth-order integration of the closed system on a
    uniform time grid, with a built-in step-halving error estimate.

    The reported error is the largest relative deviation between the dt
    and dt/2 runs at shared times; it quantifies the oracle's own time
    discretization and must be far below any tolerance the oracle is
    used to enforce."""
    if t_end <= 0.0:
        raise ValueError("t_end must be positive")
    if dt <= 0.0 or dt > t_end / 10.0:
        raise ValueError("dt must be positive and at most t_end/10")
    if not t_end / dt <= MAX_STEPS:
        raise ValueError(
            f"t_end / dt = {t_end}/{dt} is more than {MAX_STEPS} steps")
    n_steps = int(math.ceil(t_end / dt - 1e-12))
    times = np.linspace(0.0, n_steps * dt, n_steps + 1)
    r = MomentRates(*map(float, astuple(rates)))
    f, t = _moment_derivatives, times.tolist()
    coarse, fine = np.empty((len(t), 3)), np.empty((len(t), 3))
    try:
        for substeps, out in ((1, coarse), (2, fine)):
            v, u0, u1 = out[0] = float(state0.v), float(state0.U0), float(state0.U1)
            for k in range(n_steps):
                h = (t[k + 1] - t[k]) / substeps
                half = 0.5 * h
                for _ in range(substeps):  # _ode.rk4_step, in its operation order
                    a0, a1, a2 = f(v, u0, u1, r)
                    b0, b1, b2 = f(v + half * a0, u0 + half * a1, u1 + half * a2, r)
                    c0, c1, c2 = f(v + half * b0, u0 + half * b1, u1 + half * b2, r)
                    d0, d1, d2 = f(v + h * c0, u0 + h * c1, u1 + h * c2, r)
                    v = v + (h / 6.0) * (a0 + 2.0 * b0 + 2.0 * c0 + d0)
                    u0 = u0 + (h / 6.0) * (a1 + 2.0 * b1 + 2.0 * c1 + d1)
                    u1 = u1 + (h / 6.0) * (a2 + 2.0 * b2 + 2.0 * c2 + d2)
                out[k + 1] = v, u0, u1
    except ZeroDivisionError as exc:
        raise BlowUp("moment system diverged: 1 + saturation*U1 reached 0") from exc
    if not np.all(np.isfinite(coarse)):
        raise BlowUp("moment system diverged; shrink dt or the horizon")
    scale = np.maximum(1.0, np.max(np.abs(coarse)))
    halving = float(np.max(np.abs(coarse - fine)) / scale)
    v, u0, u1 = coarse[:, 0], coarse[:, 1], coarse[:, 2]
    floor = -1e-9 * float(scale)
    if np.any(v < floor) or np.any(u0 < floor) or np.any(u1 < floor):
        raise BlowUp("moment system left the positive cone")
    return OracleTrajectory(times=times, v=v, U0=u0, U1=u1,
                            step_halving_error=halving, rates=rates)


def compare(pde_ledger, oracle_traj: OracleTrajectory,
            expected_rates: MomentRates = None) -> dict:
    """Largest relative deviation between a run's ledger columns and the
    closed moment system, per component, at the ledger's times (the
    oracle columns are linearly interpolated there, so integrate the
    oracle at least as finely as the run).

    Raises MismatchedRates when the trajectory was integrated with a
    different coefficient set than the caller expects.  When the run
    pushed noticeable count past the outer monitoring band, the report
    carries a caveat: the truncated system no longer matches the closed
    one regardless of step sizes."""
    if (expected_rates is not None and oracle_traj.rates is not None
            and oracle_traj.rates != expected_rates):
        raise MismatchedRates(
            f"oracle used {oracle_traj.rates}, caller expected {expected_rates}")
    times = pde_ledger.column("t")
    if times[-1] > oracle_traj.times[-1] + 1e-12:
        raise ValueError("oracle horizon is shorter than the run")
    report = {}
    for name in ("v", "U0", "U1"):
        ref = np.interp(times, oracle_traj.times, getattr(oracle_traj, name))
        col = pde_ledger.column(name)
        scale = max(1.0, float(np.max(np.abs(ref))))
        report[name] = float(np.max(np.abs(col - ref))) / scale
    caveats = []
    tail = pde_ledger.column("tail_mass")
    u1 = pde_ledger.column("U1")
    if float(np.max(tail)) > 1e-4 * max(1e-300, float(np.max(u1))):
        caveats.append("tail count is non-negligible; the comparison "
                       "reflects truncation as well as time stepping")
    report["caveats"] = caveats
    report["oracle_self_error"] = oracle_traj.step_halving_error
    return report

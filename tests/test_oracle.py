import dataclasses
import math

import numpy as np
import pytest

from prionpde.errors import BlowUp, MismatchedRates
from prionpde.kernels import (
    ModelParams,
    make_bounded_family,
    make_k0_family,
    make_powerlaw_family,
    make_special_family,
    with_join_cutoff,
)
from prionpde.oracle import (
    MomentOdeState,
    MomentRates,
    integrate_oracle,
    moment_ode_rhs,
    rates_from_kernel_set,
)
from prionpde.solver import MAX_STEPS
from reference_ode import rk4_solve


def reference_integrate_oracle(state0, rates, t_end, dt):
    """integrate_oracle as first written: the generic array RK4 over an
    array wrapper of moment_ode_rhs, with the same checks."""
    if t_end <= 0.0:
        raise ValueError("t_end must be positive")
    if dt <= 0.0 or dt > t_end / 10.0:
        raise ValueError("dt must be positive and at most t_end/10")
    n_steps = int(math.ceil(t_end / dt - 1e-12))
    times = np.linspace(0.0, n_steps * dt, n_steps + 1)

    def f(t, a):
        d = moment_ode_rhs(MomentOdeState(*(float(x) for x in a)), rates)
        return np.array([d.v, d.U0, d.U1])

    y_init = np.array([state0.v, state0.U0, state0.U1])
    coarse = rk4_solve(f, y_init, times)
    fine = rk4_solve(f, y_init, times, substeps=2)
    if not np.all(np.isfinite(coarse)):
        raise BlowUp("moment system diverged; shrink dt or the horizon")
    scale = np.maximum(1.0, np.max(np.abs(coarse)))
    halving = float(np.max(np.abs(coarse - fine)) / scale)
    v, u0, u1 = coarse[:, 0], coarse[:, 1], coarse[:, 2]
    floor = -1e-9 * float(scale)
    if np.any(v < floor) or np.any(u0 < floor) or np.any(u1 < floor):
        raise BlowUp("moment system left the positive cone")
    return times, v, u0, u1, halving


# the simulate-uniform benchmark workload's coefficients (demos/configs/basic.cfg)
BASIC_RATES = MomentRates(production=1.0, degradation=0.5, growth=1.0,
                          death=0.1, frag_slope=0.5, join=0.2)


class TestRightHandSide:
    def test_term_by_term_derivation(self):
        """Re-derivation of the closed system, term by term, for constant
        growth tau, constant death mu, splitting rate beta*y with uniform
        daughters kappa = 1/y on (0, y), constant joining eta, monomer
        production lam, monomer decay gamma, saturation nu.

        Size-equation mechanisms and their first two moments over
        (y0, inf):

        * transport -V*tau*du/dy with u(y0)=0: zeroth moment 0 (no flux
          through either end), first moment V*tau*U0 after one
          integration by parts.

        * death -mu*u: moments -mu*U0 and -mu*U1.

        * splitting loss -beta*y*u: moments -beta*U1 and -beta*M2.

        * splitting gain 2*beta*int_{z>y} (z/z) u(z) dz = 2*beta*
          int_{max(y,y0)} u: zeroth moment 2*beta*int (z-y0) u(z) dz =
          2*beta*(U1 - y0*U0); first moment 2*beta*int u(z) (z^2-y0^2)/2
          = beta*(M2 - y0^2*U0).  Net splitting: zeroth
          beta*(U1-2*y0*U0), first -beta*y0^2*U0; M2 cancels.

        * joining gain int eta u(y-z)u(z): zeroth eta*U0^2, first
          2*eta*U0*U1 (each pair's size adds).  Joining loss
          -2*eta*u*U0: zeroth -2*eta*U0^2, first -2*eta*U0*U1.  Net:
          -eta*U0^2 and exactly 0.

        * monomer equation: production lam, decay -gamma*v,
          polymerisation drain -V*tau*U0 with V = v/(1+nu*U1), and the
          splitting fragments below y0 return 2*beta*int_z z*u(z)*
          int_0^{y0} zeta/z dzeta = beta*y0^2*U0.
        """
        rng = np.random.default_rng(0)
        r = MomentRates(production=1.3, degradation=0.4, saturation=0.2,
                        growth=1.7, death=0.25, frag_slope=0.6, join=0.15,
                        min_size=1.2)
        for _ in range(20):
            v, u0, u1 = rng.uniform(0.1, 3.0, size=3)
            d = moment_ode_rhs(MomentOdeState(v, u0, u1), r)
            speed = v / (1.0 + r.saturation * u1)
            assert d.v == pytest.approx(
                1.3 - 0.4 * v - speed * 1.7 * u0 + 0.6 * 1.2 ** 2 * u0, rel=1e-14)
            assert d.U0 == pytest.approx(
                -0.25 * u0 + 0.6 * (u1 - 2 * 1.2 * u0) - 0.15 * u0 * u0, rel=1e-14)
            assert d.U1 == pytest.approx(
                speed * 1.7 * u0 - 0.25 * u1 - 0.6 * 1.2 ** 2 * u0, rel=1e-14)

    def test_total_monomer_identity_at_random_states(self):
        # (v + U1)' must equal lam - gamma*v - mu*U1 exactly: production,
        # monomer decay and polymer death are the only flows in or out
        rng = np.random.default_rng(42)
        for _ in range(100):
            r = MomentRates(
                production=rng.uniform(0, 2),
                degradation=rng.uniform(0, 1),
                saturation=rng.uniform(0, 0.5),
                growth=rng.uniform(0.2, 3),
                death=rng.uniform(0, 1),
                frag_slope=rng.uniform(0, 1),
                join=rng.uniform(0, 0.5),
                min_size=rng.uniform(0.5, 2),
            )
            s = MomentOdeState(*rng.uniform(0.01, 5.0, size=3))
            d = moment_ode_rhs(s, r)
            lhs = d.v + d.U1
            rhs = r.production - r.degradation * s.v - r.death * s.U1
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    def test_rates_read_off_kernel_set(self):
        k = make_special_family(growth_value=1.5, death_value=0.3,
                               frag_slope=0.7, join_value=0.25,
                               params=ModelParams(production=1.0,
                                                  degradation=0.5,
                                                  saturation=0.1,
                                                  min_size=2.0))
        r = rates_from_kernel_set(k)
        assert r.growth == pytest.approx(1.5)
        assert r.death == pytest.approx(0.3)
        assert r.frag_slope == pytest.approx(0.7)
        assert r.join == pytest.approx(0.25)
        assert r.production == 1.0 and r.degradation == 0.5
        assert r.saturation == 0.1 and r.min_size == 2.0

    def test_rejects_negative_rates(self):
        with pytest.raises(ValueError):
            MomentRates(death=-0.1)
        with pytest.raises(ValueError):
            MomentRates(growth=0.0)


class TestIntegration:
    def test_pure_joining_matches_riccati_solution(self):
        # with only joining active, U0' = -eta*U0^2 integrates to
        # U0(t) = U0(0)/(1 + eta*U0(0)*t)
        eta, u0_init = 0.8, 2.0
        r = MomentRates(join=eta, growth=1.0)
        traj = integrate_oracle(MomentOdeState(v=0.0, U0=u0_init, U1=5.0),
                                r, t_end=1.0, dt=1e-3)
        exact = u0_init / (1.0 + eta * u0_init * traj.times)
        assert np.max(np.abs(traj.U0 - exact)) < 1e-8

    def test_monomer_equilibrium(self):
        # no polymers: v relaxes to lam/gamma
        r = MomentRates(production=2.0, degradation=0.5, growth=1.0)
        traj = integrate_oracle(MomentOdeState(v=0.1, U0=0.0, U1=0.0),
                                r, t_end=40.0, dt=1e-2)
        assert traj.v[-1] == pytest.approx(4.0, rel=1e-6)
        assert np.all(traj.U0 == 0.0)

    def test_fourth_order_self_convergence(self):
        r = MomentRates(production=1.0, degradation=0.5, growth=1.0,
                        death=0.1, frag_slope=0.5, join=0.2)
        s0 = MomentOdeState(v=2.0, U0=0.4, U1=3.0)
        errs = []
        for dt in (2e-2, 1e-2):
            traj = integrate_oracle(s0, r, t_end=1.0, dt=dt)
            errs.append(traj.step_halving_error)
        assert errs[0] / errs[1] > 12.0

    def test_halving_error_is_reported_and_small(self):
        r = MomentRates(production=1.0, degradation=0.5, growth=1.0,
                        death=0.1, frag_slope=0.5, join=0.2)
        traj = integrate_oracle(MomentOdeState(2.0, 0.4, 3.0), r,
                                t_end=1.0, dt=1e-3)
        assert 0.0 <= traj.step_halving_error < 1e-12

    def test_rejects_coarse_step(self):
        r = MomentRates(growth=1.0)
        with pytest.raises(ValueError):
            integrate_oracle(MomentOdeState(1.0, 1.0, 1.0), r,
                             t_end=1.0, dt=0.2)

    @pytest.mark.parametrize("dt", [1e-300, 0.99 / MAX_STEPS])
    def test_refuses_more_than_max_steps_before_allocating(self, dt,
                                                           monkeypatch):
        for name in ("linspace", "empty"):
            monkeypatch.setattr(np, name,
                                lambda *args, **kw: pytest.fail("allocated"))
        with pytest.raises(ValueError, match=f"more than {MAX_STEPS} steps"):
            integrate_oracle(MomentOdeState(1.0, 1.0, 1.0),
                             MomentRates(growth=1.0), t_end=1.0, dt=dt)

    def test_blowup_detected(self):
        # drive U0 negative fast enough for U1 to follow through zero:
        # large joining on a tiny population keeps things finite, so use
        # a hand-built unstable configuration instead via huge production
        r = MomentRates(production=0.0, degradation=0.0, growth=1.0,
                        frag_slope=50.0)
        with pytest.raises(BlowUp):
            integrate_oracle(MomentOdeState(v=0.0, U0=1.0, U1=1e3),
                             r, t_end=5.0, dt=0.05)

    def test_columns_view(self):
        r = MomentRates(growth=1.0)
        traj = integrate_oracle(MomentOdeState(1.0, 0.5, 2.0), r,
                                t_end=1.0, dt=0.05)
        cols = traj.as_columns()
        assert set(cols) == {"t", "v", "U0", "U1"}
        assert len(cols["t"]) == len(cols["v"]) == 21


class TestFloatLoopMatchesArrayReference:
    """integrate_oracle on Python floats against the array RK4 it
    replaced: same operation order, so equal bit for bit."""

    @pytest.mark.parametrize("state0, rates, t_end, dt", [
        pytest.param(MomentOdeState(2.0, 0.4, 1.2), BASIC_RATES, 0.25, 1e-4,
                     id="simulate-uniform"),
        pytest.param(MomentOdeState(2.0, 0.4, 1.2),
                     MomentRates(production=1.0, degradation=0.5,
                                 saturation=0.3, growth=1.0, death=0.1,
                                 frag_slope=0.5, join=0.2, min_size=0.7),
                     0.5, 1e-3, id="saturation"),
        pytest.param(MomentOdeState(v=0.0, U0=2.0, U1=5.0),
                     MomentRates(join=0.8, growth=1.0), 1.0, 1e-3,
                     id="pure-joining"),
        pytest.param(MomentOdeState(v=0.1, U0=0.0, U1=0.0),
                     MomentRates(production=2.0, degradation=0.5, growth=1.0),
                     40.0, 1e-2, id="zero-polymer-equilibrium"),
        pytest.param(MomentOdeState(v=2, U0=1, U1=3),
                     MomentRates(production=1, degradation=1, saturation=1,
                                 growth=2, death=1, frag_slope=1, join=1,
                                 min_size=1),
                     1.0, 1e-2, id="integer-valued"),
    ])
    def test_bit_identical(self, state0, rates, t_end, dt):
        traj = integrate_oracle(state0, rates, t_end, dt)
        times, v, u0, u1, halving = reference_integrate_oracle(
            state0, rates, t_end, dt)
        assert np.array_equal(traj.times, times)
        assert np.array_equal(traj.v, v)
        assert np.array_equal(traj.U0, u0)
        assert np.array_equal(traj.U1, u1)
        assert traj.step_halving_error == halving

    @pytest.mark.parametrize("state0, rates, t_end, dt, error", [
        pytest.param(MomentOdeState(v=0.0, U0=1.0, U1=1e3),
                     MomentRates(growth=1.0, frag_slope=50.0), 5.0, 0.05,
                     BlowUp, id="blowup"),
        pytest.param(MomentOdeState(1.0, 1.0, 1.0), MomentRates(growth=1.0),
                     1.0, 0.2, ValueError, id="coarse-step"),
    ])
    def test_same_failure(self, state0, rates, t_end, dt, error):
        with pytest.raises(error):
            reference_integrate_oracle(state0, rates, t_end, dt)
        with pytest.raises(error):
            integrate_oracle(state0, rates, t_end, dt)

    def test_vanishing_saturation_denominator_is_blowup(self):
        # 1 + saturation*U1 == 0 divides by zero on floats; the oracle
        # reports it as divergence, not as a bare ZeroDivisionError
        r = MomentRates(saturation=0.5, growth=1.0)
        with pytest.raises(BlowUp) as info:
            integrate_oracle(MomentOdeState(v=1.0, U0=1.0, U1=-2.0), r,
                             t_end=1.0, dt=0.01)
        assert isinstance(info.value.__cause__, ZeroDivisionError)


PARAMS = ModelParams(production=1.0, degradation=0.5, saturation=0.1,
                     min_size=0.7)


def uniform_profile(s):
    return np.ones_like(np.asarray(s, dtype=float))


def parabolic_profile(s):
    s = np.asarray(s, dtype=float)
    return 6.0 * s * (1.0 - s)


class TestRatesRefuseOtherKernelSets:
    def test_closed_families_pass(self):
        special = make_special_family(1.0, 0.1, 0.5, 0.2, PARAMS)
        uniform_k0 = make_k0_family(uniform_profile, PARAMS, 1.0, 0.1,
                                    0.5, 0.2)
        assert rates_from_kernel_set(uniform_k0) == rates_from_kernel_set(special)

    @pytest.mark.parametrize("kernel, what", [
        pytest.param(make_bounded_family(1.0, 0.1, 0.5, 0.2, PARAMS),
                     "frag", id="bounded"),
        pytest.param(make_powerlaw_family(1.0, 0.1, 0.5, 0.2, params=PARAMS),
                     "join", id="powerlaw"),
        pytest.param(make_k0_family(parabolic_profile, PARAMS, 1.0,
                                    0.1, 0.5, 0.2),
                     "daughter", id="k0-parabolic"),
        pytest.param(with_join_cutoff(
            make_special_family(1.0, 0.1, 0.5, 0.2, PARAMS), 40.0),
            "join", id="join-cutoff"),
    ])
    def test_other_kernel_sets_raise(self, kernel, what):
        with pytest.raises(MismatchedRates, match=what):
            rates_from_kernel_set(kernel)

    def test_non_constant_growth_and_death_raise(self):
        k = make_special_family(1.0, 0.1, 0.5, 0.2, PARAMS)
        for name in ("growth", "death"):
            bent = dataclasses.replace(
                k, **{name: lambda y: 1.0 + 1e-9 * np.asarray(y, dtype=float)})
            with pytest.raises(MismatchedRates, match=name):
                rates_from_kernel_set(bent)

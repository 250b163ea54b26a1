import math

import numpy as np
import pytest

from prionpde.errors import MassEscape, NegativeMonomer, PositivityError
from prionpde.grid import build_grid, project
from prionpde.kernels import ModelParams, make_special_family
from prionpde.oracle import (
    MomentOdeState,
    integrate_oracle,
    rates_from_kernel_set,
)
from prionpde.solver import (
    SimulationState,
    SolverConfig,
    _clip_positive,
    build_machinery,
    run,
    step,
)
from prionpde.operators import characteristic_map


def closed_family(join_value=0.2):
    params = ModelParams(production=1.0, degradation=0.5, min_size=1.0)
    return make_special_family(1.0, 0.1, 0.5, join_value, params=params)


def gaussian_start(grid, center=3.0, width=0.3, count=0.4):
    amp = count / (width * math.sqrt(2.0 * math.pi))
    return project(
        lambda y: amp * np.exp(-0.5 * ((y - center) / width) ** 2), grid)


@pytest.fixture(scope="module")
def small_setup():
    k = closed_family()
    grid = build_grid(1.0, 120.0, 96, "geometric")
    return k, grid, gaussian_start(grid)


@pytest.fixture(scope="module")
def error_ladder(small_setup):
    """Final-state error against the moment oracle for both splittings.

    The special family closes exactly on the discrete level, so these
    errors are pure time discretization (plus a dt-independent floor
    around 5e-8 from the first-cell centroid clamp, well below the
    coarse rungs used here)."""
    k, grid, u0 = small_setup
    v0, t_end = 2.0, 0.4
    rates = rates_from_kernel_set(k)
    orc = integrate_oracle(
        MomentOdeState(v0, u0.moment(0), u0.moment(1)), rates,
        t_end=t_end, dt=1e-4)
    ref = orc.state_at(-1)
    out = {}
    for splitting in ("strang", "lie"):
        errs = []
        for dt in (8e-3, 4e-3):
            res = run(u0, v0, k,
                      SolverConfig(dt=dt, t_end=t_end, splitting=splitting))
            fin = res.ledger.meta["final_state"]
            errs.append(max(abs(fin.v - ref.v),
                            abs(fin.u.moment(0) - ref.U0),
                            abs(fin.u.moment(1) - ref.U1)))
        out[splitting] = errs
    return out


class TestStepping:
    def test_two_manual_steps_match_run(self, small_setup):
        k, grid, u0 = small_setup
        cfg = SolverConfig(dt=5e-3, t_end=1e-2)
        res = run(u0, 2.0, k, cfg)
        fin = res.ledger.meta["final_state"]

        mach = build_machinery(k, grid, cfg, float(np.max(u0.values)))
        cm = characteristic_map(k, grid)
        state = SimulationState(t=0.0, v=2.0, u=u0.copy())
        state = step(state, k, cm, cfg, mach)
        state = step(state, k, cm, cfg, mach)
        assert state.t == fin.t
        assert state.v == fin.v
        assert np.array_equal(state.u.values, fin.u.values)

    def test_accumulators_are_endpoint_trapezoids(self, small_setup):
        k, grid, u0 = small_setup
        cfg = SolverConfig(dt=5e-3, t_end=5e-3)
        mach = build_machinery(k, grid, cfg, float(np.max(u0.values)))
        cm = characteristic_map(k, grid)
        before = SimulationState(t=0.0, v=2.0, u=u0.copy())
        after = step(before, k, cm, cfg, mach)
        assert after.accum_v_integral == pytest.approx(
            0.5 * cfg.dt * (before.v + after.v), rel=0, abs=0)
        death = mach.reaction.frag.death_at_centers * grid.centers * grid.widths
        expected_mu = 0.5 * cfg.dt * (
            np.dot(death, u0.values) + np.dot(death, after.u.values))
        assert after.accum_mu_integral == pytest.approx(expected_mu, rel=1e-15)

    def test_zero_horizon_takes_no_steps(self, small_setup):
        k, _, u0 = small_setup
        res = run(u0, 2.0, k, SolverConfig(dt=1e-2, t_end=0.0))
        assert len(res.ledger) == 1
        assert len(res.snapshots) == 1
        assert res.snapshots[0].t == 0.0
        assert res.ledger.column("balance_residual")[0] == 0.0

    def test_final_time_hit_when_dt_does_not_divide(self, small_setup):
        k, _, u0 = small_setup
        res = run(u0, 2.0, k, SolverConfig(dt=0.1, t_end=0.35))
        times = np.asarray(res.ledger.column("t"))
        assert len(times) == 5
        assert times[-1] == pytest.approx(0.35, abs=1e-14)
        assert np.all(np.diff(times) > 0)

    def test_rerun_is_bit_identical(self, small_setup):
        k, _, u0 = small_setup
        cfg = SolverConfig(dt=5e-3, t_end=0.05)
        a = run(u0, 2.0, k, cfg)
        b = run(u0, 2.0, k, cfg)
        ua = a.ledger.meta["final_state"].u.values
        ub = b.ledger.meta["final_state"].u.values
        assert ua.tobytes() == ub.tobytes()
        for name in a.ledger.column_order():
            assert np.array_equal(
                np.asarray(a.ledger.column(name)),
                np.asarray(b.ledger.column(name))), name


class TestConvergenceOrders:
    def test_strang_is_second_order(self, error_ladder):
        coarse, fine = error_ladder["strang"]
        assert coarse / fine >= 3.2
        assert fine < 1e-6

    def test_lie_is_first_order(self, error_ladder):
        coarse, fine = error_ladder["lie"]
        assert 1.7 <= coarse / fine <= 2.4

    def test_strang_beats_lie(self, error_ladder):
        assert error_ladder["strang"][1] < error_ladder["lie"][1] / 50.0


class TestSafetyRails:
    def test_initial_negative_monomer_rejected(self, small_setup):
        k, _, u0 = small_setup
        with pytest.raises(NegativeMonomer):
            run(u0, -0.5, k, SolverConfig(dt=1e-2, t_end=0.1))

    def test_tail_gate_attaches_partial_result(self, small_setup):
        k, grid, _ = small_setup
        flat = project(lambda y: np.full_like(y, 1e-3), grid)
        cfg = SolverConfig(dt=1e-2, t_end=0.5, tail_mass_bound=1e-30,
                           skip_joining=True)
        with pytest.raises(MassEscape, match="outer tenth") as exc:
            run(flat, 2.0, k, cfg)
        partial = exc.value.partial_result
        assert len(partial.ledger) == 2
        assert len(partial.snapshots) == 1
        assert partial.snapshots[0].t == 0.0

    def test_transport_past_grid_end_raises(self):
        k = make_special_family(1.0, 0.0, 0.0, 0.0)
        grid = build_grid(1.0, 4.0, 32, "uniform")
        u0 = gaussian_start(grid, center=3.7, width=0.08, count=0.1)
        cfg = SolverConfig(dt=0.05, t_end=1.0,
                           tail_mass_bound=float("inf"))
        with pytest.raises(MassEscape, match="crossed the grid end"):
            run(u0, 2.0, k, cfg)

    def test_clip_tolerance(self):
        floor = 1e-9
        clipped = _clip_positive(np.array([1.0, -1e-12]), floor)
        assert clipped[1] == 0.0
        with pytest.raises(PositivityError):
            _clip_positive(np.array([1.0, -1e-6]), floor)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(dt=0.0, t_end=1.0)
        with pytest.raises(ValueError):
            SolverConfig(dt=1e-2, t_end=-1.0)
        with pytest.raises(ValueError):
            SolverConfig(dt=1e-2, t_end=1.0, splitting="godunov")
        with pytest.raises(ValueError):
            SolverConfig(dt=1e-2, t_end=1.0, reaction_integrator="rk9")
        with pytest.raises(ValueError):
            SolverConfig(dt=1e-2, t_end=1.0, positivity_tolerance=-1.0)


class TestSkipJoining:
    def test_skip_flag_matches_zero_rate_family(self):
        """Disabling joining must give the same floats as a family whose
        joining rate is identically zero; the operator route may only
        add exact zeros."""
        grid = build_grid(1.0, 120.0, 96, "geometric")
        u0 = gaussian_start(grid)
        cfg_skip = SolverConfig(dt=5e-3, t_end=0.1, skip_joining=True)
        cfg_zero = SolverConfig(dt=5e-3, t_end=0.1)
        a = run(u0, 2.0, closed_family(join_value=0.2), cfg_skip)
        b = run(u0, 2.0, closed_family(join_value=0.0), cfg_zero)
        ua = a.ledger.meta["final_state"].u.values
        ub = b.ledger.meta["final_state"].u.values
        assert np.array_equal(ua, ub)
        assert a.ledger.meta["final_state"].v == b.ledger.meta["final_state"].v
        for name in a.ledger.column_order():
            assert np.array_equal(
                np.asarray(a.ledger.column(name)),
                np.asarray(b.ledger.column(name))), name


class TestSnapshots:
    def test_requested_times_round_to_steps(self, small_setup):
        k, _, u0 = small_setup
        cfg = SolverConfig(dt=0.01, t_end=0.1,
                           snapshot_times=(0.0234, 0.05, 0.987))
        res = run(u0, 2.0, k, cfg)
        times = [s.t for s in res.snapshots]
        assert times[0] == 0.0
        assert times[-1] == pytest.approx(0.1, abs=1e-14)
        assert len(times) == 4
        assert times[1] == pytest.approx(0.02, abs=1e-12)
        assert times[2] == pytest.approx(0.05, abs=1e-12)

import math

import numpy as np
import pytest

from prionpde.diagnostics import (
    LedgerAccumulator,
    RunResult,
    Snapshot,
    select_test_functions,
)
from prionpde import solver
from prionpde.errors import (
    BlowUp,
    MassEscape,
    NegativeMonomer,
    PairOutOfRange,
    PositivityError,
)
from prionpde.grid import build_grid, moment, project
from prionpde.kernels import ModelParams, make_special_family, with_join_cutoff
from prionpde.oracle import (
    MomentOdeState,
    integrate_oracle,
    rates_from_kernel_set,
)
from prionpde.solver import (
    SPLITTINGS,
    SolverConfig,
    _clip_positive,
    _snapshot_steps,
    _step_count,
    build_machinery,
    run,
    step,
)
from prionpde.operators import FragTables, JoiningTables, ReactionOperator


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
    """Final-state error against the moment oracle for both splittings
with the rk2 reaction integrator, and for Strang with euler.

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
    ref_v, ref_u0, ref_u1 = orc.v[-1], orc.U0[-1], orc.U1[-1]
    out = {}
    for name, options in (("strang", {}), ("lie", {"splitting": "lie"}),
                          ("euler", {"reaction_integrator": "euler"})):
        errs = []
        for dt in (8e-3, 4e-3):
            res = run(u0, v0, k, SolverConfig(dt=dt, t_end=t_end, **options))
            fin = res.snapshots[-1]
            errs.append(max(abs(fin.v - ref_v),
                            abs(fin.u.moment(0) - ref_u0),
                            abs(fin.u.moment(1) - ref_u1)))
        out[name] = errs
    return out


class TestSolverConfig:
    @pytest.mark.parametrize("options", [
        {"snapshot_times": (0.1, math.nan)},
        {"snapshot_times": (math.inf,)},
        {"extra_moment": math.nan},
        {"extra_moment": -math.inf},
    ])
    def test_refuses_non_finite_entries(self, options):
        with pytest.raises(ValueError, match="must be finite"):
            SolverConfig(dt=0.1, t_end=1.0, **options)

    @pytest.mark.parametrize("options, message", [
        ({"positivity_tolerance": math.nan}, "positivity_tolerance .* nan"),
        ({"positivity_tolerance": math.inf}, "positivity_tolerance .* inf"),
        ({"tail_mass_bound": math.nan}, "tail_mass_bound must not be nan"),
        ({"dt": 1e-300, "t_end": 1e300}, "not a finite step count"),
        ({"dt": 1.0, "t_end": np.nextafter(solver.MAX_STEPS, math.inf)},
         f"finite step count of at most {solver.MAX_STEPS}"),
    ])
    def test_refuses_values_that_switch_checks_off(self, options, message):
        with pytest.raises(ValueError, match=message):
            SolverConfig(**{"dt": 0.1, "t_end": 1.0, **options})

    def test_tail_mass_bound_must_be_non_negative(self):
        with pytest.raises(ValueError, match="tail_mass_bound must be non-negative"):
            SolverConfig(dt=0.1, t_end=1.0, tail_mass_bound=-1.0)
        for bound in (0.0, 1e-30, math.inf):   # inf is no bound
            assert SolverConfig(dt=0.1, t_end=1.0, tail_mass_bound=bound).tail_mass_bound == bound


class TestStepping:
    def test_two_manual_steps_match_run(self, small_setup):
        k, grid, u0 = small_setup
        cfg = SolverConfig(dt=5e-3, t_end=1e-2)
        res = run(u0, 2.0, k, cfg)
        fin = res.snapshots[-1]

        mach = build_machinery(k, u0, cfg)
        state = Snapshot(t=0.0, v=2.0, u=u0.copy())
        f = mach.reaction.rhs(u0.values)
        state, f = step(state, cfg, mach, f, cfg.dt)
        state, f = step(state, cfg, mach, f, cfg.dt)
        assert state.t == fin.t
        assert state.v == fin.v
        assert np.array_equal(state.u.values, fin.u.values)

    def test_accumulators_are_endpoint_trapezoids(self, small_setup):
        k, grid, u0 = small_setup
        cfg = SolverConfig(dt=5e-3, t_end=5e-3)
        mach = build_machinery(k, u0, cfg)
        before = Snapshot(t=0.0, v=2.0, u=u0.copy())
        start = mach.reaction.rhs(u0.values)
        after, _ = step(before, cfg, mach, start, cfg.dt)
        size = select_test_functions(grid, k, ("size",))
        acc = LedgerAccumulator(k, mach.reaction, test_functions=size)
        acc.start(before.t, before.v, before.u)
        row = acc.advance(after.t, after.v, after.u)
        assert acc.accum_v_integral == pytest.approx(
            0.5 * cfg.dt * (before.v + after.v), rel=0, abs=0)
        death = mach.reaction.frag.death_at_centers * grid.centers * grid.widths
        expected_mu = 0.5 * cfg.dt * (
            np.dot(death, u0.values) + np.dot(death, after.u.values))
        assert acc.accum_mu_integral == pytest.approx(expected_mu, rel=1e-15)
        # phi(y) = y: flux = speed * <phi', growth u> + <phi, rhs(u)>
        r, w = mach.reaction, grid.widths
        phi, slope = size[0].value(grid.centers), size[0].slope(grid.centers)

        def flux(state):
            u = state.u.values
            return (r.speed(state.v, u) * np.dot(slope, r.growth_at_centers * u * w)
                    + np.dot(phi, r.rhs(u)[0] * w))

        lhs = np.dot(phi, after.u.values * w) - np.dot(phi, u0.values * w)
        expected_wf = ((lhs - 0.5 * cfg.dt * (flux(before) + flux(after)))
                       / max(1.0, abs(lhs)))
        assert row["wf_size"] == pytest.approx(expected_wf, rel=1e-12, abs=1e-15)

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

    @pytest.mark.parametrize("dt,t_end", [(1e-3, 0.05), (2.5e-4, 1.0),
                                          (0.03, 1.0), (7e-3, 0.5)])
    def test_clock_ends_exactly_on_t_end(self, dt, t_end):
        """The last step is t_end less the time reached, so the sum of
        the steps' rounded times lands on t_end itself."""
        k = closed_family()
        u0 = gaussian_start(build_grid(1.0, 40.0, 24, "geometric"))
        res = run(u0, 2.0, k, SolverConfig(dt=dt, t_end=t_end, skip_joining=True,
                                           test_functions=()))
        assert res.ledger.column("t")[-1] == t_end
        assert res.snapshots[-1].t == t_end

    @pytest.mark.parametrize("dt,t_end", [
        (1e-4, 3.0), (1e-4, 3.0000000000003), (1e-3, 1.000000002),
        (0.1, 0.35), (3e-5, 3.0000000000003), (1.0, 1.0)])
    def test_last_step_is_positive(self, dt, t_end):
        """The clock of run, step by step: every step is positive, and
        a remainder inside the clock's rounding drift (1e-4 to
        3.0000000000003 accumulates 1.9e-12 of it) is not left for a
        last step of its own."""
        n = _step_count(SolverConfig(dt=dt, t_end=t_end))
        t = 0.0
        for i in range(1, n + 1):
            h = dt if i < n else t_end - t
            assert h > 0.0
            t += h
        assert t == t_end

    def test_rerun_is_bit_identical(self, small_setup):
        k, _, u0 = small_setup
        cfg = SolverConfig(dt=5e-3, t_end=0.05)
        a = run(u0, 2.0, k, cfg)
        b = run(u0, 2.0, k, cfg)
        ua = a.snapshots[-1].u.values
        ub = b.snapshots[-1].u.values
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

    def test_euler_reaction_is_first_order(self, error_ladder):
        coarse, fine = error_ladder["euler"]
        assert 1.7 <= coarse / fine <= 2.4

    def test_rk2_beats_euler(self, error_ladder):
        assert error_ladder["strang"][1] < error_ladder["euler"][1] / 50.0


class TestSafetyRails:
    def test_initial_negative_monomer_rejected(self, small_setup):
        k, _, u0 = small_setup
        with pytest.raises(NegativeMonomer):
            run(u0, -0.5, k, SolverConfig(dt=1e-2, t_end=0.1))

    @pytest.mark.parametrize("v0", [math.nan, math.inf, -math.inf])
    def test_initial_non_finite_monomer_rejected(self, v0, monkeypatch):
        """Refused before any work: a NaN or infinite speed would send
        every parcel past the grid end in the first transport."""
        k = closed_family()
        u0 = gaussian_start(build_grid(1.0, 60.0, 48, "geometric"))
        monkeypatch.setattr(solver, "build_machinery", None)
        with pytest.raises(BlowUp, match="initial monomer count"):
            run(u0, v0, k, SolverConfig(dt=1e-2, t_end=0.1))

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

    def test_reaction_work_bound(self, small_setup, monkeypatch):
        """A reaction interval needing more than MAX_SUBSTEPS substeps,
        or with a non-finite loss scale, raises BlowUp before its first
        substep; one needing exactly MAX_SUBSTEPS takes them."""
        k, _, u0 = small_setup
        cfg = SolverConfig(dt=0.125, t_end=1.0)
        mach = solver.build_machinery(k, u0, cfg)
        f, _ = mach.reaction.rhs(u0.values)
        calls = []
        rhs = ReactionOperator.rhs
        monkeypatch.setattr(ReactionOperator, "rhs",
                            lambda self, u: calls.append(1) or rhs(self, u))
        monkeypatch.setattr(solver, "MAX_SUBSTEPS", 4)

        def react(scale):
            calls.clear()
            solver._react(2.0, u0.values, 0.125, mach, cfg,
                          solver.Handover(f, scale, (0.0, 0.0)))

        react(16.0)   # 0.125 * 16 / 0.5: four Heun substeps
        assert len(calls) == 2 * 4 - 1
        for scale in (np.nextafter(16.0, 17.0), 1e300, math.inf, math.nan):
            with pytest.raises(BlowUp, match="reaction substeps"):
                react(scale)
            assert calls == []

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

    @pytest.mark.parametrize("field", ["dt", "t_end"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_config_refuses_non_finite_times(self, field, value):
        """Refused at construction, naming the field, not deep in run."""
        times = {"dt": 1e-2, "t_end": 1.0, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be"):
            SolverConfig(**times)


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
        ua = a.snapshots[-1].u.values
        ub = b.snapshots[-1].u.values
        assert np.array_equal(ua, ub)
        assert a.snapshots[-1].v == b.snapshots[-1].v
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


# -- the right-hand-side handover -------------------------------------------

def reference_run(u0, v0, k, cfg):
    """run without the right-hand-side handover, the test reference: each
    step's start is evaluated afresh (its monomer drain and gain too), the
    step's own evaluation of its new state is discarded, and the ledger
    evaluates each state's right-hand side by itself."""
    grid = u0.grid
    mach = build_machinery(k, u0, cfg)
    acc = LedgerAccumulator.for_run(k, mach.reaction, u0, cfg)
    state = Snapshot(t=0.0, v=float(v0), u=u0.copy())
    tail_bound = (cfg.tail_mass_bound if cfg.tail_mass_bound is not None
                  else 1e-8 * max(1.0, moment(grid, u0.values, 1)))
    n_steps = _step_count(cfg)
    snap_steps = _snapshot_steps(cfg, n_steps)
    snapshots = [state]
    acc.start(state.t, state.v, state.u)
    try:
        for i in range(1, n_steps + 1):
            h = cfg.dt if i < n_steps else cfg.t_end - state.t
            start = mach.reaction.rhs(state.u.values)
            state, _ = step(state, cfg, mach, start, h)
            row = acc.advance(state.t, state.v, state.u)
            if row["tail_mass"] > tail_bound:
                raise MassEscape("tail mass")
            if i in snap_steps:
                snapshots.append(state)
    except Exception as err:
        err.partial_result = RunResult(tuple(snapshots), acc.ledger, cfg)
        raise
    return RunResult(tuple(snapshots), acc.ledger, cfg)


def assert_same_run(a, b, columns=None):
    """Bit for bit the same snapshots and ledger columns (all of them, or
    the named ones, which both ledgers must hold)."""
    if columns is None:
        assert a.ledger.column_order() == b.ledger.column_order()
        columns = a.ledger.column_order()
    assert len(a.ledger) == len(b.ledger)
    for name in columns:
        assert np.array_equal(a.ledger.column(name), b.ledger.column(name)), name
    assert len(a.snapshots) == len(b.snapshots)
    for sa, sb in zip(a.snapshots, b.snapshots):
        assert sa.t == sb.t and sa.v == sb.v
        assert np.array_equal(sa.u.values, sb.u.values)


def outcome(fn, *args):
    """(error type, run or partial run) of one call."""
    try:
        return None, fn(*args)
    except Exception as err:
        return type(err), err.partial_result


OPTIONS = {
    "strang-rk2": {},
    "lie-rk2": {"splitting": "lie"},
    "strang-euler": {"reaction_integrator": "euler"},
    "lie-euler": {"splitting": "lie", "reaction_integrator": "euler"},
}
# joining applies per step at one substep: one per stage, less the first
# stage, which is the previous state's handed-over right-hand side
APPLIES_PER_STEP = {"strang-rk2": 4, "lie-rk2": 2, "strang-euler": 2,
                    "lie-euler": 1}


def count_join_applies(monkeypatch):
    calls = []
    apply = JoiningTables.apply

    def counted(self, *args, **kwargs):
        calls.append(1)
        return apply(self, *args, **kwargs)

    monkeypatch.setattr(JoiningTables, "apply", counted)
    return calls


EVERY_STEP = tuple(0.05 * i for i in range(21))  # dt = 0.05 up to t = 1


def stray_setup():
    """A closed family on a grid short enough that joining pushes real
    flux past the grid end within a few steps."""
    grid = build_grid(1.0, 26.0, 64, "geometric")
    return closed_family(), gaussian_start(grid)


def stray_case(setup, option):
    """(k, u0, SolverConfig options) of a run on the stray_setup grid whose
    joining flux strays at the initial state, at a step in the middle of
    the run, or at the state the run ends on."""
    k, u0 = stray_setup()
    options = dict(dt=0.05, t_end=1.0, tail_mass_bound=float("inf"),
                   snapshot_times=EVERY_STEP, **OPTIONS[option])
    if setup == "initial":
        u0 = gaussian_start(u0.grid, center=14.0, width=1.0)
    elif setup == "final":
        _, partial = outcome(run, u0, 2.0, k, SolverConfig(**options))
        options["t_end"] = len(partial.ledger) * options["dt"]
    return k, u0, options


class TestRightHandSideHandover:
    @pytest.mark.parametrize("skip_joining", [False, True],
                             ids=["joining", "skip-joining"])
    @pytest.mark.parametrize("option", sorted(OPTIONS))
    def test_run_matches_reference(self, small_setup, option, skip_joining):
        """Bit for bit, with several reaction substeps per interval."""
        k, _, u0 = small_setup
        dt = 2e-2
        cfg = SolverConfig(dt=dt, t_end=10 * dt, skip_joining=skip_joining,
                           snapshot_times=tuple(dt * i for i in range(11)),
                           **OPTIONS[option])
        res = run(u0, 2.0, k, cfg)
        assert len(res.snapshots) == 11
        assert_same_run(res, reference_run(u0, 2.0, k, cfg))

    @pytest.mark.parametrize("splitting", SPLITTINGS)
    def test_step_hands_back_the_new_right_hand_side(self, small_setup,
                                                     splitting):
        """And, after a Strang step, the drain and gain at the new state."""
        k, grid, u0 = small_setup
        cfg = SolverConfig(dt=5e-3, t_end=5e-3, splitting=splitting)
        mach = build_machinery(k, u0, cfg)
        begin = Snapshot(t=0.0, v=2.0, u=u0.copy())
        new, (f_end, scale_end, monomer) = step(
            begin, cfg, mach, mach.reaction.rhs(u0.values), cfg.dt)
        f_fresh, scale_fresh = mach.reaction.rhs(new.u.values)
        assert np.array_equal(f_end, f_fresh)
        assert scale_end == scale_fresh
        if splitting == "lie":
            assert monomer is None
        else:
            assert monomer == (mach.reaction.drain(new.u.values),
                               mach.reaction.frag.monomer_gain(new.u.values))

    @pytest.mark.parametrize("option", sorted(OPTIONS))
    def test_strang_carries_drain_and_gain(self, small_setup, monkeypatch,
                                           option):
        """After the first step a Strang step evaluates the drain and the
        monomer gain 3 times, not 4: its first reaction half starts from
        the values the previous step's last half ended on.  A Lie step
        ends on a transported state, so it evaluates both twice."""
        k, _, u0 = small_setup
        n = 6
        counts = {"drain": 0, "monomer_gain": 0}
        for owner, name in ((ReactionOperator, "drain"),
                            (FragTables, "monomer_gain")):
            def counted(self, u, _fn=getattr(owner, name), _name=name):
                counts[_name] += 1
                return _fn(self, u)

            monkeypatch.setattr(owner, name, counted)
        run(u0, 2.0, k, SolverConfig(dt=5e-3, t_end=n * 5e-3, **OPTIONS[option]))
        want = 3 * n + 1 if option.startswith("strang") else 2 * n
        assert counts == {"drain": want, "monomer_gain": want}

    @pytest.mark.parametrize("option", sorted(OPTIONS))
    def test_each_state_is_evaluated_once(self, small_setup, monkeypatch,
                                          option):
        k, _, u0 = small_setup
        n = 6
        cfg = SolverConfig(dt=5e-3, t_end=n * 5e-3, **OPTIONS[option])
        calls = count_join_applies(monkeypatch)
        run(u0, 2.0, k, cfg)
        assert len(calls) == APPLIES_PER_STEP[option] * n + 1

    def test_loss_gemv_is_shared(self, small_setup, monkeypatch):
        """Each evaluation makes one loss GEMV, which serves its joining
        apply and the substep rule, and the handed-over start of a step
        carries its scale: 4 GEMVs per Strang step with Heun, one per
        joining apply."""
        k, _, u0 = small_setup
        n = 6
        calls = []
        loss_rate = JoiningTables.loss_rate

        def counted(self, *args):
            calls.append(1)
            return loss_rate(self, *args)

        monkeypatch.setattr(JoiningTables, "loss_rate", counted)
        run(u0, 2.0, k, SolverConfig(dt=5e-3, t_end=n * 5e-3))
        assert len(calls) == 4 * n + 1

    def test_final_state_is_evaluated_without_test_functions(
            self, small_setup, monkeypatch):
        """No ledger reads the evaluations, and still each accepted state,
        the final one included, is evaluated once."""
        k, _, u0 = small_setup
        n = 6
        cfg = SolverConfig(dt=5e-3, t_end=n * 5e-3, test_functions=())
        calls = count_join_applies(monkeypatch)
        res = run(u0, 2.0, k, cfg)
        assert len(calls) == 4 * n + 1
        assert_same_run(res, reference_run(u0, 2.0, k, cfg))

    @pytest.mark.parametrize("test_functions", [None, ()],
                             ids=["all", "none"])
    @pytest.mark.parametrize("option", sorted(OPTIONS))
    def test_stray_flux_raises_at_the_same_step(self, option, test_functions):
        k, u0 = stray_setup()
        cfg = SolverConfig(dt=0.05, t_end=1.0, tail_mass_bound=float("inf"),
                           test_functions=test_functions,
                           snapshot_times=EVERY_STEP, **OPTIONS[option])
        err, partial = outcome(run, u0, 2.0, k, cfg)
        ref_err, ref_partial = outcome(reference_run, u0, 2.0, k, cfg)
        assert err is ref_err is PairOutOfRange
        assert len(ref_partial.ledger) > 2
        assert_same_run(partial, ref_partial)

    def test_final_state_that_strays_is_refused(self):
        """Lie with Euler evaluates nothing inside a step but its start
        state, so the run's own evaluation of the state it ends on is
        what refuses a final state whose joining flux strays, also
        without test functions."""
        k, u0 = stray_setup()
        options = dict(dt=0.05, tail_mass_bound=float("inf"), test_functions=(),
                       **OPTIONS["lie-euler"])
        err, partial = outcome(
            run, u0, 2.0, k, SolverConfig(t_end=1.0, **options))
        assert err is PairOutOfRange
        n = len(partial.ledger)
        cfg = SolverConfig(t_end=n * 0.05, **options)
        with pytest.raises(PairOutOfRange) as exc:
            run(u0, 2.0, k, cfg)
        assert len(exc.value.partial_result.ledger) == n
        err, ref_partial = outcome(reference_run, u0, 2.0, k, cfg)
        assert err is PairOutOfRange
        assert_same_run(exc.value.partial_result, ref_partial)

    @pytest.mark.parametrize("setup", ["initial", "mid-run", "final"])
    @pytest.mark.parametrize("option", sorted(OPTIONS))
    def test_outcome_does_not_depend_on_test_functions(self, option, setup):
        """Same error at the same step, same snapshots and the same
        floats in every ledger column both runs keep."""
        k, u0, options = stray_case(setup, option)
        err, partial = outcome(run, u0, 2.0, k, SolverConfig(**options))
        bare_err, bare = outcome(
            run, u0, 2.0, k, SolverConfig(test_functions=(), **options))
        assert err is bare_err is PairOutOfRange
        shared = bare.ledger.column_order()
        assert set(shared) < set(partial.ledger.column_order())
        assert_same_run(partial, bare, columns=shared)

    @pytest.mark.parametrize("test_functions", [None, ()],
                             ids=["all", "none"])
    def test_error_at_the_initial_evaluation_carries_partial_result(
            self, test_functions):
        k, u0, options = stray_case("initial", "strang-rk2")
        with pytest.raises(PairOutOfRange) as exc:
            run(u0, 2.0, k, SolverConfig(test_functions=test_functions,
                                         **options))
        partial = exc.value.partial_result
        assert len(partial.ledger) == 0
        (first,) = partial.snapshots
        assert first.t == 0.0 and first.v == 2.0
        assert np.array_equal(first.u.values, u0.values)

    @pytest.mark.parametrize("option", sorted(OPTIONS))
    def test_tail_gate_raises_at_the_same_step(self, option):
        """Joining cut at the grid end carries mass into the outer tenth
        of the grid, and the gate trips after the first step."""
        k = with_join_cutoff(closed_family(), cutoff=60.0)
        grid = build_grid(1.0, 60.0, 64, "geometric")
        u0 = gaussian_start(grid, center=40.0, width=1.0)
        cfg = SolverConfig(dt=0.05, t_end=1.0, tail_mass_bound=1.5e-4,
                           snapshot_times=EVERY_STEP, **OPTIONS[option])
        err, partial = outcome(run, u0, 2.0, k, cfg)
        ref_err, ref_partial = outcome(reference_run, u0, 2.0, k, cfg)
        assert err is ref_err is MassEscape
        assert len(ref_partial.ledger) > 2
        assert_same_run(partial, ref_partial)

import math

import numpy as np
import pytest

from prionpde.diagnostics import (
    CORE_COLUMNS,
    TAIL_FRACTION,
    DiagnosticsLedger,
    LedgerAccumulator,
    RunResult,
    Snapshot,
    TestFunction,
    builtin_test_functions,
    consistency_residual,
    higher_moment_series,
    m2_bound_check,
    recompute_ledger,
    support_bound,
    uniform_integrability_report,
    vallee_poussin_weight,
)
from prionpde.errors import (
    EtaCutoffViolated,
    WrongFamily,
    ZeroMass,
)
from prionpde.grid import GridFunction, build_grid, moment, project
from prionpde.kernels import (
    ModelParams,
    make_bounded_family,
    make_powerlaw_family,
    make_special_family,
    with_join_cutoff,
)
from prionpde.operators import JoiningTables, ReactionOperator
from prionpde.solver import SolverConfig, run


def closed_family(join_value=0.2):
    params = ModelParams(production=1.0, degradation=0.5, min_size=1.0)
    return make_special_family(1.0, 0.1, 0.5, join_value, params=params)


def gaussian_start(grid, center=3.0, width=0.3, count=0.4):
    amp = count / (width * math.sqrt(2.0 * math.pi))
    return project(
        lambda y: amp * np.exp(-0.5 * ((y - center) / width) ** 2), grid)


@pytest.fixture(scope="module")
def dense_run():
    """Short run with a snapshot at every step, for replay tests."""
    k = closed_family()
    grid = build_grid(1.0, 60.0, 64, "geometric")
    u0 = gaussian_start(grid)
    dt, n = 5e-3, 10
    cfg = SolverConfig(dt=dt, t_end=n * dt,
                       snapshot_times=tuple(dt * i for i in range(1, n + 1)))
    return k, run(u0, 2.0, k, cfg)


class TestWeights:
    def test_builtin_closures_are_consistent(self):
        k = closed_family()
        grid = build_grid(1.0, 200.0, 128, "geometric")
        ys = np.linspace(1.5, 195.0, 257)
        for tf in builtin_test_functions(grid, k):
            assert consistency_residual(tf, ys) <= 1e-9, tf.name

    def test_wrong_slope_is_caught(self):
        broken = TestFunction(
            "broken",
            value=lambda y: np.asarray(y, dtype=float) ** 2,
            slope=lambda y: np.asarray(y, dtype=float),
        )
        assert consistency_residual(broken, np.linspace(1.0, 10.0, 33)) > 1e-3

    def test_wrong_pair_defect_is_caught(self):
        broken = TestFunction(
            "broken_pair",
            value=lambda y: np.asarray(y, dtype=float),
            slope=lambda y: np.ones_like(np.asarray(y, dtype=float)),
            pair_defect=lambda y, z: np.ones_like(np.asarray(y, dtype=float)),
        )
        assert consistency_residual(broken, np.linspace(1.0, 10.0, 33)) > 0.05

    def test_adapted_weight_properties(self):
        grid = build_grid(1.0, 100.0, 96, "geometric")
        u0 = gaussian_start(grid, center=5.0, width=1.0)
        w = vallee_poussin_weight(u0)
        ys = np.linspace(0.0, 400.0, 801)
        vals = w.value(ys)
        assert vals[0] == 0.0
        second = np.diff(vals, 2)
        assert np.all(second >= -1e-12)
        # superlinear: the per-size cost keeps growing
        assert vals[-1] / ys[-1] > 2.0 * vals[20] / ys[20]
        assert consistency_residual(w, np.linspace(0.5, 300.0, 129)) <= 1e-9

    def test_adapted_weight_needs_mass(self):
        grid = build_grid(1.0, 100.0, 32, "geometric")
        with pytest.raises(ZeroMass):
            vallee_poussin_weight(GridFunction(grid, np.zeros(grid.n)))


class TestLedger:
    def test_column_layout(self):
        led = DiagnosticsLedger(wf_names=("one", "size"), extra_moment=1.5,
                                uniform_integrability=True)
        assert led.column_order() == CORE_COLUMNS + (
            "wf_one", "wf_size", "M_sigma", "I1", "I2")

    def test_record_rejects_wrong_keys(self):
        led = DiagnosticsLedger()
        with pytest.raises(ValueError, match="row keys mismatch"):
            led.record({name: 0.0 for name in CORE_COLUMNS[:-1]})
        bad = {name: 0.0 for name in CORE_COLUMNS}
        bad["surprise"] = 1.0
        with pytest.raises(ValueError, match="surprise"):
            led.record(bad)

    def test_csv_roundtrip(self, dense_run, tmp_path):
        _, res = dense_run
        path = tmp_path / "timeseries.csv"
        res.ledger.to_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == ",".join(res.ledger.column_order())
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert data.shape == (len(res.ledger), len(res.ledger.column_order()))
        # %.17g keeps doubles exactly
        col = res.ledger.column_order().index("balance_residual")
        assert np.array_equal(data[:, col],
                              res.ledger.column("balance_residual"))


class TestReplay:
    def test_recompute_is_bit_identical(self, dense_run):
        k, res = dense_run
        redone = recompute_ledger(res, k)
        assert redone.column_order() == res.ledger.column_order()
        for name in res.ledger.column_order():
            assert np.array_equal(redone.column(name),
                                  res.ledger.column(name)), name

    @pytest.mark.parametrize("options", [
        {"skip_joining": True},
        {"reaction_integrator": "euler"},
        {"splitting": "lie"},
        {"extra_moment": 1.5, "uniform_integrability": True,
         "test_functions": ("size", "one")},
    ])
    def test_recompute_follows_solver_options(self, options):
        k = closed_family()
        grid = build_grid(1.0, 60.0, 64, "geometric")
        dt, n = 5e-3, 20
        cfg = SolverConfig(dt=dt, t_end=n * dt,
                           snapshot_times=tuple(dt * i for i in range(1, n + 1)),
                           **options)
        res = run(gaussian_start(grid), 2.0, k, cfg)
        redone = recompute_ledger(res, k)
        assert redone.column_order() == res.ledger.column_order()
        for name in res.ledger.column_order():
            assert np.array_equal(redone.column(name),
                                  res.ledger.column(name)), name
        if cfg.skip_joining:
            assert np.all(np.isfinite(redone.column("support_bound")))


class TestWeakForm:
    def test_residual_routes_agree_when_refined(self):
        """The ledger's on-line weak-form column and the off-line replay
        over the snapshots take the same trapezoid functional: they must
        agree to roundoff, and at this dt both must be small."""
        k = closed_family()
        grid = build_grid(1.0, 120.0, 128, "geometric")
        u0 = gaussian_start(grid)
        dt, n = 2e-4, 500
        cfg = SolverConfig(dt=dt, t_end=n * dt,
                           snapshot_times=tuple(dt * i for i in range(1, n + 1)))
        res = run(u0, 2.0, k, cfg)
        offline = recompute_ledger(res, k).column("wf_size")[-1]
        online = res.ledger.column("wf_size")[-1]
        assert abs(offline - online) <= 1e-13
        assert abs(online) < 5e-8
        assert np.max(np.abs(res.ledger.column("balance_residual"))) < 5e-8


class TestSupportEnvelope:
    def test_global_joining_has_no_envelope(self, dense_run):
        k, res = dense_run
        with pytest.raises(EtaCutoffViolated):
            support_bound(res, k)
        assert res.ledger.column("support_bound")[-1] == math.inf

    def test_false_cutoff_claim_is_checked(self, dense_run):
        k, res = dense_run
        with pytest.raises(EtaCutoffViolated, match="does not vanish"):
            support_bound(res, k, S1=30.0)

    def test_envelope_contains_numeric_support(self):
        """Joining chains the support up to the pair cutoff, where the
        rate dies; the envelope starts at the cutoff and grows with the
        elongation speed, so it stays above the numeric support.  The
        bulk sits far below the cutoff so the redeposit skirt beyond it
        stays under the support threshold."""
        k = with_join_cutoff(
            make_bounded_family(1.0, 0.0, 0.0, 0.05), cutoff=40.0)
        grid = build_grid(1.0, 129.0, 64, "uniform")
        u0 = gaussian_start(grid, center=8.0, width=1.5, count=0.2)
        dt, n = 0.05, 20
        cfg = SolverConfig(dt=dt, t_end=n * dt,
                           snapshot_times=tuple(dt * i for i in range(1, n + 1)))
        res = run(u0, 0.25, k, cfg)
        env = support_bound(res, k)
        numeric = res.ledger.column("support_numeric")
        bound_col = res.ledger.column("support_bound")
        assert np.allclose(env, bound_col, rtol=1e-12, atol=0.0)
        slack = 2.0 * float(np.max(grid.widths))
        assert np.all(numeric <= env + slack)
        assert np.all(np.isfinite(env))
        assert np.all(np.diff(env) >= 0.0)

    def test_envelope_skips_the_reaction(self, monkeypatch):
        """The envelope needs no weak-form fluxes, so the replay makes no
        joining evaluation."""
        k = with_join_cutoff(
            make_bounded_family(1.0, 0.0, 0.0, 0.05), cutoff=40.0)
        grid = build_grid(1.0, 129.0, 64, "uniform")
        u0 = gaussian_start(grid, center=8.0, width=1.5, count=0.2)
        dt, n = 0.05, 8
        cfg = SolverConfig(dt=dt, t_end=n * dt,
                           snapshot_times=tuple(dt * i for i in range(1, n + 1)))
        res = run(u0, 0.25, k, cfg)
        calls = []
        apply = JoiningTables.apply

        def counted(self, *args):
            calls.append(1)
            return apply(self, *args)

        monkeypatch.setattr(JoiningTables, "apply", counted)
        env = support_bound(res, k)
        assert calls == []
        assert np.array_equal(env, res.ledger.column("support_bound"))


class TestMomentBarriers:
    def test_wrong_family_is_rejected(self, dense_run):
        k, res = dense_run
        with pytest.raises(WrongFamily):
            m2_bound_check(res, k)  # theta = 0 for constant joining
        bounded = make_bounded_family(1.0, 0.1, 0.1, 0.1)
        with pytest.raises(WrongFamily):
            m2_bound_check(res, bounded)

    def test_powerlaw_constant_is_finite(self):
        k = make_powerlaw_family()
        grid = build_grid(1.0, 300.0, 96, "geometric")
        u0 = gaussian_start(grid)
        cfg = SolverConfig(dt=5e-3, t_end=0.3,
                           snapshot_times=(0.075, 0.15, 0.225))
        res = run(u0, 2.0, k, cfg)
        rep = m2_bound_check(res, k)
        assert rep["theta"] == 1.5
        assert rep["zeta"] == 1.0
        assert 0.0 < rep["constant"] < math.inf
        again = m2_bound_check(res, k, refined=res)
        assert again["relative_change"] == 0.0

    def test_higher_moment_series(self, dense_run):
        _, res = dense_run
        times, values, ok, rate = higher_moment_series(res, sigma=1.5)
        assert len(times) == len(res.snapshots)
        assert np.all(values > 0.0)
        assert ok is True
        assert rate >= 0.0

    def test_higher_moment_needs_mass(self, dense_run):
        _, res = dense_run
        grid = res.snapshots[0].u.grid
        empty = RunResult(
            snapshots=(Snapshot(0.0, 1.0, GridFunction(grid, np.zeros(grid.n))),),
            ledger=DiagnosticsLedger(),
        )
        with pytest.raises(ZeroMass):
            higher_moment_series(empty, sigma=1.5)


class TestUniformIntegrability:
    def test_dissipation_series_are_nonnegative(self, dense_run):
        k, res = dense_run
        rep = uniform_integrability_report(res, k)
        assert np.all(rep["weighted_moment"] > 0.0)
        scale = float(np.max(rep["I1"])) + float(np.max(rep["I2"])) + 1.0
        assert np.all(rep["I1"] >= -1e-12 * scale)
        assert np.all(rep["I2"] >= -1e-12 * scale)

    def test_run_flag_emits_matching_columns(self):
        k = closed_family()
        grid = build_grid(1.0, 60.0, 64, "geometric")
        u0 = gaussian_start(grid)
        dt, n = 5e-3, 8
        cfg = SolverConfig(dt=dt, t_end=n * dt,
                           snapshot_times=tuple(dt * i for i in range(1, n + 1)),
                           uniform_integrability=True)
        res = run(u0, 2.0, k, cfg)
        assert "I1" in res.ledger.column_order()
        rep = uniform_integrability_report(res, k)
        assert res.ledger.column("I1")[-1] == rep["I1"][-1]
        assert res.ledger.column("I2")[-1] == rep["I2"][-1]


@pytest.mark.parametrize("spacing", ["geometric", "uniform"])
def test_row_moments_equal_the_moment_formula(spacing):
    """The ledger's stored moment weights and tail slice give the same
    floats as moment() and the tail mask."""
    k = closed_family()
    grid = build_grid(1.0, 60.0, 64, spacing)
    # without joining, so mass in the tail cannot stray
    acc = LedgerAccumulator(k, ReactionOperator.build(k, grid, skip_joining=True))
    rng = np.random.default_rng(11)
    tail = grid.centers > TAIL_FRACTION * grid.ymax
    assert 0 < np.count_nonzero(tail) < grid.n
    for i in range(4):
        u = GridFunction(grid, rng.random(grid.n))
        row = (acc.advance(0.1 * i, 1.0, u) if i else acc.start(0.0, 1.0, u))
        assert row["U0"] == moment(grid, u.values, 0)
        assert row["U1"] == moment(grid, u.values, 1)
        assert row["M2"] == moment(grid, u.values, 2)
        assert row["tail_mass"] == float(np.dot(u.values[tail], grid.widths[tail]))

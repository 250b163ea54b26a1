import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prionpde import kernels
from prionpde._ode import rk4_step
from prionpde.errors import (
    AsymmetricK0,
    LevelInconsistent,
    NonEvaluableKernel,
    NonPositiveTau,
    SupportExceedsGrid,
    UnnormalizedK0,
)
from prionpde.grid import GridFunction, build_grid, project
from prionpde.kernels import (
    _MOLLIFY_W,
    _MOLLIFY_X,
    _cut_beyond,
    graded_rule,
    _panel_rule,
    _truncated_start,
    ConstantRate,
    HypothesisFamily,
    KernelSet,
    ModelParams,
    TruncationLevel,
    make_bounded_family,
    make_k0_family,
    make_powerlaw_family,
    make_special_family,
    mollify_rate,
    plan_truncation_levels,
    smooth_cut,
    smoothstep,
    truncate,
    validate_kernel_set,
    with_join_cutoff,
)
from prionpde.operators import FragTables, GridTables, JoiningTables, ReactionOperator
from prionpde.solver import SolverConfig, run
from reference_ode import rk4_solve


def check_by_name(report, name):
    matches = [c for c in report.checks if c.name == name]
    assert len(matches) == 1, f"{name} missing from report"
    return matches[0]


class TestFamilies:
    def test_special_family_validates(self):
        k = make_special_family(1.0, 1.0, 1.0, 1.0)
        report = validate_kernel_set(k, samples=32)
        assert report.family is HypothesisFamily.WEAK_UNBOUNDED
        assert report.all_passed, report.format()

    def test_special_family_daughter_normalization_exact(self):
        k = make_special_family(1.0, 0.1, 0.5, 0.2)
        report = validate_kernel_set(k, samples=16)
        assert check_by_name(report, "daughter_number_normalization").residual < 1e-12
        assert check_by_name(report, "daughter_mass_normalization").residual < 1e-12

    def test_zero_join_passes_with_zero_residual(self):
        k = make_special_family(1.0, 0.0, 0.0, 0.0)
        report = validate_kernel_set(k, samples=16)
        assert check_by_name(report, "join_symmetry").residual == 0.0
        assert report.all_passed

    def test_nonpositive_growth_rejected(self):
        with pytest.raises(NonPositiveTau):
            make_special_family(0.0, 0.1, 0.5, 0.2)
        with pytest.raises(ValueError):
            make_special_family(1.0, -0.1, 0.5, 0.2)

    @pytest.mark.parametrize("name", ["production", "degradation", "saturation"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_model_params_refuse_non_finite(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite.*{value}"):
            ModelParams(**{name: value})

    @pytest.mark.parametrize("rates", [(1.0, math.nan, 0.5, 0.2),
                                       (1.0, 0.1, math.nan, 0.2),
                                       (1.0, 0.1, 0.5, math.nan),
                                       (1.0, 0.1, 0.5, math.inf)])
    def test_special_family_refuses_non_finite_rates(self, rates):
        with pytest.raises(ValueError, match="must be finite"):
            make_special_family(*rates)

    def test_bounded_family_refuses_infinite_growth(self):
        with pytest.raises(ValueError, match="must be finite.*inf"):
            make_bounded_family(growth_value=math.inf)

    def test_k0_uniform_profile_matches_builtin(self):
        k = make_k0_family(lambda s: np.ones_like(s), growth_value=1.0)
        ref = make_special_family(1.0, 0.0, 0.0, 0.0)
        y = np.array([2.0, 5.0, 40.0])
        z = np.array([1.3, 2.0, 39.0])
        assert np.allclose(k.daughter(z, y), ref.daughter(z, y), rtol=1e-14)

    def test_k0_parabolic_profile_validates(self):
        k = make_k0_family(lambda s: 6.0 * s * (1.0 - s),
                           growth_value=1.0, frag_slope=0.5)
        report = validate_kernel_set(k, samples=24)
        assert check_by_name(report, "daughter_symmetry").passed
        assert check_by_name(report, "daughter_number_normalization").passed
        assert check_by_name(report, "daughter_mass_normalization").passed

    def test_k0_rejects_asymmetric_profile(self):
        with pytest.raises(AsymmetricK0):
            make_k0_family(lambda s: s)

    def test_k0_rejects_unnormalized_profile(self):
        with pytest.raises(UnnormalizedK0):
            make_k0_family(lambda s: 12.0 * s * (1.0 - s))

    def test_k0_rejects_nonfinite_profile(self):
        with pytest.raises(NonEvaluableKernel):
            make_k0_family(lambda s: np.where(s > 0.5, np.nan, 1.0))

    def test_asymmetric_daughter_detected_by_validator(self):
        base = make_special_family(1.0, 0.0, 1.0, 0.0)

        def lopsided(z, y):
            z = np.asarray(z, dtype=float)
            y = np.asarray(y, dtype=float)
            z, y = np.broadcast_arrays(z, y)
            safe = np.where(y > 0, y, 1.0)
            return np.where((z > 0) & (z < y), 2.0 * z / safe**2, 0.0)

        import dataclasses
        k = dataclasses.replace(base, daughter=lopsided)
        report = validate_kernel_set(k, samples=32)
        sym = check_by_name(report, "daughter_symmetry")
        assert not sym.passed and sym.residual > 0.1

    def test_powerlaw_envelope_holds_and_large_size_mass_fails(self):
        # uniform daughter cannot satisfy the large-size mass-fraction
        # condition: twice its mass above min_size tends to the full y
        k = make_powerlaw_family(join_scale=0.1, join_exp_low=0.5, join_exp_high=1.0)
        assert k.growth_constants.join_exp_total == pytest.approx(1.5)
        report = validate_kernel_set(k, samples=32)
        assert check_by_name(report, "join_growth_envelope").passed
        assert check_by_name(report, "frag_lower_bound").passed
        assert check_by_name(report, "frag_exponent_admissible").passed
        mass = check_by_name(report, "daughter_large_size_mass")
        assert not mass.passed and mass.residual > 0.01
        assert not report.all_passed

    def test_bounded_family_validates_with_caps(self):
        k = make_bounded_family(1.0, 0.05, 0.1, 0.05)
        report = validate_kernel_set(k, samples=24)
        assert report.family is HypothesisFamily.BOUNDED_CLASSICAL
        assert report.all_passed, report.format()


def reference_daughter_residuals(k, samples=64):
    """The per-probe loops validate_kernel_set replaced: one daughter call
    per probe parent (per probe set for the small-set flux), each
    integral one dot product over its composite rule.  Returns
    {check name: (passed, residual)} for the checks they fed."""
    y0 = k.params.min_size
    ys = y0 * 1024.0 ** ((np.arange(samples) + 1.0) / samples)
    frag_v = np.asarray(k.frag(ys), dtype=float)
    gc = k.growth_constants
    tol = 1e-8
    out = {}
    num_res, mass_res = 0.0, 0.0
    for y in ys:
        nodes, weights = graded_rule(float(y))
        dv = k.daughter(nodes, np.full_like(nodes, y))
        num_res = max(num_res, abs(float(np.dot(weights, dv)) - 1.0))
        mass_res = max(mass_res, abs(2.0 * float(np.dot(weights, nodes * dv)) - y) / y)
    out["daughter_number_normalization"] = (num_res <= tol, num_res)
    out["daughter_mass_normalization"] = (mass_res <= tol, mass_res)
    total = gc.join_exp_total
    if (k.hypothesis_family is HypothesisFamily.WEAK_UNBOUNDED and total is not None
            and total > 1.0 and gc.daughter_mass_fraction is not None):
        res = 0.0
        for y in ys[ys >= 4.0 * y0]:
            nodes, weights = _panel_rule(y0, float(y), 64)
            dv = k.daughter(nodes, np.full_like(nodes, y))
            frac_mass = 2.0 * float(np.dot(weights, nodes * dv)) / y
            res = max(res, frac_mass - gc.daughter_mass_fraction)
        out["daughter_large_size_mass"] = (res <= tol, max(res, 0.0))
    series = []
    for kk in range(2, 9):
        worst = 0.0
        for y, fv in zip(ys, frag_v):
            w = y / 2.0**kk
            for a0 in np.linspace(0.0, y - w, 16):
                nodes, weights = _panel_rule(a0, a0 + w, 4)
                dv = k.daughter(nodes, np.full_like(nodes, y))
                worst = max(worst, fv * float(np.dot(weights, dv)))
        series.append(worst)
    decays = all(series[i + 1] <= series[i] * (1.0 + 1e-12) for i in range(len(series) - 1))
    shrinks = series[-1] <= 0.5 * series[0] + 1e-300
    out["frag_flux_small_sets"] = (decays and shrinks,
                                   series[-1] / series[0] if series[0] > 0 else 0.0)
    if gc.daughter_spread_from is not None and gc.daughter_spread_floor is not None:
        y1, floor = gc.daughter_spread_from, gc.daughter_spread_floor
        res, seen = 0.0, False
        for y in ys[ys >= 2.0 * y1]:
            seen = True
            nodes, weights = _panel_rule(y1, float(y), 64)
            dv = k.daughter(nodes, np.full_like(nodes, y))
            res = max(res, floor - float(np.dot(weights, (1.0 - nodes / y) * dv)))
        out["daughter_spread_floor"] = (seen and res <= tol, max(res, 0.0))
    return out


VALIDATED_FAMILIES = {
    "special": lambda: make_special_family(1.0, 0.1, 0.5, 0.2),
    "k0-parabolic": lambda: make_k0_family(lambda s: 6.0 * s * (1.0 - s),
                                           growth_value=1.0, frag_slope=0.5),
    "powerlaw": lambda: make_powerlaw_family(),
    "bounded": lambda: make_bounded_family(1.0, 0.05, 0.1, 0.05),
    "bounded-no-frag": lambda: make_bounded_family(1.0, 0.05, 0.0, 0.05),
    "failing": lambda: failing_daughter_family(),
}


def failing_daughter_family():
    """Normalization off by 0.01/y and a spread floor no uniform daughter
    meets, so those residuals are far from zero."""
    base = make_special_family(1.0, 0.1, 0.5, 0.2)

    def daughter(z, y):
        return (1.0 + 0.01 / np.asarray(y, dtype=float)) * base.daughter(z, y)

    constants = dataclasses.replace(base.growth_constants, daughter_spread_floor=0.6)
    return dataclasses.replace(base, daughter=daughter, growth_constants=constants)


class TestValidatorQuadrature:
    @pytest.mark.parametrize("family", sorted(VALIDATED_FAMILIES))
    def test_matches_the_per_probe_loops(self, family):
        k = VALIDATED_FAMILIES[family]()
        report = validate_kernel_set(k)
        want = reference_daughter_residuals(k)
        for name, (passed, residual) in want.items():
            check = check_by_name(report, name)
            assert check.passed == passed, name
            assert abs(check.residual - residual) <= 1e-12, name

    def test_daughter_nonfinite_off_the_probe_lattice_raises(self):
        base = make_special_family(1.0, 0.1, 0.5, 0.2)

        def daughter(z, y):
            z, y = np.broadcast_arrays(np.asarray(z, dtype=float),
                                       np.asarray(y, dtype=float))
            return np.where(z < 1e-3 * y, np.nan, base.daughter(z, y))

        with pytest.raises(NonEvaluableKernel):
            validate_kernel_set(dataclasses.replace(base, daughter=daughter))


class TestCutoffs:
    def test_join_cutoff_vanishes_beyond(self):
        k = with_join_cutoff(make_special_family(1.0, 0.0, 0.0, 0.5), 40.0)
        y = np.linspace(1.0, 60.0, 40)
        vals = k.join(y[:, None], y[None, :])
        over = (y[:, None] + y[None, :]) >= 40.0
        assert np.all(vals[over] == 0.0)
        under = (y[:, None] + y[None, :]) <= 40.0 - 5.0
        assert np.allclose(vals[under], 0.5, rtol=1e-14)
        report = validate_kernel_set(k, samples=16)
        assert check_by_name(report, "join_cutoff_metadata").passed

    @pytest.mark.parametrize("cutoff, width", [(math.inf, None), (math.nan, None),
                                               (40.0, 0.0), (40.0, math.nan)])
    def test_join_cutoff_refuses_non_finite_or_empty_taper(self, cutoff, width):
        # each would make the joining rate nan somewhere
        with pytest.raises(ValueError, match="must be finite"):
            with_join_cutoff(make_special_family(1.0, 0.0, 0.0, 0.5), cutoff, width)

    def test_smoothstep_shape(self):
        s = np.linspace(-0.5, 1.5, 201)
        v = smoothstep(s)
        assert np.all(v[s <= 0] == 0.0)
        assert np.all(v[s >= 1] == 1.0)
        inner = v[(s > 0.02) & (s < 0.98)]
        assert np.all(np.diff(inner) > 0)
        assert smoothstep(0.5) == pytest.approx(0.5)

    def test_smooth_cut_endpoints(self):
        x = np.array([0.0, 34.9, 35.0, 39.0, 40.0, 41.0])
        v = smooth_cut(x, 40.0, 5.0)
        assert v[0] == 1.0 and v[1] == 1.0
        assert 0.0 < v[3] < 1.0
        assert v[4] == 0.0 and v[5] == 0.0

    def test_mollify_exact_for_affine(self):
        fn = mollify_rate(lambda y: 2.0 + 3.0 * np.asarray(y, dtype=float), 0.25)
        y = np.linspace(1.0, 10.0, 17)
        assert np.allclose(fn(y), 2.0 + 3.0 * y, rtol=1e-12)

    def test_mollify_floor(self):
        fn = mollify_rate(lambda y: np.zeros(np.shape(y)), 0.1, floor=0.5)
        assert np.all(fn(np.array([1.0, 2.0])) == 0.5)


def reference_smoothstep(s):
    """The full-array formula smoothstep replaced: both half bumps at
    every s, then their ratio."""
    s = np.asarray(s, dtype=float)

    def half_bump(x):
        return np.where(x > 0.0, np.exp(-1.0 / np.maximum(x, 1e-12)), 0.0)

    a, b = half_bump(s), half_bump(1.0 - s)
    return a / (a + b)


def bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


class TestSmoothstepOnTheRamp:
    EDGES = [0.0, -0.0, 1.0, 1e-300, -1e-300, np.nextafter(1.0, 0.0),
             np.nextafter(1.0, 2.0), np.inf, -np.inf, np.nan,
             1e-3, 0.5, 0.999, 0.9999, -3.0, 7.5]

    @pytest.mark.parametrize("s", EDGES + [np.float64(0.25), np.array(0.75),
                                           np.array(np.nan), 2])
    def test_scalar_matches_the_full_formula(self, s):
        with np.errstate(invalid="ignore"):
            got, want = smoothstep(s), reference_smoothstep(s)
        assert type(got) is type(want) is np.float64
        assert bits(got) == bits(want)

    @pytest.mark.parametrize("shape", [(16,), (4, 4), (2, 8, 1), (0,), (0, 3)])
    def test_array_matches_the_full_formula(self, shape):
        s = np.resize(np.array(self.EDGES), shape)
        with np.errstate(invalid="ignore"):
            got, want = smoothstep(s), reference_smoothstep(s)
        assert type(got) is np.ndarray and got.dtype == want.dtype == np.float64
        assert got.shape == want.shape == shape
        assert np.array_equal(bits(got), bits(want))

    def test_join_cut_table_matches_the_full_formula(self):
        # pair sizes of a 192-cell ladder grid, cut low, mid and high
        c = build_grid(1.0, 200.0, 192, "geometric").centers
        x = c[:, None] + c[None, :]
        for hi, width in ((6.0, 1.3), (20.0, 1.3), (150.0, 19.0)):
            s = (hi - x) / width
            assert np.array_equal(bits(smooth_cut(x, hi, width)),
                                  bits(reference_smoothstep(s)))


def reference_mollify(fn, width, floor=None):
    """The per-node loop mollify_rate replaced: one call of fn per node,
    the weighted values summed in node order."""

    def smooth_fn(y):
        y = np.asarray(y, dtype=float)
        acc = np.zeros(y.shape)
        for xk, wk in zip(_MOLLIFY_X, _MOLLIFY_W):
            acc = acc + wk * np.asarray(fn(y - width * xk), dtype=float)
        if floor is not None:
            acc = np.maximum(acc, floor)
        return acc

    return smooth_fn


class TestMollifyBitwise:
    RATES = {
        "affine": lambda y: 2.0 + 3.0 * np.asarray(y, dtype=float),
        "exp": lambda y: np.exp(0.3 * np.asarray(y, dtype=float)),
    }
    POINTS = {
        "0d": np.float64(2.7),
        "1d": np.linspace(1.0, 10.0, 37),
        "2d": np.geomspace(1.0, 50.0, 24).reshape(4, 6),
    }

    @pytest.mark.parametrize("rate", sorted(RATES))
    @pytest.mark.parametrize("shape", sorted(POINTS))
    @pytest.mark.parametrize("floor", [None, 3.0])
    def test_matches_the_per_node_loop(self, rate, shape, floor):
        fn, y = self.RATES[rate], self.POINTS[shape]
        got = mollify_rate(fn, 0.37, floor=floor)(y)
        want = reference_mollify(fn, 0.37, floor=floor)(y)
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(got, want)


class TestMollifyDeclaredConstant:
    @pytest.mark.parametrize("value", [1.0, 0.37, 3, 7.3])
    @pytest.mark.parametrize("floor_share", [None, 0.5, 2.0])
    def test_stays_declared_with_the_loop_values(self, value, floor_share):
        """A declared constant is smoothed once, into a declared
        constant with the per-node loop's values: the weighted sum, then
        a floor below or above it."""
        floor = None if floor_share is None else floor_share * value
        got = mollify_rate(ConstantRate(value), 0.37, floor=floor)
        assert isinstance(got, ConstantRate)
        want = reference_mollify(ConstantRate(value), 0.37, floor=floor)
        for y in TestMollifyBitwise.POINTS.values():
            assert np.shape(got(y)) == np.shape(want(y))
            assert np.array_equal(got(y), want(y))


def counted(fn):
    """fn with a call counter in its `calls` attribute."""

    def wrapped(y):
        wrapped.calls += 1
        return fn(y)

    wrapped.calls = 0
    return wrapped


def reference_truncate(k, level, horizon_T, u0, v0):
    """The per-level truncate that the ladder form replaced: one horizon
    solve for the one level."""
    y0 = k.params.min_size
    if level.pair_cutoff <= 2.0 * y0:
        raise LevelInconsistent(
            f"pair cutoff {level.pair_cutoff} must exceed {2.0 * y0}")
    width = level.mollifier_width
    growth_n, (u0n_vals,), (reach,) = _truncated_start(
        k, u0, v0, horizon_T, [level.pair_cutoff], width)
    if level.rate_cutoff < reach * (1.0 - 1e-9):
        raise LevelInconsistent(
            f"rate cutoff {level.rate_cutoff:.6g} below horizon reach {reach:.6g}")
    if level.rate_cutoff > u0.grid.ymax:
        raise SupportExceedsGrid(
            f"rate cutoff {level.rate_cutoff:.6g} beyond grid end {u0.grid.ymax}")
    floor = k.growth_constants.speed_floor
    constants = dataclasses.replace(
        k.growth_constants, speed_floor=None if floor is None else 0.5 * floor)
    kn = dataclasses.replace(
        with_join_cutoff(k, level.pair_cutoff, width),
        growth=growth_n,
        death=_cut_beyond(k.death, level.rate_cutoff),
        frag=_cut_beyond(k.frag, level.rate_cutoff),
        hypothesis_family=HypothesisFamily.BOUNDED_CLASSICAL,
        growth_constants=constants,
        label=k.label + f"+level{level.index}",
    )
    return kn, GridFunction(u0.grid, u0n_vals)


def assert_fields_equal(x, y, name):
    """x equals y: dataclasses field by field (through
    dataclasses.fields, so a new field is compared too), tuples element
    by element, arrays by np.array_equal, anything else by ==."""
    assert type(x) is type(y), name
    if dataclasses.is_dataclass(x):
        for f in dataclasses.fields(x):
            assert_fields_equal(getattr(x, f.name), getattr(y, f.name), f"{name}.{f.name}")
    elif isinstance(x, tuple):
        assert len(x) == len(y), name
        for i, (xi, yi) in enumerate(zip(x, y)):
            assert_fields_equal(xi, yi, f"{name}[{i}]")
    elif isinstance(x, np.ndarray):
        assert np.array_equal(x, y), name
    else:
        assert x == y, name


def assert_tables_equal(a, b):
    """Every field of two table objects is equal, and every field of the
    dataclasses they hold: the grid, and the JoinLayout with its bands
    and targets."""
    assert_fields_equal(a, b, type(a).__name__)


class TestTruncation:
    def setup_method(self):
        self.grid = build_grid(1.0, 200.0, 128, "geometric")
        self.u0 = project(
            lambda y: np.exp(-0.5 * ((y - 3.0) / 0.3) ** 2), self.grid)
        self.k = make_special_family(
            1.0, 0.1, 1.0, 0.2,
            ModelParams(production=1.0, degradation=0.5, saturation=0.0, min_size=1.0))

    def test_plan_levels_monotone_and_consistent(self):
        levels = plan_truncation_levels(self.k, self.u0, 2.0, 1.0, [1, 2, 4, 8])
        pair = [lv.pair_cutoff for lv in levels]
        rate = [lv.rate_cutoff for lv in levels]
        assert all(a < b for a, b in zip(pair, pair[1:]))
        assert all(a <= b for a, b in zip(rate, rate[1:]))
        for lv in levels:
            kn, u0n = truncate(self.k, [lv], 1.0, self.u0, 2.0)[0]
            assert kn.hypothesis_family is HypothesisFamily.BOUNDED_CLASSICAL
            assert kn.join_zero_beyond == lv.pair_cutoff

    def reference_rate_cutoffs(self, k, horizon_T, indices):
        """Planned rate cutoffs from one scalar rk4_solve per level."""
        width = float(np.median(self.grid.widths))
        growth = reference_mollify(k.growth, width,
                                   floor=0.5 * k.growth_constants.speed_floor)
        c, w = self.grid.centers, self.grid.widths
        tm = (np.arange(64) + 0.5) * horizon_T / 64.0
        out, rate_cut = [], 0.0
        for n in range(max(indices) + 1):
            pair_cut = 4.0 + 2.0 * n
            vals = self.u0.values * smooth_cut(c, pair_cut, width)
            start = max(float(c[np.flatnonzero(vals > 0.0)[-1]]), pair_cut)
            bound_mass = float(np.dot(vals, w * c))
            travel = float(np.sum(2.0 + bound_mass + k.params.production * tm)
                           * horizon_T / 64.0)
            reach = start
            if travel > 0.0:
                reach = float(rk4_solve(
                    lambda t, y: np.asarray(growth(y), dtype=float),
                    start, [0.0, travel], substeps=256)[-1])
            rate_cut = max(rate_cut, reach, float(n))
            if n in indices:
                out.append(rate_cut)
        return out

    @pytest.mark.parametrize("growth", ["constant", "oscillating"])
    @pytest.mark.parametrize("horizon_T", [1.0, 0.0])
    def test_planned_cutoffs_match_scalar_solves(self, growth, horizon_T):
        k = self.k
        if growth == "oscillating":
            k = dataclasses.replace(k, growth=lambda y: 1.0 + 0.3 * np.sin(
                np.asarray(y, dtype=float)) ** 2)
        levels = plan_truncation_levels(k, self.u0, 2.0, horizon_T, [1, 2, 4, 8])
        got = [lv.rate_cutoff for lv in levels]
        assert got == self.reference_rate_cutoffs(k, horizon_T, [1, 2, 4, 8])

    def reference_reaches(self, k, v0, horizon_T, pair_cuts, width):
        """Horizon reaches from 256 rk4_step calls on the mollified
        growth, whatever it is: _truncated_start's loop before a declared
        constant growth took one increment."""
        growth = mollify_rate(k.growth, width,
                              floor=0.5 * k.growth_constants.speed_floor)
        c, w = self.grid.centers, self.grid.widths
        tm = (np.arange(64) + 0.5) * horizon_T / 64.0
        starts, travels = [], []
        for pair_cut in pair_cuts:
            vals = self.u0.values * smooth_cut(c, pair_cut, width)
            supp = np.flatnonzero(vals > 0.0)
            s0 = float(c[supp[-1]]) if len(supp) else k.params.min_size
            bound_mass = float(np.dot(vals, w * c))
            starts.append(max(s0, pair_cut))
            travels.append(float(np.sum(v0 + bound_mass + k.params.production * tm)
                                 * horizon_T / 64.0))
        reach, travels = np.array(starts), np.array(travels)
        moving = travels > 0.0
        if np.any(moving):
            dt = travels[moving] / 256
            y = reach[moving]
            for j in range(256):
                y = rk4_step(lambda t, y: growth(y), j * dt, y, dt)
            reach[moving] = y
        return reach

    # A one-ulp change of the increment rarely survives 256 additions to
    # a much larger reach, so several constants and a long travel (v0
    # 1e4) are compared; growth None is the special family's 1.0.
    @pytest.mark.parametrize("growth", [None, 0.3, 0.7, 3.7])
    @pytest.mark.parametrize("horizon_T", [1.0, 0.37, 0.0])
    @pytest.mark.parametrize("v0", [2.0, 0.0, 1e4])
    def test_constant_growth_reaches_match_the_rk4_loop(self, growth, horizon_T, v0):
        k = (self.k if growth is None
             else make_bounded_family(growth_value=growth, frag_value=0.3))
        width = float(np.median(self.grid.widths))
        pair_cuts = [4.0 + 2.0 * n for n in range(9)] + [2.5, 150.0]
        growth_n, _, reaches = _truncated_start(k, self.u0, v0, horizon_T,
                                                pair_cuts, width)
        assert isinstance(growth_n, ConstantRate)
        want = self.reference_reaches(k, v0, horizon_T, pair_cuts, width)
        assert np.array_equal(reaches, want)

    def test_only_closure_growth_takes_rk4_steps(self, monkeypatch):
        steps = []

        def counting_rk4_step(f, t, y, dt):
            steps.append(t)
            return rk4_step(f, t, y, dt)

        monkeypatch.setattr(kernels, "rk4_step", counting_rk4_step)
        width = float(np.median(self.grid.widths))
        closure = dataclasses.replace(self.k, growth=counted(self.k.growth))
        for k, want_steps in ((self.k, 0), (closure, 256)):
            steps.clear()
            _, _, reaches = _truncated_start(k, self.u0, 2.0, 1.0, [4.0, 6.0], width)
            assert len(steps) == want_steps
            assert np.array_equal(
                reaches, self.reference_reaches(self.k, 2.0, 1.0, [4.0, 6.0], width))
        # four stages per step, each one call on the whole vector state
        assert closure.growth.calls == 1024

    def test_zero_horizon_reach_is_the_start(self):
        # pair cutoffs 4 + 2n sit above the cut density's support, so a
        # level that travels nowhere reaches exactly its pair cutoff
        levels = plan_truncation_levels(self.k, self.u0, 2.0, 0.0, [1, 2, 4, 8])
        assert [lv.rate_cutoff for lv in levels] == [6.0, 8.0, 12.0, 20.0]
        truncate(self.k, levels[-1:], 0.0, self.u0, 2.0)

    def test_one_horizon_solve_for_the_whole_ladder(self):
        calls = []
        for indices in ([1], [1, 2, 4, 8]):
            k = dataclasses.replace(self.k, growth=counted(self.k.growth))
            plan_truncation_levels(k, self.u0, 2.0, 1.0, indices)
            calls.append(k.growth.calls)
        assert calls[0] == calls[1] <= 1024

    def test_truncate_solves_its_horizon_once(self):
        lv = plan_truncation_levels(self.k, self.u0, 2.0, 1.0, [8])[0]
        k = dataclasses.replace(self.k, growth=counted(self.k.growth))
        truncate(k, [lv], 1.0, self.u0, 2.0)[0]
        assert k.growth.calls <= 1024

    def test_truncated_set_passes_bounded_validation(self):
        lv = plan_truncation_levels(self.k, self.u0, 2.0, 1.0, [2])[0]
        kn, _ = truncate(self.k, [lv], 1.0, self.u0, 2.0)[0]
        report = validate_kernel_set(kn, samples=24, probe_max=200.0)
        assert report.all_passed, report.format()

    def test_truncated_rates_cut_sharply(self):
        lv = plan_truncation_levels(self.k, self.u0, 2.0, 1.0, [1])[0]
        kn, _ = truncate(self.k, [lv], 1.0, self.u0, 2.0)[0]
        y = np.array([lv.rate_cutoff * 0.99, lv.rate_cutoff * 1.01, 150.0])
        assert kn.death(y)[0] > 0 and kn.death(y)[1] == 0.0 and kn.death(y)[2] == 0.0
        assert kn.frag(y)[0] > 0 and kn.frag(y)[1] == 0.0

    def test_truncated_rates_match_their_formulas_bitwise(self):
        k = make_powerlaw_family(death_value=0.1, frag_slope=1.0)
        lv = plan_truncation_levels(k, self.u0, 2.0, 1.0, [2])[0]
        kn, _ = truncate(k, [lv], 1.0, self.u0, 2.0)[0]
        rc = lv.rate_cutoff
        y = np.sort(np.append(np.linspace(1.0, 200.0, 397),
                              [rc, np.nextafter(rc, 0.0), np.nextafter(rc, np.inf)]))
        for got, base in ((kn.death, k.death), (kn.frag, k.frag)):
            want = np.where(y <= rc, base(y), 0.0)
            assert np.array_equal(got(y), want)
        yy, zz = y[:, None], y[None, :]
        want = k.join(yy, zz) * smooth_cut(yy + zz, lv.pair_cutoff, lv.mollifier_width)
        assert np.array_equal(kn.join(yy, zz), want)
        assert kn.join_zero_beyond == lv.pair_cutoff

    def test_truncated_join_vanishes_beyond_pair_cutoff(self):
        lv = TruncationLevel(index=1, pair_cutoff=4.0, rate_cutoff=60.0,
                             mollifier_width=0.5)
        kn, _ = truncate(self.k, [lv], 1.0, self.u0, 2.0)[0]
        y = np.linspace(1.0, 10.0, 30)
        vals = kn.join(y[:, None], y[None, :])
        assert np.all(vals[(y[:, None] + y[None, :]) >= 4.0] == 0.0)

    def test_zero_join_stays_zero(self):
        import dataclasses
        k = dataclasses.replace(self.k, join=lambda y, z: np.zeros(
            np.broadcast_shapes(np.shape(y), np.shape(z))))
        lv = plan_truncation_levels(k, self.u0, 2.0, 1.0, [1])[0]
        kn, _ = truncate(k, [lv], 1.0, self.u0, 2.0)[0]
        y = np.linspace(1.0, 100.0, 20)
        assert np.all(kn.join(y[:, None], y[None, :]) == 0.0)

    def test_low_rate_cutoff_rejected(self):
        lv = TruncationLevel(index=1, pair_cutoff=10.0, rate_cutoff=10.5,
                             mollifier_width=0.5)
        with pytest.raises(LevelInconsistent):
            truncate(self.k, [lv], 1.0, self.u0, 2.0)[0]

    def test_pair_cutoff_below_twice_min_size_rejected(self):
        lv = TruncationLevel(index=1, pair_cutoff=1.5, rate_cutoff=60.0,
                             mollifier_width=0.5)
        with pytest.raises(LevelInconsistent):
            truncate(self.k, [lv], 1.0, self.u0, 2.0)[0]

    def test_cutoff_beyond_grid_rejected(self):
        lv = TruncationLevel(index=1, pair_cutoff=4.0, rate_cutoff=300.0,
                             mollifier_width=0.5)
        with pytest.raises(SupportExceedsGrid):
            truncate(self.k, [lv], 1.0, self.u0, 2.0)[0]

    def test_initial_density_cut_at_pair_cutoff(self):
        lv = TruncationLevel(index=1, pair_cutoff=4.0, rate_cutoff=60.0,
                             mollifier_width=0.5)
        _, u0n = truncate(self.k, [lv], 1.0, self.u0, 2.0)[0]
        assert np.all(u0n.values[self.grid.centers >= 4.0] == 0.0)
        keep = self.grid.centers <= 4.0 - 0.5
        assert np.allclose(u0n.values[keep], self.u0.values[keep], rtol=1e-14)

    def ladder(self, k=None):
        return plan_truncation_levels(k or self.k, self.u0, 2.0, 1.0, [1, 2, 4, 8])

    @pytest.mark.parametrize("family", [
        lambda: make_special_family(1.0, 0.1, 1.0, 0.2),
        lambda: make_bounded_family(1.0, 0.1, 0.5, 0.2),
        lambda: make_k0_family(lambda s: np.ones_like(np.asarray(s, dtype=float))),
        lambda: make_powerlaw_family(death_value=0.1, frag_slope=1.0),
    ], ids=["special", "bounded", "k0", "powerlaw"])
    def test_every_level_has_declared_constant_growth(self, family):
        k = family()
        assert isinstance(k.growth, ConstantRate)
        for kn, _ in truncate(k, self.ladder(k), 1.0, self.u0, 2.0):
            assert isinstance(kn.growth, ConstantRate)

    def test_ladder_verifies_in_one_horizon_solve(self):
        levels = self.ladder()
        k = dataclasses.replace(self.k, growth=counted(self.k.growth))
        assert len(truncate(k, levels, 1.0, self.u0, 2.0)) == 4
        assert k.growth.calls <= 1024

    @pytest.mark.parametrize("lowered", [0, 2, 3])
    def test_one_low_rate_cutoff_in_a_ladder_is_rejected(self, lowered):
        levels = self.ladder()
        lv = levels[lowered]
        levels[lowered] = dataclasses.replace(lv, rate_cutoff=0.9 * lv.rate_cutoff)
        with pytest.raises(LevelInconsistent, match=f"level {lv.index}:"):
            truncate(self.k, levels, 1.0, self.u0, 2.0)

    def test_ladder_checks_every_level(self):
        levels = self.ladder()
        with pytest.raises(SupportExceedsGrid):
            truncate(self.k, levels[:3] + [dataclasses.replace(levels[3], rate_cutoff=300.0)],
                     1.0, self.u0, 2.0)
        with pytest.raises(LevelInconsistent):
            truncate(self.k, [levels[0], dataclasses.replace(levels[1], pair_cutoff=1.5)],
                     1.0, self.u0, 2.0)

    def test_levels_of_two_widths_are_refused_together(self):
        levels = self.ladder()
        levels[1] = dataclasses.replace(levels[1], mollifier_width=0.4)
        with pytest.raises(ValueError, match="one mollifier width"):
            truncate(self.k, levels, 1.0, self.u0, 2.0)
        assert len(truncate(self.k, levels[1:2], 1.0, self.u0, 2.0)) == 1
        with pytest.raises(ValueError, match="one mollifier width"):
            truncate(self.k, [], 1.0, self.u0, 2.0)

    @pytest.mark.parametrize("family", ["special", "powerlaw"])
    def test_ladder_equals_the_per_level_reference(self, family):
        k = self.k if family == "special" else make_powerlaw_family(
            death_value=0.1, frag_slope=1.0, params=self.k.params)
        levels = self.ladder(k)
        y = np.linspace(1.0, 200.0, 801)
        for lv, (kn, u0n) in zip(levels, truncate(k, levels, 1.0, self.u0, 2.0)):
            ref, ref_u0n = reference_truncate(k, lv, 1.0, self.u0, 2.0)
            assert np.array_equal(u0n.values, ref_u0n.values)
            for name in ("growth", "death", "frag"):
                assert np.array_equal(getattr(kn, name)(y), getattr(ref, name)(y)), name
            yy, zz = y[::8, None], y[None, ::8]
            assert np.array_equal(kn.join(yy, zz), ref.join(yy, zz))
            assert np.array_equal(kn.daughter(yy / 4.0, yy), ref.daughter(yy / 4.0, yy))
            for name in ("params", "hypothesis_family", "growth_constants",
                         "join_zero_beyond", "label"):
                assert getattr(kn, name) == getattr(ref, name), name

    def test_shared_tables_equal_tables_built_alone(self):
        shared = GridTables.build(self.k.daughter, self.grid)
        cfg = SolverConfig(dt=2e-3, t_end=0.02)
        levels = self.ladder()
        for kn, u0n in truncate(self.k, levels, 1.0, self.u0, 2.0):
            assert_tables_equal(FragTables.build(kn, self.grid, shared),
                                FragTables.build(kn, self.grid))
            assert_tables_equal(JoiningTables.build(kn, self.grid, shared),
                                JoiningTables.build(kn, self.grid))
            with_shared = run(u0n, 2.0, kn, cfg, shared).ledger
            alone = run(u0n, 2.0, kn, cfg).ledger
            for name in alone.column_order():
                assert np.array_equal(with_shared.column(name), alone.column(name)), name

    def test_shared_tables_for_another_grid_or_daughter_are_refused(self):
        k = self.k
        other_grid = build_grid(1.0, 200.0, 96, "geometric")
        edges = self.grid.edges.copy()
        edges[1:-1] *= 1.0 + 1e-3
        moved = dataclasses.replace(self.grid, edges=edges)
        assert moved == self.grid   # equal size rules, other cells
        other_daughter = make_k0_family(lambda s: np.ones_like(s), frag_slope=1.0)
        for shared in (GridTables.build(k.daughter, other_grid),
                       GridTables.build(k.daughter, moved),
                       GridTables.build(other_daughter.daughter, self.grid)):
            for build in (FragTables.build, JoiningTables.build):
                with pytest.raises(ValueError, match="another"):
                    build(k, self.grid, shared)
            with pytest.raises(ValueError, match="another"):
                ReactionOperator.build(k, self.grid, False, shared)
        no_join = GridTables.build(k.daughter, self.grid, joining=False)
        assert no_join.join is None
        with pytest.raises(ValueError, match="without joining"):
            JoiningTables.build(k, self.grid, no_join)
        assert ReactionOperator.build(k, self.grid, True, no_join).join is None

    @pytest.mark.parametrize("spacing", ["geometric", "uniform"])
    def test_zero_join_builds_without_tiles(self, spacing):
        k = dataclasses.replace(self.k, join=lambda y, z: np.zeros(
            np.broadcast_shapes(np.shape(y), np.shape(z))))
        grid = build_grid(1.0, 200.0, 128, spacing)
        u0 = project(lambda y: np.exp(-0.5 * ((y - 3.0) / 0.3) ** 2), grid)
        (lv,) = plan_truncation_levels(k, u0, 2.0, 1.0, [1])
        ((kn, _),) = truncate(k, [lv], 1.0, u0, 2.0)
        tables = JoiningTables.build(kn, grid)
        assert tables.tiles == () and tables.targets.size == 0
        assert tables.columns == tables.support == 0 and not tables.strays
        u = np.linspace(2.0, 0.0, grid.n)
        for x in (u, u[::-1].copy()):
            assert np.array_equal(tables.apply(x), np.zeros(grid.n))
            assert np.array_equal(tables.loss_rate(x), np.zeros(grid.n))
        assert not ReactionOperator.build(kn, grid, False).joins


@settings(max_examples=8, deadline=None)
@given(p=st.floats(0.25, 3.0, allow_nan=False))
def test_symmetric_beta_profiles_accepted(p):
    norm = math.gamma(2.0 * p + 2.0) / math.gamma(p + 1.0) ** 2

    def profile(s):
        s = np.asarray(s, dtype=float)
        return norm * (s * (1.0 - s)) ** p

    k = make_k0_family(profile, frag_slope=1.0)
    report = validate_kernel_set(k, samples=12)
    assert check_by_name(report, "daughter_symmetry").passed
    assert check_by_name(report, "daughter_number_normalization").passed

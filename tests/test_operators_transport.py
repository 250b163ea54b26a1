import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prionpde import operators
from prionpde.errors import NegativeTime, OutOfDomain
from prionpde.grid import GAUSS3_NODES, GAUSS3_WEIGHTS, build_grid, moment, project
from prionpde.kernels import (ConstantRate, make_special_family,
                              plan_truncation_levels, truncate)
from prionpde.operators import (
    characteristic_map,
    split_targets,
    theta_inverse,
    theta_map,
    transport_remap,
)
from prionpde.grid import GridFunction


def linear_growth_map(n=512, ymax=1000.0):
    grid = build_grid(1.0, ymax, n, spacing="geometric")
    return grid, characteristic_map(lambda y: np.asarray(y, dtype=float), grid)


class TestThetaMap:
    def test_log_profile_for_linear_growth(self):
        # growth y on (1, 1000): characteristic time is log(y)
        grid, cm = linear_growth_map()
        ys = np.geomspace(1.0, 1000.0, 257)
        assert np.max(np.abs(theta_map(cm, ys) - np.log(ys))) < 1e-8

    def test_constant_growth_is_identity_shift(self):
        grid = build_grid(1.0, 50.0, 128, spacing="uniform")
        cm = characteristic_map(lambda y: np.ones_like(np.asarray(y, float)), grid)
        ys = np.linspace(1.0, 50.0, 97)
        assert np.max(np.abs(theta_map(cm, ys) - (ys - 1.0))) < 1e-12

    def test_map_stores_theta_at_the_centers(self):
        grid, cm = linear_growth_map(n=64)
        assert np.array_equal(cm.theta_at_centers, theta_map(cm, grid.centers))

    def test_inverse_round_trip(self):
        grid, cm = linear_growth_map(n=256)
        rng = np.random.default_rng(7)
        ys = np.exp(rng.uniform(0.0, np.log(1000.0), size=200))
        back = theta_inverse(cm, theta_map(cm, ys))
        assert np.max(np.abs(back - ys) / ys) < 1e-10

    def test_out_of_domain_raises(self):
        grid, cm = linear_growth_map(n=64)
        with pytest.raises(OutOfDomain):
            theta_map(cm, 0.5)
        with pytest.raises(OutOfDomain):
            theta_map(cm, 1001.0)
        with pytest.raises(OutOfDomain):
            theta_inverse(cm, cm.theta_max * 1.01)
        with pytest.raises(OutOfDomain):
            theta_inverse(cm, -0.1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_time_is_refused_before_any_pass(self, bad, monkeypatch):
        grid, cm = linear_growth_map(n=64)
        monkeypatch.setattr(operators, "_partial_theta", None)
        for theta in (bad, np.array([0.5, bad, 1.0])):
            with pytest.raises(OutOfDomain, match="characteristic time out of"):
                theta_inverse(cm, theta)

    def test_unconverged_newton_raises(self):
        # a growth closure inconsistent with the tabulated edge times
        # moves the root of theta_map outside the Newton bracket
        grid, cm = linear_growth_map(n=64)
        bad = dataclasses.replace(
            cm, growth=lambda y: 2.0 * np.asarray(y, dtype=float))
        th = cm.theta_at_edges[10] + 0.75 * (cm.theta_at_edges[11]
                                             - cm.theta_at_edges[10])
        with pytest.raises(OutOfDomain, match="did not converge"):
            theta_inverse(bad, th)
        theta_inverse(cm, th)

    @pytest.mark.parametrize("spacing", ["uniform", "geometric"])
    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_inverse_converges_on_wide_cells(self, spacing, n):
        # Newton steps by the growth rate, not the quadrature's slope, so
        # on a cell spanning orders of magnitude it crawls or stalls; the
        # targets it leaves unconverged take Illinois steps in their cells
        grid = build_grid(1.0, 1e5, n, spacing=spacing)
        cm = characteristic_map(lambda y: np.asarray(y, dtype=float), grid)
        th = np.linspace(0.0, cm.theta_max, 2001)
        ys = theta_inverse(cm, th)
        assert np.all((ys >= 1.0) & (ys <= 1e5))
        assert np.max(np.abs(theta_map(cm, ys) - th)) < 1e-14 * cm.theta_max

    def test_scalar_in_scalar_out(self):
        grid, cm = linear_growth_map(n=64)
        th = theta_map(cm, 10.0)
        assert np.ndim(th) == 0
        assert abs(theta_inverse(cm, th) - 10.0) < 1e-9


def gaussian_bump(center, sigma):
    def f(y):
        return np.exp(-0.5 * ((y - center) / sigma) ** 2)

    return f


class TestRemapTransport:
    def test_counts_conserved_to_rounding(self):
        grid = build_grid(1.0, 200.0, 400, spacing="geometric")
        cm = characteristic_map(lambda y: np.ones_like(np.asarray(y, float)), grid)
        u = project(gaussian_bump(5.0, 0.8), grid)
        u0 = moment(grid, u.values, 0)
        out, esc_count, esc_mass = transport_remap(cm, u, 0.931)
        assert esc_count == 0.0 and esc_mass == 0.0
        assert abs(moment(grid, out.values, 0) - u0) < 1e-13 * u0

    def test_first_moment_advances_exactly_for_constant_growth(self):
        grid = build_grid(1.0, 200.0, 400, spacing="geometric")
        cm = characteristic_map(lambda y: np.ones_like(np.asarray(y, float)), grid)
        u = project(gaussian_bump(5.0, 0.8), grid)
        t = 0.617
        m0 = moment(grid, u.values, 0)
        m1 = moment(grid, u.values, 1)
        out, _, _ = transport_remap(cm, u, t)
        assert abs(moment(grid, out.values, 1) - (m1 + t * m0)) < 1e-11 * m1

    def test_first_moment_dilates_exactly_for_linear_growth(self):
        grid = build_grid(1.0, 1000.0, 512, spacing="geometric")
        cm = characteristic_map(lambda y: np.asarray(y, dtype=float), grid)
        u = project(gaussian_bump(10.0, 1.5), grid)
        t = 0.5
        m1 = moment(grid, u.values, 1)
        out, _, _ = transport_remap(cm, u, t)
        assert abs(moment(grid, out.values, 1) - np.exp(t) * m1) < 1e-8 * m1

    def test_escaped_parcels_are_accounted(self):
        grid = build_grid(1.0, 20.0, 64, spacing="uniform")
        cm = characteristic_map(lambda y: np.ones_like(np.asarray(y, float)), grid)
        u = project(gaussian_bump(17.0, 0.6), grid)
        m0 = moment(grid, u.values, 0)
        out, esc_count, esc_mass = transport_remap(cm, u, 5.0)
        assert esc_count > 0.5 * m0
        assert abs(esc_mass - esc_count * grid.ymax) < 1e-12 * esc_mass
        assert abs(moment(grid, out.values, 0) + esc_count - m0) < 1e-13 * m0

    def test_zero_time_is_identity(self):
        grid = build_grid(1.0, 20.0, 64, spacing="uniform")
        cm = characteristic_map(lambda y: np.ones_like(np.asarray(y, float)), grid)
        u = project(gaussian_bump(9.0, 1.0), grid)
        out, esc, _ = transport_remap(cm, u, 0.0)
        assert esc == 0.0
        assert np.array_equal(out.values, u.values)

    def test_negative_time_raises(self):
        grid = build_grid(1.0, 40.0, 50, spacing="uniform")
        cm = characteristic_map(lambda y: np.ones_like(np.asarray(y, float)), grid)
        u = project(gaussian_bump(8.0, 1.0), grid)
        with pytest.raises(NegativeTime):
            transport_remap(cm, u, -1e-9)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_time_raises(self, bad):
        # NaN used to remove every parcel as escaped
        grid = build_grid(1.0, 40.0, 50, spacing="uniform")
        cm = characteristic_map(lambda y: np.ones_like(np.asarray(y, float)), grid)
        u = project(gaussian_bump(8.0, 1.0), grid)
        with pytest.raises(NegativeTime, match="finite"):
            transport_remap(cm, u, bad)

    def test_unit_speed_grid_multiple_shift_is_exact(self):
        # shifting by a whole number of uniform cells lands parcels on centers
        grid = build_grid(1.0, 41.0, 80, spacing="uniform")
        width = grid.widths[0]
        cm = characteristic_map(lambda y: np.ones_like(np.asarray(y, float)), grid)
        u = project(gaussian_bump(10.0, 1.2), grid)
        out, _, _ = transport_remap(cm, u, 5.0 * width)
        expected = np.zeros_like(u.values)
        expected[5:] = u.values[:-5]
        assert np.max(np.abs(out.values - expected)) < 1e-13

    def test_inflow_region_is_zero(self):
        grid = build_grid(1.0, 21.0, 40, spacing="uniform")
        cm = characteristic_map(lambda y: np.ones_like(np.asarray(y, float)), grid)
        u = GridFunction(grid, np.ones(grid.n))
        t = 3.3 * grid.widths[0]
        out, _, _ = transport_remap(cm, u, t)
        theta_c = grid.centers - 1.0
        assert np.all(out.values[theta_c < t] == 0.0)
        assert np.all(out.values[theta_c >= t] > 0.0)

    def test_semigroup_composition_error_within_factor_two(self):
        # the composed error is bounded by the two half-step errors: the
        # scheme is nonexpansive for unit speed, so the first half-step's
        # error rides through the second unamplified
        grid = build_grid(1.0, 41.0, 160, spacing="uniform")
        cm = characteristic_map(lambda y: np.ones_like(np.asarray(y, float)), grid)
        f = gaussian_bump(12.0, 1.5)
        u = project(f, grid, rule="midpoint")
        t = 0.7137
        exact_half = GridFunction(grid, f(grid.centers - t / 2))
        exact_full = GridFunction(grid, f(grid.centers - t))

        def half_step(v):
            return transport_remap(cm, v, t / 2)[0]

        err_a = moment(grid, np.abs(half_step(u).values - exact_half.values), 0)
        err_b = moment(grid, np.abs(half_step(exact_half).values
                                    - exact_full.values), 0)
        err_two = moment(grid, np.abs(half_step(half_step(u)).values
                                      - exact_full.values), 0)
        assert err_two <= 2.0 * max(err_a, err_b) + 1e-14

    def test_growth_rate_prefactor_dilates_amplitude(self):
        # for growth y the exact density is (y_foot/y) * f(y_foot)
        grid = build_grid(1.0, 1000.0, 1024, spacing="geometric")
        cm = characteristic_map(lambda y: np.asarray(y, dtype=float), grid)
        f = gaussian_bump(20.0, 2.0)
        u = project(f, grid, rule="midpoint")
        t = 0.4
        out, _, _ = transport_remap(cm, u, t)
        feet = grid.centers * np.exp(-t)
        ok = feet >= 1.0
        expected = np.where(ok, (feet / grid.centers) * f(np.maximum(feet, 1.0)), 0.0)
        assert np.max(np.abs(out.values - expected)) < 1e-3

    def test_positivity_preserved(self):
        grid = build_grid(1.0, 60.0, 200, spacing="geometric")
        k = make_special_family(growth_value=2.0, death_value=0.0,
                               frag_slope=0.0, join_value=0.0)
        cm = characteristic_map(k.growth, grid)
        rng = np.random.default_rng(3)
        u = GridFunction(grid, rng.random(grid.n))
        out, _, _ = transport_remap(cm, u, 0.05)
        assert np.all(out.values >= 0.0)


# -- the bracketed Newton against the theta_map-based one it replaced ------

def reference_theta_map(cm, y):
    """Reference theta_map: the Gauss sum with one growth call per node."""
    y_arr = np.atleast_1d(np.asarray(y, dtype=float))
    g = cm.grid
    if np.any(y_arr < g.y0) or np.any(y_arr > g.ymax):
        raise OutOfDomain(f"size out of [{g.y0}, {g.ymax}]")
    idx = np.clip(np.searchsorted(g.edges, y_arr, side="right") - 1, 0, g.n - 1)
    left = g.edges[idx]
    span = y_arr - left
    partial = np.zeros(y_arr.shape)
    for q in range(3):
        node = left + span * 0.5 * (1.0 + GAUSS3_NODES[q])
        partial += GAUSS3_WEIGHTS[q] / np.asarray(cm.growth(node), dtype=float)
    out = cm.theta_at_edges[idx] + 0.5 * span * partial
    return out if np.ndim(y) else float(out[0])


def reference_theta_inverse(cm, theta):
    """The Newton iteration the bracketed one replaced: every pass calls
    theta_map, which checks the domain, searches the edges again and
    makes three growth calls, then one more growth call for the step."""
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    g = cm.grid
    slack = 1e-12 * max(1.0, cm.theta_max)
    if np.any(th < -slack) or np.any(th > cm.theta_max + slack):
        raise OutOfDomain(f"characteristic time out of [0, {cm.theta_max}]")
    th = np.clip(th, 0.0, cm.theta_max)
    idx = np.clip(np.searchsorted(cm.theta_at_edges, th, side="right") - 1, 0, g.n - 1)
    lo = g.edges[idx]
    hi = g.edges[idx + 1]
    y = lo + (th - cm.theta_at_edges[idx]) * cm.growth_at_edges[idx]
    y = np.clip(y, lo, hi)
    tol = 1e-14 * max(1.0, cm.theta_max)
    for _ in range(8):
        resid = reference_theta_map(cm, y) - th
        y = np.clip(y - resid * np.asarray(cm.growth(y), dtype=float), lo, hi)
        if np.max(np.abs(resid)) < tol:
            break
    else:
        worst = float(np.max(np.abs(reference_theta_map(cm, y) - th)))
        if not worst < tol:
            raise OutOfDomain("characteristic inverse did not converge")
    return y if np.ndim(theta) else float(y[0])


def reference_transport_remap(cm, f, t_eff):
    """The remap the prefix-slice, one-bincount form replaced."""
    g = cm.grid
    masses = f.values * g.widths
    if t_eff == 0.0:
        return f.copy(), 0.0, 0.0
    theta_new = cm.theta_at_centers + t_eff
    keep = theta_new <= cm.theta_max
    escaped_count = float(np.sum(masses[~keep]))
    escaped_mass = escaped_count * g.ymax
    out = np.zeros(g.n)
    if np.any(keep):
        landed = reference_theta_inverse(cm, theta_new[keep])
        m = masses[keep]
        idx, frac = split_targets(g.centers, landed)
        np.add.at(out, idx, m * frac)
        np.add.at(out, idx + 1, m * (1.0 - frac))
    return GridFunction(g, out / g.widths), escaped_count, escaped_mass


def truncated_growth():
    """The mollified, floored growth rate truncate gives a level."""
    base = make_special_family(1.0, 0.1, 1.0, 0.2)
    grid = build_grid(1.0, 200.0, 64, "geometric")
    u0 = project(gaussian_bump(3.0, 0.3), grid)
    level = plan_truncation_levels(base, u0, 2.0, 1.0, (2,))[0]
    return truncate(base, [level], 1.0, u0, 2.0)[0][0].growth


GROWTHS = {
    "constant": lambda y: np.ones_like(np.asarray(y, dtype=float)),
    "truncated": truncated_growth(),
    # curved enough that Newton takes several passes
    "root": lambda y: np.sqrt(np.asarray(y, dtype=float)),
}
SPACINGS = ("geometric", "uniform")


def map_for(growth, spacing):
    return characteristic_map(GROWTHS[growth], build_grid(1.0, 60.0, 48, spacing))


def targets(cm):
    """Times at 0, theta_max, every edge, every centre plus shifts, and
    one ulp below every edge but the first, where an iterate can land on
    its cell's upper edge (theta_map measures such a size from there)."""
    shifted = [cm.theta_at_centers + s * cm.theta_max for s in (0.0, 1e-3, 0.137)]
    below_edges = np.nextafter(cm.theta_at_edges[1:], 0.0)
    th = np.concatenate([[0.0, cm.theta_max], cm.theta_at_edges, *shifted, below_edges])
    return th[th <= cm.theta_max]


def counting(cm):
    """cm with its growth closure wrapped to record the shape of every
    call it gets from now on."""
    shapes = []

    def growth(y):
        shapes.append(np.shape(y))
        return cm.growth(y)

    wrapped = dataclasses.replace(cm, growth=growth)
    shapes.clear()  # the replaced map evaluated theta_map at the centers
    return wrapped, shapes


@pytest.mark.parametrize("spacing", SPACINGS)
@pytest.mark.parametrize("growth", sorted(GROWTHS))
class TestBracketedNewton:
    def test_map_equals_the_reference(self, growth, spacing):
        cm = map_for(growth, spacing)
        g = cm.grid
        ys = np.concatenate([g.edges, g.centers, np.nextafter(g.edges[1:], 0.0),
                             g.centers + 0.3 * (g.edges[1:] - g.centers)])
        assert np.array_equal(theta_map(cm, ys), reference_theta_map(cm, ys))
        assert np.array_equal(cm.theta_at_centers, reference_theta_map(cm, g.centers))
        assert theta_map(cm, g.ymax) == reference_theta_map(cm, g.ymax)

    def test_inverse_equals_the_reference(self, growth, spacing):
        cm = map_for(growth, spacing)
        th = targets(cm)
        assert np.array_equal(theta_inverse(cm, th), reference_theta_inverse(cm, th))
        grid_of_times = th[:th.size // 2 * 2].reshape(2, -1)
        assert np.array_equal(theta_inverse(cm, grid_of_times),
                              reference_theta_inverse(cm, grid_of_times))
        for scalar in (0.0, cm.theta_max, float(cm.theta_at_edges[7])):
            assert theta_inverse(cm, scalar) == reference_theta_inverse(cm, scalar)

    @pytest.mark.parametrize("share", [0.0, 1e-4, 0.05, 0.4, 0.97, 1.5])
    def test_remap_equals_the_reference(self, growth, spacing, share):
        cm = map_for(growth, spacing)
        u = GridFunction(cm.grid, np.random.default_rng(5).random(cm.grid.n))
        t_eff = share * cm.theta_max
        got = transport_remap(cm, u, t_eff)
        want = reference_transport_remap(cm, u, t_eff)
        assert np.array_equal(got[0].values, want[0].values)
        assert got[1:] == want[1:]
        if share >= 0.4:
            assert got[1] > 0.0  # parcels escaped

    def test_one_growth_call_per_pass(self, growth, spacing):
        cm = map_for(growth, spacing)
        th = targets(cm)
        new, new_shapes = counting(cm)
        ref, ref_shapes = counting(cm)
        theta_inverse(new, th)
        reference_theta_inverse(ref, th)
        # the reference makes three growth calls in theta_map and one for
        # the Newton step in every pass
        passes, rest = divmod(len(ref_shapes), 4)
        assert rest == 0 and passes >= 1
        assert new_shapes == [(4, th.size)] * passes
        if growth == "root":
            assert passes >= 2


# -- coarse grids, where Newton alone crawls -------------------------------

def reference_bisected_inverse(cm, theta):
    """The inverse the safeguarded root finder replaced: eight bracketed
    Newton passes, then 64 bisections in their cells of the targets
    still off, all with reference_theta_map's floats."""
    th = np.asarray(theta, dtype=float)
    g = cm.grid
    idx = np.clip(np.searchsorted(cm.theta_at_edges, th, side="right") - 1, 0, g.n - 1)
    lo, hi = g.edges[idx], g.edges[idx + 1]
    y = np.clip(lo + (th - cm.theta_at_edges[idx]) * cm.growth_at_edges[idx], lo, hi)
    tol = 1e-14 * max(1.0, cm.theta_max)
    for _ in range(8):
        resid = reference_theta_map(cm, y) - th
        y = np.clip(y - resid * cm.growth(y), lo, hi)
        if np.max(np.abs(resid)) < tol:
            return y
    off = ~(np.abs(reference_theta_map(cm, y) - th) < tol)
    a, b = lo[off], hi[off]
    for _ in range(64):
        mid = 0.5 * (a + b)
        low = reference_theta_map(cm, mid) < th[off]
        a, b = np.where(low, mid, a), np.where(low, b, mid)
    y[off] = 0.5 * (a + b)
    return y


# growth, ymax and uniform cells of the grids where Newton's step, by the
# exact map's slope, is far enough from the quadrature's that it crawls:
# Newton with the bisection fallback made 74 growth calls on each
COARSE = {
    "linear-16": (lambda y: np.asarray(y, dtype=float), 1000.0, 16),
    "quadratic-48": (lambda y: np.asarray(y, dtype=float) ** 2, 60.0, 48),
}


@pytest.mark.parametrize("case", sorted(COARSE))
def test_root_finder_converges_where_newton_crawls(case):
    """Within the pass cap, with every residual under the tolerance, and
    at the sizes the bisection reached to about 1e-13 relative."""
    growth, ymax, n = COARSE[case]
    cm = characteristic_map(growth, build_grid(1.0, ymax, n, "uniform"))
    th = np.linspace(0.0, cm.theta_max, 2000)
    counted, shapes = counting(cm)
    ys = theta_inverse(counted, th)
    # linear-16 takes 13 passes, quadratic-48 takes 9
    assert len(shapes) <= 16 < operators.ROOT_PASSES
    tol = 1e-14 * max(1.0, cm.theta_max)
    assert np.max(np.abs(reference_theta_map(cm, ys) - th)) < tol
    want = reference_bisected_inverse(cm, th)
    assert np.max(np.abs(ys - want) / want) < 2e-13


# -- the cell route and declared constant growth ---------------------------

@pytest.mark.parametrize("spacing", SPACINGS)
@pytest.mark.parametrize("growth", sorted(GROWTHS) + ["declared"])
def test_remap_hands_split_targets_the_searched_cells(growth, spacing, monkeypatch):
    """The remap derives each parcel's last center below from the cell
    theta_inverse found; it must equal a search of the centers, for
    parcels landing inside cells, exactly on centers and on edges."""
    rate = ConstantRate(1.0) if growth == "declared" else GROWTHS[growth]
    cm = characteristic_map(rate, build_grid(1.0, 60.0, 48, spacing))
    g = cm.grid
    u = GridFunction(g, np.random.default_rng(5).random(g.n))
    seen = []
    split = operators.split_targets

    def checked(centers, positions, below=None):
        assert np.array_equal(below, np.searchsorted(centers, positions) - 1)
        seen.append(positions)
        return split(centers, positions, below)

    monkeypatch.setattr(operators, "split_targets", checked)
    shares = [0.0, 1e-4, 0.05, 0.4, 0.97, 1.5]
    # the first parcel's time to each center and each edge above it
    start = cm.theta_at_centers[0]
    landings = np.concatenate((cm.theta_at_centers[1:], cm.theta_at_edges[1:])) - start
    for t_eff in [s * cm.theta_max for s in shares] + list(landings):
        transport_remap(cm, u, t_eff)
    landed = np.concatenate(seen)
    assert np.isin(g.centers, landed).any() and np.isin(g.edges, landed).any()


def const_closure(c):
    """A constant rate as an ordinary closure: what the families passed
    before ConstantRate, and the reference for its values."""
    c = float(c)
    return lambda y: np.full(np.shape(y), c, dtype=float)


class TestDeclaredConstantGrowth:
    @pytest.mark.parametrize("value", [1.0, 2, 0.37])
    def test_values_match_the_closure(self, value):
        rate, ref = ConstantRate(value), const_closure(value)
        rng = np.random.default_rng(1)
        for y in (3.5, np.float64(3.5), np.array(3.5), rng.random(7),
                  rng.random((4, 7)), rng.random((3, 5, 16))):
            got, want = rate(y), ref(y)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)
        assert isinstance(rate.value, float)

    @pytest.mark.parametrize("spacing", SPACINGS)
    @pytest.mark.parametrize("value", [1.0, 0.37, 3.0, 7.3])
    def test_inverse_within_an_ulp_of_newton(self, spacing, value, monkeypatch):
        """The in-cell linear estimate needs no Newton pass, and no growth
        call: it stays within one ulp of the Newton reference with a
        residual under theta_inverse's tolerance.  At 7.3 the estimate at
        some edge times overshoots the cell by rounding, and the clip
        keeps it in."""
        cm = characteristic_map(ConstantRate(value), build_grid(1.0, 60.0, 48, spacing))
        th = np.concatenate((targets(cm), np.linspace(0.0, cm.theta_max, 4001)))
        want = reference_theta_inverse(cm, th)
        monkeypatch.setattr(operators, "_partial_theta", None)
        got, cells = theta_inverse(cm, th, return_cells=True)
        monkeypatch.undo()
        assert np.all(np.abs(got - want) <= np.spacing(np.maximum(got, want)))
        tol = 1e-14 * max(1.0, cm.theta_max)
        assert np.max(np.abs(reference_theta_map(cm, got) - th)) < tol
        edges = cm.grid.edges
        assert np.all((edges[cells] <= got) & (got <= edges[cells + 1]))
        scalar = float(0.5 * (cm.theta_at_edges[7] + cm.theta_at_edges[8]))
        assert theta_inverse(cm, scalar, return_cells=True) == (
            theta_inverse(cm, scalar), 7)


# -- properties of the one transport operator ------------------------------

REMAP_GROWTHS = {
    "constant": lambda y: np.ones_like(np.asarray(y, dtype=float)),
    "declared": ConstantRate(1.0),
    "linear": lambda y: np.asarray(y, dtype=float),
}


def remap_case(spacing, n, growth, top, seed):
    """A map on (1, 60) and a random density holding mass up to the
    cell at fraction top of the grid, that cell included."""
    grid = build_grid(1.0, 60.0, n, spacing)
    values = np.random.default_rng(seed).random(n)
    last = int(top * (n - 1))
    values[last + 1:] = 0.0
    return characteristic_map(REMAP_GROWTHS[growth], grid), GridFunction(grid, values), last


@settings(max_examples=60, deadline=None)
@given(spacing=st.sampled_from(SPACINGS), n=st.integers(4, 300),
       growth=st.sampled_from(sorted(REMAP_GROWTHS)), top=st.floats(0.0, 1.0),
       share=st.floats(0.0, 1.5), seed=st.integers(0, 2 ** 32 - 1))
def test_remap_is_nonnegative_and_keeps_count(spacing, n, growth, top, share, seed):
    """Every parcel stays in the grid or escapes: the kept and escaped
    counts sum to the input count, whatever the time (share of
    theta_max), and no cell goes negative."""
    cm, u, _ = remap_case(spacing, n, growth, top, seed)
    out, esc_count, esc_mass = transport_remap(cm, u, share * cm.theta_max)
    assert np.all(out.values >= 0.0)
    assert esc_count >= 0.0 and esc_mass == esc_count * cm.grid.ymax
    m0 = moment(cm.grid, u.values, 0)
    assert abs(moment(cm.grid, out.values, 0) + esc_count - m0) <= 1e-13 * m0


@settings(max_examples=60, deadline=None)
@given(spacing=st.sampled_from(SPACINGS), n=st.integers(4, 300),
       growth=st.sampled_from(["constant", "declared"]),
       top=st.floats(0.0, 1.0), share=st.floats(0.0, 1.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_remap_advances_first_moment_for_constant_growth(spacing, n, growth, top,
                                                         share, seed):
    """With unit speed every parcel moves by t_eff; a time at most the
    room between the last cell holding mass and the last center clamps
    no parcel onto the last cell, so the first moment grows by
    t_eff * U0.  The same holds for a plain closure, inverted by Newton,
    and for a declared ConstantRate, inverted without."""
    cm, u, last = remap_case(spacing, n, growth, top, seed)
    c = cm.grid.centers
    t_eff = share * (c[-1] - c[last])
    out, esc_count, _ = transport_remap(cm, u, t_eff)
    m0 = moment(cm.grid, u.values, 0)
    want = moment(cm.grid, u.values, 1) + t_eff * m0
    assert esc_count == 0.0
    assert abs(moment(cm.grid, out.values, 1) - want) <= 1e-13 * want

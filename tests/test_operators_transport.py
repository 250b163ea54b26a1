import dataclasses

import numpy as np
import pytest

from prionpde.errors import NegativeTime, OutOfDomain
from prionpde.grid import GAUSS3_NODES, GAUSS3_WEIGHTS, build_grid, moment, project
from prionpde.kernels import make_special_family, plan_truncation_levels, truncate
from prionpde.operators import (
    characteristic_map,
    split_targets,
    theta_inverse,
    theta_map,
    transport_apply,
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

    def test_scalar_in_scalar_out(self):
        grid, cm = linear_growth_map(n=64)
        th = theta_map(cm, 10.0)
        assert np.ndim(th) == 0
        assert abs(theta_inverse(cm, th) - 10.0) < 1e-9


def gaussian_bump(center, sigma):
    def f(y):
        return np.exp(-0.5 * ((y - center) / sigma) ** 2)

    return f


class TestPointwiseTransport:
    def test_zero_time_is_identity(self):
        grid = build_grid(1.0, 40.0, 100, spacing="geometric")
        cm = characteristic_map(lambda y: np.ones_like(np.asarray(y, float)), grid)
        u = project(gaussian_bump(8.0, 1.0), grid)
        out = transport_apply(cm, u, 0.0)
        assert np.array_equal(out.values, u.values)

    def test_negative_time_raises(self):
        grid = build_grid(1.0, 40.0, 50, spacing="uniform")
        cm = characteristic_map(lambda y: np.ones_like(np.asarray(y, float)), grid)
        u = project(gaussian_bump(8.0, 1.0), grid)
        with pytest.raises(NegativeTime):
            transport_apply(cm, u, -1e-9)

    def test_unit_speed_grid_multiple_shift_is_exact(self):
        # shifting by a whole number of uniform cells lands feet on centers
        grid = build_grid(1.0, 41.0, 80, spacing="uniform")
        width = grid.widths[0]
        cm = characteristic_map(lambda y: np.ones_like(np.asarray(y, float)), grid)
        u = project(gaussian_bump(10.0, 1.2), grid)
        out = transport_apply(cm, u, 5.0 * width)
        expected = np.zeros_like(u.values)
        expected[5:] = u.values[:-5]
        assert np.max(np.abs(out.values - expected)) < 1e-13

    def test_inflow_region_is_zero(self):
        grid = build_grid(1.0, 21.0, 40, spacing="uniform")
        cm = characteristic_map(lambda y: np.ones_like(np.asarray(y, float)), grid)
        u = GridFunction(grid, np.ones(grid.n))
        t = 3.3 * grid.widths[0]
        out = transport_apply(cm, u, t)
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
        two = transport_apply(cm, transport_apply(cm, u, t / 2), t / 2)
        err_a = moment(grid, np.abs(transport_apply(cm, u, t / 2).values
                                    - exact_half.values), 0)
        err_b = moment(grid, np.abs(transport_apply(cm, exact_half, t / 2).values
                                    - exact_full.values), 0)
        err_two = moment(grid, np.abs(two.values - exact_full.values), 0)
        assert err_two <= 2.0 * max(err_a, err_b) + 1e-14

    def test_growth_rate_prefactor_dilates_amplitude(self):
        # for growth y the exact density is (y_foot/y) * f(y_foot)
        grid = build_grid(1.0, 1000.0, 1024, spacing="geometric")
        cm = characteristic_map(lambda y: np.asarray(y, dtype=float), grid)
        f = gaussian_bump(20.0, 2.0)
        u = project(f, grid, rule="midpoint")
        t = 0.4
        out = transport_apply(cm, u, t)
        feet = grid.centers * np.exp(-t)
        ok = feet >= 1.0
        expected = np.where(ok, (feet / grid.centers) * f(np.maximum(feet, 1.0)), 0.0)
        assert np.max(np.abs(out.values - expected)) < 1e-3

    def test_count_conservation_second_order(self):
        # away from the boundary the pointwise scheme loses count at O(h^2)
        # once the shift spans a cell (sub-cell shifts on an exactly
        # geometric grid telescope and conserve count identically)
        f = gaussian_bump(30.0, 3.0)
        errs = []
        for n in (400, 800):
            grid = build_grid(1.0, 200.0, n, spacing="geometric")
            cm = characteristic_map(lambda y: np.asarray(y, dtype=float) * 0.0 + 1.0, grid)
            u = project(f, grid)
            out = transport_apply(cm, u, 0.37)
            errs.append(abs(moment(grid, out.values, 0) - moment(grid, u.values, 0)))
        assert errs[1] < errs[0] / 3.0


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

    def test_positivity_preserved(self):
        grid = build_grid(1.0, 60.0, 200, spacing="geometric")
        k = make_special_family(growth_value=2.0, death_value=0.0,
                               frag_slope=0.0, join_value=0.0)
        cm = characteristic_map(k, grid)
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

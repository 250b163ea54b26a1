import dataclasses

import numpy as np
import pytest

from prionpde.errors import NegativeTime, OutOfDomain
from prionpde.grid import build_grid, moment, project
from prionpde.kernels import make_special_family
from prionpde.operators import (
    characteristic_map,
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

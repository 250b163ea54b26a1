import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prionpde import kernels, operators
from prionpde.diagnostics import vallee_poussin_weight
from prionpde.errors import PairOutOfRange
from prionpde.grid import GAUSS3_NODES, GAUSS3_WEIGHTS, GridFunction, build_grid, moment
from prionpde.kernels import (
    graded_rule,
    _panel_rule,
    make_bounded_family,
    make_k0_family,
    make_powerlaw_family,
    make_special_family,
    uniform_daughter,
    with_join_cutoff,
)
from prionpde.operators import (
    FragTables,
    integrability_coefficients,
    _small_fragment_mass,
    split_targets,
    JoiningTables,
    ReactionOperator,
)


def random_density(grid, seed):
    rng = np.random.default_rng(seed)
    return GridFunction(grid, rng.random(grid.n))


def dense_twin(k):
    """k with its uniform daughter wrapped in a closure: equal values, but
    not the declared kernels.uniform_daughter, so its fragmentation
    tables take the dense quadrature, the reference of the closed form."""
    return dataclasses.replace(k, daughter=lambda z, y: uniform_daughter(z, y))


def reference_monomer_release(k, u):
    """Monomer production rate from fragments below the minimum size:
    twice the frag-weighted first moment of the daughter density on
    (0, min size).  A quadrature independent of the fragmentation
    tables, the reference for FragTables.monomer_gain."""
    small = _small_fragment_mass(k, u.grid)
    frag = np.asarray(k.frag(u.grid.centers), dtype=float)
    return float(2.0 * np.dot(frag * u.values * u.grid.widths, small))


def brute_force_joining(k, grid, u_vals, w_vals):
    """Loop reimplementation of the pair mechanism, kept deliberately
    free of the table machinery: per ordered pair, evaluate the rate,
    move the mass flux to the pair size, split between the two centers
    that bracket it."""
    n = grid.n
    c, w = grid.centers, grid.widths
    gain = np.zeros(n)
    loss = np.zeros(n)
    for i in range(n):
        for j in range(n):
            flux = float(k.join(c[i], c[j])) * u_vals[i] * w[i] * w_vals[j] * w[j]
            loss[i] += 2.0 * u_vals[i] * float(k.join(c[j], c[i])) * w_vals[j] * w[j]
            if flux == 0.0:
                continue
            p = c[i] + c[j]
            if p <= c[0]:
                gain[0] += flux
            elif p >= c[-1]:
                gain[-1] += flux
            else:
                m = int(np.searchsorted(c, p)) - 1
                lo_frac = (c[m + 1] - p) / (c[m + 1] - c[m])
                gain[m] += flux * lo_frac
                gain[m + 1] += flux * (1.0 - lo_frac)
    return gain / w - loss


class TestJoining:
    def test_matches_brute_force_loops(self):
        grid = build_grid(1.0, 9.0, 8, spacing="uniform")
        k = with_join_cutoff(
            make_special_family(growth_value=1.0, death_value=0.0,
                               frag_slope=0.0, join_value=0.3),
            cutoff=6.0,
        )
        u = random_density(grid, 11).values
        w = random_density(grid, 12).values
        tables = JoiningTables.build(k, grid)
        expected = brute_force_joining(k, grid, u, u)
        got = tables.apply(u)
        assert np.max(np.abs(got - expected)) < 1e-13 * max(1.0, np.max(np.abs(expected)))
        # the distinct pair by polarization, against the symmetric part
        expected = 0.5 * (brute_force_joining(k, grid, u, w) + brute_force_joining(k, grid, w, u))
        got = 0.25 * (tables.apply(u + w) - tables.apply(u - w))
        assert np.max(np.abs(got - expected)) < 1e-13 * max(1.0, np.max(np.abs(expected)))

    def test_second_density_is_refused(self):
        """apply is the quadratic Q(u): a stale apply(u, w) must not read w
        as the loss rate."""
        grid = build_grid(1.0, 200.0, 16, spacing="geometric")
        tables = JoiningTables.build(make_special_family(1.0, 0.1, 0.5, 0.2), grid)
        u, w = random_density(grid, 13).values, random_density(grid, 14).values
        with pytest.raises(TypeError):
            tables.apply(u, w)

    def test_first_moment_vanishes_identically(self):
        grid = build_grid(1.0, 200.0, 64, spacing="geometric")
        k = with_join_cutoff(
            make_special_family(growth_value=1.0, death_value=0.1,
                               frag_slope=0.5, join_value=0.2),
            cutoff=100.0,
        )
        tables = JoiningTables.build(k, grid)
        scale = moment(grid, np.ones(grid.n), 1)
        for seed in range(10):
            u = random_density(grid, seed)
            q = tables.apply(u.values)
            assert abs(moment(grid, q, 1)) < 1e-12 * scale

    def test_count_decreases_at_quadratic_rate(self):
        # constant rate below the cutoff, no mass near it: the count drops
        # exactly like rate times count squared
        grid = build_grid(1.0, 200.0, 128, spacing="geometric")
        base = make_special_family(growth_value=1.0, death_value=0.0,
                                  frag_slope=0.0, join_value=0.25)
        k = with_join_cutoff(base, cutoff=120.0)
        vals = np.zeros(grid.n)
        sel = grid.centers < 20.0
        vals[sel] = 1.0 / grid.centers[sel]
        u = GridFunction(grid, vals)
        q = JoiningTables.build(k, grid).apply(u.values)
        u0 = moment(grid, u.values, 0)
        assert abs(moment(grid, q, 0) + 0.25 * u0 * u0) < 1e-12 * u0 * u0

    def test_zero_rate_gives_zero(self):
        grid = build_grid(1.0, 50.0, 32, spacing="geometric")
        k = make_special_family(growth_value=1.0, death_value=0.2,
                               frag_slope=0.3, join_value=0.0)
        u = random_density(grid, 4)
        q = JoiningTables.build(k, grid).apply(u.values)
        assert np.all(q == 0.0)

    def test_out_of_range_pairs_raise_only_with_flux(self):
        grid = build_grid(1.0, 20.0, 16, spacing="uniform")
        k = make_special_family(growth_value=1.0, death_value=0.0,
                               frag_slope=0.0, join_value=0.5)
        tables = JoiningTables.build(k, grid)
        # mass near the top: pair sizes exceed the domain end
        hot = np.zeros(grid.n)
        hot[-2:] = 1.0
        with pytest.raises(PairOutOfRange):
            tables.apply(hot)
        # same rate, mass confined low enough: pair sizes stay inside
        cold = np.zeros(grid.n)
        cold[:4] = 1.0
        tables.apply(cold)

    @pytest.mark.parametrize("spacing", ["uniform", "geometric"])
    def test_shared_loss_rate_changes_nothing(self, spacing):
        """One loss GEMV serves the joining apply and the substep scale
        of an evaluation; both must read what they computed on their
        own."""
        grid = build_grid(1.0, 200.0, 64, spacing=spacing)
        k = with_join_cutoff(
            make_special_family(growth_value=1.0, death_value=0.1,
                               frag_slope=0.5, join_value=0.2),
            cutoff=100.0,
        )
        r = ReactionOperator.build(k, grid, skip_joining=False)
        u = random_density(grid, 31).values
        assert np.array_equal(r.join.apply(u, loss_rate=r.join.loss_rate(u)),
                              r.join.apply(u))
        f, scale = r.rhs(u)
        assert np.array_equal(f, r.frag.apply(u) + r.join.apply(u))
        linear = r.frag.death_at_centers + r.frag.frag_at_centers
        assert scale == float(np.max(
            linear + 2.0 * (r.join.rate @ (u * grid.widths))))
        skip = ReactionOperator.build(k, grid, skip_joining=True)
        f, scale = skip.rhs(u)
        assert np.array_equal(f, skip.frag.apply(u))
        assert scale == float(np.max(linear))

    @staticmethod
    def _quadratic_case():
        grid = build_grid(1.0, 40.0, 24, spacing="geometric")
        k = with_join_cutoff(
            make_special_family(growth_value=1.0, death_value=0.0,
                               frag_slope=0.0, join_value=0.4),
            cutoff=25.0,
        )
        return (JoiningTables.build(k, grid), random_density(grid, 21).values,
                random_density(grid, 22).values)

    @settings(max_examples=25, deadline=None)
    @given(a=st.floats(-3.0, 3.0))
    def test_homogeneous_of_degree_two(self, a):
        tables, u, _ = self._quadratic_case()
        lhs = tables.apply(a * u)
        rhs = a * a * tables.apply(u)
        assert np.max(np.abs(lhs - rhs)) <= 1e-13 * np.max(np.abs(rhs)) + 1e-300

    @settings(max_examples=25, deadline=None)
    @given(a=st.floats(-3.0, 3.0), b=st.floats(-3.0, 3.0))
    def test_parallelogram_law(self, a, b):
        """Q(u + w) + Q(u - w) = 2 Q(u) + 2 Q(w): Q is a quadratic form."""
        tables, u, w = self._quadratic_case()
        u, w = a * u, b * w
        lhs = tables.apply(u + w) + tables.apply(u - w)
        rhs = 2.0 * tables.apply(u) + 2.0 * tables.apply(w)
        scale = max(np.max(np.abs(lhs)), np.max(np.abs(rhs)))
        assert np.max(np.abs(lhs - rhs)) <= 1e-13 * scale + 1e-300


class TestFragmentation:
    def test_count_identity_uniform_daughters(self):
        # splitting with linear rate and uniform daughters: the count
        # change closes on the first two moments exactly
        grid = build_grid(1.0, 200.0, 256, spacing="geometric")
        slope, death = 0.5, 0.1
        k = make_special_family(growth_value=1.0, death_value=death,
                               frag_slope=slope, join_value=0.0)
        u = random_density(grid, 31)
        out = FragTables.build(k, grid).apply(u.values)
        u0 = moment(grid, u.values, 0)
        u1 = moment(grid, u.values, 1)
        got = moment(grid, out, 0)
        want = slope * (u1 - 2.0 * grid.y0 * u0) - death * u0
        assert abs(got - want) < 1e-12 * max(1.0, abs(want))

    def test_first_moment_plus_monomer_gain_closes_on_death(self):
        # deposited moment and the monomer coefficient are complementary
        # by construction, for any daughter profile
        for maker in (
            lambda: make_special_family(growth_value=1.0, death_value=0.2,
                                        frag_slope=0.7, join_value=0.0),
            lambda: make_k0_family(lambda s: 6.0 * s * (1.0 - s),
                                   growth_value=1.0, death_value=0.2,
                                   frag_slope=0.7),
        ):
            k = maker()
            grid = build_grid(1.0, 100.0, 128, spacing="geometric")
            tables = FragTables.build(k, grid)
            u = random_density(grid, 41)
            out = tables.apply(u.values)
            total = moment(grid, out, 1) + tables.monomer_gain(u.values)
            want = -0.2 * moment(grid, u.values, 1)
            assert abs(total - want) < 1e-12 * max(1.0, abs(want))

    def test_monomer_gain_matches_direct_quadrature_uniform(self):
        grid = build_grid(1.0, 150.0, 200, spacing="geometric")
        k = make_special_family(growth_value=1.0, death_value=0.0,
                               frag_slope=0.5, join_value=0.0)
        tables = FragTables.build(k, grid)
        u = random_density(grid, 51)
        direct = reference_monomer_release(k, u)
        assert abs(tables.monomer_gain(u.values) - direct) < 1e-4 * max(1e-30, direct)

    def test_deposit_rows_sum_to_daughter_count(self):
        grid = build_grid(1.0, 80.0, 96, spacing="geometric")
        k = make_special_family(growth_value=1.0, death_value=0.0,
                               frag_slope=0.4, join_value=0.0)
        c = grid.centers
        expected = (c - grid.y0) / c
        got = FragTables.build(dense_twin(k), grid).deposit.sum(axis=1)
        assert np.max(np.abs(got - expected)) < 1e-12
        # the closed form: the cells below the parent, then its half cell
        inv_c, own, down = FragTables.build(k, grid).deposit
        below = np.concatenate(([0.0], np.cumsum(grid.widths)[:-1]))
        got = below * inv_c + own + down
        assert np.max(np.abs(got - expected)) < 1e-12

    def test_parabolic_profile_rows_match_independent_quadrature(self):
        grid = build_grid(1.0, 60.0, 64, spacing="geometric")
        k = make_k0_family(lambda s: 6.0 * s * (1.0 - s),
                           growth_value=1.0, frag_slope=0.3)
        tables = FragTables.build(k, grid)
        c = grid.centers
        # number of daughters landing above y0, against the closed form
        # for the parabolic profile: integral of 6 s (1-s) / z on (y0, z)
        s0 = grid.y0 / c
        expected = 1.0 - (3.0 * s0 ** 2 - 2.0 * s0 ** 3)
        got = tables.deposit.sum(axis=1)
        assert np.max(np.abs(got - expected)) < 1e-10

    @settings(max_examples=20, deadline=None)
    @given(a=st.floats(-2.0, 2.0), b=st.floats(-2.0, 2.0))
    def test_linearity(self, a, b):
        grid = build_grid(1.0, 50.0, 48, spacing="geometric")
        k = make_special_family(growth_value=1.0, death_value=0.1,
                               frag_slope=0.6, join_value=0.0)
        tables = FragTables.build(k, grid)
        u1 = random_density(grid, 61).values
        u2 = random_density(grid, 62).values
        lhs = tables.apply(a * u1 + b * u2)
        rhs = a * tables.apply(u1) + b * tables.apply(u2)
        assert np.max(np.abs(lhs - rhs)) < 1e-10 * (1.0 + np.max(np.abs(rhs)))

    def test_gain_is_nonnegative(self):
        grid = build_grid(1.0, 90.0, 80, spacing="geometric")
        k = make_special_family(growth_value=1.0, death_value=0.0,
                               frag_slope=0.5, join_value=0.0)
        tables = FragTables.build(k, grid)
        assert np.all(tables.deposit >= 0.0)
        assert np.all(tables.monomer_coeff > 0.0)


class TestFunctionals:
    def test_monomer_release_closed_form(self):
        # uniform daughters with linear splitting rate: release rate is
        # slope * y0^2 * count, independent of the shape of u
        grid = build_grid(1.0, 200.0, 160, spacing="geometric")
        slope = 0.5
        k = make_special_family(growth_value=1.0, death_value=0.1,
                               frag_slope=slope, join_value=0.2)
        u = random_density(grid, 71)
        u0 = moment(grid, u.values, 0)
        expected = slope * grid.y0 ** 2 * u0
        assert abs(reference_monomer_release(k, u) - expected) < 1e-12 * expected

    def test_polymerisation_drain_with_saturation(self):
        from prionpde.kernels import ModelParams

        grid = build_grid(1.0, 100.0, 120, spacing="geometric")
        k = make_special_family(growth_value=2.0, death_value=0.0,
                               frag_slope=0.0, join_value=0.0,
                               params=ModelParams(saturation=0.3))
        u = random_density(grid, 81)
        u0 = moment(grid, u.values, 0)
        u1 = moment(grid, u.values, 1)
        expected = 2.0 * u0 / (1.0 + 0.3 * u1)
        reaction = ReactionOperator.build(k, grid, True)
        assert abs(reaction.drain(u.values) - expected) < 1e-12 * expected
        assert abs(reaction.speed(1.7, u.values) - 1.7 / (1.0 + 0.3 * u1)) < 1e-14


def assert_closed_form_matches_dense(k, grid, seed):
    """The closed-form tables of k's uniform daughter against the dense
    quadrature of its twin: apply, monomer_coeff and monomer_gain to
    1e-13 of their scale, and the closed form's first-moment balance
    with the monomer to 1e-14 of the gross first moment of loss and
    gain.  The balance cancels loss and gain terms of size frag * y * u,
    so its rounding scales with them, not with the net moment u1: on
    random grids it stays under 5e-16 of the gross moment and reaches
    1.7e-12 of u1."""
    closed, dense = FragTables.build(k, grid), FragTables.build(dense_twin(k), grid)
    assert closed.closed_form and not dense.closed_form
    c, w = grid.centers, grid.widths
    u = random_density(grid, seed).values
    s = dense.intensity(u)
    scale = dense.loss_at_centers * u + (dense.deposit.T @ s) / w
    assert np.all(np.abs(closed.apply(u) - dense.apply(u)) <= 1e-13 * scale)
    assert np.all(np.abs(closed.monomer_coeff - dense.monomer_coeff) <= 1e-13 * 0.5 * c)
    assert (abs(closed.monomer_gain(u) - dense.monomer_gain(u))
            <= 1e-13 * float(np.dot(s, 0.5 * c)))
    u1 = moment(grid, u, 1)
    balance = moment(grid, closed.apply(u), 1) + closed.monomer_gain(u)
    death = closed.death_at_centers[0]
    assert abs(balance + death * u1) <= 1e-14 * moment(grid, scale, 1)


def special_family():
    return make_special_family(growth_value=1.0, death_value=0.1,
                               frag_slope=0.5, join_value=0.2)


class TestClosedFormFragmentation:
    """The uniform daughter's O(n) tables against the dense quadrature."""

    @pytest.mark.parametrize("n", [4, 5, 400, 800])
    @pytest.mark.parametrize("spacing", ["uniform", "geometric"])
    def test_matches_the_dense_quadrature(self, spacing, n):
        assert_closed_form_matches_dense(special_family(), build_grid(1.0, 200.0, n, spacing), n)

    @settings(max_examples=25, deadline=None)
    @given(ymax=st.floats(2.5, 1e4), n=st.integers(4, 300),
           spacing=st.sampled_from(["uniform", "geometric"]))
    # balance residual 7.0e-6 against u1 = 6.8e6 (1.03e-12 of it), but
    # 3.0e-16 of the gross moment
    @example(ymax=5130.451469707315, n=166, spacing="uniform")
    def test_matches_the_dense_quadrature_fuzzed(self, ymax, n, spacing):
        assert_closed_form_matches_dense(special_family(), build_grid(1.0, ymax, n, spacing), 7)

    def test_only_the_declared_daughter_takes_the_closed_form(self):
        grid = build_grid(1.0, 200.0, 64, "geometric")
        for k in (special_family(), make_bounded_family(frag_value=0.3),
                  make_powerlaw_family(), with_join_cutoff(special_family(), 50.0)):
            assert k.daughter is uniform_daughter
            tables = FragTables.build(k, grid)
            assert tables.closed_form and tables.deposit.shape == (3, grid.n)
        for k in (dense_twin(special_family()), DAUGHTER_KERNELS["parabolic"](),
                  dead_zone_family()):
            tables = FragTables.build(k, grid)
            assert not tables.closed_form and tables.deposit.shape == (grid.n, grid.n)


class TestConstantJoiningRate:
    @pytest.mark.parametrize("spacing", ["uniform", "geometric"])
    def test_constant_rate_is_declared_by_the_rate_alone(self, spacing):
        grid = build_grid(1.0, 200.0, 96, spacing)
        special = special_family()
        for k, rate in ((special, 0.2), (make_bounded_family(join_value=0.3), 0.3)):
            assert JoiningTables.build(k, grid).constant_rate == rate
        for k in (with_join_cutoff(special, 50.0), make_powerlaw_family(),
                  make_special_family(1.0, 0.1, 0.5, 0.0)):
            assert JoiningTables.build(k, grid).constant_rate is None

    @pytest.mark.parametrize("spacing", ["uniform", "geometric"])
    def test_dot_product_loss_matches_the_gemv(self, spacing):
        grid = build_grid(1.0, 200.0, 400, spacing)
        tables = JoiningTables.build(special_family(), grid)
        gemv = dataclasses.replace(tables, constant_rate=None)
        for seed in range(3):
            w = random_density(grid, seed).values
            want = gemv.loss_rate(w)
            assert np.all(np.abs(tables.loss_rate(w) - want) <= 1e-14 * want)


# -- per-parent daughter quadrature ------------------------------------------

def reference_frag_tables(k, grid):
    """The per-source-cell loop the chunked FragTables.build replaced:
    (deposit, monomer_coeff)."""
    n = grid.n
    c = grid.centers
    deposit = np.zeros((n, n))
    dep_moment = np.zeros(n)
    for j in range(n):
        parent = c[j]
        cut = np.searchsorted(grid.edges, parent, side="left")
        bounds = np.concatenate((grid.edges[:cut], [parent]))
        lo, hi = bounds[:-1], bounds[1:]
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        zq = mid[None, :] + half[None, :] * GAUSS3_NODES[:, None]
        kq = np.asarray(
            k.daughter(zq.ravel(), np.full(zq.size, parent)), dtype=float
        ).reshape(zq.shape)
        k0 = half * np.tensordot(GAUSS3_WEIGHTS, kq, axes=(0, 0))
        k1 = half * np.tensordot(GAUSS3_WEIGHTS, kq * zq, axes=(0, 0))
        live = k0 > 0.0
        if not np.any(live):
            continue
        k0, k1 = k0[live], k1[live]
        centroid = np.clip(k1 / k0, lo[live], hi[live])
        idx, frac = split_targets(c, centroid)
        np.add.at(deposit[j], idx, k0 * frac)
        np.add.at(deposit[j], idx + 1, k0 * (1.0 - frac))
        dep_moment[j] = float(np.dot(deposit[j], c))
    return deposit, 0.5 * c - dep_moment


def reference_small_fragment_mass(k, grid):
    """The per-cell loop _small_fragment_mass replaced."""
    nodes, weights = graded_rule(grid.y0, panels=64)
    out = np.empty(grid.n)
    for j, parent in enumerate(grid.centers):
        dv = np.asarray(k.daughter(nodes, np.full_like(nodes, parent)), dtype=float)
        out[j] = float(np.dot(weights, nodes * dv))
    return out


def reference_integrability_coefficients(k, grid, weight):
    """The per-cell loop integrability_coefficients replaced."""
    n1 = np.zeros(grid.n)
    n2 = reference_small_fragment_mass(k, grid)
    for j, parent in enumerate(grid.centers):
        ratio_parent = float(weight.value(np.array([parent]))[0]) / parent
        nodes, wq = _panel_rule(grid.y0, parent, panels=32)
        kv = np.asarray(k.daughter(nodes, np.full_like(nodes, parent)), dtype=float)
        ratio_nodes = np.asarray(weight.value(nodes), dtype=float) / nodes
        n1[j] = float(np.dot(wq, (ratio_parent - ratio_nodes) * nodes * kv))
        n2[j] *= ratio_parent
    return n1, n2


def dead_zone_family():
    """Daughters 2/y on (y/4, 3y/4) only: rows with dead sub-intervals."""
    def daughter(z, y):
        z, y = np.broadcast_arrays(np.asarray(z, dtype=float),
                                   np.asarray(y, dtype=float))
        return np.where((z > 0.25 * y) & (z < 0.75 * y), 2.0 / y, 0.0)

    base = make_special_family(growth_value=1.0, death_value=0.1,
                               frag_slope=0.5, join_value=0.2)
    return dataclasses.replace(base, daughter=daughter, label="dead-zone")


DAUGHTER_KERNELS = {
    # the dense quadrature of the uniform daughter, the closed form's reference
    "uniform": lambda: dense_twin(make_special_family(
        growth_value=1.0, death_value=0.1, frag_slope=0.5, join_value=0.2)),
    "parabolic": lambda: make_k0_family(lambda s: 6.0 * s * (1.0 - s),
                                        growth_value=1.0, frag_slope=0.3),
    "dead-zone": dead_zone_family,
}


def flat_weight(grid):
    return vallee_poussin_weight(GridFunction(grid, np.ones(grid.n)))


def quadratures(k, grid, weight):
    tables = FragTables.build(k, grid)
    return (tables.deposit, tables.monomer_coeff, _small_fragment_mass(k, grid),
            *integrability_coefficients(k, grid, weight.value))


class TestDaughterQuadrature:
    @pytest.mark.parametrize("n", [4, 64, 400])
    @pytest.mark.parametrize("spacing", ["uniform", "geometric"])
    @pytest.mark.parametrize("kernel", sorted(DAUGHTER_KERNELS))
    def test_matches_the_per_cell_loops(self, kernel, spacing, n):
        k = DAUGHTER_KERNELS[kernel]()
        grid = build_grid(1.0, 200.0, n, spacing=spacing)
        weight = flat_weight(grid)
        deposit, monomer_coeff, small, n1, n2 = quadratures(k, grid, weight)
        ref_deposit, ref_monomer_coeff = reference_frag_tables(k, grid)
        assert np.max(np.abs(deposit - ref_deposit)) <= 1e-14
        assert np.all(np.abs(monomer_coeff - ref_monomer_coeff)
                      <= 1e-13 * 0.5 * grid.centers)
        ref_small = reference_small_fragment_mass(k, grid)
        assert np.all(np.abs(small - ref_small) <= 1e-13 * np.abs(ref_small))
        ref_n1, ref_n2 = reference_integrability_coefficients(k, grid, weight)
        assert np.all(np.abs(n1 - ref_n1) <= 1e-13 * np.abs(ref_n1))
        assert np.all(np.abs(n2 - ref_n2) <= 1e-13 * np.abs(ref_n2))

    @pytest.mark.parametrize("spacing", ["uniform", "geometric"])
    @pytest.mark.parametrize("kernel", sorted(DAUGHTER_KERNELS))
    def test_chunking_does_not_change_the_tables(self, monkeypatch, kernel,
                                                 spacing):
        k = DAUGHTER_KERNELS[kernel]()
        grid = build_grid(1.0, 200.0, 96, spacing=spacing)
        weight = flat_weight(grid)
        default = quadratures(k, grid, weight)
        for chunk in (1, 10 ** 9):   # one row per chunk, every row in one
            monkeypatch.setattr(kernels, "QUAD_CHUNK", chunk)
            for got, want in zip(quadratures(k, grid, weight), default):
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", [4, 64, 400, 800])
    @pytest.mark.parametrize("spacing", ["uniform", "geometric"])
    @pytest.mark.parametrize("kernel", sorted(DAUGHTER_KERNELS))
    def test_brackets_from_the_cells_match_the_search(self, monkeypatch,
                                                      kernel, spacing, n):
        """FragTables.build takes each centroid's bracket from its panel's
        cell; it must be the one the binary search finds."""
        k = DAUGHTER_KERNELS[kernel]()
        grid = build_grid(1.0, 200.0, n, spacing=spacing)
        checked = []

        def searched(centers, positions, below=None):
            assert np.array_equal(below, np.searchsorted(centers, positions) - 1)
            got, want = (split_targets(centers, positions, below),
                         split_targets(centers, positions))
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
            checked.append(positions.size)
            return got

        monkeypatch.setattr(operators, "split_targets", searched)
        FragTables.build(k, grid)
        assert sum(checked) >= n

    def test_build_stays_within_its_memory_budget(self):
        k = DAUGHTER_KERNELS["parabolic"]()
        grid = build_grid(1.0, 200.0, 800, spacing="geometric")
        tracemalloc.start()
        try:
            tables = FragTables.build(k, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= tables.deposit.nbytes + 2.4e6
        # the uniform daughter's tables hold no n x n array
        closed = FragTables.build(make_special_family(1.0, 0.1, 0.5, 0.2), grid)
        assert closed.deposit.nbytes == 3 * 8 * grid.n


@pytest.mark.parametrize("spacing", ["geometric", "uniform"])
class TestConstantsBuiltOnce:
    """Every constant the tables and the operator form at build equals,
    bit for bit, the per-call formula it replaces."""

    def setup_pieces(self, spacing):
        params = kernels.ModelParams(production=1.0, degradation=0.5,
                                     saturation=0.3, min_size=1.0)
        k = make_special_family(1.0, 0.1, 0.5, 0.2, params=params)
        grid = build_grid(1.0, 40.0, 48, spacing)
        us = [random_density(grid, seed).values for seed in range(3)]
        return k, grid, us

    def test_frag_tables(self, spacing):
        k, grid, us = self.setup_pieces(spacing)
        for ft in (FragTables.build(k, grid), FragTables.build(dense_twin(k), grid)):
            d, f, w = ft.death_at_centers, ft.frag_at_centers, grid.widths
            assert np.array_equal(ft.loss_at_centers, d + f)
            assert ft.max_loss == float(np.max(d + f))
            assert np.array_equal(ft.twice_frag, 2.0 * f)
            for u in us:
                assert np.array_equal(ft.intensity(u), 2.0 * f * u * w)
        closed, dense = (FragTables.build(k, grid),
                         FragTables.build(dense_twin(k), grid))
        assert closed.closed_form and not dense.closed_form
        assert dense.tail is dense.own_rate is dense.down_rate is None
        inv_c, own, down = closed.deposit
        assert np.array_equal(closed.tail, 2.0 * f * w * inv_c)
        assert np.array_equal(closed.own_rate, own * (2.0 * f) - (d + f))
        assert np.array_equal(closed.down_rate, (down * (2.0 * f) * w)[1:] / w[:-1])
        for u in us:
            gain = dense.deposit.T @ (2.0 * f * u * w)
            assert np.array_equal(dense.apply(u), -(d + f) * u + gain / w)
            # cell i: its own share and loss, every larger parent, the cell above
            terms = [(closed.own_rate[i] * u[i], *(closed.tail[i + 1:] * u[i + 1:]),
                      *(closed.down_rate[i:i + 1] * u[i + 1:i + 2]))
                     for i in range(grid.n)]
            want = np.array([np.sum(t) for t in terms])
            scale = np.array([np.sum(np.abs(t)) for t in terms])
            assert np.all(np.abs(closed.apply(u) - want) <= 1e-14 * scale)

    def test_rhs_without_joining_returns_the_stored_max(self, spacing):
        k, grid, us = self.setup_pieces(spacing)
        bare = ReactionOperator.build(k, grid, skip_joining=True)
        joined = ReactionOperator.build(k, grid, skip_joining=False)
        d, f = bare.frag.death_at_centers, bare.frag.frag_at_centers
        for u in us:
            out, scale = bare.rhs(u)
            assert scale is bare.frag.max_loss
            assert scale == float(np.max(d + f))
            assert np.array_equal(out, bare.frag.apply(u))
            low = u * (grid.centers < 0.4 * grid.ymax)  # no pair strays
            loss = joined.join.loss_rate(low)
            assert joined.rhs(low)[1] == float(np.max(d + f + loss))

    def test_operator_weights(self, spacing):
        k, grid, us = self.setup_pieces(spacing)
        r = ReactionOperator.build(k, grid, skip_joining=True)
        c, w = grid.centers, grid.widths
        death = r.frag.death_at_centers
        assert np.array_equal(r.first_moment_weights, w * c ** 1)
        assert np.array_equal(r.death_moment_weights, death * c * w)
        sat = k.params.saturation
        for u in us:
            damp = 1.0 + sat * moment(grid, u, 1)
            assert r.speed(0.7, u) == 0.7 / damp
            assert r.drain(u) == float(np.dot(r.growth_at_centers, u * w)) / damp
            assert r.death_moment(u) == float(np.dot(death * c * w, u))

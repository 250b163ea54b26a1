"""The structured joining operator against the dense pair scatter it
replaces.

dense_reference_apply is the former production path, kept here as the
reference: per ordered pair, the mass flux goes to the exact pair size,
split between the bracketing centers by one bincount over all n^2
pairs; pairs beyond the domain end are dropped while their largest flux
stays below 1e-12 of the largest pair flux, and are fatal otherwise.
"""

import dataclasses
import math
import struct
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from prionpde.errors import PairOutOfRange
from prionpde.grid import SizeGrid, build_grid, moment, project
from prionpde.kernels import (
    make_powerlaw_family,
    make_special_family,
    plan_truncation_levels,
    truncate,
    with_join_cutoff,
)
from prionpde.operators import (SHIFT_RTOL, TILE_ROWS, JoiningTables, JoinLayout,
                                 split_targets)

SIZES = (4, 5, 8, 64, 192, 400, 800)
SPACINGS = ("geometric", "uniform")
YMAX = 200.0


def dense_reference_apply(k, grid, u_values, w_values):
    c = grid.centers
    rate = np.asarray(k.join(c[:, None], c[None, :]), dtype=float)
    pair = c[:, None] + c[None, :]
    idx, frac = split_targets(c, pair.ravel())
    beyond = pair > grid.ymax
    mu = u_values * grid.widths
    mw = w_values * grid.widths
    flux = rate * np.outer(mu, mw)
    stray = flux[beyond]
    if stray.size and np.any(stray):
        if np.abs(stray).max() > 1e-12 * np.abs(flux).max():
            raise PairOutOfRange("stray joining flux")
        flux[beyond] = 0.0
    n = grid.n
    flux, frac = flux.ravel(), frac.ravel()
    gain = np.bincount(idx, weights=flux * frac, minlength=n)
    gain += np.bincount(idx + 1, weights=flux * (1.0 - frac), minlength=n)
    loss = 2.0 * u_values * (rate @ mw)
    return gain[:n] / grid.widths - loss


def _truncated():
    base = make_special_family(1.0, 0.1, 1.0, 0.2)
    grid = build_grid(1.0, YMAX, 256, "geometric")
    u0 = project(lambda y: 0.4 / (0.3 * math.sqrt(2.0 * math.pi))
                 * np.exp(-0.5 * ((y - 3.0) / 0.3) ** 2), grid)
    level = plan_truncation_levels(base, u0, 2.0, 1.0, (2,),
                                   pair_base=6.0, pair_step=6.0)[0]
    return truncate(base, [level], 1.0, u0, 2.0)[0][0]


RATES = {
    "constant": make_special_family(1.0, 0.1, 0.5, 0.2),
    "cutoff": with_join_cutoff(make_special_family(1.0, 0.1, 0.5, 0.2), 120.0),
    "truncated": _truncated(),
    "powerlaw": make_powerlaw_family(),
}


def densities(grid, seed):
    """Named (u, w) pairs: mass low on the grid, mass whose pairs land
    between the last center and the domain end, and bilinear versions.
    The quadratic pairs pass one array twice, as the solver does."""
    rng = np.random.default_rng(seed)
    c = grid.centers
    # pairs of these cells land at or below the last center
    low_sel = c <= 0.5 * c[-1]
    low = rng.random(grid.n) * low_sel
    # pairs of these cells land in (c[-1], ymax]: clamped onto the last cell
    clamp_sel = (c > 0.5 * c[-1]) & (c <= 0.5 * grid.ymax)
    clamp = low + rng.random(grid.n) * clamp_sel
    other = rng.random(grid.n) * low_sel
    return {
        "low": (low, low),
        "clamped": (clamp, clamp),
        "low_bilinear": (low, other),
        "clamped_bilinear": (clamp, other),
    }


def first_moment_scale(grid, q):
    return float(np.dot(np.abs(q), grid.centers * grid.widths))


@pytest.fixture(scope="module", params=SPACINGS)
def spacing(request):
    return request.param


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("rate", sorted(RATES))
def test_matches_dense_reference(spacing, n, rate):
    k = RATES[rate]
    grid = build_grid(1.0, YMAX, n, spacing)
    tables = JoiningTables.build(k, grid)
    for name, (u, w) in densities(grid, n).items():
        got = tables.apply(u, w)
        want = dense_reference_apply(k, grid, u, w)
        scale = max(np.max(np.abs(want)), 1e-300)
        assert np.max(np.abs(got - want)) <= 1e-13 * scale, name
        m_scale = first_moment_scale(grid, want)
        assert abs(moment(grid, got, 1) - moment(grid, want, 1)) <= 1e-12 * m_scale
        if name == "low":
            # quadratic, no clamped or stray pair: the first moment is
            # conserved
            assert abs(moment(grid, got, 1)) <= 1e-12 * m_scale, name


@pytest.mark.parametrize("n", (8, 64, 400))
def test_asymmetric_rate_is_refused(spacing, n):
    """The loss term 2 u (rate @ w) holds only for a symmetric rate."""
    base = make_special_family(1.0, 0.1, 0.5, 0.2)
    k = dataclasses.replace(
        base, join=lambda y, z: 0.1 + 0.01 * np.asarray(y) / (1.0 + np.asarray(z)))
    with pytest.raises(ValueError, match="not symmetric"):
        JoiningTables.build(k, build_grid(1.0, YMAX, n, spacing))


def ratio_rate(y, z):
    """Symmetric in exact arithmetic; log(y/z) and log(z/y) round apart."""
    return 0.2 * np.exp(-np.abs(np.log(np.asarray(y) / np.asarray(z))))


@pytest.mark.parametrize("n", (8, 64, 400))
def test_rate_symmetric_to_rounding_is_symmetrized(spacing, n):
    base = make_special_family(1.0, 0.1, 0.5, 0.2)
    k = dataclasses.replace(base, join=ratio_rate)
    symmetric = dataclasses.replace(
        base, join=lambda y, z: 0.5 * (ratio_rate(y, z) + ratio_rate(z, y)))
    grid = build_grid(1.0, YMAX, n, spacing)
    c = grid.centers
    rate = ratio_rate(c[:, None], c[None, :])
    assert not np.array_equal(rate, rate.T)
    tables = JoiningTables.build(k, grid)
    for name, (u, w) in densities(grid, 7).items():
        got = tables.apply(u, w)
        want = dense_reference_apply(symmetric, grid, u, w)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), name
        if name == "low":
            m_scale = first_moment_scale(grid, want)
            assert abs(moment(grid, got, 1)) <= 1e-12 * m_scale


@pytest.mark.parametrize("n", (5, 64, 400))
@pytest.mark.parametrize("rate", sorted(RATES))
def test_out_of_range_raised_exactly_like_dense(spacing, n, rate):
    """Hot densities (mass near the grid end), cold ones, and a tiny
    top-cell mass swept across the 1e-12 threshold, in the quadratic and
    bilinear cases."""
    k = RATES[rate]
    grid = build_grid(1.0, YMAX, n, spacing)
    tables = JoiningTables.build(k, grid)
    rng = np.random.default_rng(n)
    c = grid.centers
    low = rng.random(n) * (c <= 0.3 * YMAX) + (c == c[0])
    hot = rng.random(n) * (c >= 0.6 * YMAX)
    cases = [(hot, hot), (low, low), (low, hot), (hot, low)]
    for eps in 10.0 ** np.arange(-16.0, -7.0):
        top = low.copy()
        top[-1] += eps * np.max(low)
        cases += [(top, top), (low, top)]
    for u, w in cases:
        expect_raise = False
        try:
            want = dense_reference_apply(k, grid, u, w)
        except PairOutOfRange:
            expect_raise = True
        if expect_raise:
            with pytest.raises(PairOutOfRange):
                tables.apply(u, w)
        else:
            got = tables.apply(u, w)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def sheared_rates(tables):
    """The sheared table T of JoiningTables, in full, from its rate:
    zero below the diagonal and on pairs beyond the domain end."""
    grid = tables.grid
    c, n = grid.centers, grid.n
    table = np.zeros((n, n))
    for q in range(n):
        for r in range(q, n):
            if grid.spacing == "geometric":   # (d, m): pair (m, m - d)
                i, j = r, r - q
            else:                             # (i, s): pair (i, s - i)
                i, j = q, r - q
            if c[i] + c[j] <= grid.ymax:
                table[q, r] = tables.rate[i, j]
    if grid.spacing == "geometric":
        table[0] *= 0.5
    return table


def test_tables_hold_the_sheared_triangle_in_tiles(spacing):
    grid = build_grid(1.0, YMAX, 400, spacing)
    tables = JoiningTables.build(RATES["constant"], grid)
    n = grid.n
    assert tables.rate.shape == (n, n)
    for name in ("idx", "frac", "beyond_domain"):
        assert getattr(tables.layout, name).size <= n, name
    assert tables.far_rate.size <= n
    starts = np.flatnonzero(np.diff(tables.layout.idx, prepend=-1))
    bounds = [g0 for g0, _, _ in tables.tiles] + [n]
    assert bounds[0] == 0 and np.all(np.diff(bounds) > 0)
    full = sheared_rates(tables)
    stored = 0
    for (g0, table, shares), g1 in zip(tables.tiles, bounds[1:]):
        # only the columns m >= g0: everything left of them is zero
        assert table.shape == (g1 - g0, n - g0)
        assert not np.any(full[g0:g1, :g0])
        assert np.array_equal(table, full[g0:g1, g0:])
        stored += table.size
        if spacing == "geometric":
            # each diagonal's two shares, on the rows of its offsets
            assert shares.shape[1] == g1 - g0
            np.testing.assert_allclose(shares.sum(axis=0), 1.0, rtol=0, atol=1e-15)
        else:
            assert shares is None
    assert stored < 0.6 * n * n
    if spacing == "geometric":
        # every block's rows lie in one tile: tiles start at block starts
        assert set(bounds[:-1]) <= set(starts)
        # one run of diagonals per offset, the offsets falling by one
        offsets = tables.layout.idx[starts]
        assert len(offsets) == 53
        assert np.all(np.diff(offsets) == -1)
        assert len(tables.tiles) < len(starts)
    else:
        assert len(starts) == 1


@pytest.mark.parametrize("rate", ("constant", "truncated"))
def test_every_two_cell_density_lands_like_dense(spacing, rate):
    """u = one or two occupied cells, every pair i <= j, so each (d, m)
    entry of every tile carries the only flux of some density (n = 64
    holds one geometric tile and two uniform ones; the tile boundaries
    of larger grids are covered by test_matches_dense_reference).  The
    quadratic and bilinear branches agree on equal arrays."""
    k = RATES[rate]
    grid = build_grid(1.0, YMAX, 64, spacing)
    tables = JoiningTables.build(k, grid)
    for i in range(grid.n):
        for j in range(i, grid.n):
            u = np.zeros(grid.n)
            u[i] += 1.0
            u[j] += 0.5
            try:
                want = dense_reference_apply(k, grid, u, u)
            except PairOutOfRange:
                with pytest.raises(PairOutOfRange):
                    tables.apply(u, u)
                continue
            got = tables.apply(u, u)
            scale = np.max(np.abs(want))
            assert np.max(np.abs(got - want)) <= 1e-13 * scale, (i, j)
            bilinear = tables.apply(u, u.copy())
            assert np.max(np.abs(bilinear - got)) <= 1e-15 * scale, (i, j)


def test_grid_without_shift_structure_is_refused():
    ref = build_grid(1.0, YMAX, 64, "geometric")
    rng = np.random.default_rng(3)
    edges = ref.edges.copy()
    edges[1:-1] *= 1.0 + 0.01 * rng.uniform(-1.0, 1.0, ref.n - 1)
    grid = SizeGrid(y0=ref.y0, ymax=ref.ymax, n=ref.n, spacing="geometric",
                    edges=edges, centers=0.5 * (edges[:-1] + edges[1:]),
                    widths=np.diff(edges))
    with pytest.raises(ValueError, match="shift-invariant"):
        JoiningTables.build(RATES["constant"], grid)


def last_live_column(tables):
    """One past the last sheared column with a non-zero rate, from the
    rate's non-zero pairs: column max(i, j) on the geometric grid, i + j
    (below n) on the uniform grid."""
    i, j = np.nonzero(tables.rate)
    if tables.grid.spacing == "geometric":
        cols = np.maximum(i, j)
    else:
        cols = (i + j)[i + j < tables.grid.n]
    return int(cols.max()) + 1 if cols.size else 0


# just above 2 y0 (no center pair is that small), a few pairs, mid-grid,
# at ymax and above ymax
PAIR_CUTOFFS = (2.0 + 1e-9, 2.5, 100.0, YMAX, 300.0)


@pytest.mark.parametrize("n", (5, 64, 192, 400))
@pytest.mark.parametrize("cutoff", PAIR_CUTOFFS)
def test_trimmed_tables_match_dense_reference(spacing, n, cutoff):
    k = with_join_cutoff(RATES["constant"], cutoff)
    grid = build_grid(1.0, YMAX, n, spacing)
    tables = JoiningTables.build(k, grid)
    columns = last_live_column(tables)
    assert tables.columns == columns
    full = sheared_rates(tables)
    assert not np.any(full[:, columns:])
    bounds = [g0 for g0, _, _ in tables.tiles] + [n]
    sums = 0
    for (g0, table, shares), g1 in zip(tables.tiles, bounds[1:]):
        # no stored column at or beyond the last live one
        assert g0 < columns and table.shape[1] == columns - g0
        assert np.array_equal(table, full[g0:g0 + table.shape[0], g0:columns])
        sums += table.shape[1] * (2 if shares is None else shares.shape[0])
    if spacing == "uniform":
        sums = 2 * columns if tables.tiles else 0
    assert tables.targets.size == sums
    live = np.flatnonzero(np.any(tables.rate != 0.0, axis=1))
    assert tables.support == (live[-1] + 1 if live.size else 0)
    assert tables.strays == bool(np.any(tables.far_rate))
    for name, (u, w) in densities(grid, n).items():
        got = tables.apply(u, w)
        want = dense_reference_apply(k, grid, u, w)
        if not np.any(want):
            assert np.array_equal(got, np.zeros(n)), name
            continue
        scale = np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= 1e-13 * scale, name
        m_scale = first_moment_scale(grid, want)
        assert abs(moment(grid, got, 1) - moment(grid, want, 1)) <= 1e-12 * m_scale
        if name == "low":
            assert abs(moment(grid, got, 1)) <= 1e-12 * m_scale, name


def test_truncated_ladder_tables_are_trimmed():
    """Every level of a planned ladder: the pair cutoff leaves most of
    the sheared columns without a rate, none of its pairs strays, and
    apply still lands like the dense scatter."""
    base = make_special_family(1.0, 0.1, 1.0, 0.2)
    grid = build_grid(1.0, YMAX, 192, "geometric")
    u0 = project(lambda y: np.exp(-0.5 * ((y - 3.0) / 0.3) ** 2), grid)
    levels = plan_truncation_levels(base, u0, 2.0, 1.0, (1, 2, 4, 8),
                                    pair_base=6.0, pair_step=6.0)
    for kn, _ in truncate(base, levels, 1.0, u0, 2.0):
        tables = JoiningTables.build(kn, grid)
        assert tables.columns == tables.support == last_live_column(tables)
        assert tables.columns < grid.n // 2 + 50
        assert not tables.strays
        for name, (u, w) in densities(grid, 5).items():
            want = dense_reference_apply(kn, grid, u, w)
            assert np.max(np.abs(tables.apply(u, w) - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("n", (5, 64, 192, 400))
def test_full_support_keeps_every_column(spacing, n):
    """A constant rate keeps the tables the untrimmed build made: every
    column of every band, and the targets of all of them."""
    grid = build_grid(1.0, YMAX, n, spacing)
    tables = JoiningTables.build(RATES["constant"], grid)
    assert tables.columns == tables.support == n
    assert tables.strays
    idx = tables.layout.idx
    bounds = [g0 for g0, _, _ in tables.tiles] + [n]
    full = sheared_rates(tables)
    targets = []
    for (g0, table, shares), g1 in zip(tables.tiles, bounds[1:]):
        assert np.array_equal(table, full[g0:g1, g0:])
        if spacing == "geometric":
            offsets = idx[g0] + 1 - np.arange(shares.shape[0])
            targets.append(np.minimum(np.arange(g0, n) + offsets[:, None], n - 1))
    if spacing == "uniform":
        targets.append(np.minimum(np.arange(n) + idx[0] + np.arange(2)[:, None], n - 1))
    assert bounds[-2] < n
    assert np.array_equal(tables.targets, np.concatenate([t.ravel() for t in targets]))


def test_stray_check_runs_only_when_a_pair_can_stray(monkeypatch):
    """apply skips the stray check for tables whose far rates are all
    zero, and keeps it for the others."""
    calls = []
    check = JoiningTables._check_stray

    def counted(self, mu, mw):
        calls.append(self.strays)
        return check(self, mu, mw)

    monkeypatch.setattr(JoiningTables, "_check_stray", counted)
    grid = build_grid(1.0, YMAX, 64, "geometric")
    u = (grid.centers <= 0.3 * YMAX).astype(float)
    for rate in ("constant", "cutoff", "truncated"):
        tables = JoiningTables.build(RATES[rate], grid)
        tables.apply(u, u)
    assert calls == [True]


# -- the former table build, kept as the reference of JoinLayout.build and
# JoiningTables.build: it forms the n x n pair sizes, checks the shift
# structure over every pair at once, and stores the n x n mask of the
# sheared entries whose pair lies inside the domain.

def reference_skew(x, pad=0.0):
    n = len(x)
    padded = np.concatenate((np.full(n - 1, pad), x))
    step = padded.itemsize
    return np.ndarray((n, n), padded.dtype, padded, (n - 1) * step, (-step, step))


def reference_sheared(a, by_diagonal):
    n = a.shape[0]
    if by_diagonal:
        flat, start, row_step, col_step = a[:, ::-1].ravel(), n - 1, 1, n - 1
    else:
        flat, start, row_step, col_step = a.ravel(), 0, n - 1, 1
    view = sliding_window_view(flat[start:], (n - 1) * col_step + 1)
    return view[::row_step, ::col_step][:n]


def reference_check_shift_structure(grid, idx, frac, pair, drop, beyond_domain, geometric):
    c, n = grid.centers, grid.n
    c_ext = np.concatenate((c, np.full(n, c[-1])))
    gap_ext = np.append(np.diff(c_ext), 0.0)
    if geometric:
        deposit = sliding_window_view(gap_ext, n)[idx]
        deposit *= (1.0 - frac)[:, None]
        deposit += sliding_window_view(c_ext, n)[idx]
    else:
        deposit = (c_ext + (1.0 - frac[0]) * gap_ext)[idx[0]:idx[0] + n]
    err = np.minimum(pair, c[-1])
    err -= deposit
    np.copyto(err, 0.0, where=drop)
    err /= c[None, :]
    layout_ok = geometric or np.all(beyond_domain <= n - np.arange(n))
    if not (layout_ok and err.max() <= SHIFT_RTOL and err.min() >= -SHIFT_RTOL):
        raise ValueError("joining pair targets are not shift-invariant")


def reference_layout(grid):
    c, n = grid.centers, grid.n
    beyond_domain = n - np.count_nonzero(np.add.outer(c, c) > grid.ymax, axis=1)
    geometric = grid.spacing == "geometric"
    pair = (c[None, :] if geometric else c[:, None]) + reference_skew(c, pad=np.inf)
    drop = pair > grid.ymax
    lowest = c + c[0] if geometric else np.array([2.0 * c[0]])
    idx, frac = split_targets(c, lowest)
    idx -= np.arange(lowest.size)
    clamped = np.flatnonzero(lowest > c[-1])
    if clamped.size:
        first = clamped[0]
        idx[first:] = idx[first - 1] if first > 0 else n - 1
        frac[first:] = 1.0
    reference_check_shift_structure(grid, idx, frac, pair, drop, beyond_domain, geometric)
    starts = np.flatnonzero(np.diff(idx, prepend=-1))
    cuts = [0]
    for a in (starts if geometric else range(n)):
        if a - cuts[-1] >= TILE_ROWS:
            cuts.append(a)
    cuts.append(n)
    bands, targets = [], []
    for g0, g1 in zip(cuts[:-1], cuts[1:]):
        shares = None
        if geometric:
            firsts = starts[(starts >= g0) & (starts < g1)]
            top = idx[firsts[0]] + 1
            shares = np.zeros((top - idx[firsts[-1]] + 1, g1 - g0))
            for a, b in zip(firsts, np.append(firsts[1:], g1)):
                shares[top - idx[a], a - g0:b - g0] = frac[a:b]
                shares[top - idx[a] - 1, a - g0:b - g0] = 1.0 - frac[a:b]
            offsets = top - np.arange(shares.shape[0])
            targets.append((int(g0), np.minimum(np.arange(g0, n) + offsets[:, None], n - 1)))
        bands.append((int(g0), int(g1), shares))
    if not geometric:
        targets.append((0, np.minimum(np.arange(n) + idx[0] + np.arange(2)[:, None], n - 1)))
    return SimpleNamespace(idx=idx, frac=frac, beyond_domain=beyond_domain, inside=~drop,
                           bands=tuple(bands), targets=tuple(targets))


def reference_tables(k, grid):
    layout = reference_layout(grid)
    c, n = grid.centers, grid.n
    rate = np.asarray(k.join(c[:, None], c[None, :]), dtype=float)
    if not np.array_equal(rate, rate.T):
        rate = 0.5 * (rate + rate.T)
    nonzero = rate != 0.0
    live = np.flatnonzero(np.any(nonzero, axis=1))
    support = int(live[-1]) + 1 if live.size else 0
    block = rate[:support, :support]
    constant = support > 0 and bool(np.all(block == block[0, 0]))
    far = np.arange(n)[None, :] >= layout.beyond_domain[:, None]
    far_rate = np.max(np.abs(rate), axis=1, where=far, initial=0.0)
    geometric = grid.spacing == "geometric"
    if geometric:
        columns = support
    else:
        live = np.flatnonzero(np.any(np.triu(reference_sheared(nonzero, False)), axis=0))
        columns = int(live[-1]) + 1 if live.size else 0
    sheared = reference_sheared(rate, geometric)
    tiles = []
    for g0, g1, shares in layout.bands:
        if g0 >= columns:
            break
        table = np.where(layout.inside[g0:g1, g0:columns], sheared[g0:g1, g0:columns], 0.0)
        if geometric and g0 == 0:
            table[0] *= 0.5
        tiles.append((g0, table, shares))
    targets = [cells[:, :columns - g0].ravel() for g0, cells in layout.targets if g0 < columns]
    return SimpleNamespace(
        layout=layout, rate=rate, far_rate=far_rate, strays=bool(np.any(far_rate != 0.0)),
        support=support, constant_rate=float(block[0, 0]) if constant else None,
        columns=columns, tiles=tuple(tiles),
        targets=np.concatenate(targets) if targets else np.zeros(0, np.intp))


def assert_same_bits(got, want, name):
    """Equal arrays of one dtype and shape, byte for byte; tuples
    element by element; floats by their bits; anything else by value
    and type."""
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray), name
        assert (got.dtype, got.shape) == (want.dtype, want.shape), name
        assert got.tobytes() == want.tobytes(), name
    elif isinstance(want, tuple):
        assert isinstance(got, tuple) and len(got) == len(want), name
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same_bits(g, w, f"{name}[{i}]")
    elif isinstance(want, float):
        assert type(got) is float and struct.pack("d", got) == struct.pack("d", want), name
    else:
        assert type(got) is type(want) and got == want, name


# rates only the build comparison takes: one of either sign, and one
# that vanishes on every pair inside the domain
BUILD_RATES = {
    **RATES,
    "signed": dataclasses.replace(
        RATES["constant"], join=lambda y, z: 0.1 * np.cos(0.05 * (np.asarray(y) + z))),
    "stray_only": dataclasses.replace(
        RATES["constant"], join=lambda y, z: np.where(np.asarray(y) + z > 1.1 * YMAX, 0.1, 0.0)),
}


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("rate", sorted(BUILD_RATES))
@pytest.mark.parametrize("cutoff", (None,) + PAIR_CUTOFFS)
def test_build_matches_the_reference_build(spacing, n, rate, cutoff):
    """Every field of the layout and of the tables, bit for bit."""
    k = BUILD_RATES[rate]
    k = k if cutoff is None else with_join_cutoff(k, cutoff)
    grid = build_grid(1.0, YMAX, n, spacing)
    want = reference_tables(k, grid)
    got = JoiningTables.build(k, grid)
    layout_fields = {f.name for f in dataclasses.fields(got.layout)} - {"grid"}
    assert layout_fields == {"idx", "frac", "beyond_domain", "bands", "targets"}
    for name in sorted(layout_fields):
        assert_same_bits(getattr(got.layout, name), getattr(want.layout, name), name)
    table_fields = {f.name for f in dataclasses.fields(got)} - {"grid", "layout"}
    assert table_fields == {"rate", "far_rate", "strays", "support", "constant_rate",
                            "columns", "tiles", "targets"}
    for name in sorted(table_fields):
        assert_same_bits(getattr(got, name), getattr(want, name), name)


def tie_grids(spacing):
    """Grids with pairs of centers whose sum is ymax exactly, and the
    same cells against ymax one ulp either side."""
    for n in range(4, 40):
        for s in range(n - 1):
            grid = build_grid(1.0, 1.0 + n / (n - s - 1), n, spacing)
            for ymax in (grid.ymax, np.nextafter(grid.ymax, 0.0),
                         np.nextafter(grid.ymax, np.inf)):
                yield dataclasses.replace(grid, ymax=float(ymax))


def test_domain_edge_on_exact_ties(spacing):
    """Uniform centers sum to ymax exactly on some pairs; geometric
    ones come within rounding of it."""
    ties = 0
    for grid in tie_grids(spacing):
        c, n = grid.centers, grid.n
        sums = np.add.outer(c, c)
        ties += np.count_nonzero(sums == grid.ymax)
        want = n - np.count_nonzero(sums > grid.ymax, axis=1)
        assert np.array_equal(JoinLayout.build(grid).beyond_domain, want), (n, grid.ymax)
    assert ties > 0 or spacing == "geometric"


def one_edge_scaled(ref, edge, factor):
    edges = ref.edges.copy()
    edges[edge] *= factor
    return dataclasses.replace(ref, edges=edges, centers=0.5 * (edges[:-1] + edges[1:]),
                               widths=np.diff(edges))


@pytest.mark.parametrize("edge", (5, 31, 60))
def test_one_edge_off_by_1e_11_is_refused(spacing, edge):
    """The shift check sees one moved edge of 64 at 1e-11, and lets a
    rounding-sized move of 1e-15 through."""
    grid = build_grid(1.0, YMAX, 64, spacing)
    with pytest.raises(ValueError, match="shift-invariant"):
        JoiningTables.build(RATES["constant"], one_edge_scaled(grid, edge, 1.0 + 1e-11))
    JoiningTables.build(RATES["constant"], one_edge_scaled(grid, edge, 1.0 + 1e-15))


def wide_grids(spacing):
    """Grids over up to 40 decades, some with one edge moved by up to
    1e-8: on the widest, a pair can round onto its larger partner's
    center (target offset -1), which the check accepts only for pairs
    clamped onto the last center."""
    rng = np.random.default_rng(11)
    for trial in range(300):
        y0 = 10.0 ** rng.uniform(-300.0, 2.0)
        grid = build_grid(y0, y0 * 10.0 ** rng.uniform(0.01, 40.0),
                          int(rng.integers(4, 120)), spacing)
        if trial % 5 == 0:
            grid = one_edge_scaled(grid, int(rng.integers(1, grid.n)),
                                   1.0 + 10.0 ** rng.uniform(-16.0, -8.0))
        yield grid


def test_refuses_exactly_the_grids_the_reference_refuses(spacing):
    grids = [build_grid(y0, ymax, n, spacing) for y0, ymax, n in (
        (1.0, 1e30, 24), (5.58466683752439e-21, 0.2209259757066829, 9),
        (6.757220695705723e-208, 2.42376905980873e-191, 96))]
    refused = 0
    for grid in grids + list(wide_grids(spacing)):
        try:
            want = reference_layout(grid)
        except ValueError:
            refused += 1
            with pytest.raises(ValueError, match="shift-invariant"):
                JoinLayout.build(grid)
            continue
        got = JoinLayout.build(grid)
        for name in ("idx", "frac", "beyond_domain"):
            assert_same_bits(getattr(got, name), getattr(want, name), name)
    assert refused > 0 or spacing == "uniform"


@pytest.mark.parametrize("n", (400, 800))
def test_layout_build_forms_no_n_by_n_array(spacing, n):
    """The layout's allocations peak under 1 MB on 400 cells (the n^2
    build: 4.1 MB geometric, 2.8 MB uniform) and under a quarter of one
    n x n float table on 800."""
    grid = build_grid(1.0, YMAX, n, spacing)
    JoinLayout.build(grid)
    tracemalloc.start()
    try:
        JoinLayout.build(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (1e6 if n == 400 else 2 * n * n)

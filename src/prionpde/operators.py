"""Right-hand-side mechanisms: characteristic transport, fragmentation,
joining, and the scalar functionals feeding the monomer equation.

Discretization notes, load-bearing for the conservation tests:

* Transport comes in two forms.  ``transport_apply`` evaluates the exact
  solution operator pointwise at cell centers (foot-point pullback with
  the growth-rate ratio prefactor, clipped-linear interpolation).
  ``transport_remap`` instead moves the cell masses along exact
  characteristics and re-deposits each parcel onto the two bracketing
  cell centers with a first-moment-preserving split; it conserves the
  zeroth and first discrete moments to rounding while the parcel stays
  inside the grid, which the pointwise form does not on non-uniform
  grids.

* The joining gain deposits each ordered pair's mass flux at the exact
  pair size with the same bracketing split, so the discrete first
  moment of the joining operator vanishes identically.  On both
  built-in grids the split is shift-invariant: on a geometric grid the
  pair (m, m-d) lands at cell m + idx[d] with lower share frac[d], and
  on a uniform grid the pair (i, j) lands at i + j + idx[0] with one
  share.  The rates are kept in a sheared copy, with one row per
  diagonal d (geometric) or per first partner i (uniform).  A
  sliding-window view of the cell counts lines them up with that copy
  without copying them.  One elementwise product then feeds small
  GEMVs: one per run of diagonals with the same offset on the geometric
  grid, and a single one over the anti-diagonals on the uniform grid.
  Their sums are added at shifted positions.  ``build`` checks every
  pair's deposit against the bracketing split of its exact size, and a
  grid without the structure is refused there.  Pairs between the last
  center and the domain end are clamped: their whole flux stays in the
  last cell.  Pairs beyond the domain end are stray.  They have no
  entry in the sheared rates, so their flux is dropped, and ``apply``
  raises PairOutOfRange when the largest stray flux exceeds 1e-12 of
  the largest pair flux.

* The fragmentation gain is tabulated per source cell over destination
  sub-intervals; each sub-interval's deposit lands at its own centroid,
  again moment-split between bracketing centers.  The per-source
  monomer coefficient is defined as the exact complement of the
  deposited first moment, so splitting moves monomer count between v
  and u with zero net balance error by construction, for any daughter
  density whose mass normalization holds.

* ``ReactionOperator`` holds both tables, the growth rate at the centers
  and the saturation constant.  The solver, the ledger and every replay
  path share its reaction right-hand side, speed, monomer drain and
  death moment; the saturation factor is written once, in ``_saturated``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import NegativeTime, OutOfDomain, PairOutOfRange
from .grid import GAUSS3_NODES, GAUSS3_WEIGHTS, GridFunction, SizeGrid, moment
from .kernels import KernelSet, RateFn, _graded_rule

__all__ = [
    "CharacteristicMap",
    "characteristic_map",
    "theta_map",
    "theta_inverse",
    "transport_apply",
    "transport_remap",
    "FragTables",
    "fragmentation_apply",
    "JoiningTables",
    "joining_apply",
    "g_functional",
    "p_functional",
    "speed",
    "split_targets",
    "ReactionOperator",
    "measure_operator_bounds",
]


# -- characteristic transport ---------------------------------------------

@dataclass(frozen=True)
class CharacteristicMap:
    """Cumulative inverse-growth integral and its inverse on a grid.

    theta_at_edges[i] is the characteristic time needed to grow from the
    left domain end to edge i; strictly increasing since growth > 0.
    """

    grid: SizeGrid
    theta_at_edges: np.ndarray = field(repr=False)
    growth_at_edges: np.ndarray = field(repr=False)
    growth: RateFn = field(repr=False)

    @property
    def theta_max(self) -> float:
        return float(self.theta_at_edges[-1])


def characteristic_map(source: Union[KernelSet, RateFn], grid: SizeGrid) -> CharacteristicMap:
    """Build the characteristic map for a kernel set's growth rate (or a
    bare rate closure) by per-cell 3-point Gauss integration of its
    reciprocal."""
    growth = source.growth if isinstance(source, KernelSet) else source
    nodes = grid.centers[None, :] + 0.5 * grid.widths[None, :] * GAUSS3_NODES[:, None]
    rate = np.asarray(growth(nodes.ravel()), dtype=float).reshape(nodes.shape)
    if not np.all(rate > 0.0):
        raise ValueError("growth rate must be strictly positive on the grid")
    increments = 0.5 * grid.widths * np.tensordot(GAUSS3_WEIGHTS, 1.0 / rate, axes=(0, 0))
    theta = np.concatenate(([0.0], np.cumsum(increments)))
    g_edges = np.asarray(growth(grid.edges), dtype=float)
    return CharacteristicMap(grid=grid, theta_at_edges=theta,
                             growth_at_edges=g_edges, growth=growth)


def theta_map(cm: CharacteristicMap, y) -> np.ndarray:
    """Characteristic time to grow from the domain's left end to y."""
    y_arr = np.atleast_1d(np.asarray(y, dtype=float))
    g = cm.grid
    if np.any(y_arr < g.y0) or np.any(y_arr > g.ymax):
        raise OutOfDomain(f"size out of [{g.y0}, {g.ymax}]")
    idx = np.clip(np.searchsorted(g.edges, y_arr, side="right") - 1, 0, g.n - 1)
    left = g.edges[idx]
    span = y_arr - left
    # 3-point Gauss on the partial cell (left, y)
    partial = np.zeros(y_arr.shape)
    for q in range(3):
        node = left + span * 0.5 * (1.0 + GAUSS3_NODES[q])
        partial += GAUSS3_WEIGHTS[q] / np.asarray(cm.growth(node), dtype=float)
    out = cm.theta_at_edges[idx] + 0.5 * span * partial
    return out if np.ndim(y) else float(out[0])


def theta_inverse(cm: CharacteristicMap, theta) -> np.ndarray:
    """Inverse of theta_map on [0, theta_max], by bracketed Newton
    iteration (the derivative of the map is the reciprocal growth).
    Raises OutOfDomain if eight iterations leave a residual above
    1e-14 * max(1, theta_max)."""
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
        resid = theta_map(cm, y) - th
        y = np.clip(y - resid * np.asarray(cm.growth(y), dtype=float), lo, hi)
        if np.max(np.abs(resid)) < tol:
            break
    else:
        worst = float(np.max(np.abs(theta_map(cm, y) - th)))
        if not worst < tol:
            raise OutOfDomain(
                f"characteristic inverse did not converge: Newton residual "
                f"{worst:.3g} above the tolerance {tol:.3g}")
    return y if np.ndim(theta) else float(y[0])


def transport_apply(cm: CharacteristicMap, f: GridFunction, t_eff: float) -> GridFunction:
    """Exact solution operator of the pure transport step, evaluated
    pointwise at cell centers.

    Cells whose characteristic time is below t_eff see the inflow
    boundary and get exactly zero; elsewhere the foot point is pulled
    back along the characteristic, f is interpolated there linearly
    between cell centers (constant beyond the ends, hence bounded by
    neighbouring values), and the growth-rate ratio prefactor is
    applied."""
    if t_eff < 0.0:
        raise NegativeTime(f"effective time must be >= 0, got {t_eff}")
    g = cm.grid
    theta_c = theta_map(cm, g.centers)
    alive = theta_c >= t_eff
    out = np.zeros(g.n)
    if np.any(alive):
        feet = theta_inverse(cm, theta_c[alive] - t_eff)
        vals = np.interp(feet, g.centers, f.values)
        pref = np.asarray(cm.growth(feet), dtype=float) / np.asarray(
            cm.growth(g.centers[alive]), dtype=float)
        out[alive] = pref * vals
    return GridFunction(g, out)


def split_targets(centers: np.ndarray, positions: np.ndarray):
    """Bracketing-center split of point masses at the given positions:
    returns (idx, frac) such that fraction frac of each mass goes to
    centers[idx] and the rest to centers[idx+1], preserving the first
    moment whenever the position lies between the two.  Positions beyond
    either end are clamped onto the end cell."""
    idx = np.clip(np.searchsorted(centers, positions) - 1, 0, len(centers) - 2)
    gap = centers[idx + 1] - centers[idx]
    frac = np.clip((centers[idx + 1] - positions) / gap, 0.0, 1.0)
    return idx, frac


def transport_remap(
    cm: CharacteristicMap, f: GridFunction, t_eff: float
) -> Tuple[GridFunction, float, float]:
    """Move each cell's mass along its exact characteristic and re-deposit
    with the moment-preserving bracketing split.

    Returns (density, escaped_count, escaped_mass): parcels whose
    characteristic leaves the grid are removed and accounted at the exit
    size.  Inside the grid both discrete moments are conserved to
    rounding (up to the clamp onto the last cell for parcels landing
    between the last center and the domain end)."""
    if t_eff < 0.0:
        raise NegativeTime(f"effective time must be >= 0, got {t_eff}")
    g = cm.grid
    masses = f.values * g.widths
    if t_eff == 0.0:
        return f.copy(), 0.0, 0.0
    theta_new = theta_map(cm, g.centers) + t_eff
    keep = theta_new <= cm.theta_max
    escaped_count = float(np.sum(masses[~keep]))
    escaped_mass = escaped_count * g.ymax
    out = np.zeros(g.n)
    if np.any(keep):
        landed = theta_inverse(cm, theta_new[keep])
        m = masses[keep]
        idx, frac = split_targets(g.centers, landed)
        np.add.at(out, idx, m * frac)
        np.add.at(out, idx + 1, m * (1.0 - frac))
    return GridFunction(g, out / g.widths), escaped_count, escaped_mass


# -- fragmentation ---------------------------------------------------------

@dataclass(frozen=True)
class FragTables:
    """Per-source-cell deposit tables for the splitting gain.

    deposit[j, i] is the daughter count landing in cell i per unit
    source intensity 2*frag(c_j)*u_j*w_j; monomer_coeff[j] is half the
    parent size minus the deposited first moment, i.e. exactly the
    monomer mass per unit intensity that keeps total monomer count
    conserved under the mass normalization of the daughter density."""

    grid: SizeGrid
    deposit: np.ndarray = field(repr=False)
    monomer_coeff: np.ndarray = field(repr=False)
    frag_at_centers: np.ndarray = field(repr=False)
    death_at_centers: np.ndarray = field(repr=False)

    @classmethod
    def build(cls, k: KernelSet, grid: SizeGrid) -> "FragTables":
        n = grid.n
        c = grid.centers
        deposit = np.zeros((n, n))
        dep_moment = np.zeros(n)
        y0 = grid.y0
        for j in range(n):
            parent = c[j]
            # destination sub-intervals: grid edges below the parent
            # center, closed off at the parent center itself
            cut = np.searchsorted(grid.edges, parent, side="left")
            bounds = np.concatenate((grid.edges[:cut], [parent]))
            lo, hi = bounds[:-1], bounds[1:]
            mid = 0.5 * (lo + hi)
            half = 0.5 * (hi - lo)
            # 3-point Gauss per sub-interval
            zq = mid[None, :] + half[None, :] * GAUSS3_NODES[:, None]
            kq = np.asarray(
                k.daughter(zq.ravel(), np.full(zq.size, parent)), dtype=float
            ).reshape(zq.shape)
            k0 = half * np.tensordot(GAUSS3_WEIGHTS, kq, axes=(0, 0))
            k1 = half * np.tensordot(GAUSS3_WEIGHTS, kq * zq, axes=(0, 0))
            live = k0 > 0.0
            if not np.any(live):
                dep_moment[j] = 0.0
                continue
            k0, k1 = k0[live], k1[live]
            centroid = np.clip(k1 / k0, lo[live], hi[live])
            idx, frac = split_targets(c, centroid)
            np.add.at(deposit[j], idx, k0 * frac)
            np.add.at(deposit[j], idx + 1, k0 * (1.0 - frac))
            dep_moment[j] = float(np.dot(deposit[j], c))
        monomer_coeff = 0.5 * c - dep_moment
        return cls(
            grid=grid,
            deposit=deposit,
            monomer_coeff=monomer_coeff,
            frag_at_centers=np.asarray(k.frag(c), dtype=float),
            death_at_centers=np.asarray(k.death(c), dtype=float),
        )

    def intensity(self, u_values: np.ndarray) -> np.ndarray:
        return 2.0 * self.frag_at_centers * u_values * self.grid.widths

    def apply(self, u_values: np.ndarray) -> np.ndarray:
        """Full linear mechanism: degradation and splitting loss pointwise,
        splitting gain from the tables."""
        gain = self.deposit.T @ self.intensity(u_values)
        return (-(self.death_at_centers + self.frag_at_centers) * u_values
                + gain / self.grid.widths)

    def monomer_gain(self, u_values: np.ndarray) -> float:
        """Monomer count per unit time released by splitting, defined as
        the exact complement of the deposited polymer moment."""
        return float(np.dot(self.intensity(u_values), self.monomer_coeff))


def fragmentation_apply(
    k: KernelSet, u: GridFunction, tables: Optional[FragTables] = None
) -> GridFunction:
    """Degradation plus splitting operator on a cell-averaged density."""
    tables = tables if tables is not None else FragTables.build(k, u.grid)
    return GridFunction(u.grid, tables.apply(u.values))


# -- joining ---------------------------------------------------------------

STRAY_FLUX_RTOL = 1e-12   # stray flux dropped, relative to the largest pair flux
SHIFT_RTOL = 1e-13        # pair-size mismatch the shift structure may carry


def _skew(x: np.ndarray, pad: float = 0.0) -> np.ndarray:
    """Zero-copy view S[q, r] = x[r - q] for q <= r, and pad below the
    diagonal."""
    n = len(x)
    return sliding_window_view(np.concatenate((np.full(n - 1, pad), x)), n)[::-1]


def _sheared(a: np.ndarray, by_diagonal: bool) -> np.ndarray:
    """A square table in sheared coordinates, as a view (of a
    column-reversed copy for by_diagonal).  Entries below the diagonal
    are unrelated values.

    by_diagonal: out[d, m] = a[m, m - d], one row per diagonal.
    otherwise:   out[i, s] = a[i, s - i], one column per anti-diagonal.
    """
    n = a.shape[0]
    if by_diagonal:
        flat, start, row_step, col_step = a[:, ::-1].ravel(), n - 1, 1, n - 1
    else:
        flat, start, row_step, col_step = a.ravel(), 0, n - 1, 1
    view = sliding_window_view(flat[start:], (n - 1) * col_step + 1)
    return view[::row_step, ::col_step][:n]


def _check_shift_structure(grid: SizeGrid, idx: np.ndarray, frac: np.ndarray,
                           pair: np.ndarray, drop: np.ndarray,
                           beyond_domain: np.ndarray, geometric: bool) -> None:
    """Compare the structured deposit of every pair inside the domain
    with the bracketing split of its exact size, through the first
    moment of the deposit (pair holds the sizes in table coordinates).
    A pair whose structured target is the last cell only needs to reach
    the last center, where the bracketing split clamps it.  Also checks
    what apply relies on: geometric offsets fall by one cell from run
    to run, and uniform pairs i + j >= n, which have no table entry,
    are stray."""
    c, n = grid.centers, grid.n
    c_ext = np.concatenate((c, np.full(n, c[-1])))
    gap_ext = np.append(np.diff(c_ext), 0.0)
    if geometric:
        layout_ok = np.all(np.isin(np.diff(idx), (-1, 0)))
        # table coordinates (d, m): pair (m, m - d) lands at m + idx[d]
        deposit = sliding_window_view(gap_ext, n)[idx]
        deposit *= (1.0 - frac)[:, None]
        deposit += sliding_window_view(c_ext, n)[idx]
    else:
        layout_ok = np.all(beyond_domain <= n - np.arange(n))
        # table coordinates (i, s): pair (i, s - i) lands at s + idx[0]
        deposit = (c_ext + (1.0 - frac[0]) * gap_ext)[idx[0]:idx[0] + n]
    err = np.minimum(pair, c[-1])
    err -= deposit
    np.copyto(err, 0.0, where=drop)
    err /= c[None, :]
    if not (layout_ok and err.max() <= SHIFT_RTOL and err.min() >= -SHIFT_RTOL):
        raise ValueError(
            f"joining pair targets on this {grid.spacing} grid are not "
            "shift-invariant; the structured joining operator needs the "
            "centers of build_grid")


@dataclass(frozen=True)
class JoiningTables:
    """Shift-structured tables for the joining mechanism.

    rate[i, j] is the joining rate at the pair of cell centers (i, j);
    each ordered pair deposits its mass flux at the exact pair size,
    split between the bracketing centers.  The split only depends on
    the diagonal (geometric grid) or the anti-diagonal (uniform grid).
    skew holds the rates of the pairs inside the domain, sheared so
    that rows share their targets:

    * geometric: skew[d, m] = rate[m, m - d], halved on d = 0 because
      the pair (m - d, m) is counted in the same row.  It lands
      frac[d] at cell m + idx[d] and the rest one cell up.
      skew_upper holds rate[m - d, m] when the rate is not symmetric.
    * uniform: skew[i, s] = rate[i, s - i], landing frac[0] at cell
      s + idx[0] and the rest one cell up.

    blocks lists the runs of table rows with one offset (a single run
    on the uniform grid), with their shares.  Pairs landing at or beyond the last center are clamped
    onto the last cell.  Pairs beyond the domain end are stray; for row
    i they are the columns from beyond_domain[i] on, and far_rate[i] is
    their largest rate.  Their flux is dropped, which is legitimate
    while it is negligible (rounding-level leakage from the
    support-doubling gain) and a hard error once it carries real
    mass."""

    grid: SizeGrid
    rate: np.ndarray = field(repr=False)
    idx: np.ndarray = field(repr=False)
    frac: np.ndarray = field(repr=False)
    beyond_domain: np.ndarray = field(repr=False)
    far_rate: np.ndarray = field(repr=False)
    skew: np.ndarray = field(repr=False)
    skew_upper: Optional[np.ndarray] = field(repr=False)
    blocks: Tuple[Tuple[np.ndarray, int, int, int], ...] = field(repr=False)

    @classmethod
    def build(cls, k: KernelSet, grid: SizeGrid) -> "JoiningTables":
        c, n = grid.centers, grid.n
        rate = np.asarray(k.join(c[:, None], c[None, :]), dtype=float)
        far = np.add.outer(c, c) > grid.ymax
        beyond_domain = n - np.count_nonzero(far, axis=1)
        far_rate = np.max(np.abs(rate), axis=1, where=far, initial=0.0)
        del far
        geometric = grid.spacing == "geometric"
        # pair sizes in table coordinates, infinite below the diagonal
        pair = (c[None, :] if geometric else c[:, None]) + _skew(c, pad=np.inf)
        drop = pair > grid.ymax
        skew = np.where(drop, 0.0, _sheared(rate, geometric))
        skew_upper = None
        if geometric:
            skew[0] *= 0.5
            if not np.array_equal(rate, rate.T):
                skew_upper = np.where(drop, 0.0, _sheared(rate.T, True))
                skew_upper[0] *= 0.5
            lowest = c + c[0]          # pair (d, 0), the lowest of diagonal d
        else:
            lowest = np.array([2.0 * c[0]])
        idx, frac = split_targets(c, lowest)
        idx -= np.arange(lowest.size)
        clamped = np.flatnonzero(lowest > c[-1])
        if clamped.size:
            # whole diagonals at or beyond the last center: any offset
            # that reaches it will do, so they join the previous run
            first = clamped[0]
            idx[first:] = idx[first - 1] if first > 0 else n - 1
            frac[first:] = 1.0
        _check_shift_structure(grid, idx, frac, pair, drop, beyond_domain, geometric)
        starts = np.flatnonzero(np.diff(idx, prepend=-1))
        stops = np.append(starts[1:], n)
        shares = np.vstack((frac, 1.0 - frac))
        blocks = tuple((np.ascontiguousarray(shares[:, a:b]), a, b, int(idx[a]))
                       for a, b in zip(starts, stops))
        return cls(grid=grid, rate=rate, idx=idx, frac=frac,
                   beyond_domain=beyond_domain, far_rate=far_rate, skew=skew,
                   skew_upper=skew_upper, blocks=blocks)

    def _check_stray(self, mu: np.ndarray, mw: np.ndarray) -> None:
        """PairOutOfRange if the largest stray pair flux exceeds
        STRAY_FLUX_RTOL times the largest pair flux.  An O(n) bound
        settles the usual case; the full maximum decides otherwise."""
        tail = np.append(np.maximum.accumulate(np.abs(mw)[::-1])[::-1], 0.0)
        bound = float(np.max(np.abs(mu) * self.far_rate * tail[self.beyond_domain]))
        if bound == 0.0 or bound <= STRAY_FLUX_RTOL * float(
                np.max(np.abs(np.diagonal(self.rate) * mu * mw))):
            return
        flux = np.abs(self.rate * np.outer(mu, mw))
        far = np.arange(self.grid.n)[None, :] >= self.beyond_domain[:, None]
        if np.max(flux, where=far, initial=0.0) > STRAY_FLUX_RTOL * np.max(flux):
            raise PairOutOfRange(
                "joining flux targets a size beyond the grid end; "
                "enlarge the grid or cut the joining rate"
            )

    def _block_sums(self, table: np.ndarray, x: np.ndarray) -> np.ndarray:
        """sums[b] = shares_b @ (table * skew(x)) over the rows of block b."""
        product = table * _skew(x)
        sums = np.empty((len(self.blocks), 2, self.grid.n))
        for b, (shares, start, stop, _) in enumerate(self.blocks):
            np.matmul(shares, product[start:stop], out=sums[b])
        return sums

    def apply(self, u_values: np.ndarray, w_values: np.ndarray) -> np.ndarray:
        g = self.grid
        n = g.n
        mu = u_values * g.widths
        mw = mu if w_values is u_values else w_values * g.widths
        self._check_stray(mu, mw)
        if g.spacing != "geometric":
            sums = (self.blocks[0][0] * (mu @ (self.skew * _skew(mw))))[None]
        elif mw is mu and self.skew_upper is None:
            sums = self._block_sums(self.skew, mu)
            sums *= 2.0 * mu
        else:
            upper = self.skew if self.skew_upper is None else self.skew_upper
            sums = self._block_sums(self.skew, mw)
            sums *= mu
            sums += self._block_sums(upper, mu) * mw
        # Block b lands its lower shares at offset idx[0] - b and its
        # upper shares one cell up, with the lower shares of block b - 1.
        # Row r of the padded stack lands at offset idx[0] + 1 - r, so
        # its diagonals are the target cells.
        blocks = len(self.blocks)
        stack = np.zeros((blocks + 1, n + 2 * blocks))
        stack[:-1, blocks:blocks + n] = sums[:, 1]
        stack[1:, blocks:blocks + n] += sums[:, 0]
        step = stack.shape[1] + 1
        diagonals = sliding_window_view(stack.ravel(), blocks * step + 1)
        lowest = self.blocks[-1][3]
        ext = np.zeros(2 * n)
        ext[lowest:lowest + n + blocks] = diagonals[:n + blocks, ::step].sum(axis=1)
        gain = ext[:n]
        gain[-1] += ext[n:].sum()
        loss = 2.0 * u_values * (self.rate @ mw)
        return gain / g.widths - loss


def joining_apply(
    k: KernelSet,
    u: GridFunction,
    w: Optional[GridFunction] = None,
    tables: Optional[JoiningTables] = None,
) -> GridFunction:
    """Bilinear joining operator; with one argument, the quadratic case."""
    w = w if w is not None else u
    if w.grid != u.grid:
        raise ValueError("grids differ")
    tables = tables if tables is not None else JoiningTables.build(k, u.grid)
    return GridFunction(u.grid, tables.apply(u.values, w.values))


# -- scalar functionals ----------------------------------------------------

def _small_fragment_mass(k: KernelSet, grid: SizeGrid) -> np.ndarray:
    """Per-cell first moment of the daughter density below the minimum
    size, by the endpoint-graded composite rule."""
    nodes, weights = _graded_rule(grid.y0, panels=64)
    out = np.empty(grid.n)
    for j, parent in enumerate(grid.centers):
        dv = np.asarray(k.daughter(nodes, np.full_like(nodes, parent)), dtype=float)
        out[j] = float(np.dot(weights, nodes * dv))
    return out


def g_functional(k: KernelSet, u: GridFunction) -> float:
    """Monomer production rate from fragments below the minimum size:
    twice the frag-weighted first moment of the daughter density on
    (0, min size).  An independent quadrature, kept as the cross-check
    of FragTables.monomer_gain."""
    small = _small_fragment_mass(k, u.grid)
    frag = np.asarray(k.frag(u.grid.centers), dtype=float)
    return float(2.0 * np.dot(frag * u.values * u.grid.widths, small))


def _saturated(x: float, saturation: float, grid: SizeGrid,
               u_values: np.ndarray) -> float:
    """x damped by the saturation of the bound mass (speed and drain)."""
    return x / (1.0 + saturation * moment(grid, u_values, 1))


def p_functional(k: KernelSet, u: GridFunction) -> float:
    """Saturated growth-weighted polymer count: the per-monomer rate at
    which polymerisation consumes monomer."""
    grid = u.grid
    raw = float(np.dot(np.asarray(k.growth(grid.centers), dtype=float),
                       u.values * grid.widths))
    return _saturated(raw, k.params.saturation, grid, u.values)


def speed(v: float, k: KernelSet, u: GridFunction) -> float:
    """Effective transport speed multiplier: monomer count damped by the
    saturation of the bound mass."""
    return _saturated(v, k.params.saturation, u.grid, u.values)


# -- the reaction operator -------------------------------------------------

@dataclass(frozen=True)
class ReactionOperator:
    """Degradation, splitting and joining on one (kernel set, grid),
    with the scalars that couple them to the monomer and to transport.
    join is None when joining is skipped."""

    grid: SizeGrid
    frag: FragTables
    join: Optional[JoiningTables]
    growth_at_centers: np.ndarray = field(repr=False)
    saturation: float

    @classmethod
    def build(cls, k: KernelSet, grid: SizeGrid,
              skip_joining: bool) -> "ReactionOperator":
        join = None if skip_joining else JoiningTables.build(k, grid)
        return cls(grid=grid, frag=FragTables.build(k, grid), join=join,
                   growth_at_centers=np.asarray(k.growth(grid.centers), dtype=float),
                   saturation=k.params.saturation)

    @property
    def joins(self) -> bool:
        """Joining is on and its rate is not identically zero."""
        return self.join is not None and bool(np.any(self.join.rate != 0.0))

    def rhs(self, u_values: np.ndarray) -> np.ndarray:
        out = self.frag.apply(u_values)
        if self.join is not None:
            out = out + self.join.apply(u_values, u_values)
        return out

    def loss_scale(self, u_values: np.ndarray) -> float:
        """Largest per-cell loss rate of the density."""
        rate = self.frag.death_at_centers + self.frag.frag_at_centers
        if self.join is not None:
            rate = rate + 2.0 * (self.join.rate @ (u_values * self.grid.widths))
        return float(np.max(rate))

    def speed(self, v: float, u_values: np.ndarray) -> float:
        return _saturated(v, self.saturation, self.grid, u_values)

    def drain(self, u_values: np.ndarray) -> float:
        """Per-monomer rate at which polymerisation consumes monomer."""
        raw = float(np.dot(self.growth_at_centers, u_values * self.grid.widths))
        return _saturated(raw, self.saturation, self.grid, u_values)

    def death_moment(self, u_values: np.ndarray) -> float:
        """Bound monomer count lost per unit time to degradation."""
        g = self.grid
        return float(np.dot(self.frag.death_at_centers * g.centers * g.widths,
                            u_values))


# -- measured operator bounds ---------------------------------------------

def measure_operator_bounds(
    k: KernelSet, grid: SizeGrid, trials: int = 16, seed: int = 0
) -> dict:
    """Empirical boundedness constants of the two mechanisms in the
    weighted norm sum of the zeroth and first absolute moments: reports
    the largest observed ratio of output norm to (rate sup times input
    norm) over random non-negative densities."""
    rng = np.random.default_rng(seed)
    c, w = grid.centers, grid.widths

    def norm1(vals):
        return float(np.dot(np.abs(vals), (1.0 + c) * w))

    death_sup = float(np.max(np.asarray(k.death(c), dtype=float)))
    frag_sup = float(np.max(np.asarray(k.frag(c), dtype=float)))
    join_sup = float(np.max(np.asarray(k.join(c[:, None], c[None, :]), dtype=float)))
    ft = FragTables.build(k, grid)
    jt = JoiningTables.build(k, grid)
    c_lin, c_bil = 0.0, 0.0
    for _ in range(trials):
        u = rng.random(grid.n)
        v = rng.random(grid.n)
        lin = norm1(ft.apply(u))
        denom = (death_sup + frag_sup) * norm1(u)
        if denom > 0:
            c_lin = max(c_lin, lin / denom)
        bil = norm1(jt.apply(u, v))
        denom = join_sup * norm1(u) * norm1(v)
        if denom > 0:
            c_bil = max(c_bil, bil / denom)
    return {
        "linear_bound_ratio": c_lin,
        "bilinear_bound_ratio": c_bil,
        "death_sup": death_sup,
        "frag_sup": frag_sup,
        "join_sup": join_sup,
    }

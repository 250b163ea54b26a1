"""Right-hand-side mechanisms: characteristic transport, fragmentation,
joining, and the reaction operator that couples them to the monomer
equation.

Discretization notes, load-bearing for the conservation tests:

* Transport comes in two forms.  ``transport_apply`` evaluates the exact
  solution operator pointwise at cell centers (foot-point pullback with
  the growth-rate ratio prefactor, clipped-linear interpolation).
  ``transport_remap`` instead moves the cell masses along exact
  characteristics and re-deposits each parcel onto the two bracketing
  cell centers with a first-moment-preserving split; it conserves the
  zeroth and first discrete moments to rounding while the parcel stays
  inside the grid, which the pointwise form does not on non-uniform
  grids.  Both invert the characteristic map with ``theta_inverse``: one
  search of the tabulated edge times finds the cell that brackets each
  root, and every Newton pass evaluates ``theta_map`` inside that cell
  from one growth call, with no search and no domain check, giving
  ``theta_map``'s floats.  The remap's surviving parcels are a prefix of
  the cells, as the characteristic time increases along the grid, and
  one bincount deposits both shares of every parcel.

* The joining gain deposits each ordered pair's mass flux at the exact
  pair size with the same bracketing split, so the discrete first
  moment of the joining operator vanishes identically.  On both
  built-in grids the split is shift-invariant: on a geometric grid the
  pair (m, m-d) lands at cell m + idx[d] with lower share frac[d], and
  on a uniform grid the pair (i, j) lands at i + j + idx[0] with one
  share.  The rate must be symmetric up to rounding.  It is sheared,
  one row per diagonal d (geometric) or per first partner i (uniform),
  into a table that is zero below its diagonal, and stored as
  staircase tiles: row bands that keep only the columns from their
  first row on, the triangle plus a small overhang, and none beyond
  the last column that holds a non-zero rate, so a rate cut at a pair
  size (a truncation level) stores and multiplies only its support;
  the loss GEMV likewise runs over the rate's support.  A zero-copy
  sheared view of the cell counts lines up with each tile.  On the
  geometric grid one GEMM per tile, against a share matrix with a row
  per target offset, sums the fluxes of all the tile's diagonals; on
  the uniform grid a GEMV reduces each band by the first partner's
  counts.  One bincount adds the sums at their targets.  ``build``
  checks every pair's deposit against the bracketing split of its
  exact size, and a grid without the structure is refused there.
  Pairs between the last center and the domain end are clamped: their
  whole flux stays in the last cell.  Pairs beyond the domain end are
  stray.  They have no entry in the sheared rates, so their flux is
  dropped, and ``apply`` raises PairOutOfRange when the largest stray
  flux exceeds 1e-12 of the largest pair flux; tables whose rate
  vanishes on every stray pair skip that check.

* The fragmentation gain is tabulated per source cell over destination
  sub-intervals; each sub-interval's deposit lands at its own centroid,
  again moment-split between bracketing centers (the fixed-pivot rule).
  The per-source monomer coefficient is defined as the exact complement
  of the deposited first moment, so splitting moves monomer count
  between v and u with zero net balance error by construction, for any
  daughter density whose mass normalization holds.  Every per-parent
  daughter integral goes through ``kernels.daughter_quadrature``:
  chunks of whole rows, and Gauss panel sums in a fixed order.

* What depends on the grid and the daughter density alone (the
  fragmentation deposit and monomer coefficients, and the joining
  ``JoinLayout``: targets, shares, bands and the stray boundary) is a
  ``GridTables``.  A build makes its own unless it is handed one, so
  the levels of a truncation ladder share one set.

* ``ReactionOperator`` holds both tables, the growth rate at the centers
  and the model parameters.  It is the only source of the reaction
  right-hand side, the transport speed, the monomer drain and the death
  moment, which the solver, the ledger and every replay path share; the
  saturation factor of speed and drain is written once, in its
  ``_saturated``.  ``rhs`` returns the right-hand side with its largest
  per-cell loss rate, so one evaluation (one joining-loss GEMV) serves
  a step, its substep rule and the ledger.  What no state changes (the
  moment weights, the pointwise loss rate and its maximum, the doubled
  splitting rate) is formed once, at build, with the same floats the
  per-call formulas gave.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import NegativeTime, OutOfDomain, PairOutOfRange
from .grid import GAUSS3_NODES, GAUSS3_WEIGHTS, GridFunction, SizeGrid
from .kernels import (KernelSet, ModelParams, PairFn, RateFn,
                      daughter_quadrature, equal_panels, gauss_panels,
                      graded_rule, panel_sums)

__all__ = [
    "CharacteristicMap",
    "characteristic_map",
    "theta_map",
    "theta_inverse",
    "transport_apply",
    "transport_remap",
    "FragTables",
    "fragmentation_apply",
    "GridTables",
    "JoinLayout",
    "JoiningTables",
    "joining_apply",
    "g_functional",
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
    theta_at_centers is theta_map at the cell centers, the starting point
    of every transport step.
    """

    grid: SizeGrid
    theta_at_edges: np.ndarray = field(repr=False)
    growth_at_edges: np.ndarray = field(repr=False)
    growth: RateFn = field(repr=False)
    theta_at_centers: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta_at_centers",
                           theta_map(self, self.grid.centers))

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


_GAUSS3_STEPS = (1.0 + GAUSS3_NODES)[:, None]   # node offsets over half a span
_GAUSS3_WEIGHTS = GAUSS3_WEIGHTS[:, None]


def _partial_theta(cm: CharacteristicMap, left: np.ndarray, base: np.ndarray,
                   y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """theta_map at sizes y (one axis) from the left edges of their
    cells and the times tabulated there, by 3-point Gauss on the partial
    cells (left, y), and the growth rate at y: one growth call, on the
    nodes and y stacked."""
    half = 0.5 * (y - left)
    nodes = np.empty((4, y.size))
    np.multiply(half, _GAUSS3_STEPS, out=nodes[:3])
    nodes[:3] += left
    nodes[3] = y
    rate = np.asarray(cm.growth(nodes), dtype=float)
    parts = _GAUSS3_WEIGHTS / rate[:3]
    return base + half * (parts[0] + parts[1] + parts[2]), rate[3]


def theta_map(cm: CharacteristicMap, y) -> np.ndarray:
    """Characteristic time to grow from the domain's left end to y."""
    y_arr = np.atleast_1d(np.asarray(y, dtype=float))
    g = cm.grid
    if np.any(y_arr < g.y0) or np.any(y_arr > g.ymax):
        raise OutOfDomain(f"size out of [{g.y0}, {g.ymax}]")
    flat = y_arr.ravel()
    idx = np.clip(np.searchsorted(g.edges, flat, side="right") - 1, 0, g.n - 1)
    out = _partial_theta(cm, g.edges[idx], cm.theta_at_edges[idx], flat)[0]
    return out.reshape(y_arr.shape) if np.ndim(y) else float(out[0])


def theta_inverse(cm: CharacteristicMap, theta) -> np.ndarray:
    """Inverse of theta_map on [0, theta_max], by bracketed Newton
    iteration (the derivative of the map is the reciprocal growth).

    One search of theta_at_edges finds each target's cell, which brackets
    its root; the iterate starts at the cell's linear estimate and every
    pass stays in the cell.  A pass evaluates theta_map inside the
    bracket, so it makes one growth call, on the Gauss nodes of the
    partial cell and the iterate together, and no search and no domain
    check; its floats are theta_map's.  Raises OutOfDomain for a time
    outside [0, theta_max], and if eight passes leave a residual above
    1e-14 * max(1, theta_max)."""
    shape = np.shape(theta)
    th = np.atleast_1d(np.asarray(theta, dtype=float)).ravel()
    g = cm.grid
    slack = 1e-12 * max(1.0, cm.theta_max)
    least, most = th.min(), th.max()
    if least < -slack or most > cm.theta_max + slack:
        raise OutOfDomain(f"characteristic time out of [0, {cm.theta_max}]")
    if least < 0.0 or most > cm.theta_max:
        th = np.clip(th, 0.0, cm.theta_max)
    # the cell of each target: the inner edges at or below it
    idx = np.searchsorted(cm.theta_at_edges[1:-1], th, side="right")
    lo = g.edges[idx]
    hi = g.edges[1:][idx]
    base = cm.theta_at_edges[idx]
    top = np.where(idx < g.n - 1, hi, np.inf)
    above = cm.theta_at_edges[1:][idx]
    y = lo + (th - base) * cm.growth_at_edges[idx]
    np.maximum(y, lo, out=y)
    np.minimum(y, hi, out=y)
    tol = 1e-14 * max(1.0, cm.theta_max)
    for _ in range(8):
        resid, rate = _partial_theta(cm, lo, base, y)
        # theta_map measures a size on an inner upper edge from that edge
        np.copyto(resid, above, where=y == top)
        resid -= th
        y = y - resid * rate
        np.maximum(y, lo, out=y)
        np.minimum(y, hi, out=y)
        if np.abs(resid, out=resid).max() < tol:
            break
    else:
        final = _partial_theta(cm, lo, base, y)[0]
        np.copyto(final, above, where=y == top)
        worst = float(np.max(np.abs(final - th)))
        if not worst < tol:
            raise OutOfDomain(
                f"characteristic inverse did not converge: Newton residual "
                f"{worst:.3g} above the tolerance {tol:.3g}")
    return y.reshape(shape) if shape else float(y[0])


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
    theta_c = cm.theta_at_centers
    alive = theta_c >= t_eff
    out = np.zeros(g.n)
    if np.any(alive):
        feet = theta_inverse(cm, theta_c[alive] - t_eff)
        vals = np.interp(feet, g.centers, f.values)
        pref = np.asarray(cm.growth(feet), dtype=float) / np.asarray(
            cm.growth(g.centers[alive]), dtype=float)
        out[alive] = pref * vals
    return GridFunction(g, out)


def split_targets(centers: np.ndarray, positions: np.ndarray,
                  below: Optional[np.ndarray] = None):
    """Bracketing-center split of point masses at the given positions:
    returns (idx, frac) such that fraction frac of each mass goes to
    centers[idx] and the rest to centers[idx+1], preserving the first
    moment whenever the position lies between the two.  Positions beyond
    either end are clamped onto the end cell.  below, when the caller
    knows it, is the index of the last center strictly below each
    position (-1 for none), which saves the search."""
    if below is None:
        below = np.searchsorted(centers, positions) - 1
    idx = np.clip(below, 0, len(centers) - 2)
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
    if t_eff == 0.0:
        return f.copy(), 0.0, 0.0
    masses = f.values * g.widths
    theta_new = cm.theta_at_centers + t_eff
    # theta increases along the grid, so the parcels that stay are a prefix
    kept = int(np.searchsorted(theta_new, cm.theta_max, side="right"))
    escaped_count = float(np.sum(masses[kept:]))
    escaped_mass = escaped_count * g.ymax
    if kept == 0:
        return GridFunction(g, np.zeros(g.n)), escaped_count, escaped_mass
    landed = theta_inverse(cm, theta_new[:kept])
    m = masses[:kept]
    idx, frac = split_targets(g.centers, landed)
    # every lower share, then every upper share, each in parcel order
    out = np.bincount(np.concatenate((idx, idx + 1)),
                      np.concatenate((m * frac, m * (1.0 - frac))), g.n)
    return GridFunction(g, out / g.widths), escaped_count, escaped_mass


# -- per-parent daughter quadrature ----------------------------------------

def _small_fragment_mass(k: KernelSet, grid: SizeGrid) -> np.ndarray:
    """Per-cell first moment of the daughter density below the minimum
    size, by the endpoint-graded composite rule."""
    nodes, weights = graded_rule(grid.y0, panels=64)
    z, w = (x.reshape(64, 3).T[:, None] for x in (nodes, weights))  # (3, 1, 64)
    (sums,) = panel_sums(k.daughter, grid.centers, 64, lambda a, b: (z, w),
                          lambda z, y: z)
    return sums.sum(axis=1)


def integrability_coefficients(
    k: KernelSet, grid: SizeGrid, weight: RateFn
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-source quadratures of the two sign-definite dissipation
    integrands of the splitting term weighted by weight(y): the transfer
    of weight per unit size from parent to daughters above the minimum
    size, and the weighted mass handed to the monomer pool.  Both are
    non-negative for a convex weight vanishing at zero."""
    c = grid.centers
    (sums,) = panel_sums(k.daughter, c, 32, equal_panels(grid.y0, c, 32),
                          lambda z, y: (weight(y) / y - weight(z) / z) * z)
    return sums.sum(axis=1), _small_fragment_mass(k, grid) * (weight(c) / c)


# -- fragmentation ---------------------------------------------------------

def _frag_deposit(daughter: PairFn, grid: SizeGrid) -> np.ndarray:
    """deposit[j, i]: the daughter count of parent cell j landing in cell
    i per unit source intensity, each sub-interval's deposit split at its
    centroid between the bracketing centers."""
    n, c, edges = grid.n, grid.centers, grid.edges

    def sub_intervals(a, b):
        # parent j: the cells below j, then (edges[j], c_j); the cells
        # above j are empty panels at c_j
        top = c[a:b, None]
        return np.minimum(edges[:b], top), np.minimum(edges[1:b + 1], top)

    deposit = np.zeros((n, n))
    for a, b, (k0, k1) in daughter_quadrature(
            daughter, c, np.arange(1, n + 1), lambda a, b: gauss_panels(*sub_intervals(a, b)),
            lambda z, y: 1.0, lambda z, y: z):
        live = k0 > 0.0
        lo, hi = (x[live] for x in sub_intervals(a, b))
        k0 = k0[live]
        rows, cells = np.nonzero(live)
        # a live panel's centroid lies in its own cell, so the last
        # center below it is that cell's or the one before
        pos = np.clip(k1[live] / k0, lo, hi)
        idx, frac = split_targets(c, pos, cells - (pos <= c[cells]))
        # each row's targets are monotone, so one bincount adds the
        # lower, then the upper shares in panel order
        at = rows * n + idx
        deposit[a:b] = np.bincount(
            np.concatenate((at, at + 1)), np.concatenate((k0 * frac, k0 * (1.0 - frac))),
            (b - a) * n).reshape(b - a, n)
    return deposit


@dataclass(frozen=True)
class FragTables:
    """Per-source-cell deposit tables for the splitting gain.

    deposit[j, i] is the daughter count landing in cell i per unit
    source intensity 2*frag(c_j)*u_j*w_j; monomer_coeff[j] is half the
    parent size minus the deposited first moment, i.e. exactly the
    monomer mass per unit intensity that keeps total monomer count
    conserved under the mass normalization of the daughter density.
    Both depend on the daughter and the grid alone and come from a
    GridTables; only the rates at the centers are the kernel set's.
    From those, loss_at_centers = death + frag (the pointwise loss
    rate), max_loss (its largest value) and twice_frag = 2 * frag are
    formed once."""

    grid: SizeGrid
    deposit: np.ndarray = field(repr=False)
    monomer_coeff: np.ndarray = field(repr=False)
    frag_at_centers: np.ndarray = field(repr=False)
    death_at_centers: np.ndarray = field(repr=False)
    loss_at_centers: np.ndarray = field(init=False, repr=False)
    max_loss: float = field(init=False)
    twice_frag: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        loss = self.death_at_centers + self.frag_at_centers
        object.__setattr__(self, "loss_at_centers", loss)
        object.__setattr__(self, "max_loss", float(np.max(loss)))
        object.__setattr__(self, "twice_frag", 2.0 * self.frag_at_centers)

    @classmethod
    def build(cls, k: KernelSet, grid: SizeGrid,
              shared: Optional["GridTables"] = None) -> "FragTables":
        """Tables of k on grid; shared, when given, supplies deposit and
        monomer_coeff (ValueError if built for another grid or
        daughter), else they are built here."""
        if shared is None:
            shared = GridTables.build(k.daughter, grid, joining=False)
        shared.check(k, grid)
        c = grid.centers
        return cls(
            grid=grid,
            deposit=shared.deposit,
            monomer_coeff=shared.monomer_coeff,
            frag_at_centers=np.asarray(k.frag(c), dtype=float),
            death_at_centers=np.asarray(k.death(c), dtype=float),
        )

    def intensity(self, u_values: np.ndarray) -> np.ndarray:
        return self.twice_frag * u_values * self.grid.widths

    def apply(self, u_values: np.ndarray) -> np.ndarray:
        """Full linear mechanism: degradation and splitting loss pointwise,
        splitting gain from the tables."""
        gain = self.deposit.T @ self.intensity(u_values)
        return -self.loss_at_centers * u_values + gain / self.grid.widths

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
TILE_ROWS = 40            # least rows of a joining tile, set by timing apply


def _skew(x: np.ndarray, pad: float = 0.0) -> np.ndarray:
    """Zero-copy view S[q, r] = x[r - q] for q <= r, and pad below the
    diagonal."""
    n = len(x)
    padded = np.concatenate((np.full(n - 1, pad), x))
    step = padded.itemsize
    return np.ndarray((n, n), padded.dtype, padded, (n - 1) * step, (-step, step))


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
    what apply relies on: uniform pairs i + j >= n, which have no table
    entry, are stray."""
    c, n = grid.centers, grid.n
    c_ext = np.concatenate((c, np.full(n, c[-1])))
    gap_ext = np.append(np.diff(c_ext), 0.0)
    if geometric:
        # table coordinates (d, m): pair (m, m - d) lands at m + idx[d]
        deposit = sliding_window_view(gap_ext, n)[idx]
        deposit *= (1.0 - frac)[:, None]
        deposit += sliding_window_view(c_ext, n)[idx]
    else:
        # table coordinates (i, s): pair (i, s - i) lands at s + idx[0]
        deposit = (c_ext + (1.0 - frac[0]) * gap_ext)[idx[0]:idx[0] + n]
    err = np.minimum(pair, c[-1])
    err -= deposit
    np.copyto(err, 0.0, where=drop)
    err /= c[None, :]
    layout_ok = geometric or np.all(beyond_domain <= n - np.arange(n))
    if not (layout_ok and err.max() <= SHIFT_RTOL and err.min() >= -SHIFT_RTOL):
        raise ValueError(
            f"joining pair targets on this {grid.spacing} grid are not "
            "shift-invariant; the structured joining operator needs the "
            "centers of build_grid")


@dataclass(frozen=True)
class JoinLayout:
    """Where the pairs of one grid land: the rate-free part of
    JoiningTables, built from the grid alone.

    idx and frac give each diagonal's (geometric) or every pair's
    (uniform) target offset and lower share; beyond_domain[i] is the
    first partner of cell i whose pair lies beyond the domain end.
    inside marks the entries of the sheared table, on or above its
    diagonal, whose pair lies inside the domain.  bands holds the row
    bands (g0, g1, shares) of the tiles, and targets the pairs (g0,
    cells): cells[r, m - g0] is the cell of the sum in row r and column
    m of one band's products on the geometric grid (one per band), of
    the lower (r = 0) and upper share of anti-diagonal m on the uniform
    grid (one, with g0 = 0)."""

    grid: SizeGrid
    idx: np.ndarray = field(repr=False)
    frac: np.ndarray = field(repr=False)
    beyond_domain: np.ndarray = field(repr=False)
    inside: np.ndarray = field(repr=False)
    bands: Tuple[Tuple[int, int, Optional[np.ndarray]], ...] = field(repr=False)
    targets: Tuple[Tuple[int, np.ndarray], ...] = field(repr=False)

    @classmethod
    def build(cls, grid: SizeGrid) -> "JoinLayout":
        c, n = grid.centers, grid.n
        beyond_domain = n - np.count_nonzero(np.add.outer(c, c) > grid.ymax, axis=1)
        geometric = grid.spacing == "geometric"
        # pair sizes in table coordinates, infinite below the diagonal
        pair = (c[None, :] if geometric else c[:, None]) + _skew(c, pad=np.inf)
        drop = pair > grid.ymax
        if geometric:
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
        del pair
        starts = np.flatnonzero(np.diff(idx, prepend=-1))
        # a band starts at the first block start (any row on the uniform
        # grid) at least TILE_ROWS rows below the start of the last one
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
                # row r of the band's sums lands at m + top - r, so a
                # block's lower share goes on row top - idx and its
                # upper share on the row above
                top = idx[firsts[0]] + 1
                shares = np.zeros((top - idx[firsts[-1]] + 1, g1 - g0))
                for a, b in zip(firsts, np.append(firsts[1:], g1)):
                    shares[top - idx[a], a - g0:b - g0] = frac[a:b]
                    shares[top - idx[a] - 1, a - g0:b - g0] = 1.0 - frac[a:b]
                offsets = top - np.arange(shares.shape[0])
                targets.append((int(g0), np.minimum(np.arange(g0, n) + offsets[:, None],
                                                    n - 1)))
            bands.append((int(g0), int(g1), shares))
        if not geometric:
            targets.append((0, np.minimum(np.arange(n) + idx[0] + np.arange(2)[:, None],
                                          n - 1)))
        return cls(grid=grid, idx=idx, frac=frac, beyond_domain=beyond_domain,
                   inside=~drop, bands=tuple(bands), targets=tuple(targets))


@dataclass(frozen=True)
class GridTables:
    """The tables of one (daughter, grid) pair that no rate enters: the
    fragmentation deposit and monomer coefficients of FragTables, and
    the JoinLayout of JoiningTables (None when built without joining).

    Every kernel set that keeps the daughter, such as each level of a
    truncation ladder, can share one; a build handed tables made for
    another grid or daughter refuses them with ValueError."""

    grid: SizeGrid
    daughter: PairFn = field(repr=False)
    deposit: np.ndarray = field(repr=False)
    monomer_coeff: np.ndarray = field(repr=False)
    join: Optional[JoinLayout] = field(repr=False)

    @classmethod
    def build(cls, daughter: PairFn, grid: SizeGrid, joining: bool = True) -> "GridTables":
        deposit = _frag_deposit(daughter, grid)
        return cls(grid=grid, daughter=daughter, deposit=deposit,
                   monomer_coeff=0.5 * grid.centers - deposit @ grid.centers,
                   join=JoinLayout.build(grid) if joining else None)

    def check(self, k: KernelSet, grid: SizeGrid) -> None:
        """ValueError unless built for k's daughter on grid."""
        if not (self.grid == grid and np.array_equal(self.grid.edges, grid.edges)):
            raise ValueError("shared tables were built for another grid")
        if self.daughter is not k.daughter:
            raise ValueError("shared tables were built for another daughter density")


@dataclass(frozen=True)
class JoiningTables:
    """Shift-structured tables for the joining mechanism.

    rate[i, j] is the joining rate at the pair of cell centers (i, j),
    symmetric as the loss 2 u (rate @ w) needs: build refuses an
    asymmetry above the validator's join_symmetry tolerance (1e-8 of the
    largest rate) and symmetrizes one below it.  Every non-zero rate
    lies in rate[:support, :support], the block the loss multiplies.
    Each ordered pair deposits its mass flux at the exact pair size,
    split between the bracketing centers.  The split only depends on
    the diagonal (geometric grid) or the anti-diagonal (uniform grid);
    layout holds it, with everything else the grid alone fixes.  The
    rates of the pairs inside the domain are sheared so that rows share
    their targets, into a table T that is zero below its diagonal:

    * geometric: T[d, m] = rate[m, m - d], halved on d = 0 because the
      pair (m - d, m) is counted in the same row.  It lands frac[d] at
      cell m + idx[d] and the rest one cell up.  A run of diagonals
      with one offset is a block.
    * uniform: T[i, s] = rate[i, s - i], landing frac[0] at cell
      s + idx[0] and the rest one cell up; all rows are one block.

    tiles holds T cut into row bands (g0, table, shares), with table =
    T[g0:g1, g0:columns]: the triangle plus the band's overhang below
    it, trimmed to the rate's support.  columns is one past the last
    column of T whose rate is not zero, counting pairs beyond the domain
    end (n for a rate with full support, which keeps every column).
    Bands that start at or beyond it are left out, so an identically
    zero rate has no tiles.  A band starts at the first block start
    (any row on the uniform grid) at least TILE_ROWS rows below the
    last, so geometric bands hold whole blocks.  There shares has one
    row per target offset r, the share of each of the band's diagonals
    that lands at m + r, and shares @ (table * x[m - d]) sums all the
    band's diagonals in one GEMM; on the uniform grid shares is None
    and the band is reduced by the first partner's counts.  targets
    holds the cell of every such sum, so the gain is one bincount.  Pairs landing at or beyond the
    last center are clamped onto the last cell.  Pairs beyond the
    domain end are stray; for row i they are the columns from
    beyond_domain[i] on, and far_rate[i] is their largest rate.  Their
    flux is dropped, which is legitimate while it is negligible
    (rounding-level leakage from the support-doubling gain) and a hard
    error once it carries real mass.  strays is False when every
    far_rate is zero, and apply then skips the check."""

    grid: SizeGrid
    rate: np.ndarray = field(repr=False)
    layout: JoinLayout = field(repr=False)
    far_rate: np.ndarray = field(repr=False)
    strays: bool
    support: int
    columns: int
    tiles: Tuple[Tuple[int, np.ndarray, Optional[np.ndarray]], ...] = field(repr=False)
    targets: np.ndarray = field(repr=False)

    @property
    def idx(self) -> np.ndarray:
        return self.layout.idx

    @property
    def frac(self) -> np.ndarray:
        return self.layout.frac

    @property
    def beyond_domain(self) -> np.ndarray:
        return self.layout.beyond_domain

    @classmethod
    def build(cls, k: KernelSet, grid: SizeGrid,
              shared: Optional[GridTables] = None) -> "JoiningTables":
        """Tables of k on grid; shared, when given, supplies the layout
        (ValueError if built for another grid or daughter, or without
        joining), else it is built here."""
        if shared is None:
            layout = JoinLayout.build(grid)
        else:
            shared.check(k, grid)
            if shared.join is None:
                raise ValueError("shared tables were built without joining")
            layout = shared.join
        c, n = grid.centers, grid.n
        rate = np.asarray(k.join(c[:, None], c[None, :]), dtype=float)
        if not np.array_equal(rate, rate.T):   # refuse all but rounding
            asym = float(np.max(np.abs(rate - rate.T)))
            if asym > 1e-8 * float(np.max(np.abs(rate))):
                raise ValueError(
                    f"joining rate is not symmetric: max |rate - rate.T| {asym:.3g}")
            rate = 0.5 * (rate + rate.T)
        nonzero = rate != 0.0
        live = np.flatnonzero(np.any(nonzero, axis=1))
        support = int(live[-1]) + 1 if live.size else 0
        far = np.arange(n)[None, :] >= layout.beyond_domain[:, None]
        far_rate = np.max(np.abs(rate), axis=1, where=far, initial=0.0)
        del far
        geometric = grid.spacing == "geometric"
        # columns: one past the last column of T with a non-zero rate on
        # or above the diagonal, whether its pair strays or not, so a
        # rate with full support keeps every column.  Geometric column m
        # holds row m of the rate up to the diagonal, so for a symmetric
        # rate it is the support; a uniform column is an anti-diagonal
        if geometric:
            columns = support
        else:
            live = np.flatnonzero(np.any(np.triu(_sheared(nonzero, False)), axis=0))
            columns = int(live[-1]) + 1 if live.size else 0
        del nonzero
        sheared = _sheared(rate, geometric)
        tiles = []
        for g0, g1, shares in layout.bands:
            if g0 >= columns:
                break
            table = np.where(layout.inside[g0:g1, g0:columns], sheared[g0:g1, g0:columns], 0.0)
            if geometric and g0 == 0:
                table[0] *= 0.5
            tiles.append((g0, table, shares))
        targets = [cells[:, :columns - g0].ravel()
                   for g0, cells in layout.targets if g0 < columns]
        return cls(grid=grid, rate=rate, layout=layout, far_rate=far_rate,
                   strays=bool(np.any(far_rate != 0.0)), support=support,
                   columns=columns, tiles=tuple(tiles),
                   targets=np.concatenate(targets) if targets else np.zeros(0, np.intp))

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

    def _tile_sums(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Geometric grid: per tile, shares @ (table * _skew(x)[g0:g1, g0:columns])
        weighted by y over its columns, flattened in tile order."""
        sheared_x = _skew(x)
        end = self.columns
        sums = np.empty(self.targets.size)
        start = 0
        for g0, table, shares in self.tiles:
            out = sums[start:start + shares.shape[0] * table.shape[1]]
            out = out.reshape(shares.shape[0], table.shape[1])
            np.matmul(shares, table * sheared_x[g0:g0 + table.shape[0], g0:end], out=out)
            out *= y[g0:end]
            start += out.size
        return sums

    def loss_rate(self, w_values: np.ndarray) -> np.ndarray:
        """Per-cell joining loss rate against partners w: one GEMV over
        the rate's support, zero beyond it."""
        m = self.support
        out = np.zeros(self.grid.n)
        np.matmul(self.rate[:m, :m], w_values[:m] * self.grid.widths[:m], out=out[:m])
        out[:m] *= 2.0
        return out

    def apply(self, u_values: np.ndarray, w_values: np.ndarray,
              loss_rate: Optional[np.ndarray] = None) -> np.ndarray:
        """Joining of u with w; loss_rate, when the caller has it, is
        loss_rate(w_values), so the GEMV is not repeated."""
        g = self.grid
        mu = u_values * g.widths
        mw = mu if w_values is u_values else w_values * g.widths
        if self.strays:
            self._check_stray(mu, mw)
        if g.spacing != "geometric":
            sheared_w = _skew(mw)
            pairs = np.zeros(self.columns)
            for g0, table, _ in self.tiles:
                g1 = g0 + table.shape[0]
                pairs[g0:] += mu[g0:g1] @ (table * sheared_w[g0:g1, g0:self.columns])
            sums = np.multiply.outer((self.frac[0], 1.0 - self.frac[0]), pairs)
        elif mw is mu:
            sums = self._tile_sums(mu, 2.0 * mu)
        else:
            sums = self._tile_sums(mw, mu)
            sums += self._tile_sums(mu, mw)
        gain = np.bincount(self.targets, sums.ravel(), g.n)
        if loss_rate is None:
            loss_rate = self.loss_rate(w_values)
        return gain / g.widths - u_values * loss_rate


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

def g_functional(k: KernelSet, u: GridFunction) -> float:
    """Monomer production rate from fragments below the minimum size:
    twice the frag-weighted first moment of the daughter density on
    (0, min size).  An independent quadrature, kept as the cross-check
    of FragTables.monomer_gain."""
    small = _small_fragment_mass(k, u.grid)
    frag = np.asarray(k.frag(u.grid.centers), dtype=float)
    return float(2.0 * np.dot(frag * u.values * u.grid.widths, small))


# -- the reaction operator -------------------------------------------------

Evaluation = Tuple[np.ndarray, float]  # rhs: right-hand side, largest loss rate


@dataclass(frozen=True)
class ReactionOperator:
    """Degradation, splitting and joining on one (kernel set, grid),
    with the growth rate and model parameters that couple them to the
    monomer and to transport.  join is None when joining is skipped.
    The weights of the first moment (the saturation of speed and drain)
    and of the death moment are formed once."""

    grid: SizeGrid
    frag: FragTables
    join: Optional[JoiningTables]
    growth_at_centers: np.ndarray = field(repr=False)
    params: ModelParams
    first_moment_weights: np.ndarray = field(init=False, repr=False)
    death_moment_weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        g = self.grid
        object.__setattr__(self, "first_moment_weights", g.widths * g.centers)
        object.__setattr__(self, "death_moment_weights",
                           self.frag.death_at_centers * g.centers * g.widths)

    @classmethod
    def build(cls, k: KernelSet, grid: SizeGrid, skip_joining: bool,
              shared: Optional[GridTables] = None) -> "ReactionOperator":
        """The operator of k on grid; shared, when given, supplies the
        rate-free tables of both mechanisms (see GridTables)."""
        join = None if skip_joining else JoiningTables.build(k, grid, shared)
        return cls(grid=grid, frag=FragTables.build(k, grid, shared), join=join,
                   growth_at_centers=np.asarray(k.growth(grid.centers), dtype=float),
                   params=k.params)

    @property
    def joins(self) -> bool:
        """Joining is on and its rate is not identically zero."""
        return self.join is not None and self.join.support > 0

    def rhs(self, u_values: np.ndarray) -> Evaluation:
        """Reaction right-hand side at u and its largest per-cell loss
        rate, the scale of the solver's substep rule; one loss GEMV
        serves both.  Without joining the rate is frag.max_loss."""
        out = self.frag.apply(u_values)
        if self.join is None:
            return out, self.frag.max_loss
        loss = self.join.loss_rate(u_values)
        out = out + self.join.apply(u_values, u_values, loss_rate=loss)
        return out, float(np.max(self.frag.loss_at_centers + loss))

    def _saturated(self, x: float, u_values: np.ndarray) -> float:
        """x damped by the saturation of the bound mass."""
        return x / (1.0 + self.params.saturation
                    * float(np.dot(u_values, self.first_moment_weights)))

    def speed(self, v: float, u_values: np.ndarray) -> float:
        """Effective transport speed: the monomer count, saturated."""
        return self._saturated(v, u_values)

    def drain(self, u_values: np.ndarray) -> float:
        """Per-monomer rate at which polymerisation consumes monomer."""
        raw = float(np.dot(self.growth_at_centers, u_values * self.grid.widths))
        return self._saturated(raw, u_values)

    def death_moment(self, u_values: np.ndarray) -> float:
        """Bound monomer count lost per unit time to degradation."""
        return float(np.dot(self.death_moment_weights, u_values))


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

"""Right-hand-side mechanisms: characteristic transport, fragmentation,
joining, and the reaction operator that couples them to the monomer
equation.

Discretization notes, load-bearing for the conservation tests:

* Transport is one scheme, ``transport_remap``: it moves the cell
  masses along exact characteristics and re-deposits each parcel onto
  the two bracketing cell centers with a first-moment-preserving split,
  so it conserves the zeroth and first discrete moments to rounding
  while the parcel stays inside the grid.  ``theta_inverse`` finds the
  cell of each root in one search of the tabulated edge times, and the
  root in closed form for a ``kernels.ConstantRate`` growth (declared,
  not detected), by a bracketed root finder in the cell otherwise.  The
  cell also gives each parcel its lower bracketing center, so the split
  makes no second search.  The surviving parcels are a prefix of the
  cells, as the characteristic time increases along the grid, and one
  bincount deposits both shares of every parcel.

* Joining is the quadratic term Q(u), so its apply takes one density.
  The gain deposits each ordered pair's mass flux at the exact pair
  size with the same bracketing split, so the discrete first moment of
  the joining operator vanishes identically.  On both
  built-in grids the split is shift-invariant: on a geometric grid the
  pair (m, m-d) lands at cell m + idx[d] with lower share frac[d], and
  on a uniform grid the pair (i, j) lands at i + j + idx[0] with one
  share.  The rate, symmetric up to rounding, is read through zero-copy
  views, sheared one row per diagonal d (geometric) or per first
  partner i (uniform), into staircase tiles: row bands that keep the
  triangle plus a small overhang and no column past the rate's last
  non-zero one, so a cut rate (a truncation level) stores and
  multiplies only its support.  One GEMM per geometric tile, against a
  share matrix with a row per target offset, sums the fluxes of all its
  diagonals; a GEMV reduces each uniform band by the first partner's
  counts; one bincount adds the sums at their targets.  ``build``
  checks every pair's deposit against the bracketing split of its
  exact size, one run of rows with one target offset at a time, and
  refuses a grid without the structure.  Pairs between the last center
  and the domain end are clamped onto the last cell.  Pairs beyond it
  are stray: cell i's partners from beyond_domain[i] on, one sorted
  search.  Their flux is dropped, and ``apply`` raises PairOutOfRange
  when the largest stray flux exceeds 1e-12 of the largest pair flux,
  unless the rate vanishes on every stray pair.  For a symmetric rate
  the build forms no n x n array but the rate.

* The fragmentation gain follows the fixed-pivot rule: each destination
  sub-interval's deposit lands at its own centroid, moment-split between
  the bracketing centers.  For ``kernels.uniform_daughter``, declared,
  not detected, the rule has a closed form: parent j puts w_i / c_j in
  each cell i < j and splits its own half cell between cells j - 1 and
  j, so the gain is one reverse cumulative sum plus two diagonals, O(n).
  Every other daughter, an equal closure included, is tabulated densely
  through ``kernels.daughter_quadrature`` (chunks of whole rows, Gauss
  panel sums in a fixed order) and applied as one GEMV; that table is
  the closed form's test reference.  The per-source monomer coefficient
  is the exact complement of the deposited first moment, so splitting
  moves monomer count between v and u with zero net balance error by
  construction, for any daughter density whose mass normalization holds.

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
  per-cell loss rate, so one evaluation (one joining-loss rate) serves
  a step, its substep rule and the ledger.  What no state changes (the
  moment weights, the pointwise loss rate and its maximum, the doubled
  splitting rate, and the closed-form fragmentation coefficients) is
  formed once, at build.  A joining rate that is exactly constant on
  its support makes the loss rate one dot product instead of a GEMV.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .errors import NegativeTime, OutOfDomain, PairOutOfRange
from .grid import GAUSS3_NODES, GAUSS3_WEIGHTS, GridFunction, SizeGrid
from .kernels import (ConstantRate, KernelSet, ModelParams, PairFn, RateFn,
                      daughter_quadrature, equal_panels, gauss_panels,
                      graded_rule, panel_sums, uniform_daughter)

__all__ = [
    "CharacteristicMap",
    "characteristic_map",
    "theta_map",
    "theta_inverse",
    "transport_remap",
    "FragTables",
    "GridTables",
    "JoinLayout",
    "JoiningTables",
    "split_targets",
    "ReactionOperator",
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


def characteristic_map(growth: RateFn, grid: SizeGrid) -> CharacteristicMap:
    """Build the characteristic map of a growth rate by per-cell 3-point
    Gauss integration of its reciprocal."""
    nodes = grid.centers[None, :] + 0.5 * grid.widths[None, :] * GAUSS3_NODES[:, None]
    rate = np.asarray(growth(nodes.ravel()), dtype=float).reshape(nodes.shape)
    if not np.all(rate > 0.0):
        raise ValueError("growth rate must be strictly positive on the grid")
    increments = 0.5 * grid.widths * np.tensordot(GAUSS3_WEIGHTS, 1.0 / rate, axes=(0, 0))
    theta = np.concatenate(([0.0], np.cumsum(increments)))
    g_edges = np.asarray(growth(grid.edges), dtype=float)
    return CharacteristicMap(grid=grid, theta_at_edges=theta,
                             growth_at_edges=g_edges, growth=growth)


ROOT_PASSES = 40   # the most passes theta_inverse's root finder makes
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


def theta_inverse(cm: CharacteristicMap, theta, return_cells: bool = False):
    """Inverse of theta_map on [0, theta_max]: the sizes, and with
    return_cells also the grid cell of each (the cell whose edges
    bracket it), both of theta's shape.

    One search of theta_at_edges finds each target's cell, which brackets
    its root, and the cell's linear estimate starts the iteration.  For a
    declared kernels.ConstantRate growth, mollified ones included, the
    map is linear in every cell, so that estimate, clipped to the cell,
    is the inverse: no pass and no growth call.  Any other growth is
    inverted by _root_in_cells in at most ROOT_PASSES passes, each one
    growth call on the Gauss nodes of the partial cell and the iterate
    together, with no search and no domain check; its floats are
    theta_map's.  Raises OutOfDomain for a time outside [0, theta_max]
    or NaN, and if a residual above 1e-14 * max(1, theta_max) remains."""
    shape = np.shape(theta)
    th = np.atleast_1d(np.asarray(theta, dtype=float)).ravel()
    g = cm.grid
    slack = 1e-12 * max(1.0, cm.theta_max)
    least, most = th.min(), th.max()
    if not (least >= -slack and most <= cm.theta_max + slack):
        raise OutOfDomain(f"characteristic time out of [0, {cm.theta_max}]: "
                          f"least {least}, most {most}")
    if least < 0.0 or most > cm.theta_max:
        th = np.clip(th, 0.0, cm.theta_max)
    # the cell of each target: the inner edges at or below it
    idx = np.searchsorted(cm.theta_at_edges[1:-1], th, side="right")
    lo = g.edges[idx]
    hi = g.edges[1:][idx]
    base = cm.theta_at_edges[idx]
    y = lo + (th - base) * cm.growth_at_edges[idx]
    np.maximum(y, lo, out=y)
    np.minimum(y, hi, out=y)
    if not isinstance(cm.growth, ConstantRate):
        y = _root_in_cells(cm, th, idx, lo, hi, base, y)
    if not shape:
        return (float(y[0]), int(idx[0])) if return_cells else float(y[0])
    y = y.reshape(shape)
    return (y, idx.reshape(shape)) if return_cells else y


def _root_in_cells(cm: CharacteristicMap, th: np.ndarray, idx: np.ndarray,
                   lo: np.ndarray, hi: np.ndarray, base: np.ndarray,
                   y: np.ndarray) -> np.ndarray:
    """theta_inverse's root finder from the in-cell estimates y, for
    targets th in cells idx with edges lo and hi and the times base
    tabulated at lo.  Every pass moves one end of each target's bracket,
    its cell at first, to y by the residual's sign.  Newton steps are
    kept while they land in the bracket and the residual falls fourfold:
    they divide by the exact map's slope, not the quadrature's, which on
    a wide cell makes them crawl or overshoot.  From its first miss on,
    a target takes Illinois steps (regula falsi halving the residual of
    an end kept twice running) and stays put once converged."""
    top = np.where(idx < cm.grid.n - 1, hi, np.inf)
    above = cm.theta_at_edges[1:][idx]
    tol = 1e-14 * max(1.0, cm.theta_max)
    a, b, fa, fb = lo.copy(), hi.copy(), base - th, above - th
    last, prev = np.zeros(th.shape), np.full(th.shape, np.inf)
    newton = np.ones(th.shape, dtype=bool)
    for _ in range(ROOT_PASSES):
        resid, rate = _partial_theta(cm, lo, base, y)
        # theta_map measures a size on an inner upper edge from that edge
        np.copyto(resid, above, where=y == top)
        resid -= th
        below, over = resid < 0.0, resid > 0.0
        same = resid * last > 0.0
        np.multiply(fa, 0.5, out=fa, where=same & over)
        np.multiply(fb, 0.5, out=fb, where=same & below)
        for end, f, side in ((a, fa, below), (b, fb, over)):
            np.copyto(end, y, where=side)
            np.copyto(f, resid, where=side)
        step = y - resid * rate
        np.maximum(step, lo, out=step)
        np.minimum(step, hi, out=step)
        size = np.abs(resid)
        done = size < tol
        # an end counts as in: the clip puts a step onto its cell's edge
        newton &= done | ((a <= step) & (step <= b) & (size <= 0.25 * prev))
        if not newton.all():
            falsi = np.clip(b - (b - a) * (fb / (fb - fa)), a, b)
            step = np.where(newton, step, np.where(done, y, falsi))
        y = step
        if size.max() < tol:
            return y
        last, prev = resid, size
    raise OutOfDomain(
        f"characteristic inverse did not converge in {ROOT_PASSES} passes: "
        f"residual {size.max():.3g} above the tolerance {tol:.3g}")


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
    # np.clip's floats, in place: the remap calls this every step
    idx = np.maximum(below, 0)
    np.minimum(idx, len(centers) - 2, out=idx)
    upper = centers[idx + 1]
    frac = upper - positions
    frac /= upper - centers[idx]
    np.maximum(frac, 0.0, out=frac)
    np.minimum(frac, 1.0, out=frac)
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
    if not (t_eff >= 0.0 and math.isfinite(t_eff)):
        raise NegativeTime(f"effective time must be finite and >= 0, got {t_eff}")
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
    landed, cell = theta_inverse(cm, theta_new[:kept], return_cells=True)
    m = masses[:kept]
    # the last center strictly below a size in cell i is center i or i - 1
    idx, frac = split_targets(g.centers, landed, cell - (landed <= g.centers[cell]))
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


def _uniform_deposit(grid: SizeGrid) -> Tuple[np.ndarray, np.ndarray]:
    """The fixed-pivot deposit of uniform_daughter in closed form, and the
    monomer coefficients: rows [1/c, own, down] of a (3, n) array.
    Parent cell j deposits w_i / c_j in each cell i < j.  Its own half
    cell (e_j, c_j) holds w_j / (2 c_j) with centroid (e_j + c_j) / 2,
    split into own[j] in cell j and down[j] in cell j - 1; for j = 0 the
    split clamps it all onto cell 0."""
    c, w = grid.centers, grid.widths
    half = 0.5 * w / c
    _, frac = split_targets(c, 0.5 * (grid.edges[:-1] + c), np.arange(grid.n) - 1)
    own = half * (1.0 - frac)
    down = half * frac
    own[0], down[0] = half[0], 0.0
    below = np.concatenate(([0.0], np.cumsum(w * c)[:-1]))   # sum over i < j of w_i c_i
    moment = below / c + own * c
    moment[1:] += down[1:] * c[:-1]
    return np.stack((1.0 / c, own, down)), 0.5 * c - moment


@dataclass(frozen=True)
class FragTables:
    """Per-source-cell deposit tables for the splitting gain.

    closed_form comes from the GridTables.  Dense: deposit[j, i] is the
    daughter count landing in cell i per unit source intensity
    2*frag(c_j)*u_j*w_j, and apply is one GEMV.  Closed form: deposit is
    [1/c, own, down] of _uniform_deposit, and apply's coefficients are
    formed once: tail = twice_frag * w / c (the larger parents),
    own_rate (the own-cell share per unit u, minus the loss) and
    down_rate (the share from the cell above); None when dense.
    monomer_coeff[j] is half the parent size minus the deposited first
    moment, i.e. exactly the monomer mass per unit intensity that keeps
    total monomer count conserved under the mass normalization of the
    daughter density.  Only the rates at the centers are the kernel
    set's; from them loss_at_centers = death + frag, max_loss (its
    largest value) and twice_frag = 2 * frag are formed once."""

    grid: SizeGrid
    deposit: np.ndarray = field(repr=False)
    monomer_coeff: np.ndarray = field(repr=False)
    frag_at_centers: np.ndarray = field(repr=False)
    death_at_centers: np.ndarray = field(repr=False)
    closed_form: bool
    loss_at_centers: np.ndarray = field(init=False, repr=False)
    max_loss: float = field(init=False)
    twice_frag: np.ndarray = field(init=False, repr=False)
    tail: Optional[np.ndarray] = field(init=False, repr=False, default=None)
    own_rate: Optional[np.ndarray] = field(init=False, repr=False, default=None)
    down_rate: Optional[np.ndarray] = field(init=False, repr=False, default=None)

    def __post_init__(self) -> None:
        loss = self.death_at_centers + self.frag_at_centers
        object.__setattr__(self, "loss_at_centers", loss)
        object.__setattr__(self, "max_loss", float(np.max(loss)))
        object.__setattr__(self, "twice_frag", 2.0 * self.frag_at_centers)
        if self.closed_form:
            inv_c, own, down = self.deposit
            w = self.grid.widths
            object.__setattr__(self, "tail", self.twice_frag * w * inv_c)
            object.__setattr__(self, "own_rate", own * self.twice_frag - loss)
            object.__setattr__(self, "down_rate",
                               (down * self.twice_frag * w)[1:] / w[:-1])

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
            closed_form=shared.closed_form,
        )

    def intensity(self, u_values: np.ndarray) -> np.ndarray:
        return self.twice_frag * u_values * self.grid.widths

    def apply(self, u_values: np.ndarray) -> np.ndarray:
        """Full linear mechanism: degradation and splitting loss pointwise,
        splitting gain from the tables."""
        if not self.closed_form:
            gain = self.deposit.T @ self.intensity(u_values)
            return -self.loss_at_centers * u_values + gain / self.grid.widths
        out = self.own_rate * u_values
        # cell i gains from every larger parent j > i
        out[:-1] += np.cumsum(self.tail[:0:-1] * u_values[:0:-1])[::-1]
        out[:-1] += self.down_rate * u_values[1:]
        return out

    def monomer_gain(self, u_values: np.ndarray) -> float:
        """Monomer count per unit time released by splitting, defined as
        the exact complement of the deposited polymer moment."""
        return float(np.dot(self.intensity(u_values), self.monomer_coeff))


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


def _sheared(a: np.ndarray, by_diagonal: bool, g0: int, g1: int, end: int) -> np.ndarray:
    """Rows g0:g1, columns g0:end of a C-contiguous square table in
    sheared coordinates: by_diagonal out[d, m] = a[m, m - d], one row per
    diagonal, else out[i, s] = a[i, s - i].  A view of a, but a copy for
    by_diagonal at g0 = 0, whose column 0 holds a[0, 0] over zeros; the
    other entries below the diagonal are unrelated values."""
    n, step = a.shape[0], a.itemsize
    if not by_diagonal:
        return np.ndarray((g1 - g0, end - g0), a.dtype, a, g0 * n * step, ((n - 1) * step, step))
    lo = max(g0, 1)
    view = np.ndarray((g1 - g0, end - lo), a.dtype, a, (lo * (n + 1) - g0) * step,
                      (-step, (n + 1) * step))
    return view if lo == g0 else np.column_stack((np.append(a[0, 0], np.zeros(g1 - 1)), view))


def _check_shift_structure(grid: SizeGrid, idx: np.ndarray, frac: np.ndarray,
                           ends: np.ndarray, bounds) -> None:
    """Compare the structured deposit of every pair inside the domain
    with the bracketing split of its exact size, through the first
    moment of the deposit, one run of rows between bounds at a time:
    one target offset, so one window of the extended centers and gaps,
    to column ends[row].  A pair whose structured target is the last
    cell only needs to reach the last center, where the split clamps it.
    Also checks that uniform pairs i + j >= n (no table entry) stray."""
    c, n = grid.centers, grid.n
    geometric = grid.spacing == "geometric"
    c_ext = np.concatenate((c, np.full(n, c[-1])))
    gap_ext = np.append(np.diff(c_ext), 0.0)
    partner = _skew(c, pad=np.inf)     # the second partner's center, inf below the diagonal
    ok = bool(np.all(ends <= n))
    for a, b, e in zip(bounds[:-1], bounds[1:], np.maximum.reduceat(ends, bounds[:-1])):
        if e <= a or not ok:
            continue
        # offset -1 (a pair rounding onto its larger partner's center)
        # takes the window past the last cell: only clamped pairs pass
        o = (idx[a] if geometric else idx[0]) % (n + 1)
        pair = (c[a:e] if geometric else c[a:b, None]) + partner[a:b, a:e]
        deposit = (1.0 - (frac[a:b, None] if geometric else frac[0])) * gap_ext[o + a:o + e]
        deposit += c_ext[o + a:o + e]
        drop = pair > grid.ymax
        err = np.minimum(pair, c[-1], out=pair)
        err -= deposit
        np.copyto(err, 0.0, where=drop)
        err /= c[a:e]
        ok = err.max() <= SHIFT_RTOL and err.min() >= -SHIFT_RTOL
    if not ok:
        raise ValueError(
            f"joining pair targets on this {grid.spacing} grid are not "
            "shift-invariant; the structured joining operator needs the "
            "centers of build_grid")


@dataclass(frozen=True)
class JoinLayout:
    """Where the pairs of one grid land: the rate-free part of
    JoiningTables, built from the grid alone; build checks its shift
    structure one block (uniform: one band) of rows at a time.

    idx and frac give each diagonal's (geometric) or every pair's
    (uniform) target offset and lower share.  beyond_domain[i], the one
    record of stray pairs, is cell i's first partner whose pair lies
    beyond the domain end: a sheared entry on or above the diagonal is
    inside the domain iff m - d < beyond_domain[m] at (d, m) geometric,
    s - i < beyond_domain[i] at (i, s) uniform.  bands holds the row
    bands (g0, g1, shares) of the tiles, and targets the pairs (g0,
    cells): cells[r, m - g0] is the cell of the sum in row r and column
    m of one band's products on the geometric grid (one per band), of
    the lower (r = 0) and upper share of anti-diagonal m on the uniform
    grid (one, with g0 = 0)."""

    grid: SizeGrid
    idx: np.ndarray = field(repr=False)
    frac: np.ndarray = field(repr=False)
    beyond_domain: np.ndarray = field(repr=False)
    bands: Tuple[Tuple[int, int, Optional[np.ndarray]], ...] = field(repr=False)
    targets: Tuple[Tuple[int, np.ndarray], ...] = field(repr=False)

    @classmethod
    def build(cls, grid: SizeGrid) -> "JoinLayout":
        c, n = grid.centers, grid.n
        # the rounded sums c[i] + c[j] grow with j: a search of ymax - c
        # finds where they pass ymax up to a rounding, and they correct it,
        # up while the next partner's sum is inside, down while the last strays
        edge, step = np.searchsorted(c, grid.ymax - c, side="right"), 1
        while np.any(step):
            step = ((edge < n) & (c + c[np.minimum(edge, n - 1)] <= grid.ymax)).astype(np.intp)
            step -= (edge > 0) & (c + c[edge - 1] > grid.ymax)
            edge += step
        geometric = grid.spacing == "geometric"
        # pair (d, 0), the lowest of diagonal d (geometric), or of all pairs
        lowest = c + c[0] if geometric else np.array([2.0 * c[0]])
        idx, frac = split_targets(c, lowest)
        idx -= np.arange(lowest.size)
        clamped = np.flatnonzero(lowest > c[-1])
        if clamped.size:
            # whole diagonals at or beyond the last center: any offset
            # that reaches it will do, so they join the previous run
            first = clamped[0]
            idx[first:] = idx[first - 1] if first > 0 else n - 1
            frac[first:] = 1.0
        starts = np.flatnonzero(np.diff(idx, prepend=-1))
        # a band starts at the first block start (any row on the uniform
        # grid) at least TILE_ROWS rows below the start of the last one
        cuts = [0]
        for a in (starts if geometric else range(n)):
            if a - cuts[-1] >= TILE_ROWS:
                cuts.append(a)
        cuts.append(n)
        # checked a block (geometric) or band (uniform) at a time, to each row's last inside pair
        rows = np.arange(n)
        ends = np.searchsorted(rows - edge, rows) if geometric else rows + edge
        _check_shift_structure(grid, idx, frac, ends, np.append(starts, n) if geometric else cuts)
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
                targets.append((int(g0), np.minimum(np.arange(g0, n) + offsets[:, None], n - 1)))
            bands.append((int(g0), int(g1), shares))
        if not geometric:
            targets.append((0, np.minimum(np.arange(n) + idx[0] + np.arange(2)[:, None], n - 1)))
        return cls(grid=grid, idx=idx, frac=frac, beyond_domain=edge,
                   bands=tuple(bands), targets=tuple(targets))


@dataclass(frozen=True)
class GridTables:
    """The tables of one (daughter, grid) pair that no rate enters: the
    fragmentation deposit and monomer coefficients of FragTables, and
    the JoinLayout of JoiningTables (None when built without joining).

    closed_form, set at build, is True exactly when the daughter is
    kernels.uniform_daughter itself: deposit is then the (3, n) array of
    _uniform_deposit, else the n x n table of _frag_deposit.

    Every kernel set that keeps the daughter, such as each level of a
    truncation ladder, can share one; a build handed tables made for
    another grid or daughter refuses them with ValueError."""

    grid: SizeGrid
    daughter: PairFn = field(repr=False)
    closed_form: bool
    deposit: np.ndarray = field(repr=False)
    monomer_coeff: np.ndarray = field(repr=False)
    join: Optional[JoinLayout] = field(repr=False)

    @classmethod
    def build(cls, daughter: PairFn, grid: SizeGrid, joining: bool = True) -> "GridTables":
        join = JoinLayout.build(grid) if joining else None   # refuses first
        closed_form = daughter is uniform_daughter
        if closed_form:
            deposit, monomer_coeff = _uniform_deposit(grid)
        else:
            deposit = _frag_deposit(daughter, grid)
            monomer_coeff = 0.5 * grid.centers - deposit @ grid.centers
        return cls(grid=grid, daughter=daughter, closed_form=closed_form,
                   deposit=deposit, monomer_coeff=monomer_coeff, join=join)

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
    symmetric as the loss 2 u (rate @ u) needs: build refuses an
    asymmetry above the validator's join_symmetry tolerance (1e-8 of the
    largest rate) and symmetrizes one below it.  Every non-zero rate
    lies in rate[:support, :support], the block the loss multiplies.
    constant_rate is the block's value when every entry equals rate[0, 0]
    exactly (special and bounded families), making the loss one dot
    product; else None (cut or power-law rates) and the loss is a GEMV.
    Each ordered pair deposits its mass flux at the exact pair size,
    split between the bracketing centers as layout says.  The rates of
    the pairs inside the domain are sheared so that rows share their
    targets, into a table T that is zero below its diagonal:

    * geometric: T[d, m] = rate[m, m - d], halved on d = 0 because the
      pair (m - d, m) is counted in the same row.  It lands frac[d] at
      cell m + idx[d] and the rest one cell up.  A run of diagonals
      with one offset is a block.
    * uniform: T[i, s] = rate[i, s - i], landing frac[0] at cell
      s + idx[0] and the rest one cell up; all rows are one block.

    tiles holds T in the layout's row bands (g0, table, shares), table =
    T[g0:g1, g0:columns] read through views of rate.  columns is one
    past the last column of T whose rate is not zero, stray pairs
    included (n for a rate with full support); bands from it on are left
    out.  Geometric bands hold whole blocks, and shares has one row per
    target offset r, the share of each diagonal that lands at m + r:
    shares @ (table * x[m - d]) sums all the band's diagonals in one
    GEMM.  On the uniform grid shares is None and the band is reduced by
    the first partner's counts.  targets holds the cell of every such
    sum, so the gain is one bincount.  Pairs at or beyond the last
    center are clamped onto the last cell.  far_rate[i] is the largest
    |rate| of row i's stray pairs, whose flux is dropped: legitimate
    while negligible (rounding-level leakage from the support-doubling
    gain), a hard error once it carries real mass.  strays is False when
    every far_rate is zero, and apply then skips the check."""

    grid: SizeGrid
    rate: np.ndarray = field(repr=False)
    layout: JoinLayout = field(repr=False)
    far_rate: np.ndarray = field(repr=False)
    strays: bool
    support: int
    constant_rate: Optional[float]
    columns: int
    tiles: Tuple[Tuple[int, np.ndarray, Optional[np.ndarray]], ...] = field(repr=False)
    targets: np.ndarray = field(repr=False)

    # only perfbench/spans.py reads these three; the package reads
    # layout, and the proxies go when that benchmark stops reading them
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
        rate = np.ascontiguousarray(k.join(c[:, None], c[None, :]), dtype=float)
        # refuse all but rounding asymmetry, compared 128 rows at a time
        if not all(np.array_equal(rate[a:a + 128, a:], rate[a:, a:a + 128].T)
                   for a in range(0, n, 128)):
            asym = float(np.max(np.abs(rate - rate.T)))
            if asym > 1e-8 * float(np.max(np.abs(rate))):
                raise ValueError(
                    f"joining rate is not symmetric: max |rate - rate.T| {asym:.3g}")
            rate = 0.5 * (rate + rate.T)
        live = np.flatnonzero(np.any(rate, axis=1))
        support = int(live[-1]) + 1 if live.size else 0
        block = rate[:support, :support]
        constant = support > 0 and block.min() == block.max()
        # the rows from first on stray from column edge[i] on: their max and
        # -min by reduceat over alternate stray and kept segments (+ 0.0: no -0.0)
        edge, far_rate = layout.beyond_domain, np.zeros(n)
        first = int(np.count_nonzero(edge == n))
        at = np.arange(first, n) * n
        segments = np.column_stack((at + edge[first:], at + n)).ravel()[:-1]
        far_rate[first:] = np.maximum(np.maximum.reduceat(rate.ravel(), segments)[::2],
                                      -np.minimum.reduceat(rate.ravel(), segments)[::2]) + 0.0
        geometric = grid.spacing == "geometric"
        upper = _skew(np.ones(n, bool), pad=False)      # on or above the diagonal
        # geometric column m of T holds row m of the rate up to the
        # diagonal, so for a symmetric rate columns is the support; a
        # uniform column is an anti-diagonal, found a band at a time
        columns = support
        if not geometric:
            live = np.zeros(n, bool)
            for g0, g1, _ in layout.bands:
                live[g0:] |= np.any(upper[g0:g1, g0:] & (_sheared(rate, False, g0, g1, n) != 0),
                                    axis=0)
            columns = int(np.flatnonzero(live)[-1]) + 1 if live.any() else 0
        tiles = []
        for g0, g1, shares in layout.bands:
            if g0 >= columns:
                break
            rows, cols = np.arange(g0, g1)[:, None], np.arange(g0, columns)
            inside = upper[g0:g1, g0:columns] & (rows > cols - edge[g0:columns] if geometric
                                                 else cols < rows + edge[g0:g1, None])
            table = np.where(inside, _sheared(rate, geometric, g0, g1, columns), 0.0)
            if geometric and g0 == 0:
                table[0] *= 0.5
            tiles.append((g0, table, shares))
        targets = [cells[:, :columns - g0].ravel()
                   for g0, cells in layout.targets if g0 < columns]
        return cls(grid=grid, rate=rate, layout=layout, far_rate=far_rate,
                   strays=bool(np.any(far_rate != 0.0)), support=support,
                   constant_rate=float(block[0, 0]) if constant else None,
                   columns=columns, tiles=tuple(tiles),
                   targets=np.concatenate(targets) if targets else np.zeros(0, np.intp))

    def _check_stray(self, mu: np.ndarray) -> None:
        """PairOutOfRange if the largest stray pair flux exceeds
        STRAY_FLUX_RTOL times the largest pair flux.  An O(n) bound
        settles the usual case; the full maximum decides otherwise."""
        tail = np.append(np.maximum.accumulate(np.abs(mu)[::-1])[::-1], 0.0)
        bound = float(np.max(np.abs(mu) * self.far_rate * tail[self.layout.beyond_domain]))
        if bound == 0.0 or bound <= STRAY_FLUX_RTOL * float(
                np.max(np.abs(np.diagonal(self.rate) * mu * mu))):
            return
        flux = np.abs(self.rate * np.outer(mu, mu))
        far = np.arange(self.grid.n)[None, :] >= self.layout.beyond_domain[:, None]
        if np.max(flux, where=far, initial=0.0) > STRAY_FLUX_RTOL * np.max(flux):
            raise PairOutOfRange(
                "joining flux targets a size beyond the grid end; "
                "enlarge the grid or cut the joining rate"
            )

    def loss_rate(self, u_values: np.ndarray) -> np.ndarray:
        """Per-cell joining loss rate against partners u: over the rate's
        support one dot product for a constant rate, else one GEMV; zero
        beyond it."""
        m = self.support
        out = np.zeros(self.grid.n)
        if self.constant_rate is not None:
            out[:m] = 2.0 * self.constant_rate * float(
                np.dot(u_values[:m], self.grid.widths[:m]))
            return out
        np.matmul(self.rate[:m, :m], u_values[:m] * self.grid.widths[:m], out=out[:m])
        out[:m] *= 2.0
        return out

    def apply(self, u_values: np.ndarray, *,
              loss_rate: Optional[np.ndarray] = None) -> np.ndarray:
        """The quadratic joining term Q(u); loss_rate, when the caller has
        it, is loss_rate(u_values), so it is not recomputed.  A geometric
        tile's GEMM, shares @ (table * mu[m - d]), is weighed by 2 mu[m]."""
        g = self.grid
        mu = u_values * g.widths
        if self.strays:
            self._check_stray(mu)
        sheared = _skew(mu)
        end = self.columns
        if g.spacing != "geometric":
            pairs = np.zeros(end)
            for g0, table, _ in self.tiles:
                g1 = g0 + table.shape[0]
                pairs[g0:] += mu[g0:g1] @ (table * sheared[g0:g1, g0:end])
            f = self.layout.frac[0]
            sums = np.multiply.outer((f, 1.0 - f), pairs)
        else:
            twice = 2.0 * mu
            sums = np.empty(self.targets.size)
            start = 0
            for g0, table, shares in self.tiles:
                out = sums[start:start + shares.shape[0] * table.shape[1]]
                out = out.reshape(shares.shape[0], table.shape[1])
                np.matmul(shares, table * sheared[g0:g0 + table.shape[0], g0:end], out=out)
                out *= twice[g0:end]
                start += out.size
        gain = np.bincount(self.targets, sums.ravel(), g.n)
        if loss_rate is None:
            loss_rate = self.loss_rate(u_values)
        return gain / g.widths - u_values * loss_rate


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
        rate, the scale of the solver's substep rule; one loss rate
        serves both.  Without joining the rate is frag.max_loss."""
        out = self.frag.apply(u_values)
        if self.join is None:
            return out, self.frag.max_loss
        loss = self.join.loss_rate(u_values)
        out = out + self.join.apply(u_values, loss_rate=loss)
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

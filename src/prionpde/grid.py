"""Size grids and cell-averaged densities.

The polymer-size domain is the interval (y0, ymax).  A grid partitions it
into n cells; densities are stored as per-cell averages, so the discrete
integral of u * y**k is a weighted dot product with the cell widths.
Midpoint weights make that dot product exact for densities that are
linear within each cell, which is the accuracy class everything else in
the package is built around.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Literal, get_args

import numpy as np

from .errors import BadBounds, NonFiniteSample, TooFewCells

__all__ = ["SizeGrid", "GridFunction", "build_grid", "project", "moment"]

# Gauss-Legendre, 3 point, on [-1, 1].
GAUSS3_NODES = np.array([-np.sqrt(3.0 / 5.0), 0.0, np.sqrt(3.0 / 5.0)])
GAUSS3_WEIGHTS = np.array([5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0])

Spacing = Literal["uniform", "geometric"]
SPACINGS = get_args(Spacing)


@dataclass(frozen=True)
class SizeGrid:
    """Partition of (y0, ymax) into n cells.

    Attributes
    ----------
    edges : (n+1,) increasing cell boundaries, edges[0] == y0.
    centers : (n,) cell midpoints.
    widths : (n,) cell widths.
    """

    y0: float
    ymax: float
    n: int
    spacing: Spacing
    edges: np.ndarray = field(repr=False)
    centers: np.ndarray = field(repr=False)
    widths: np.ndarray = field(repr=False)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SizeGrid):
            return NotImplemented
        return (
            self.n == other.n
            and self.spacing == other.spacing
            and self.y0 == other.y0
            and self.ymax == other.ymax
        )

    def __hash__(self) -> int:
        return hash((self.y0, self.ymax, self.n, self.spacing))


@dataclass
class GridFunction:
    """Cell-averaged density on a SizeGrid."""

    grid: SizeGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n,):
            raise ValueError(
                f"values shape {self.values.shape} does not match grid with {self.grid.n} cells"
            )

    def moment(self, order: int = 0) -> float:
        return moment(self.grid, self.values, order)

    def copy(self) -> "GridFunction":
        return GridFunction(self.grid, self.values.copy())


def build_grid(y0: float, ymax: float, n: int, spacing: Spacing = "geometric") -> SizeGrid:
    """Build a size grid on (y0, ymax).

    geometric spacing keeps the width ratio between neighbouring cells
    constant, which resolves the small-size end where fragmentation
    concentrates daughters; uniform spacing is the right choice when the
    transport shift per step should be the same number of cells
    everywhere.
    """
    if not (0.0 < y0 < ymax) or not np.isfinite(y0) or not np.isfinite(ymax):
        raise BadBounds(f"need 0 < y0 < ymax, got y0={y0!r} ymax={ymax!r}")
    if n < 4:
        raise TooFewCells(f"need at least 4 cells, got {n}")
    if spacing == "uniform":
        edges = np.linspace(y0, ymax, n + 1)
    elif spacing == "geometric":
        edges = y0 * (ymax / y0) ** (np.arange(n + 1) / n)
        edges[0] = y0
        edges[-1] = ymax
    else:
        raise ValueError(f"unknown spacing {spacing!r}")
    centers = 0.5 * (edges[:-1] + edges[1:])
    widths = np.diff(edges)
    return SizeGrid(
        y0=float(y0), ymax=float(ymax), n=int(n), spacing=spacing,
        edges=edges, centers=centers, widths=widths,
    )


def moment(grid: SizeGrid, values: np.ndarray, order: int = 0) -> float:
    """Discrete k-th moment of a cell-averaged density.

    Exact for the stored representation: each cell contributes its
    average value times the midpoint of y**order times the width, which
    integrates cellwise-linear integrands without error for order <= 1.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.n,):
        raise ValueError(f"values shape {values.shape}, grid has {grid.n} cells")
    if order == 0:
        return float(np.dot(values, grid.widths))
    return float(np.dot(values, grid.widths * grid.centers ** order))


def project(
    f: Callable[[np.ndarray], np.ndarray],
    grid: SizeGrid,
    rule: Literal["midpoint", "cellmean"] = "cellmean",
) -> GridFunction:
    """Project a callable density onto cell averages.

    cellmean uses a 3-point Gauss rule per cell (exact through degree 5);
    midpoint just samples at centers.  f must be vectorised over numpy
    arrays and finite on the grid.
    """
    if rule == "midpoint":
        vals = np.asarray(f(grid.centers), dtype=float)
    elif rule == "cellmean":
        # nodes[q, i] = center_i + 0.5 * width_i * xi_q
        nodes = grid.centers[None, :] + 0.5 * grid.widths[None, :] * GAUSS3_NODES[:, None]
        samples = np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape)
        vals = 0.5 * np.tensordot(GAUSS3_WEIGHTS, samples, axes=(0, 0))
    else:
        raise ValueError(f"unknown rule {rule!r}")
    if vals.shape != (grid.n,):
        raise NonFiniteSample(f"projected values have shape {vals.shape}")
    if not np.all(np.isfinite(vals)):
        bad = int(np.flatnonzero(~np.isfinite(vals))[0])
        raise NonFiniteSample(f"non-finite sample in cell {bad} (center {grid.centers[bad]!r})")
    return GridFunction(grid, vals)

"""Reference integrators kept for the tests: the generic array RK4 that
the moment oracle and the truncation horizons were first written on."""

from __future__ import annotations

from typing import Callable

import numpy as np

from prionpde._ode import rk4_step


def rk4_solve(f: Callable, y_init, t_grid, substeps: int = 1) -> np.ndarray:
    """Integrate y' = f(t, y) through the points of t_grid.

    Each interval of t_grid is split into `substeps` RK4 steps.  Returns
    an array of states, one row per t_grid entry (the first row is
    y_init).  States may be scalars or 1-d arrays.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or len(t_grid) < 1:
        raise ValueError("t_grid must be a non-empty 1-d sequence")
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    y = np.asarray(y_init, dtype=float)
    out = np.empty((len(t_grid),) + y.shape)
    out[0] = y
    for k in range(len(t_grid) - 1):
        t, t_next = t_grid[k], t_grid[k + 1]
        dt = (t_next - t) / substeps
        for j in range(substeps):
            y = rk4_step(f, t + j * dt, y, dt)
        out[k + 1] = y
    return out

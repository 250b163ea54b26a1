"""Nested-cutoff convergence: the compactness argument, numerically.

Well-posedness for unbounded rates comes from solving a ladder of
truncated problems (rates cut beyond a level-dependent radius, joining
cut beyond a pair-size cutoff) and passing to the limit. The discrete
analogue: plan a ladder of consistent levels, run each one, and watch
consecutive moment histories converge geometrically as the cutoffs
leave the populated sizes behind.

Each planned level certifies that the truncated run keeps its support
below the level's rate cutoff up to the horizon, so the cuts are never
felt by mass that matters - which is exactly why the ladder converges.
"""

import numpy as np

from prionpde import (
    GridTables,
    ModelParams,
    SolverConfig,
    build_grid,
    make_special_family,
    plan_truncation_levels,
    project,
    run,
    truncate,
)

params = ModelParams(production=1.0, degradation=0.5, saturation=0.0,
                     min_size=1.0)
# linearly growing splitting rate: the unbounded case the ladder is for
k = make_special_family(1.0, 0.1, 1.0, 0.2, params)
grid = build_grid(1.0, 200.0, 192, "geometric")

amp = 0.4 / (0.3 * np.sqrt(2.0 * np.pi))


def bump(y):
    y = np.asarray(y, dtype=float)
    vals = amp * np.exp(-0.5 * ((y - 3.0) / 0.3) ** 2)
    return np.where(np.abs(y - 3.0) <= 1.8, vals, 0.0)


u0 = project(bump, grid)
v0 = 2.0

levels = plan_truncation_levels(k, u0, v0, horizon_T=1.0,
                                indices=(1, 2, 4, 8),
                                pair_base=6.0, pair_step=6.0)
print("planned levels (pair cutoff / rate cutoff):")
for lv in levels:
    print(f"  level {lv.index}: {lv.pair_cutoff:g} / {lv.rate_cutoff:.2f}")

cfg = SolverConfig(dt=2e-3, t_end=1.0)
# every level keeps the daughter and the grid, so the rate-free tables
# are built once for the ladder
shared = GridTables.build(k.daughter, grid)
results = [run(u0n, v0, kn, cfg, shared)
           for kn, u0n in truncate(k, levels, 1.0, u0, v0)]

print(f"\n{'levels':>8} {'sup|dv|':>11} {'sup|dU0|':>11} {'sup|dU1|':>11}")
for (la, ra), (lb, rb) in zip(zip(levels, results),
                              zip(levels[1:], results[1:])):
    diffs = [float(np.max(np.abs(ra.ledger.column(n) - rb.ledger.column(n))))
             for n in ("v", "U0", "U1")]
    print(f"{f'{la.index}->{lb.index}':>8} {diffs[0]:11.3e} "
          f"{diffs[1]:11.3e} {diffs[2]:11.3e}")

print("\neach doubling of the level index moves the cutoffs further past "
      "the populated sizes; the differences collapse accordingly")

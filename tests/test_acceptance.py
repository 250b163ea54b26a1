"""Acceptance gate.

Ten criteria, one test each, every test printing a single PASS/FAIL
line with the measured numbers.  Expensive runs are shared through
module-scoped fixtures; everything is deterministic (fixed seeds, no
wall-clock dependence except the one runtime budget check).
"""

import time

import numpy as np
import pytest

from prionpde import (
    FragTables,
    JoiningTables,
    ModelParams,
    MomentOdeState,
    MomentRates,
    SolverConfig,
    build_grid,
    characteristic_map,
    compare,
    integrate_oracle,
    m2_bound_check,
    make_bounded_family,
    make_powerlaw_family,
    make_special_family,
    moment_ode_rhs,
    plan_truncation_levels,
    project,
    rates_from_kernel_set,
    run,
    support_bound,
    transport_remap,
    truncate,
    with_join_cutoff,
)

PARAMS = ModelParams(production=1.0, degradation=0.5, saturation=0.0,
                     min_size=1.0)
K_MAIN = make_special_family(1.0, 0.1, 0.5, 0.2, PARAMS)
GRID_MAIN = build_grid(1.0, 200.0, 400, "geometric")
V0 = 2.0
DTS = (1e-3, 5e-4, 2.5e-4, 1.25e-4)


def gaussian(center, width, count, cut=None):
    amp = count / (width * np.sqrt(2.0 * np.pi))

    def f(y):
        y = np.asarray(y, dtype=float)
        vals = amp * np.exp(-0.5 * ((y - center) / width) ** 2)
        if cut is not None:
            vals = np.where(np.abs(y - center) <= cut * width, vals, 0.0)
        return vals

    return f


U0_MAIN = project(gaussian(3.0, 0.3, 0.4), GRID_MAIN)


def report(num, ok, detail):
    line = f"ACCEPTANCE #{num:02d} {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


# -- shared expensive runs -------------------------------------------------

@pytest.fixture(scope="module")
def ladder():
    """Main-configuration runs at four halved step sizes, with wall times."""
    out = {}
    for dt in DTS:
        t0 = time.perf_counter()
        res = run(U0_MAIN, V0, K_MAIN,
                  SolverConfig(dt=dt, t_end=1.0,
                               snapshot_times=(0.25, 0.5, 0.75)))
        out[dt] = (res, time.perf_counter() - t0)
    return out


@pytest.fixture(scope="module")
def fine_oracle():
    rates = rates_from_kernel_set(K_MAIN)
    state0 = MomentOdeState(v=V0, U0=U0_MAIN.moment(0), U1=U0_MAIN.moment(1))
    return integrate_oracle(state0, rates, 1.0, 2e-5), rates


@pytest.fixture(scope="module")
def envelope_run():
    k = with_join_cutoff(make_bounded_family(1.0, 0.0, 0.0, 0.05, PARAMS),
                         40.0)
    grid = build_grid(1.0, 129.0, 64, "uniform")
    u0 = project(gaussian(8.0, 1.5, 0.2, cut=6.0), grid)
    live = np.nonzero(u0.values > 0.0)[0]
    s0 = float(grid.edges[live[-1] + 1])
    cfg = SolverConfig(dt=0.05, t_end=1.0,
                       snapshot_times=tuple(0.05 * i for i in range(1, 20)))
    return run(u0, 0.25, k, cfg), k, s0


@pytest.fixture(scope="module")
def truncation_runs():
    k = make_special_family(1.0, 0.1, 1.0, 0.2, PARAMS)
    grid = build_grid(1.0, 200.0, 256, "geometric")
    u0 = project(gaussian(3.0, 0.3, 0.4, cut=6.0), grid)
    levels = plan_truncation_levels(k, u0, V0, 1.0, (1, 2, 4, 8),
                                    pair_base=6.0, pair_step=6.0)
    cfg = SolverConfig(dt=2e-3, t_end=1.0)
    results = []
    for kn, u0n in truncate(k, levels, 1.0, u0, V0):
        results.append(run(u0n, V0, kn, cfg))
    return levels, results


@pytest.fixture(scope="module")
def m2_runs():
    k = make_powerlaw_family(params=PARAMS)
    out = {}
    for n in (96, 192):
        grid = build_grid(1.0, 300.0, n, "geometric")
        u0 = project(gaussian(3.0, 0.3, 0.4), grid)
        cfg = SolverConfig(dt=5e-3, t_end=0.3,
                           snapshot_times=(0.075, 0.15, 0.225))
        out[n] = run(u0, V0, k, cfg)
    return k, out


# -- criteria --------------------------------------------------------------

def test_01_monomer_balance(ladder):
    res, wall = ladder[1e-3]
    led = res.ledger
    budget = 1e-4 * (V0 + led.column("U1")[0])
    max_r = float(np.max(np.abs(led.column("balance_residual"))))
    max_r_half = float(np.max(np.abs(
        ladder[5e-4][0].ledger.column("balance_residual"))))
    ratio = max_r / max_r_half
    ok = max_r <= budget and ratio >= 3.5 and wall < 60.0
    report(1, ok,
           f"monomer balance: max|R| {max_r:.3e} <= {budget:.3e}, "
           f"dt-halving ratio {ratio:.2f} >= 3.5, wall {wall:.1f}s < 60s")


def test_02_oracle_equivalence(ladder, fine_oracle):
    traj, rates = fine_oracle
    errs = {name: [] for name in ("v", "U0", "U1")}
    for dt in DTS:
        rep = compare(ladder[dt][0].ledger, traj, rates)
        for name in errs:
            errs[name].append(rep[name])
    within = all(err <= 0.01 for seq in errs.values() for err in seq)
    monotone = all(a > b for seq in errs.values()
                   for a, b in zip(seq, seq[1:]))
    coarse = {name: seq[0] for name, seq in errs.items()}
    ok = within and monotone
    report(2, ok,
           f"oracle equivalence: rel errs at dt=1e-3 v {coarse['v']:.2e} "
           f"U0 {coarse['U0']:.2e} U1 {coarse['U1']:.2e} (<= 1e-2), "
           f"strictly decreasing over {len(DTS) - 1} dt-halvings: {monotone}")


def test_03_joining_conservation():
    rng = np.random.default_rng(20260822)
    grid = build_grid(1.0, 200.0, 64, "geometric")
    tab = JoiningTables.build(with_join_cutoff(K_MAIN, 100.0), grid)
    c, w = grid.centers, grid.widths
    worst = 0.0
    for trial in range(100):
        u = rng.uniform(0.0, 1.0, grid.n)
        if trial % 2:
            u *= rng.uniform(0.0, 1.0, grid.n) > 0.3
        q = tab.apply(u)
        resid = abs(float(np.dot(c, q * w)))
        scale = 2.0 * float(np.dot(c * u * (tab.rate @ (u * w)), w))
        worst = max(worst, resid / scale)

    grid8 = build_grid(1.0, 40.0, 8, "uniform")
    tab8 = JoiningTables.build(with_join_cutoff(K_MAIN, 20.0), grid8)
    c8, w8 = grid8.centers, grid8.widths
    worst8 = 0.0
    for _ in range(10):
        u = rng.uniform(0.0, 1.0, 8)
        gain = np.zeros(8)
        for i in range(8):
            for j in range(8):
                flux = tab8.rate[i, j] * u[i] * w8[i] * u[j] * w8[j]
                if flux == 0.0:
                    continue
                s = c8[i] + c8[j]
                if s <= c8[0]:
                    gain[0] += flux
                elif s >= c8[-1]:
                    gain[-1] += flux
                else:
                    p = int(np.searchsorted(c8, s, side="right") - 1)
                    frac = (c8[p + 1] - s) / (c8[p + 1] - c8[p])
                    gain[p] += flux * frac
                    gain[p + 1] += flux * (1.0 - frac)
        loss = 2.0 * u * (tab8.rate @ (u * w8))
        brute = gain / w8 - loss
        q8 = tab8.apply(u)
        worst8 = max(worst8, float(np.max(np.abs(brute - q8)))
                     / float(np.max(np.abs(q8))))

    ok = worst <= 1e-12 and worst8 <= 1e-12
    report(3, ok,
           f"joining conservation: first-moment residual {worst:.2e} over "
           f"100 random densities (N=64), brute-force pair-loop deviation "
           f"{worst8:.2e} (8 cells), both <= 1e-12")


def test_04_fragmentation_weak_identity():
    grid = build_grid(1.0, 200.0, 256, "geometric")
    tab = FragTables.build(K_MAIN, grid)
    mix = gaussian(3.0, 0.4, 0.5)
    mix2 = gaussian(12.0, 2.0, 0.3)
    u = project(lambda y: mix(y) + mix2(y), grid)
    c, w = grid.centers, grid.widths
    y0 = grid.y0
    # splitting operator alone: add degradation back
    frag_op = tab.apply(u.values) + tab.death_at_centers * u.values
    beta_uw = tab.frag_at_centers * u.values * w
    rels = {}
    for name, phi, inner in (
        ("one", np.ones_like(c), 2.0 * (c - y0) / c),
        ("size", c, (c ** 2 - y0 ** 2) / c),
    ):
        lhs = float(np.dot(phi, frag_op * w))
        rhs = float(np.dot(beta_uw, inner - phi))
        scale = float(np.dot(beta_uw, inner + phi))
        rels[name] = abs(lhs - rhs) / scale
    ok = all(rel <= 1e-6 for rel in rels.values())
    report(4, ok,
           f"splitting weak identity (N=256, uniform daughters, linear "
           f"rate): rel defect {rels['one']:.2e} (unit weight), "
           f"{rels['size']:.2e} (size weight), both <= 1e-6")


def test_05_positivity(ladder, envelope_run, truncation_runs, m2_runs):
    pool = [res for res, _ in ladder.values()]
    pool.append(envelope_run[0])
    pool.extend(truncation_runs[1])
    pool.extend(m2_runs[1].values())
    worst_u, min_v = 0.0, np.inf
    for res in pool:
        peak = max(float(np.max(s.u.values)) for s in res.snapshots)
        worst_u = min(worst_u, float(np.min(res.ledger.column("min_u")))
                      / max(peak, 1e-300))
        min_v = min(min_v, float(np.min(res.ledger.column("v"))))
    ok = worst_u >= -1e-12 and min_v > 0.0
    report(5, ok,
           f"positivity over {len(pool)} acceptance runs: "
           f"min u / peak {worst_u:.2e} >= -1e-12, min v {min_v:.4f} > 0")


def test_06_support_envelope(envelope_run):
    res, k, s0 = envelope_run
    env = support_bound(res, k, S0=s0, S1=40.0)
    led = res.ledger
    num = led.column("support_numeric")
    bnd = led.column("support_bound")
    slack = 2.0 * float(np.max(res.snapshots[0].u.grid.widths))
    margin = float(np.min(bnd + slack - num))
    consistent = np.allclose(env, bnd, rtol=1e-12, atol=0.0)
    ok = margin >= 0.0 and consistent
    report(6, ok,
           f"finite propagation speed: numeric support <= S(t) + 2 widths "
           f"at all {len(led)} rows (min margin {margin:.2f}), envelope "
           f"S(1) = {bnd[-1]:.3f} from pair cutoff 40")


def test_07_transport_exactness():
    k = make_special_family(1.0, 0.0, 0.0, 0.0, PARAMS)
    f_exact = gaussian(3.2, 0.3, 1.0)
    shift = 0.8
    errs = {}
    grids = {n: build_grid(1.0, 9.0, n, "uniform") for n in (256, 512)}
    for n, grid in grids.items():
        cm = characteristic_map(k.growth, grid)
        out = transport_remap(cm, project(f_exact, grid), shift)[0]
        ref = f_exact(grid.centers - shift)
        errs[n] = float(np.sum(np.abs(out.values - ref) * grid.widths))
    h_coarse = float(np.max(grids[256].widths))
    h_fine = float(np.max(grids[512].widths))
    c_fit = 2.0 * errs[256] / h_coarse ** 2
    second_order = errs[512] <= c_fit * h_fine ** 2

    grid = grids[512]
    cm = characteristic_map(k.growth, grid)
    f0 = project(f_exact, grid)
    direct = transport_remap(cm, f0, shift)[0]
    composed = transport_remap(cm, transport_remap(cm, f0, 0.37)[0], 0.43)[0]
    e_comp = float(np.sum(np.abs(composed.values - direct.values)
                          * grid.widths))
    comp_ok = e_comp <= 2.0 * errs[512]
    ok = second_order and comp_ok
    report(7, ok,
           f"transport exactness: L1 error {errs[256]:.2e} -> {errs[512]:.2e} "
           f"under halving (<= C h^2 with C fit at the coarse level), "
           f"composition defect {e_comp:.2e} <= 2x single error "
           f"{errs[512]:.2e}")


def test_08_truncation_convergence(truncation_runs):
    levels, results = truncation_runs
    diffs = []
    for ra, rb in zip(results, results[1:]):
        diffs.append({name: float(np.max(np.abs(
            ra.ledger.column(name) - rb.ledger.column(name))))
            for name in ("v", "U0", "U1")})
    halving = all(diffs[i][name] >= 2.0 * diffs[i + 1][name]
                  for i in range(len(diffs) - 1)
                  for name in ("v", "U0", "U1"))
    active = all(diffs[0][name] > 0.0 for name in ("v", "U0", "U1"))
    ok = halving and active
    u0_steps = [d["U0"] for d in diffs]
    report(8, ok,
           f"truncation convergence: consecutive-level sup differences in "
           f"U0 {u0_steps[0]:.2e} -> {u0_steps[1]:.2e} -> {u0_steps[2]:.2e} "
           f"(each rung >= 2x the next, first rung active), "
           f"pair cutoffs {[lv.pair_cutoff for lv in levels]}")


def test_09_second_moment_barrier(m2_runs):
    k, runs = m2_runs
    rep = m2_bound_check(runs[96], k, refined=runs[192])
    ok = (np.isfinite(rep["constant"]) and rep["constant"] > 0.0
          and rep["relative_change"] < 0.10
          and rep["theta"] == pytest.approx(1.5)
          and rep["zeta"] == pytest.approx(1.0))
    report(9, ok,
           f"second-moment barrier (theta=1.5, zeta=1): fitted C "
           f"{rep['constant']:.4f}, change {rep['relative_change']:.2%} "
           f"< 10% under grid doubling")


def test_10_oracle_self_checks():
    rates = rates_from_kernel_set(K_MAIN)
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        state = MomentOdeState(v=float(rng.uniform(0.0, 5.0)),
                               U0=float(rng.uniform(0.0, 5.0)),
                               U1=float(rng.uniform(0.0, 5.0)))
        d = moment_ode_rhs(state, rates)
        expected = (rates.production - rates.degradation * state.v
                    - rates.death * state.U1)
        worst = max(worst, abs((d.v + d.U1) - expected))

    eta, u0_init = 0.8, 2.0
    traj = integrate_oracle(MomentOdeState(v=0.0, U0=u0_init, U1=5.0),
                            MomentRates(join=eta, growth=1.0),
                            t_end=1.0, dt=1e-3)
    exact = u0_init / (1.0 + eta * u0_init * traj.times)
    riccati = float(np.max(np.abs(traj.U0 - exact)))
    ok = worst <= 1e-12 and riccati <= 1e-8
    report(10, ok,
           f"oracle self-checks: combined-mass identity residual "
           f"{worst:.2e} <= 1e-12 at 100 random states, closed-form "
           f"pure-joining deviation {riccati:.2e} <= 1e-8")

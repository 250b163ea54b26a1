"""Model data: reaction kernels, hypothesis validation, truncation.

A KernelSet bundles five evaluable closures (growth, death, frag,
daughter, join) with scalar model constants and a declared hypothesis
family.  The validator samples the declared hypotheses on a probe
lattice and reports residuals; it does not prove anything.  Truncation
produces a bounded kernel set with compactly supported reactions whose
runs provably stay inside a computable size horizon.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Sequence

import numpy as np

from ._ode import rk4_step
from .errors import (
    AsymmetricK0,
    LevelInconsistent,
    NonEvaluableKernel,
    NonPositiveTau,
    SupportExceedsGrid,
    UnknownFamily,
    UnnormalizedK0,
)
from .grid import GAUSS3_NODES, GAUSS3_WEIGHTS, GridFunction

__all__ = [
    "HypothesisFamily",
    "ModelParams",
    "GrowthConstants",
    "KernelSet",
    "TruncationLevel",
    "CheckResult",
    "ValidationReport",
    "make_special_family",
    "make_k0_family",
    "make_powerlaw_family",
    "make_bounded_family",
    "with_join_cutoff",
    "ConstantRate",
    "uniform_daughter",
    "validate_kernel_set",
    "truncate",
    "plan_truncation_levels",
    "smoothstep",
    "smooth_cut",
    "mollify_rate",
]

# A rate closure maps sizes to rates elementwise, for arrays of any shape
# (mollify_rate calls it on an array with a trailing quadrature axis).
RateFn = Callable[[np.ndarray], np.ndarray]
PairFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


class HypothesisFamily(Enum):
    BOUNDED_CLASSICAL = "bounded_classical"
    WEAK_UNBOUNDED = "weak_unbounded"


@dataclass(frozen=True)
class ModelParams:
    """Scalar model constants on the monomer side.

    production: constant monomer source; degradation: linear monomer
    loss rate; saturation: saturation constant in the polymerisation
    speed; min_size: smallest polymer size (left end of the domain).
    """

    production: float = 0.0
    degradation: float = 0.0
    saturation: float = 0.0
    min_size: float = 1.0

    def __post_init__(self) -> None:
        for name in ("production", "degradation", "saturation"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        if not (math.isfinite(self.min_size) and self.min_size > 0):
            raise ValueError(f"min_size must be finite and > 0, got {self.min_size}")


@dataclass(frozen=True)
class GrowthConstants:
    """Declared constants behind the hypothesis checks; fields are optional
    per family and the validator measures residuals against whatever is
    declared."""

    speed_floor: Optional[float] = None        # growth >= this everywhere
    speed_cap: Optional[float] = None          # bounded family: growth <= this
    speed_linear_cap: Optional[float] = None   # weak family: growth(y) <= this * y
    death_cap: Optional[float] = None
    frag_cap: Optional[float] = None
    join_cap: Optional[float] = None
    join_bound_scale: Optional[float] = None   # join <= scale*(y^l z^h + y^h z^l)
    join_exp_low: Optional[float] = None       # l, in [0, h]
    join_exp_high: Optional[float] = None      # h, in [l, 1]
    frag_floor_scale: Optional[float] = None   # frag(y) >= scale * y^exp ...
    frag_floor_exp: Optional[float] = None
    frag_floor_from: Optional[float] = None    # ... for y >= this
    daughter_mass_fraction: Optional[float] = None  # 2*int z*daughter over (min_size,y) <= this * y
    daughter_spread_from: Optional[float] = None
    daughter_spread_floor: Optional[float] = None

    @property
    def join_exp_total(self) -> Optional[float]:
        if self.join_exp_low is None or self.join_exp_high is None:
            return None
        return self.join_exp_low + self.join_exp_high


@dataclass(frozen=True)
class KernelSet:
    """The model data: five closures plus constants and declared family.

    growth(y): polymerisation rate factor, > 0.
    death(y): polymer degradation rate.
    frag(y): splitting rate.
    daughter(z, y): daughter-size density at z for a parent of size y;
        supported on 0 < z < y, number-normalized to 1, mass-normalized
        so twice its first moment equals y.
    join(y, z): pair joining rate; must be symmetric, which the joining
        loss assumes (JoiningTables.build refuses it otherwise).

    A daughter's structure is declared, not detected: uniform_daughter,
    the special, bounded and power-law families' daughter, gets O(n)
    closed-form fragmentation tables; any other is tabulated densely.
    So is a growth's constancy: a ConstantRate, the growth of the
    special, bounded, k0 and power-law families (mollifying one gives
    one), is transported without root-finding passes; any other growth,
    a closure returning a constant included, keeps the bracketed root
    finder.

    All closures must broadcast over numpy arrays and be evaluable on
    the whole probe range, not just the grid.  The rates growth, death
    and frag must act elementwise on arrays of any shape: truncation
    mollifies growth by one call on an array with an extra trailing
    axis.
    """

    growth: RateFn
    death: RateFn
    frag: RateFn
    daughter: PairFn
    join: PairFn
    params: ModelParams
    hypothesis_family: HypothesisFamily
    growth_constants: GrowthConstants
    join_zero_beyond: Optional[float] = None   # join == 0 once y+z exceeds this
    label: str = ""


@dataclass(frozen=True)
class TruncationLevel:
    """One level of the bounded-approximation ladder.

    pair_cutoff: join vanishes for pair sizes y+z beyond it (must exceed
    twice the minimum size); rate_cutoff: death and frag are cut to zero
    beyond it; mollifier_width: smoothing length for the growth rate and
    the join cutoff."""

    index: int
    pair_cutoff: float
    rate_cutoff: float
    mollifier_width: float

    def __post_init__(self) -> None:
        if self.index < 0:
            raise LevelInconsistent(f"level index must be >= 0, got {self.index}")
        if not self.mollifier_width > 0:
            raise LevelInconsistent("mollifier_width must be > 0")
        if self.rate_cutoff < self.index:
            raise LevelInconsistent(
                f"rate_cutoff {self.rate_cutoff} below level index {self.index}"
            )


# -- smooth cutoffs --------------------------------------------------------

def _half_bump(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    # exp(-1/x) underflows to exactly 0 for x <= ~1e-12, the right limit
    safe = np.maximum(x, 1e-12)
    return np.where(x > 0.0, np.exp(-1.0 / safe), 0.0)


def smoothstep(s):
    """C-infinity step: 0 for s <= 0, 1 for s >= 1, strictly increasing
    between.  Only the ramp 0 < s < 1 (and NaN) evaluates the half
    bumps; elsewhere the exact 0.0 or 1.0 of their ratio is written.  A
    scalar s gives a numpy scalar."""
    s = np.asarray(s, dtype=float)
    top = s >= 1.0
    out = np.where(top, 1.0, 0.0)
    ramp = ~(top | (s <= 0.0))
    r = s[ramp]
    a, b = _half_bump(r), _half_bump(1.0 - r)
    out[ramp] = a / (a + b)
    return out[()]


def smooth_cut(x, hi: float, width: float):
    """Smooth indicator of x below hi: identically 1 for x <= hi - width,
    identically 0 for x >= hi."""
    return smoothstep((hi - np.asarray(x, dtype=float)) / width)


_MOLLIFY_X, _mw = np.polynomial.legendre.leggauss(16)
_MOLLIFY_W = _mw * np.exp(-1.0 / (1.0 - _MOLLIFY_X**2))
_MOLLIFY_W /= _MOLLIFY_W.sum()


def mollify_rate(fn: RateFn, width: float, floor: Optional[float] = None) -> RateFn:
    """Smooth a rate by quadrature against a compactly supported bump of
    the given width.  Exact for affine rates; fn must be evaluable a
    width below the domain.  An optional hard floor is applied after
    smoothing.

    fn is called once per evaluation, on an array with one more axis
    than y (the 16 quadrature nodes last), so it must act elementwise on
    arrays of any shape.  The weighted node values are summed in node
    order, one after the other.  A ConstantRate's value is smoothed
    once, the same way, into a ConstantRate."""
    if not width > 0:
        raise ValueError("width must be > 0")
    if isinstance(fn, ConstantRate):
        value = np.add.accumulate(_MOLLIFY_W * fn.value)[-1]
        return ConstantRate(value if floor is None else np.maximum(value, floor))
    offsets = width * _MOLLIFY_X

    def smooth_fn(y):
        y = np.asarray(y, dtype=float)
        vals = np.asarray(fn(y[..., None] - offsets), dtype=float)
        acc = np.add.accumulate(_MOLLIFY_W * vals, axis=-1)[..., -1]
        if floor is not None:
            acc = np.maximum(acc, floor)
        return acc

    return smooth_fn


# -- family constructors ---------------------------------------------------

@dataclass(frozen=True)
class ConstantRate:
    """A rate with one value at every size, declared as such (mollify_rate
    keeps it so): transport inverts its characteristic map without
    passes and the support envelope reads the value without a call
    (operators.theta_inverse, diagnostics.LedgerAccumulator).  A closure
    returning a constant is an ordinary rate."""

    value: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", float(self.value))

    def __call__(self, y) -> np.ndarray:
        return np.full(np.shape(y), self.value, dtype=float)


def _linear_rate(slope: float) -> RateFn:
    slope = float(slope)

    def fn(y):
        return slope * np.asarray(y, dtype=float)

    return fn


def _const_pair(c: float) -> PairFn:
    c = float(c)

    def fn(y, z):
        shape = np.broadcast_shapes(np.shape(y), np.shape(z))
        return np.full(shape, c, dtype=float)

    return fn


def uniform_daughter(z, y):
    """Uniform daughter density 1/y on (0, y): the one daughter whose
    fragmentation tables are built in closed form (operators.GridTables)."""
    z = np.asarray(z, dtype=float)
    y = np.asarray(y, dtype=float)
    z, y = np.broadcast_arrays(z, y)
    safe = np.where(y > 0.0, y, 1.0)
    return np.where((z > 0.0) & (z < y), 1.0 / safe, 0.0)


def _daughter_from_profile(profile: Callable) -> PairFn:
    def daughter(z, y):
        z = np.asarray(z, dtype=float)
        y = np.asarray(y, dtype=float)
        z, y = np.broadcast_arrays(z, y)
        out = np.zeros(z.shape)
        inside = (z > 0.0) & (z < y) & (y > 0.0)
        if np.any(inside):
            s = z[inside] / y[inside]
            out[inside] = np.asarray(profile(s), dtype=float) / y[inside]
        return out

    return daughter


def _check_rates_sign(growth_value: float, *others: float) -> None:
    if not growth_value > 0:
        raise NonPositiveTau(f"growth rate must be > 0, got {growth_value}")
    for r in (growth_value, *others):
        if not (math.isfinite(r) and r >= 0):
            raise ValueError(f"rate constants must be finite and >= 0, got {r}")


def make_special_family(
    growth_value: float,
    death_value: float,
    frag_slope: float,
    join_value: float,
    params: Optional[ModelParams] = None,
) -> KernelSet:
    """Constant growth and death, splitting rate proportional to size,
    uniform daughter density, constant joining rate.  The family whose
    first two size moments close into a three-variable ODE system."""
    params = params or ModelParams()
    _check_rates_sign(growth_value, death_value, frag_slope, join_value)
    constants = GrowthConstants(
        speed_floor=growth_value,
        speed_linear_cap=growth_value / params.min_size,
        join_bound_scale=join_value / 2.0,
        join_exp_low=0.0,
        join_exp_high=0.0,
        frag_floor_scale=frag_slope,
        frag_floor_exp=1.0,
        frag_floor_from=params.min_size,
        daughter_spread_from=params.min_size,
        daughter_spread_floor=0.12,
    )
    return KernelSet(
        growth=ConstantRate(growth_value),
        death=ConstantRate(death_value),
        frag=_linear_rate(frag_slope),
        daughter=uniform_daughter,
        join=_const_pair(join_value),
        params=params,
        hypothesis_family=HypothesisFamily.WEAK_UNBOUNDED,
        growth_constants=constants,
        label="special",
    )


def make_k0_family(
    profile: Callable,
    params: Optional[ModelParams] = None,
    growth_value: float = 1.0,
    death_value: float = 0.0,
    frag_slope: float = 0.0,
    join_value: float = 0.0,
) -> KernelSet:
    """Like the special family but with the daughter density built from a
    self-similar profile on (0, 1).  The profile must be non-negative,
    symmetric about 1/2 and integrate to 1; both are checked eagerly by
    quadrature and sampling."""
    params = params or ModelParams()
    _check_rates_sign(growth_value, death_value, frag_slope, join_value)

    s = (np.arange(513) + 0.5) / 513.0
    try:
        vals = np.asarray(profile(s), dtype=float)
        vals_mirror = np.asarray(profile(1.0 - s), dtype=float)
    except Exception as exc:
        raise NonEvaluableKernel(f"daughter profile raised: {exc!r}") from exc
    if vals.shape != s.shape or not np.all(np.isfinite(vals)):
        raise NonEvaluableKernel("daughter profile returned non-finite values on (0,1)")
    scale = max(float(np.max(np.abs(vals))), 1.0)
    asym = float(np.max(np.abs(vals - vals_mirror)))
    if asym > 1e-8 * scale:
        raise AsymmetricK0(f"profile(s) != profile(1-s), max deviation {asym:.3e}")
    nodes, weights = graded_rule(1.0)
    total = float(np.dot(weights, np.asarray(profile(nodes), dtype=float)))
    if abs(total - 1.0) > 1e-8:
        raise UnnormalizedK0(f"profile integrates to {total!r}, expected 1")

    base = make_special_family(growth_value, death_value, frag_slope, join_value, params)
    return dataclasses.replace(
        base, daughter=_daughter_from_profile(profile), label="k0-profile"
    )


def make_powerlaw_family(
    growth_value: float = 1.0,
    death_value: float = 0.0,
    frag_slope: float = 0.5,
    join_scale: float = 0.1,
    join_exp_low: float = 0.5,
    join_exp_high: float = 1.0,
    params: Optional[ModelParams] = None,
) -> KernelSet:
    """Special family with a power-law joining rate
    join(y,z) = scale * (y**l * z**h + y**h * z**l), the regime where the
    second-moment bound diagnostics apply when l + h > 1."""
    params = params or ModelParams()
    _check_rates_sign(growth_value, death_value, frag_slope, join_scale)
    if not (0.0 <= join_exp_low <= join_exp_high <= 1.0):
        raise ValueError(
            f"need 0 <= low <= high <= 1, got ({join_exp_low}, {join_exp_high})"
        )
    el, eh, sc = float(join_exp_low), float(join_exp_high), float(join_scale)

    def join(y, z):
        y = np.asarray(y, dtype=float)
        z = np.asarray(z, dtype=float)
        return sc * (y**el * z**eh + y**eh * z**el)

    base = make_special_family(growth_value, death_value, frag_slope, 0.0, params)
    constants = dataclasses.replace(
        base.growth_constants,
        join_bound_scale=sc,
        join_exp_low=el,
        join_exp_high=eh,
        daughter_mass_fraction=0.95,
    )
    return dataclasses.replace(
        base, join=join, growth_constants=constants, label="powerlaw-join"
    )


def make_bounded_family(
    growth_value: float = 1.0,
    death_value: float = 0.0,
    frag_value: float = 0.0,
    join_value: float = 0.0,
    params: Optional[ModelParams] = None,
) -> KernelSet:
    """All rates constant, uniform daughter density: the bounded regime
    where classical solutions exist globally."""
    params = params or ModelParams()
    _check_rates_sign(growth_value, death_value, frag_value, join_value)
    constants = GrowthConstants(
        speed_floor=growth_value,
        speed_cap=growth_value,
        death_cap=death_value,
        frag_cap=frag_value,
        join_cap=join_value,
        daughter_spread_from=params.min_size,
        daughter_spread_floor=0.12,
    )
    return KernelSet(
        growth=ConstantRate(growth_value),
        death=ConstantRate(death_value),
        frag=ConstantRate(frag_value),
        daughter=uniform_daughter,
        join=_const_pair(join_value),
        params=params,
        hypothesis_family=HypothesisFamily.BOUNDED_CLASSICAL,
        growth_constants=constants,
        label="bounded",
    )


def with_join_cutoff(k: KernelSet, cutoff: float, width: Optional[float] = None) -> KernelSet:
    """Wrap the joining rate with a smooth pair-size cutoff: unchanged for
    y+z <= cutoff - width, identically zero for y+z >= cutoff.  Records
    the cutoff so downstream range checks can rely on it."""
    if not (math.isfinite(cutoff) and cutoff > 2.0 * k.params.min_size):
        raise ValueError(
            f"cutoff must be finite and exceed twice the minimum size, got {cutoff}")
    width = float(width) if width is not None else cutoff / 8.0
    if not (math.isfinite(width) and width > 0):
        raise ValueError(f"cutoff width must be finite and > 0, got {width}")
    base = k.join

    def join_cut(y, z):
        total = np.asarray(y, dtype=float) + np.asarray(z, dtype=float)
        return base(y, z) * smooth_cut(total, cutoff, width)

    return dataclasses.replace(
        k, join=join_cut, join_zero_beyond=float(cutoff), label=k.label + "+joincut"
    )


# -- validation ------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    family: HypothesisFamily
    checks: tuple

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]

    def format(self) -> str:
        lines = [f"kernel validation ({self.family.value}):"]
        for c in self.checks:
            mark = "pass" if c.passed else "FAIL"
            line = f"  [{mark}] {c.name}: residual {c.residual:.3e}"
            if c.detail:
                line += f"  ({c.detail})"
            lines.append(line)
        return "\n".join(lines)


def gauss_panels(lo: np.ndarray, hi: np.ndarray):
    """3-point Gauss nodes and weights on the panels (lo, hi), with a
    leading axis of length 3."""
    half = 0.5 * (hi - lo)
    return (0.5 * (lo + hi) + np.multiply.outer(GAUSS3_NODES, half),
            np.multiply.outer(GAUSS3_WEIGHTS, half))


def _panel_rule(a: float, b: float, panels: int):
    """Composite 3-point Gauss nodes/weights on (a, b)."""
    edges = np.linspace(a, b, panels + 1)
    return tuple(x.T.ravel() for x in gauss_panels(edges[:-1], edges[1:]))


def graded_rule(b: float, panels: int = 256):
    """Composite rule on (0, b) graded toward both endpoints via the
    substitution z = b*sin^2(pi t/2); integrates daughter densities with
    endpoint singularities to well below the 1e-8 check tolerance."""
    t, wt = _panel_rule(0.0, 1.0, panels)
    nodes = b * np.sin(0.5 * np.pi * t) ** 2
    weights = wt * b * 0.5 * np.pi * np.sin(np.pi * t)
    return nodes, weights


QUAD_CHUNK = 16384  # daughter-density evaluations per daughter call


def daughter_quadrature(daughter: PairFn, parents: np.ndarray, counts: np.ndarray,
                         panels, *factors):
    """Per-panel sums (w0 f0 + w1 f1) + w2 f2 of f = g(z, y) daughter(z, y)
    for each factor g, parent j owning counts[j] panels (non-decreasing).

    Walks the parents in chunks of whole rows of at most QUAD_CHUNK nodes
    (or one row), with one daughter call per chunk.  panels(a, b) gives
    the nodes and weights of parents a..b-1, broadcastable to (3, b - a,
    counts[b - 1]).  Yields (a, b, sums); the fixed order makes the sums
    independent of the chunking."""
    a = 0
    while a < len(parents):
        nodes = 3 * np.arange(1, len(parents) - a + 1) * counts[a:]
        b = a + max(1, int(np.searchsorted(nodes, QUAD_CHUNK, side="right")))
        z, w = panels(a, b)
        z, y = np.broadcast_arrays(z, parents[a:b, None])
        wk = w * np.asarray(daughter(z, y), dtype=float)
        yield a, b, [(f[0] + f[1]) + f[2] for f in (wk * g(z, y) for g in factors)]
        a = b


def panel_sums(daughter: PairFn, parents: np.ndarray, count: int, panels, *factors):
    """daughter_quadrature for parents owning count panels each: one
    (len(parents), count) array of panel sums per factor."""
    out = [np.empty((len(parents), count)) for _ in factors]
    for a, b, sums in daughter_quadrature(
            daughter, parents, np.full(len(parents), count), panels, *factors):
        for o, s in zip(out, sums):
            o[a:b] = s
    return out


def equal_panels(lo: float, parents: np.ndarray, count: int):
    """panels(a, b) of count equal Gauss panels on (lo, parent)."""
    t = np.linspace(0.0, 1.0, count + 1)

    def panels(a, b):
        edges = lo + (parents[a:b, None] - lo) * t
        return gauss_panels(edges[:, :-1], edges[:, 1:])

    return panels


def _eval_kernel(name: str, fn, *args):
    try:
        out = np.asarray(fn(*args), dtype=float)
    except Exception as exc:
        raise NonEvaluableKernel(f"{name} raised: {exc!r}") from exc
    if not np.all(np.isfinite(out)):
        raise NonEvaluableKernel(f"{name} returned non-finite values")
    return out


def validate_kernel_set(
    k: KernelSet, samples: int = 64, probe_max: Optional[float] = None
) -> ValidationReport:
    """Sample every declared hypothesis of the kernel set on a probe
    lattice, geometric in size up to probe_max (default 2^10 times the
    minimum size).  Returns a report with one entry per hypothesis; the
    asymptotic conditions are necessarily partial checks and say so in
    their detail strings."""
    if samples < 8:
        raise ValueError("need at least 8 samples")
    if not isinstance(k.hypothesis_family, HypothesisFamily):
        raise UnknownFamily(f"unknown hypothesis family {k.hypothesis_family!r}")
    y0 = k.params.min_size
    probe_max = float(probe_max) if probe_max is not None else 1024.0 * y0
    ys = y0 * (probe_max / y0) ** ((np.arange(samples) + 1.0) / samples)
    frac = (np.arange(samples) + 0.5) / samples
    gc = k.growth_constants
    tol = 1e-8
    checks = []

    def daughter(z, y):
        return _eval_kernel("daughter", k.daughter, z, y)

    growth_v = _eval_kernel("growth", k.growth, ys)
    death_v = _eval_kernel("death", k.death, ys)
    frag_v = _eval_kernel("frag", k.frag, ys)
    yy = ys[:, None]
    zz = frac[None, :] * yy
    daughter_v = _eval_kernel("daughter", k.daughter, zz, yy)
    join_v = _eval_kernel("join", k.join, yy, ys[None, :])

    # symmetry of the daughter density about half the parent size
    mirror = _eval_kernel("daughter", k.daughter, yy - zz, yy)
    scale = max(float(np.max(np.abs(daughter_v))), 1e-300)
    res = float(np.max(np.abs(daughter_v - mirror))) / scale
    checks.append(CheckResult("daughter_symmetry", res <= tol, res))

    # number and mass normalization of the daughter density; graded rule
    # keeps endpoint-singular profiles inside the tolerance
    num, mass = (x.sum(axis=1) for x in panel_sums(
        daughter, ys, 256,
        lambda a, b: [x.reshape(b - a, -1, 3).transpose(2, 0, 1)
                      for x in graded_rule(ys[a:b, None])],
        lambda z, y: 1.0, lambda z, y: z))
    num_res = float(np.max(np.abs(num - 1.0)))
    mass_res = float(np.max(np.abs(2.0 * mass - ys) / ys))
    checks.append(CheckResult("daughter_number_normalization", num_res <= tol, num_res))
    checks.append(CheckResult("daughter_mass_normalization", mass_res <= tol, mass_res))

    # joining symmetry
    scale = max(float(np.max(np.abs(join_v))), 1e-300)
    res = float(np.max(np.abs(join_v - join_v.T))) / scale
    checks.append(CheckResult("join_symmetry", res <= tol, res))

    # sign conditions
    res = -min(
        float(np.min(death_v)),
        float(np.min(frag_v)),
        float(np.min(join_v)),
        float(np.min(daughter_v)),
        0.0,
    )
    checks.append(CheckResult("rates_nonnegative", res <= 1e-12, res))

    if gc.speed_floor is not None:
        res = float(gc.speed_floor - np.min(growth_v))
        checks.append(CheckResult("growth_floor", res <= tol * gc.speed_floor, res))
    else:
        res = -float(np.min(growth_v))
        checks.append(CheckResult("growth_positive", float(np.min(growth_v)) > 0, res))

    if k.join_zero_beyond is not None:
        cut = k.join_zero_beyond
        yc = cut * (0.5 + 2.0 * frac)[:, None]
        zc = cut * (0.5 + 2.0 * frac)[None, :]
        over = (yc + zc) > cut
        res = float(np.max(np.abs(_eval_kernel("join", k.join, yc, zc) * over)))
        checks.append(CheckResult("join_cutoff_metadata", res == 0.0, res,
                                  f"declared zero beyond pair size {cut}"))

    if k.hypothesis_family is HypothesisFamily.BOUNDED_CLASSICAL:
        for name, vals, cap in (
            ("growth_bounded", growth_v, gc.speed_cap),
            ("death_bounded", death_v, gc.death_cap),
            ("frag_bounded", frag_v, gc.frag_cap),
            ("join_bounded", join_v, gc.join_cap),
        ):
            sup = float(np.max(vals))
            if cap is None:
                checks.append(CheckResult(name, np.isfinite(sup), sup,
                                          "finite sup on probe; no cap declared"))
            else:
                res = sup - cap
                checks.append(CheckResult(name, res <= tol * max(cap, 1.0), res,
                                          f"measured sup {sup:.6g} vs cap {cap:.6g}"))
    else:
        if gc.speed_linear_cap is not None:
            res = float(np.max(growth_v - gc.speed_linear_cap * ys))
            checks.append(CheckResult("growth_linear_cap", res <= tol, res))
        if gc.join_bound_scale is not None:
            el, eh = gc.join_exp_low, gc.join_exp_high
            ok = el is not None and eh is not None and 0.0 <= el <= eh <= 1.0
            checks.append(CheckResult(
                "join_exponents_admissible", ok,
                0.0 if ok else 1.0, f"low={el} high={eh}"))
            dy = y0 * 2.0 ** np.arange(11.0)
            dj = _eval_kernel("join", k.join, dy[:, None], dy[None, :])
            bound = gc.join_bound_scale * (
                dy[:, None] ** el * dy[None, :] ** eh
                + dy[:, None] ** eh * dy[None, :] ** el
            )
            res = float(np.max(dj - bound * (1.0 + 1e-9)))
            checks.append(CheckResult("join_growth_envelope", res <= 0.0, max(res, 0.0),
                                      "sampled on a dyadic lattice"))
        total = gc.join_exp_total
        if total is not None and total > 1.0:
            if gc.frag_floor_scale is not None:
                zeta = gc.frag_floor_exp
                ok_exp = zeta is not None and zeta > total - 1.0
                checks.append(CheckResult(
                    "frag_exponent_admissible", ok_exp, 0.0 if ok_exp else 1.0,
                    f"frag exp {zeta} vs join total {total}"))
                lo = gc.frag_floor_from if gc.frag_floor_from is not None else y0
                mask = ys >= lo
                res = float(np.max(
                    gc.frag_floor_scale * ys[mask] ** zeta - frag_v[mask]
                )) if np.any(mask) else 0.0
                checks.append(CheckResult("frag_lower_bound", res <= tol, max(res, 0.0)))
            if gc.daughter_mass_fraction is not None:
                a = gc.daughter_mass_fraction
                big = ys[ys >= 4.0 * y0]
                (mass,) = panel_sums(daughter, big, 64, equal_panels(y0, big, 64),
                                      lambda z, y: z)
                res = float(np.max(2.0 * mass.sum(axis=1) / big - a, initial=0.0))
                checks.append(CheckResult(
                    "daughter_large_size_mass", res <= tol, res,
                    f"requires 2*mass fraction above min_size <= {a}*y at large y"))

    # decay of the splitting flux through small daughter sets, probed on
    # shrinking dyadic subintervals (a finite surrogate for a sup over
    # all small sets)
    # all 7 dyadic levels at once: each (level, parent) owns 16 sets of 4
    # equal panels
    levels = 2.0 ** np.arange(2, 9)
    parents = np.tile(ys, levels.size)
    widths = parents / np.repeat(levels, samples)
    t = np.linspace(0.0, 1.0, 5)

    def small_sets(a, b):
        offs = np.linspace(0.0, parents[a:b] - widths[a:b], 16, axis=-1)
        edges = offs[:, :, None] + widths[a:b, None, None] * t
        return gauss_panels(edges[:, :, :-1].reshape(b - a, 64),
                             edges[:, :, 1:].reshape(b - a, 64))

    (flux,) = panel_sums(daughter, parents, 64, small_sets, lambda z, y: 1.0)
    flux = np.tile(frag_v, levels.size)[:, None] * flux.reshape(-1, 16, 4).sum(axis=2)
    series = flux.reshape(levels.size, -1).max(axis=1, initial=0.0).tolist()
    decays = all(series[i + 1] <= series[i] * (1.0 + 1e-12) for i in range(len(series) - 1))
    shrinks = series[-1] <= 0.5 * series[0] + 1e-300
    checks.append(CheckResult(
        "frag_flux_small_sets", decays and shrinks,
        series[-1] / series[0] if series[0] > 0 else 0.0,
        "partial check on dyadic sets; values " +
        ", ".join(f"{s:.3g}" for s in series)))

    if gc.daughter_spread_from is not None and gc.daughter_spread_floor is not None:
        y1, floor = gc.daughter_spread_from, gc.daughter_spread_floor
        wide = ys[ys >= 2.0 * y1]
        (spread,) = panel_sums(daughter, wide, 64, equal_panels(y1, wide, 64),
                                lambda z, y: 1.0 - z / y)
        res = float(np.max(floor - spread.sum(axis=1), initial=0.0))
        checks.append(CheckResult(
            "daughter_spread_floor", wide.size > 0 and res <= tol, res))

    return ValidationReport(family=k.hypothesis_family, checks=tuple(checks))


# -- truncation ------------------------------------------------------------

def _truncated_start(k: KernelSet, u0: GridFunction, v0: float,
                     horizon_T: float, pair_cutoffs: Sequence[float],
                     width: float):
    """(growth, u0 values, reaches) of truncation levels, one entry of the
    last two per pair cutoff: the growth rate mollified and floored at
    half its declared floor, the initial density smoothly cut at each
    pair cutoff, and the size its support can reach within horizon_T
    along that growth under the a priori speed bound.

    Every level's horizon ODE is integrated in one RK4 over a vector
    state, 256 steps of travel / 256 each: 256 rk4_step calls, or, for
    a ConstantRate growth, whose four stages are equal, rk4_step's
    increment formed once and added 256 times.  Levels that travel
    nowhere keep their start."""
    floor = k.growth_constants.speed_floor
    growth_n = mollify_rate(k.growth, width,
                            floor=None if floor is None else 0.5 * floor)
    grid = u0.grid
    # integral of the speed bound v0 + bound_mass + production*t over the
    # horizon; 64-panel composite midpoint, exact for this affine integrand
    tm = (np.arange(64) + 0.5) * horizon_T / 64.0
    u0n, starts, travels = [], [], []
    for pair_cutoff in pair_cutoffs:
        vals = u0.values * smooth_cut(grid.centers, pair_cutoff, width)
        supp = np.flatnonzero(vals > 0.0)
        s0 = float(grid.centers[supp[-1]]) if len(supp) else k.params.min_size
        bound_mass = float(np.dot(vals, grid.widths * grid.centers))
        u0n.append(vals)
        starts.append(max(s0, pair_cutoff))
        travels.append(float(np.sum(v0 + bound_mass + k.params.production * tm)
                             * horizon_T / 64.0))
    reach, travels = np.array(starts, dtype=float), np.array(travels)
    moving = travels > 0.0
    if np.any(moving):
        dt = travels[moving] / 256
        y = reach[moving]
        if isinstance(growth_n, ConstantRate):
            k1 = growth_n(y)
            step = (dt / 6.0) * (k1 + 2.0 * k1 + 2.0 * k1 + k1)
            for _ in range(256):
                y += step
        else:
            def speed(t, y):
                return growth_n(y)

            for j in range(256):
                y = rk4_step(speed, j * dt, y, dt)
        reach[moving] = y
    return growth_n, u0n, reach


def _cut_beyond(rate: RateFn, hi: float) -> RateFn:
    """rate, cut sharply to zero beyond hi."""
    def cut(y):
        y = np.asarray(y, dtype=float)
        return np.where(y <= hi, np.asarray(rate(y), dtype=float), 0.0)

    return cut


def truncate(
    k: KernelSet,
    levels: Sequence[TruncationLevel],
    horizon_T: float,
    u0: GridFunction,
    v0: float,
):
    """Cut the kernel set to each of the given levels and restrict the
    initial density accordingly; returns one (kernel set, initial
    density) per level, in order.  A single level is passed as [level].

    death and frag are cut sharply to zero beyond the rate cutoff,
    join is smoothly cut at the pair cutoff, growth is mollified and
    floored at half its declared floor; the initial density is smoothly
    cut at the pair cutoff.  Raises LevelInconsistent when a level's
    pair cutoff is not above twice the minimum size or its rate cutoff
    is below the size horizon reachable within horizon_T under the a
    priori speed bound, so a consistent level certifies that the
    truncated run keeps its support below rate_cutoff up to horizon_T;
    SupportExceedsGrid when the rate cutoff lies beyond the grid end.

    The levels, at least one, must share one mollifier width, as the
    levels of a planned ladder do (ValueError otherwise): their
    horizons are solved in one _truncated_start call, and each level's
    reach is the one a call for that level alone returns.
    """
    y0 = k.params.min_size
    for level in levels:
        if level.pair_cutoff <= 2.0 * y0:
            raise LevelInconsistent(
                f"pair cutoff {level.pair_cutoff} must exceed {2.0 * y0}"
            )
    widths = {level.mollifier_width for level in levels}
    if len(widths) != 1:
        raise ValueError(f"levels truncated together need one mollifier width, "
                         f"got {sorted(widths)}")
    (width,) = widths
    growth_n, u0n, reaches = _truncated_start(
        k, u0, v0, horizon_T, [level.pair_cutoff for level in levels], width)

    floor = k.growth_constants.speed_floor
    constants = dataclasses.replace(
        k.growth_constants,
        speed_floor=None if floor is None else 0.5 * floor,
    )
    out = []
    for level, u0n_vals, reach in zip(levels, u0n, reaches):
        if level.rate_cutoff < reach * (1.0 - 1e-9):
            raise LevelInconsistent(
                f"level {level.index}: rate cutoff {level.rate_cutoff:.6g} "
                f"below horizon reach {reach:.6g}"
            )
        if level.rate_cutoff > u0.grid.ymax:
            raise SupportExceedsGrid(
                f"rate cutoff {level.rate_cutoff:.6g} beyond grid end {u0.grid.ymax}"
            )
        kn = dataclasses.replace(
            with_join_cutoff(k, level.pair_cutoff, width),
            growth=growth_n,
            death=_cut_beyond(k.death, level.rate_cutoff),
            frag=_cut_beyond(k.frag, level.rate_cutoff),
            hypothesis_family=HypothesisFamily.BOUNDED_CLASSICAL,
            growth_constants=constants,
            label=k.label + f"+level{level.index}",
        )
        out.append((kn, GridFunction(u0.grid, u0n_vals)))
    return out


def plan_truncation_levels(
    k: KernelSet,
    u0: GridFunction,
    v0: float,
    horizon_T: float,
    indices: Sequence[int],
    pair_base: Optional[float] = None,
    pair_step: Optional[float] = None,
    mollifier_width: Optional[float] = None,
):
    """Build a consistent ladder of truncation levels for the given run.

    Pair cutoffs grow linearly in the level index; each rate cutoff is
    the running maximum of the horizon reaches, so every returned level
    passes the consistency check in truncate(), which verifies the whole
    ladder in one more horizon solve."""
    if not indices or any(i < 1 for i in indices):
        raise LevelInconsistent("level indices must be >= 1")
    indices = sorted(set(int(i) for i in indices))
    y0 = k.params.min_size
    pair_base = float(pair_base) if pair_base is not None else 4.0 * y0
    pair_step = float(pair_step) if pair_step is not None else 2.0 * y0
    if pair_base <= 2.0 * y0:
        raise LevelInconsistent(f"pair base {pair_base} must exceed {2.0 * y0}")
    width = (float(mollifier_width) if mollifier_width is not None
             else float(np.median(u0.grid.widths)))

    pair_cuts = [pair_base + pair_step * n for n in range(max(indices) + 1)]
    _, _, reaches = _truncated_start(k, u0, v0, horizon_T, pair_cuts, width)
    levels = []
    rate_cut = 0.0
    for n, (pair_cut, reach) in enumerate(zip(pair_cuts, reaches)):
        rate_cut = max(rate_cut, float(reach), float(n))
        if n in indices:
            levels.append(TruncationLevel(
                index=n, pair_cutoff=pair_cut, rate_cutoff=rate_cut,
                mollifier_width=width,
            ))
    return levels

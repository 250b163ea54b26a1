"""Run configuration: flat dotted-key text files.

One `key = value` per line, `#` starts a comment, values are scalars or
comma lists.  Every key has a default and carries its parser: files and
`RunConfig.with_overrides` both turn raw text into values through it, so
a `RunConfig` only ever holds parsed values.  Unknown keys are parse
errors so that manifests and hand-written files stay honest.
`resolved_text` serializes the full key set with round-tripping float
reprs, which is what makes a run manifest reproduce its run bit for bit.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Mapping, Optional, Tuple

import numpy as np

from .errors import BadBounds, ConfigParseError, NonPositiveTau, TooFewCells
from .grid import SPACINGS, GridFunction, SizeGrid, build_grid, project
from .kernels import (
    KernelSet,
    ModelParams,
    make_bounded_family,
    make_k0_family,
    make_powerlaw_family,
    make_special_family,
    with_join_cutoff,
)
from .operators import GridTables
from .solver import REACTION_INTEGRATORS, SPLITTINGS, SolverConfig

__all__ = ["RunConfig", "load_config", "parse_config_text", "DEFAULTS"]

FAMILIES = ("special", "k0", "powerlaw", "bounded")
K0_PROFILES: Mapping[str, Callable] = {
    "uniform": lambda s: np.ones_like(np.asarray(s, dtype=float)),
    "parabolic": lambda s: 6.0 * np.asarray(s, dtype=float) * (
        1.0 - np.asarray(s, dtype=float)),
}


# -- parsers: raw text (stripped) -> value, ValueError on refusal ------------

def _finite(raw: str) -> float:
    val = float(raw)
    if not math.isfinite(val):
        raise ValueError("must be finite")
    return val


def _finite_where(rule: str, holds: Callable[[float], bool]) -> Callable:
    def parse(raw: str) -> float:
        val = _finite(raw)
        if not holds(val):
            raise ValueError(f"must be {rule}, got {raw!r}")
        return val
    return parse


_positive = _finite_where("positive", lambda x: x > 0.0)


def _bool(raw: str) -> bool:
    if raw.lower() in ("true", "yes", "1"):
        return True
    if raw.lower() in ("false", "no", "0"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _optional(parse: Callable) -> Callable:
    return lambda raw: None if raw.lower() in ("none", "") else parse(raw)


def _comma_list(parse: Callable) -> Callable:
    return lambda raw: tuple(parse(part) for part in raw.split(",")) if raw else ()


def _choice(options) -> Callable:
    def parse(raw: str) -> str:
        if raw not in options:
            raise ValueError(f"expected one of {list(options)}, got {raw!r}")
        return raw
    return parse


# key -> (default text, parser)
DEFAULTS: Tuple[Tuple[str, str, Callable], ...] = (
    ("kernel.family", "special", _choice(FAMILIES)),
    ("kernel.growth", "1.0", _finite),
    ("kernel.death", "0.1", _finite),
    ("kernel.frag", "0.5", _finite),
    ("kernel.join", "0.2", _finite),
    ("kernel.join_exp_low", "0.5", _finite),
    ("kernel.join_exp_high", "1.0", _finite),
    ("kernel.join_cutoff", "none", _optional(_finite)),
    ("kernel.k0_profile", "uniform", _choice(K0_PROFILES)),
    ("model.production", "1.0", _finite),
    ("model.degradation", "0.5", _finite),
    ("model.saturation", "0.0", _finite),
    ("model.min_size", "1.0", _positive),
    ("grid.n_cells", "400", int),
    ("grid.ymax", "200.0", _finite),
    ("grid.spacing", "geometric", _choice(SPACINGS)),
    ("initial.monomer", "2.0", _finite),
    ("initial.center", "3.0", _finite),
    ("initial.width", "0.3", _positive),
    ("initial.count", "0.4", _finite_where("non-negative", lambda x: x >= 0)),
    ("initial.cut_sigmas", "none", _optional(_positive)),
    ("solver.dt", "0.001", _finite),
    ("solver.t_end", "1.0", _finite),
    ("solver.splitting", "strang", _choice(SPLITTINGS)),
    ("solver.reaction_integrator", "rk2", _choice(REACTION_INTEGRATORS)),
    ("solver.snapshot_times", "", _comma_list(_finite)),
    ("solver.tail_mass_bound", "none",
     _optional(_finite_where("non-negative", lambda x: x >= 0))),
    ("solver.positivity_tolerance", "none", _optional(_finite)),
    ("solver.skip_joining", "false", _bool),
    ("diagnostics.test_functions", "all", str),
    ("diagnostics.sigma", "", _comma_list(_finite)),
    ("diagnostics.uniform_integrability", "false", _bool),
    ("oracle.enabled", "false", _bool),
    ("oracle.dt", "0.0001", _positive),
    ("output.dir", "out", str),
    ("truncation.levels", "", _comma_list(int)),
    ("truncation.pair_base", "none", _optional(_finite)),
    ("truncation.pair_step", "none", _optional(_finite)),
    ("run.label", "", str),
)

_PARSERS = {key: parse for key, _, parse in DEFAULTS}


def _parse_value(key: str, raw: str):
    try:
        return _PARSERS[key](raw.strip())
    except ValueError as exc:
        raise ConfigParseError(f"bad value for {key}: {exc}") from exc


@contextmanager
def _refused_as_config_error(what: str):
    """A builder's refusal of a configured value is a ConfigParseError."""
    try:
        yield
    except (ValueError, BadBounds, TooFewCells, NonPositiveTau) as exc:
        raise ConfigParseError(f"bad {what} settings: {exc}") from exc


def _format_value(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(_format_value(v) for v in value)
    return str(value)


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run configuration; values() holds one entry per
    known key."""

    values: Mapping[str, object] = field(repr=False)

    def __getitem__(self, key: str):
        return self.values[key]

    def resolved_text(self) -> str:
        lines = [f"{key} = {_format_value(self.values[key])}"
                 for key in _PARSERS]
        return "\n".join(lines) + "\n"

    def with_overrides(self, raw: Mapping[str, str]) -> "RunConfig":
        """Copy with each dotted key's raw text parsed and set."""
        merged = dict(self.values)
        for key, text in raw.items():
            if key not in _PARSERS:
                raise ConfigParseError(f"unknown config key {key!r}")
            merged[key] = _parse_value(key, text)
        return RunConfig(values=merged)

    # -- builders ----------------------------------------------------------

    def model_params(self) -> ModelParams:
        return ModelParams(
            production=self["model.production"],
            degradation=self["model.degradation"],
            saturation=self["model.saturation"],
            min_size=self["model.min_size"],
        )

    def build_kernel(self) -> KernelSet:
        family = self["kernel.family"]
        growth = self["kernel.growth"]
        death = self["kernel.death"]
        frag = self["kernel.frag"]
        join = self["kernel.join"]
        cutoff = self["kernel.join_cutoff"]
        with _refused_as_config_error("kernel"):
            params = self.model_params()
            if family == "special":
                k = make_special_family(growth, death, frag, join, params)
            elif family == "k0":
                k = make_k0_family(K0_PROFILES[self["kernel.k0_profile"]],
                                   params, growth_value=growth,
                                   death_value=death, frag_slope=frag,
                                   join_value=join)
            elif family == "powerlaw":
                k = make_powerlaw_family(
                    growth_value=growth, death_value=death, frag_slope=frag,
                    join_scale=join,
                    join_exp_low=self["kernel.join_exp_low"],
                    join_exp_high=self["kernel.join_exp_high"],
                    params=params)
            else:  # "bounded", the last of FAMILIES
                k = make_bounded_family(growth, death, frag, join, params)
            if cutoff is not None:
                k = with_join_cutoff(k, cutoff)
        return k

    def build_grid(self) -> SizeGrid:
        with _refused_as_config_error("grid"):
            return build_grid(self["model.min_size"], self["grid.ymax"],
                              self["grid.n_cells"], self["grid.spacing"])

    def build_tables(self, k: KernelSet, grid: SizeGrid) -> GridTables:
        """GridTables of k's daughter on grid, joining unless skipped."""
        with _refused_as_config_error("grid"):
            return GridTables.build(k.daughter, grid,
                                    joining=not self["solver.skip_joining"])

    def build_initial(self, grid: Optional[SizeGrid] = None) -> GridFunction:
        grid = grid if grid is not None else self.build_grid()
        center = self["initial.center"]
        width = self["initial.width"]
        count = self["initial.count"]
        cut = self["initial.cut_sigmas"]
        amp = count / (width * math.sqrt(2.0 * math.pi))

        def density(y):
            y = np.asarray(y, dtype=float)
            vals = amp * np.exp(-0.5 * ((y - center) / width) ** 2)
            if cut is not None:
                vals = np.where(np.abs(y - center) <= cut * width, vals, 0.0)
            return vals

        return project(density, grid)

    def solver_config(self) -> SolverConfig:
        sigmas = self["diagnostics.sigma"]
        tf_raw = self["diagnostics.test_functions"]
        tfs = None
        if tf_raw.strip().lower() != "all":
            tfs = tuple(part.strip() for part in tf_raw.split(",")
                        if part.strip())
        with _refused_as_config_error("solver"):
            return SolverConfig(
                dt=self["solver.dt"],
                t_end=self["solver.t_end"],
                splitting=self["solver.splitting"],
                reaction_integrator=self["solver.reaction_integrator"],
                positivity_tolerance=self["solver.positivity_tolerance"],
                snapshot_times=self["solver.snapshot_times"],
                tail_mass_bound=self["solver.tail_mass_bound"],
                skip_joining=self["solver.skip_joining"],
                extra_moment=sigmas[0] if sigmas else None,
                uniform_integrability=self["diagnostics.uniform_integrability"],
                test_functions=tfs,
            )


def parse_config_text(text: str, source: str = "<string>") -> RunConfig:
    values: Dict[str, object] = {
        key: _parse_value(key, default) for key, default, _ in DEFAULTS}
    seen = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigParseError(
                f"{source}:{lineno}: expected 'key = value', got {line!r}")
        key, raw = body.split("=", 1)
        key = key.strip()
        if key not in _PARSERS:
            raise ConfigParseError(f"{source}:{lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigParseError(f"{source}:{lineno}: duplicate key {key!r}")
        seen.add(key)
        values[key] = _parse_value(key, raw)
    return RunConfig(values=values)


def load_config(path) -> RunConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigParseError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text, source=str(path))

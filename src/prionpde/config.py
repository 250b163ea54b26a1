"""Run configuration: flat dotted-key text files.

One `key = value` per line, `#` starts a comment, values are scalars or
comma lists.  Every key has a default; unknown keys are parse errors so
that manifests and hand-written files stay honest.  `resolved_text`
serializes the full key set with round-tripping float reprs, which is
what makes a run manifest reproduce its run bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Mapping, Optional, Tuple

import numpy as np

from .errors import ConfigParseError
from .grid import GridFunction, SizeGrid, build_grid, project
from .kernels import (
    KernelSet,
    ModelParams,
    make_bounded_family,
    make_k0_family,
    make_powerlaw_family,
    make_special_family,
    with_join_cutoff,
)
from .solver import SolverConfig

__all__ = ["RunConfig", "load_config", "parse_config_text", "DEFAULTS"]

FAMILIES = ("special", "k0", "powerlaw", "bounded")
K0_PROFILES = ("uniform", "parabolic")

# key -> (default string, parser kind)
DEFAULTS: Tuple[Tuple[str, str, str], ...] = (
    ("kernel.family", "special", "choice:" + ",".join(FAMILIES)),
    ("kernel.growth", "1.0", "float"),
    ("kernel.death", "0.1", "float"),
    ("kernel.frag", "0.5", "float"),
    ("kernel.join", "0.2", "float"),
    ("kernel.join_exp_low", "0.5", "float"),
    ("kernel.join_exp_high", "1.0", "float"),
    ("kernel.join_cutoff", "none", "optfloat"),
    ("kernel.k0_profile", "uniform", "choice:" + ",".join(K0_PROFILES)),
    ("model.production", "1.0", "float"),
    ("model.degradation", "0.5", "float"),
    ("model.saturation", "0.0", "float"),
    ("model.min_size", "1.0", "float"),
    ("grid.n_cells", "400", "int"),
    ("grid.ymax", "200.0", "float"),
    ("grid.spacing", "geometric", "choice:uniform,geometric"),
    ("initial.monomer", "2.0", "float"),
    ("initial.center", "3.0", "float"),
    ("initial.width", "0.3", "float"),
    ("initial.count", "0.4", "float"),
    ("initial.cut_sigmas", "none", "optfloat"),
    ("solver.dt", "0.001", "float"),
    ("solver.t_end", "1.0", "float"),
    ("solver.splitting", "strang", "choice:lie,strang"),
    ("solver.reaction_integrator", "rk2", "choice:euler,rk2"),
    ("solver.snapshot_times", "", "floatlist"),
    ("solver.tail_mass_bound", "none", "optfloat"),
    ("solver.positivity_tolerance", "none", "optfloat"),
    ("solver.skip_joining", "false", "bool"),
    ("diagnostics.test_functions", "all", "str"),
    ("diagnostics.sigma", "", "floatlist"),
    ("diagnostics.uniform_integrability", "false", "bool"),
    ("oracle.enabled", "false", "bool"),
    ("oracle.dt", "0.0001", "float"),
    ("output.dir", "out", "str"),
    ("truncation.levels", "", "intlist"),
    ("truncation.pair_base", "none", "optfloat"),
    ("truncation.pair_step", "none", "optfloat"),
    ("run.label", "", "str"),
)

_KEY_ORDER = tuple(key for key, _, _ in DEFAULTS)
_KINDS = {key: kind for key, _, kind in DEFAULTS}


def _parse_value(key: str, raw: str, kind: str):
    raw = raw.strip()
    try:
        if kind == "str":
            return raw
        if kind == "bool":
            if raw.lower() in ("true", "yes", "1"):
                return True
            if raw.lower() in ("false", "no", "0"):
                return False
            raise ValueError(f"expected a boolean, got {raw!r}")
        if kind == "int":
            return int(raw)
        if kind == "float":
            val = float(raw)
            if not math.isfinite(val):
                raise ValueError("must be finite")
            return val
        if kind == "optfloat":
            if raw.lower() in ("none", ""):
                return None
            val = float(raw)
            if not math.isfinite(val):
                raise ValueError("must be finite")
            return val
        if kind == "floatlist":
            if not raw:
                return ()
            vals = tuple(float(part) for part in raw.split(","))
            if not all(math.isfinite(val) for val in vals):
                raise ValueError("entries must be finite")
            return vals
        if kind == "intlist":
            if not raw:
                return ()
            return tuple(int(part) for part in raw.split(","))
        if kind.startswith("choice:"):
            options = kind.split(":", 1)[1].split(",")
            if raw not in options:
                raise ValueError(f"expected one of {options}, got {raw!r}")
            return raw
    except ValueError as exc:
        raise ConfigParseError(f"bad value for {key}: {exc}") from exc
    raise ConfigParseError(f"unhandled kind {kind!r} for {key}")


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
                 for key in _KEY_ORDER]
        return "\n".join(lines) + "\n"

    def with_overrides(self, **dotted) -> "RunConfig":
        merged = dict(self.values)
        for key, value in dotted.items():
            key = key.replace("__", ".")
            if key not in merged:
                raise ConfigParseError(f"unknown config key {key!r}")
            merged[key] = value
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
        params = self.model_params()
        family = self["kernel.family"]
        growth = self["kernel.growth"]
        death = self["kernel.death"]
        frag = self["kernel.frag"]
        join = self["kernel.join"]
        if family == "special":
            k = make_special_family(growth, death, frag, join, params)
        elif family == "k0":
            profile = _k0_profile(self["kernel.k0_profile"])
            k = make_k0_family(profile, params, growth_value=growth,
                               death_value=death, frag_slope=frag,
                               join_value=join)
        elif family == "powerlaw":
            k = make_powerlaw_family(
                growth_value=growth, death_value=death, frag_slope=frag,
                join_scale=join,
                join_exp_low=self["kernel.join_exp_low"],
                join_exp_high=self["kernel.join_exp_high"],
                params=params)
        elif family == "bounded":
            k = make_bounded_family(growth, death, frag, join, params)
        else:
            raise ConfigParseError(f"unknown kernel family {family!r}")
        cutoff = self["kernel.join_cutoff"]
        if cutoff is not None:
            k = with_join_cutoff(k, cutoff)
        return k

    def build_grid(self) -> SizeGrid:
        return build_grid(self["model.min_size"], self["grid.ymax"],
                          self["grid.n_cells"], self["grid.spacing"])

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
        try:
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
        except ValueError as exc:
            raise ConfigParseError(f"bad solver settings: {exc}") from exc


def _k0_profile(name: str) -> Callable:
    if name == "uniform":
        return lambda s: np.ones_like(np.asarray(s, dtype=float))
    if name == "parabolic":
        return lambda s: 6.0 * np.asarray(s, dtype=float) * (
            1.0 - np.asarray(s, dtype=float))
    raise ConfigParseError(f"unknown k0 profile {name!r}")


def parse_config_text(text: str, source: str = "<string>") -> RunConfig:
    values: Dict[str, object] = {
        key: _parse_value(key, default, kind) for key, default, kind in DEFAULTS}
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
        if key not in _KINDS:
            raise ConfigParseError(f"{source}:{lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigParseError(f"{source}:{lineno}: duplicate key {key!r}")
        seen.add(key)
        values[key] = _parse_value(key, raw, _KINDS[key])
    return RunConfig(values=values)


def load_config(path) -> RunConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigParseError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text, source=str(path))

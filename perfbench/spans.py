"""Span tracing for the per-layer benchmark run.

The benchmark records spans from its own files: ``layer_patches`` lists
the package functions to wrap, each patched where its caller looks it up
(module globals for functions, the class for methods), and ``patched``
restores every original on exit.  Spans are kept in memory; the caller
writes them out when the benchmark ends.

A span holds its name, start, end, parent span and run id.  Each thread
keeps its own parent stack; a span opened on a thread with an empty
stack (a worker of the truncation ladder's pool) takes the current
invocation's root as its parent.  Self time is a span's duration minus
the part of it that its children cover.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# Per-layer metric names and units, in the order BENCHMARK.json lists them.
PER_LAYER_UNITS: Tuple[Tuple[str, str], ...] = (
    ("operators.join_apply.calls_per_step", "count"),
    ("operators.join_apply.us_per_call", "us"),
    ("operators.join_apply.ms_per_step", "ms"),
    ("operators.join_apply.pairs_per_call", "count"),
    ("operators.join_apply.computed_bytes_per_call", "bytes"),
    ("diagnostics.ledger_advance.ms_per_step", "ms"),
    ("diagnostics.ledger_advance.self_ms_per_step", "ms"),
    ("diagnostics.ledger_advance.join_apply_ms_per_step", "ms"),
    ("operators.frag_apply.calls_per_step", "count"),
    ("operators.frag_apply.us_per_call", "us"),
    ("operators.frag_apply.computed_bytes_per_call", "bytes"),
    ("operators.transport_remap.us_per_call", "us"),
    ("operators.theta_inverse.us_per_call", "us"),
    ("solver.step.self_ms_per_step", "ms"),
    ("solver.react_substeps_per_step", "count"),
    ("operators.frag_build_s", "s"),
    ("operators.join_build_s", "s"),
    ("operators.characteristic_map_s", "s"),
    ("kernels.plan_truncation_levels_s", "s"),
    ("kernels.truncate_s", "s"),
    ("cli.truncation.run_overlap", "ratio"),
    ("oracle.integrate_s", "s"),
    ("oracle.compare_s", "s"),
    ("config.load_s", "s"),
    ("diagnostics.to_csv_s", "s"),
    ("cli.output_bytes", "bytes"),
    ("trace.traced_run_s", "s"),
    ("trace.overhead_s", "s"),
)


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the tracer's span list; -1 for a root
    run_id: int
    attrs: Optional[Dict[str, float]] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; safe to call from several threads."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._run_id = 0
        self._root = -1

    def _open(self, parent: Optional[int] = None) -> Tuple[list, int, int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if parent is None:
            parent = stack[-1] if stack else self._root
        with self._lock:
            idx = len(self.spans)
            self.spans.append(None)
        stack.append(idx)
        return stack, parent, idx

    def call(self, name: str, attrs, fn: Callable, args, kwargs):
        stack, parent, idx = self._open()
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans[idx] = Span(name, start, end, parent, self._run_id, attrs)

    @contextmanager
    def invocation(self, name: str):
        """Root span of one workload invocation; yields its run id."""
        self._run_id += 1
        stack, _, idx = self._open(parent=-1)
        self._root = idx
        start = time.perf_counter()
        try:
            yield self._run_id
        finally:
            end = time.perf_counter()
            stack.pop()
            self._root = -1
            self.spans[idx] = Span(name, start, end, -1, self._run_id)

    def records(self) -> List[list]:
        """Spans as plain lists, for writing out."""
        return [[s.name, s.start, s.end, s.parent, s.run_id, s.attrs]
                for s in self.spans]


# -- patching ---------------------------------------------------------------

def _join_attrs(tables, *_args) -> Dict[str, float]:
    return {"pairs": tables.rate.size,
            "bytes": (tables.rate.nbytes + tables.idx.nbytes
                      + tables.frac.nbytes + tables.beyond_domain.nbytes)}


def _frag_attrs(tables, *_args) -> Dict[str, float]:
    return {"bytes": (tables.deposit.nbytes + tables.frag_at_centers.nbytes
                      + tables.death_at_centers.nbytes)}


def layer_patches():
    """(owner, attribute, span name, attrs function) for every traced call."""
    from prionpde import cli, diagnostics, operators, solver

    return (
        (operators.JoiningTables, "apply", "operators.join_apply", _join_attrs),
        (operators.JoiningTables, "build", "operators.join_build", None),
        (operators.FragTables, "apply", "operators.frag_apply", _frag_attrs),
        (operators.FragTables, "build", "operators.frag_build", None),
        (operators, "theta_inverse", "operators.theta_inverse", None),
        (solver, "transport_remap", "operators.transport_remap", None),
        (solver, "characteristic_map", "operators.characteristic_map", None),
        (solver, "step", "solver.step", None),
        (solver, "run", "solver.run", None),
        (cli, "run", "solver.run", None),
        (diagnostics.LedgerAccumulator, "start", "diagnostics.ledger_start", None),
        (diagnostics.LedgerAccumulator, "advance", "diagnostics.ledger_advance", None),
        (diagnostics.DiagnosticsLedger, "to_csv", "diagnostics.to_csv", None),
        (cli, "plan_truncation_levels", "kernels.plan_truncation_levels", None),
        (cli, "truncate", "kernels.truncate", None),
        (cli, "integrate_oracle", "oracle.integrate", None),
        (cli, "compare", "oracle.compare", None),
        (cli, "load_config", "config.load", None),
        (cli, "cmd_simulate", "cli.simulate", None),
        (cli, "cmd_truncation", "cli.truncation", None),
    )


def _traced(tracer: Tracer, fn: Callable, name: str, attrs_fn) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        attrs = attrs_fn(*args) if attrs_fn is not None else None
        return tracer.call(name, attrs, fn, args, kwargs)

    return traced


@contextmanager
def patched(tracer: Tracer, patches: Sequence[tuple]):
    """Install the traced wrappers; restore every original on exit."""
    saved = []
    try:
        for owner, attr, name, attrs_fn in patches:
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                wrapper = classmethod(
                    _traced(tracer, original.__func__, name, attrs_fn))
            else:
                wrapper = _traced(tracer, original, name, attrs_fn)
            saved.append((owner, attr, original))
            setattr(owner, attr, wrapper)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# -- span arithmetic ---------------------------------------------------------

def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals
                     if min(b, hi) > max(a, lo))
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def _child_intervals(spans: Sequence[Span], members) -> Dict[int, list]:
    children: Dict[int, list] = defaultdict(list)
    for i in members:
        if spans[i].parent >= 0:
            children[spans[i].parent].append((spans[i].start, spans[i].end))
    return children


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part its children cover."""
    children = _child_intervals(spans, range(len(spans)))
    return [s.duration - covered_length(children[i], s.start, s.end)
            for i, s in enumerate(spans)]


def layer_metrics(spans: Sequence[Span], run_id: int,
                  output_bytes: int) -> Dict[str, float]:
    """Per-layer figures of one traced invocation.

    Per-step figures divide by the number of outer solver steps in the
    invocation (summed over the ladder's levels)."""
    by_name: Dict[str, List[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        if s.run_id == run_id:
            by_name[s.name].append(i)
    children = _child_intervals(
        spans, [i for members in by_name.values() for i in members])

    def total(name, where=lambda i: True):
        return sum(spans[i].duration for i in by_name[name] if where(i))

    def self_total(name):
        return sum(spans[i].duration
                   - covered_length(children[i], spans[i].start, spans[i].end)
                   for i in by_name[name])

    def count(name, where=lambda i: True):
        return sum(1 for i in by_name[name] if where(i))

    def per_call_us(name):
        n = count(name)
        return 1e6 * total(name) / n if n else 0.0

    def mean_attr(name, key):
        vals = [spans[i].attrs[key] for i in by_name[name]]
        return sum(vals) / len(vals) if vals else 0.0

    def parent_is(parent_name):
        return lambda i: (spans[i].parent >= 0
                          and spans[spans[i].parent].name == parent_name)

    steps = count("solver.step")
    if steps == 0:
        raise ValueError("the traced invocation took no solver steps")
    join, frag = "operators.join_apply", "operators.frag_apply"
    ledger = "diagnostics.ledger_advance"
    command = total("cli.truncation")
    return {
        "operators.join_apply.calls_per_step": count(join) / steps,
        "operators.join_apply.us_per_call": per_call_us(join),
        "operators.join_apply.ms_per_step": 1e3 * total(join) / steps,
        "operators.join_apply.pairs_per_call": mean_attr(join, "pairs"),
        "operators.join_apply.computed_bytes_per_call": mean_attr(join, "bytes"),
        "diagnostics.ledger_advance.ms_per_step": 1e3 * total(ledger) / steps,
        "diagnostics.ledger_advance.self_ms_per_step":
            1e3 * self_total(ledger) / steps,
        "diagnostics.ledger_advance.join_apply_ms_per_step":
            1e3 * total(join, parent_is(ledger)) / steps,
        "operators.frag_apply.calls_per_step": count(frag) / steps,
        "operators.frag_apply.us_per_call": per_call_us(frag),
        "operators.frag_apply.computed_bytes_per_call": mean_attr(frag, "bytes"),
        "operators.transport_remap.us_per_call":
            per_call_us("operators.transport_remap"),
        "operators.theta_inverse.us_per_call":
            per_call_us("operators.theta_inverse"),
        "solver.step.self_ms_per_step":
            1e3 * self_total("solver.step") / steps,
        # the RK2 reaction integrator evaluates the fragmentation operator
        # twice per substep
        "solver.react_substeps_per_step":
            count(frag, parent_is("solver.step")) / 2.0 / steps,
        "operators.frag_build_s": total("operators.frag_build"),
        "operators.join_build_s": total("operators.join_build"),
        "operators.characteristic_map_s": total("operators.characteristic_map"),
        "kernels.plan_truncation_levels_s":
            total("kernels.plan_truncation_levels"),
        "kernels.truncate_s": total("kernels.truncate"),
        "cli.truncation.run_overlap":
            total("solver.run") / command if command else 0.0,
        "oracle.integrate_s": total("oracle.integrate"),
        "oracle.compare_s": total("oracle.compare"),
        "config.load_s": total("config.load"),
        "diagnostics.to_csv_s": total("diagnostics.to_csv"),
        "cli.output_bytes": float(output_bytes),
    }

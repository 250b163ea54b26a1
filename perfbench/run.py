"""prionpde benchmark: one workload per call, every output checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics.  After a warm-up, the run
times ten horizon-0 invocations, then repeats (horizon-0 invocation,
full invocation) pairs until S seconds have passed:

  run_s        median wall time of a full invocation
  setup_s      median wall time of a horizon-0 invocation: table builds,
               characteristic map, ledger start, level planning
  ms_per_step  median over pairs of 1000 (run - setup) / outer steps
  peak_rss_mb  peak resident memory of this process, which ran only
               this workload
  pass_ratio   invocations that passed every check / invocations made

The fastest samples and every raw sample go to the result file too.

--trace 1 repeats (untraced, traced) pairs of full invocations for S
seconds and reports the per-layer metrics (median over the traced
invocations, see spans.py) and the tracing overhead.  A traced
invocation's outputs must be byte-identical to the untraced one's.

Each call writes its metrics, raw samples, environment and (for
--trace 1) every span to perfbench/out/<workload>-seed<N>-trace<T>.json.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 10
MIN_PAIRS = 3
END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "ms_per_step": "ms",
                    "peak_rss_mb": "MB", "pass_ratio": "ratio"}


def locate_program() -> bool:
    """Put the checkout's src/ first on the path and import the package
    from there; False when the checkout holds no package."""
    src = ROOT / "src"
    if not (src / "prionpde" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(src))
    import prionpde

    return Path(prionpde.__file__).resolve().parent == (src / "prionpde").resolve()


class Session:
    """Invocations of one workload in this process, with their checks."""

    def __init__(self, workload, seed: int, workdir: Path):
        self.wl = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.digest = None
        workload.start(seed, workdir)

    def invoke(self, t_end: float, around=None):
        """Time one invocation and check its outputs.  Returns (seconds,
        outcome); outcome is None when the invocation failed."""
        self.wl.reset(t_end)
        self.attempted += 1
        problems = []
        outcome = None
        start = time.perf_counter()
        try:
            if around is None:
                raw = self.wl.invoke(t_end)
            else:
                with around():
                    raw = self.wl.invoke(t_end)
        except Exception:  # the program failed; count it and go on
            seconds = time.perf_counter() - start
            problems.append(traceback.format_exc(limit=3).strip())
        else:
            seconds = time.perf_counter() - start
            outcome = self.wl.collect(raw)
            problems += self.wl.check(outcome, t_end)
            if t_end == self.wl.t_end:
                self.digest = self.digest or outcome.digest
                if outcome.digest != self.digest:
                    problems.append("outputs differ from the first full "
                                    "invocation's bytes")
        if problems:
            self.failed += 1
            self.problems += [f"t_end={t_end}: {p}" for p in problems]
            print(f"check failed (t_end={t_end}): {problems[0]}", file=sys.stderr)
            outcome = None
        return seconds, outcome

    def warm_up(self) -> None:
        self.invoke(0.0)
        self.invoke(2.0 * self.wl.dt)


def _keep_going(deadline: float, pairs: list, last: float) -> bool:
    return len(pairs) < MIN_PAIRS or time.perf_counter() + last <= deadline


def measure_end_to_end(session: Session, seconds: float) -> dict:
    wl = session.wl
    deadline = time.perf_counter() + seconds
    session.warm_up()
    setups = [session.invoke(0.0)[0] for _ in range(SETUP_SAMPLES)]
    pairs = []
    last = 0.0
    while _keep_going(deadline, pairs, last):
        t0 = time.perf_counter()
        setup, _ = session.invoke(0.0)
        full, _ = session.invoke(wl.t_end)
        setups.append(setup)
        pairs.append((setup, full))
        last = time.perf_counter() - t0
    steps = wl.steps(wl.t_end)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    fulls = [full for _, full in pairs]
    per_step = [1e3 * (full - setup) / steps for setup, full in pairs]
    values = {
        "run_s": statistics.median(fulls),
        "setup_s": statistics.median(setups),
        "ms_per_step": statistics.median(per_step),
        "peak_rss_mb": peak_kb / 1024.0,
        "pass_ratio": (session.attempted - session.failed) / session.attempted,
    }
    fastest = {"run_s": min(fulls), "setup_s": min(setups),
               "ms_per_step": min(per_step)}
    samples = {"setup_s": setups, "pairs": pairs, "steps": steps,
               "fastest": fastest}
    return {"values": values, "units": END_TO_END_UNITS, "samples": samples}


def measure_layers(session: Session, seconds: float) -> dict:
    import spans

    wl = session.wl
    deadline = time.perf_counter() + seconds
    session.warm_up()
    tracer = spans.Tracer()
    patches = spans.layer_patches()
    run_ids = []

    @contextmanager
    def traced():
        with spans.patched(tracer, patches), \
                tracer.invocation(wl.name) as run_id:
            run_ids.append(run_id)
            yield

    pairs, layers = [], []
    last = 0.0
    while _keep_going(deadline, pairs, last):
        t0 = time.perf_counter()
        plain, _ = session.invoke(wl.t_end)
        # Session.invoke also requires the traced outputs to be
        # byte-identical to the untraced ones.
        with_trace, traced_out = session.invoke(wl.t_end, around=traced)
        pairs.append((plain, with_trace))
        if traced_out is not None:
            layers.append(spans.layer_metrics(tracer.spans, run_ids[-1],
                                              traced_out.output_bytes))
        last = time.perf_counter() - t0
    names = [name for name, _ in spans.PER_LAYER_UNITS
             if not name.startswith("trace.")]
    # with no traced invocation passing its checks the result is incorrect
    # and its per-layer figures read 0
    values = {name: statistics.median(layer[name] for layer in layers)
              if layers else 0.0 for name in names}
    plain_s = statistics.median(p for p, _ in pairs)
    traced_s = statistics.median(t for _, t in pairs)
    values["trace.traced_run_s"] = traced_s
    values["trace.overhead_s"] = traced_s - plain_s
    table_bytes = (values["operators.join_apply.computed_bytes_per_call"]
                   + values["operators.frag_apply.computed_bytes_per_call"])
    samples = {"pairs": pairs, "layers": layers, "table_bytes": table_bytes,
               "spans": tracer.records()}
    return {"values": values, "units": dict(spans.PER_LAYER_UNITS),
            "samples": samples}


def _blas_threads():
    """Thread count of the OpenBLAS numpy ships with, or None."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def _cache_bytes():
    """L1d, L2 and L3 sizes from the C library's sysconf (glibc names)."""
    try:
        libc = ctypes.CDLL(None)
        libc.sysconf.argtypes = [ctypes.c_int]
        libc.sysconf.restype = ctypes.c_long
    except (OSError, AttributeError):
        return {}
    names = {"l1d": 188, "l2": 191, "l3": 194}  # _SC_LEVEL*_CACHE_SIZE
    return {key: int(libc.sysconf(code)) for key, code in names.items()}


def environment(table_bytes=None) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    caches = _cache_bytes()
    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cache_bytes": caches,
        "machine": platform.machine(),
    }
    if table_bytes is not None and caches.get("l3"):
        env["table_bytes"] = table_bytes
        env["tables_fit_in_l3"] = table_bytes < caches["l3"]
        env["note"] = ("computed bytes are table nbytes; tables that fit in "
                       "the last-level cache make them no bandwidth measure")
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not locate_program():
        print(f"no prionpde package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import workloads

    wl = workloads.get(args.workload)
    if wl is None:
        names = ", ".join(w.name for w in workloads.WORKLOADS)
        print(f"unknown workload {args.workload!r}; choose from {names}",
              file=sys.stderr)
        return 2
    out_dir = HERE / "out"
    workdir = out_dir / f"work-{os.getpid()}"
    try:
        session = Session(wl, args.seed, workdir)
        measure = measure_layers if args.trace else measure_end_to_end
        result = measure(session, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env = environment(result["samples"].get("table_bytes"))
    values, units = result["values"], result["units"]
    record = {
        "workload": wl.name, "why": wl.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "t_end": wl.t_end,
        "dt": wl.dt, "threads": wl.threads, "env": env,
        "attempted": session.attempted, "failed": session.failed,
        "problems": session.problems, "metrics": values,
        "samples": result["samples"],
    }
    (out_dir / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record))
    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"attempted {session.attempted}  failed {session.failed}")
    print("env " + json.dumps(env))
    for name, value in values.items():
        print(f"  {name:52s} {value:16.6g} {units[name]}")
    print(json.dumps({
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

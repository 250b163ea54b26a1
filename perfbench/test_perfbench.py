"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench
"""

import json
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

if not run.locate_program():
    raise ImportError("prionpde not found under the checkout's src/")

import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("wl", workloads.WORKLOADS, ids=lambda w: w.name)
def test_tiny_horizon_smoke(wl, tmp_path):
    session = run.Session(wl, seed=1, workdir=tmp_path)
    _, setup = session.invoke(0.0)
    _, short = session.invoke(3 * wl.dt)
    assert session.failed == 0, session.problems
    assert [led["t"].size for led in setup.ledgers] == [1] * wl.runs_per_invocation
    assert [led["t"].size for led in short.ledgers] == [4] * wl.runs_per_invocation
    assert wl.steps(3 * wl.dt) == 3 * wl.runs_per_invocation


def test_check_catches_a_broken_ledger(tmp_path):
    wl = workloads.get("main-geo400")
    wl.start(0, tmp_path)
    out = wl.collect(wl.invoke(2 * wl.dt))
    assert wl.check(out, 2 * wl.dt) == []
    out.ledgers[0]["min_u"] = out.ledgers[0]["min_u"] - 1.0
    out.ledgers[0]["balance_residual"] = out.ledgers[0]["balance_residual"] + 1.0
    problems = wl.check(out, 2 * wl.dt)
    assert any("negative density" in p for p in problems)
    assert any("balance residual" in p for p in problems)


def test_seed_zero_is_shipped_and_others_stay_close():
    assert workloads.gaussian_params(0) == workloads.SHIPPED_GAUSSIAN
    assert workloads.gaussian_params(7) == workloads.gaussian_params(7)
    assert workloads.gaussian_params(7) != workloads.gaussian_params(8)
    for seed in range(1, 50):
        for got, base in zip(workloads.gaussian_params(seed),
                             workloads.SHIPPED_GAUSSIAN):
            assert abs(got / base - 1.0) <= workloads.SEED_SPREAD


def test_self_time_on_hand_built_tree():
    S = spans.Span
    tree = [
        S("root", 0.0, 10.0, -1, 1),
        S("a", 1.0, 4.0, 0, 1),
        S("b", 3.0, 6.0, 0, 1),        # overlaps a, as a second thread would
        S("a.child", 2.0, 3.5, 1, 1),
        S("b.child", 5.0, 7.0, 2, 1),  # runs past its parent's end
    ]
    assert spans.self_times(tree) == pytest.approx([5.0, 1.5, 2.0, 1.5, 2.0])
    assert spans.covered_length([], 0.0, 1.0) == 0.0
    assert spans.covered_length([(0.0, 2.0), (1.0, 3.0), (5.0, 9.0)],
                                0.5, 6.0) == pytest.approx(3.5)


def test_layer_metrics_on_hand_built_tree():
    S = spans.Span
    join = {"pairs": 16, "bytes": 400}
    tree = [S("cli.truncation", 0.0, 10.0, -1, 1),
            S("solver.run", 0.0, 6.0, 0, 1),
            S("solver.run", 1.0, 9.0, 0, 1)]
    for k, t in enumerate((0.0, 1.0)):
        step = len(tree)
        tree += [S("solver.step", t, t + 0.5, 1 + k, 1),
                 S("operators.frag_apply", t, t + 0.1, step, 1, {"bytes": 8}),
                 S("operators.frag_apply", t + 0.1, t + 0.2, step, 1, {"bytes": 8}),
                 S("operators.join_apply", t + 0.2, t + 0.3, step, 1, join)]
        ledger = len(tree)
        tree += [S("diagnostics.ledger_advance", t + 0.5, t + 0.9, 1 + k, 1),
                 S("operators.join_apply", t + 0.6, t + 0.8, ledger, 1, join)]
    tree.append(S("solver.step", 0.0, 1.0, -1, 2))  # another run id
    m = spans.layer_metrics(tree, run_id=1, output_bytes=123)
    assert m["operators.join_apply.calls_per_step"] == 2.0
    assert m["operators.join_apply.us_per_call"] == pytest.approx(0.15e6)
    assert m["operators.join_apply.ms_per_step"] == pytest.approx(300.0)
    assert m["operators.join_apply.pairs_per_call"] == 16
    assert m["diagnostics.ledger_advance.ms_per_step"] == pytest.approx(400.0)
    assert m["diagnostics.ledger_advance.self_ms_per_step"] == pytest.approx(200.0)
    assert m["diagnostics.ledger_advance.join_apply_ms_per_step"] == pytest.approx(200.0)
    assert m["solver.step.self_ms_per_step"] == pytest.approx(200.0)
    assert m["solver.react_substeps_per_step"] == 1.0
    assert m["cli.truncation.run_overlap"] == pytest.approx(1.4)
    assert m["cli.output_bytes"] == 123.0
    assert set(m) == {name for name, _ in spans.PER_LAYER_UNITS
                      if not name.startswith("trace.")}


def test_every_patch_is_restored(tmp_path):
    patches = spans.layer_patches()
    before = [owner.__dict__[attr] for owner, attr, _, _ in patches]
    wl = workloads.get("main-geo400")
    wl.start(0, tmp_path)
    tracer = spans.Tracer()
    with spans.patched(tracer, patches), tracer.invocation(wl.name):
        wl.invoke(2 * wl.dt)
    names = {s.name for s in tracer.spans}
    assert {"solver.run", "solver.step", "operators.join_apply",
            "operators.join_build", "diagnostics.ledger_advance"} <= names
    with pytest.raises(RuntimeError):
        with spans.patched(tracer, patches):
            raise RuntimeError("fails while patched")
    after = [owner.__dict__[attr] for owner, attr, _, _ in patches]
    assert all(a is b for a, b in zip(before, after))


def test_benchmark_json_matches_the_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == [
        w.name for w in workloads.WORKLOADS]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        spans.PER_LAYER_UNITS)
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])


def test_traced_outputs_match_untraced(tmp_path):
    wl = workloads.get("simulate-uniform")
    session = run.Session(wl, seed=2, workdir=tmp_path)
    tracer = spans.Tracer()

    @contextmanager
    def traced():
        with spans.patched(tracer, spans.layer_patches()), \
                tracer.invocation(wl.name):
            yield

    _, plain = session.invoke(3 * wl.dt)
    _, with_trace = session.invoke(3 * wl.dt, around=traced)
    assert session.failed == 0, session.problems
    assert with_trace.digest == plain.digest
    assert {"cli.simulate", "oracle.integrate", "diagnostics.to_csv"} <= {
        s.name for s in tracer.spans}

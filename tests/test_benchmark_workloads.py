"""Every benchmark workload passes its own checks at seed 0 and its full
horizon.

The checks include final (v, U0, U1) against perfbench/reference.json to
rtol 1e-10 and, except for the ladder, the moment oracle.  Float drift
on the step path that breaks either would otherwise show only as a drop
in the benchmark's pass_ratio; here it fails the test suite first.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402  (needs the path above)


@pytest.mark.parametrize("wl", workloads.WORKLOADS, ids=lambda wl: wl.name)
def test_full_horizon_passes_the_checks(wl, tmp_path):
    wl.start(0, tmp_path / wl.name)
    wl.reset(wl.t_end)
    outcome = wl.collect(wl.invoke(wl.t_end))
    assert wl.check(outcome, wl.t_end) == []

"""Print every benchmark workload's seed-0, full-horizon output digest.

    python3 tools/digests.py WORKDIR

Runs each workload of perfbench/workloads.py once, at seed 0 and its full
horizon, in WORKDIR/<workload>, checks the outputs as the benchmark does
and prints one line per workload: its name and its Outcome.digest.  The
package is imported from this checkout's src/.  The CLI workloads hash
their run manifest, which records the output directory, so digests from
two checkouts compare only when both runs used the same WORKDIR.  Exits 1
when a check fails.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402  (needs the paths above)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workdir", help="directory the workloads run in")
    args = parser.parse_args(argv)
    workdir = Path(args.workdir).resolve()
    failed = False
    for wl in workloads.WORKLOADS:
        wl.start(0, workdir / wl.name)
        wl.reset(wl.t_end)
        outcome = wl.collect(wl.invoke(wl.t_end))
        problems = wl.check(outcome, wl.t_end)
        print(f"{wl.name} {outcome.digest}"
              + (f"  FAILED: {'; '.join(problems)}" if problems else ""))
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

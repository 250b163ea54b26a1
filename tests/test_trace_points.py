"""The benchmark's trace points stay resolvable and reached.

perfbench/spans.py patches package functions by name (module globals
for functions, the class for methods) and derives its per-layer metrics
from the spans they record.  A refactor that renames, moves or bypasses
one of them would zero a metric without failing anything, so this test
runs a three-step invocation of every workload under the patches and
requires each patch to record at least one span.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import spans  # noqa: E402  (needs the path above)
import workloads  # noqa: E402

STEPS = 3


def test_every_patch_is_reached(tmp_path):
    patches = spans.layer_patches()
    # one span name per entry, since two entries may share a name
    by_index = [(owner, attr, str(i), attrs)
                for i, (owner, attr, _name, attrs) in enumerate(patches)]
    tracer = spans.Tracer()
    for wl in workloads.WORKLOADS:
        wl.start(0, tmp_path / wl.name)
        t_end = STEPS * wl.dt
        wl.reset(t_end)
        with spans.patched(tracer, by_index), tracer.invocation(wl.name):
            raw = wl.invoke(t_end)
        assert wl.check(wl.collect(raw), t_end) == [], wl.name
    seen = {int(s.name) for s in tracer.spans if s.parent != -1}
    missing = [f"{owner.__name__}.{attr} ({name})"
               for i, (owner, attr, name, _) in enumerate(patches)
               if i not in seen]
    assert missing == []

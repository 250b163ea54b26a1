"""Suite-wide test settings: Hypothesis property tests are derandomized
and keep no example database.  Each test keeps its own max_examples and
deadline.

Derandomized draws are not fixed by the test alone.  Hypothesis (6.155)
also draws constants it collects from the local modules imported so far
(hypothesis/internal/conjecture/providers.py, _get_local_constants), so a
module run on its own can draw other examples than it does inside the
whole suite.  One command on one checkout draws the same examples each
time; a failure seen in one is pinned with @example."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

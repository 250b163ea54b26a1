"""Suite-wide test settings: every Hypothesis property test draws the
same examples on every run and keeps no example database, so a run
passes or fails the same way each time.  Each test keeps its own
max_examples and deadline."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

"""The suite runs the same hypothesis examples on every run: each test's
examples are fixed, not drawn at random, and no example database is read or
written, so a pass or a failure repeats."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

"""Hypothesis runs the same examples on every run of a commit: each test
derives its examples from its own name, and no example database carries
failures from one run into the next.  Each test keeps its own max_examples."""

from hypothesis import settings

settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")

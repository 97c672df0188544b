"""Shared test configuration.

``--hypothesis-profile=ci`` selects a profile with a fixed example
sequence and no per-example deadline, so every property test draws the
same examples on every run; each test's own ``max_examples`` stands.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)

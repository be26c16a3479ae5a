"""Shared pytest configuration.

The ``ci`` hypothesis profile (``--hypothesis-profile=ci``) draws a fixed
example sequence and drops the per-example deadline, so property tests
neither flake nor time out on a slow runner.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)

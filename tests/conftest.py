"""Test-suite set-up shared by every module."""

from hypothesis import settings

# property tests draw the same examples on every run, with no per-example deadline
settings.register_profile("trunca", derandomize=True, deadline=None)
settings.load_profile("trunca")

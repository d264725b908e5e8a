"""Hypothesis settings for the test suite.

Exact arithmetic makes example run times vary by orders of magnitude with
the drawn coefficients, so the profile sets no per-example deadline.  It
also prints the reproduction blob of every failure.
"""

from hypothesis import settings

settings.register_profile("default", deadline=None, print_blob=True)
settings.load_profile("default")

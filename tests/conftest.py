"""Hypothesis profiles.  ``ci`` (``pytest --hypothesis-profile=ci``) is
derandomized and keeps no example database, so the parser fuzz tests draw
the same cases on every run."""
from hypothesis import settings

settings.register_profile("ci", derandomize=True, database=None)

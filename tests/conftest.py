"""Test-session settings shared by every test module.

Hypothesis runs derandomized, with no example database, so the property
tests draw the same examples on every run and a tier-1 result can be
reproduced exactly.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")

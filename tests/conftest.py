"""Session settings for tier-1: Hypothesis draws the same examples on every
run, so whether the suite passes follows the code, not the draw."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")

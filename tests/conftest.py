"""One hypothesis profile for the suite: every property test draws the same
examples on every run, and none is timed out."""

from hypothesis import settings

settings.register_profile("korovkinlab", derandomize=True, deadline=None)
settings.load_profile("korovkinlab")

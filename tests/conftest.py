"""Every property test runs on hypothesis's recorded, derandomized seeds,
without a deadline: the profile is the default of each @settings, which
keeps only its own max_examples."""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")

"""Every property test runs on hypothesis's recorded, derandomized seeds,
without a deadline: the profile is the default of each @settings, which
keeps only its own max_examples."""

import pytest
from hypothesis import settings

settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")


@pytest.fixture
def counted_calls(monkeypatch):
    """count(owner, name, calls) makes each call of owner.name add one to
    calls[name] for the rest of the test."""
    def count(owner, name, calls):
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return count

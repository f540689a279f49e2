"""Shared fixtures and markers."""

import pytest


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: long-running analyses (heavy zoo queries)"
    )
    # pytest-timeout provides this marker in CI; register it here so the
    # chaos tests also run (without enforcement) where the plugin is
    # absent, e.g. bare local checkouts.
    config.addinivalue_line(
        "markers", "timeout(seconds): per-test wall-clock limit "
        "(enforced only when pytest-timeout is installed)"
    )


@pytest.fixture
def engines():
    """All exact engines, for agreement tests."""
    from repro.engines import (
        BruteForceEngine,
        LiftedEngine,
        LineageEngine,
        SafePlanEngine,
    )

    return {
        "brute": BruteForceEngine(),
        "lineage": LineageEngine(),
        "lifted": LiftedEngine(),
        "plan": SafePlanEngine(),
    }


@pytest.fixture
def parse_calls(monkeypatch):
    """Texts handed to ``parse`` by the serving layer's text memo.

    The memo (:func:`repro.serve.session.parsed_shape`) starts empty,
    and ``parse`` is swapped for a recording wrapper where the memo
    looks it up.
    """
    from repro.serve import session

    session.parsed_shape.cache_clear()
    calls = []
    real = session.parse

    def recording(text):
        calls.append(text)
        return real(text)

    monkeypatch.setattr(session, "parse", recording)
    return calls

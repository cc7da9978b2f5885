"""Fixtures shared by the test modules."""

import pytest

from bernstream import _cycles


@pytest.fixture
def no_table(monkeypatch):
    """Empty the cycle table, so every orbit closes on prng.cycle_blocks."""
    return lambda: monkeypatch.setattr(_cycles, "TABLE", "")

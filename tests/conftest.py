"""Shared test setup."""

import pytest

from neutral_lab import transmission


@pytest.fixture(autouse=True)
def _no_kept_elimination():
    """Start every test with no kept elimination, so no result depends on test order."""
    transmission._kept.clear()
    yield

"""Shared test setup."""

import pytest

from neutral_lab import transmission


@pytest.fixture(autouse=True)
def _no_kept_elimination():
    """Start every test with no kept elimination, so no result depends on test order."""
    transmission._kept.clear()
    yield


@pytest.fixture
def core_solves(monkeypatch):
    """The order of each core-block system solved: N for the dense solve, the rank of
    K*_in's kept Fourier modes for the low-rank one."""
    orders, solve = [], transmission._solve

    def counted(a, b, what):
        if what.startswith("transmission core block"):
            orders.append(len(a))
        return solve(a, b, what)

    monkeypatch.setattr(transmission, "_solve", counted)
    return orders

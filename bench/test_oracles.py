"""Checks of the benchmark's exact-field oracles.

Run from the root of a checkout: python3 -m pytest bench/test_oracles.py
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import oracles  # noqa: E402
from neutral_lab.designer import confocal_design, disk_matrix_conductivity  # noqa: E402

CORES = [0.0, 0.3, 5.0, math.inf]


@pytest.mark.parametrize("sigma_c", CORES)
@pytest.mark.parametrize("r2", [1.1, 1.5, 2.5])
def test_disk_dipole_vanishes_at_designed_matrix(sigma_c, r2):
    sm = disk_matrix_conductivity(sigma_c, 1.0, 1.0 / r2**2)
    for axis in (1, 2):
        sol = oracles.disk(1.0, r2, sigma_c, 1.0, sm, axis)
        assert abs(sol.dipole) <= 1e-13
        assert abs(oracles.disk(1.0, r2, sigma_c, 1.0, 1.2 * sm, axis).dipole) > 1e-3


@pytest.mark.parametrize("sigma_c", CORES)
@pytest.mark.parametrize("am1,r0", [(0.05, 1.25), (0.2, 1.5), (0.6, 1.3), (0.4, 2.5)])
def test_ellipse_dipole_vanishes_at_designed_matrix(sigma_c, am1, r0):
    dr = confocal_design(1.0, am1, r0, sigma_c, 1.0)
    inner = (1.0 + am1, 1.0 - am1)
    outer = (r0 + am1 / r0, r0 - am1 / r0)
    for axis in (1, 2):
        sol = oracles.confocal(inner, outer, sigma_c, 1.0, dr.sigma_m[axis - 1], axis)
        assert abs(sol.dipole) <= 1e-12
        spoiled = oracles.confocal(inner, outer, sigma_c, 1.0, 1.2 * dr.sigma_m[axis - 1], axis)
        assert abs(spoiled.dipole) > 1e-3


def test_ellipse_tends_to_disk():
    """A nearly round confocal pair has nearly the disk field."""
    am1, r0 = 1e-6, 1.6
    inner = (1.0 + am1, 1.0 - am1)
    outer = (r0 + am1 / r0, r0 - am1 / r0)
    pts = np.array([[3.0, 0.5], [-1.0, 2.5]])
    for axis in (1, 2):
        ell = oracles.confocal(inner, outer, 4.0, 1.0, 0.5, axis)
        dsk = oracles.disk(1.0, r0, 4.0, 1.0, 0.5, axis)
        for fn in (oracles.exterior, oracles.core):
            (u1, g1), (u2, g2) = fn(ell, pts), fn(dsk, pts)
            assert np.max(np.abs(u1 - u2)) < 1e-5
            assert np.max(np.abs(g1 - g2)) < 1e-5

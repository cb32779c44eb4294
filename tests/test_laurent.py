"""Mode-by-mode neutrality factors and map classification."""

import math

import numpy as np
import pytest

from neutral_lab.errors import ValidationError
from neutral_lab.geometry import LaurentMap
from neutral_lab.designer import confocal_design
from neutral_lab.laurent import (
    VERDICT_COMPATIBLE,
    VERDICT_DEGENERATE,
    VERDICT_INCOMPATIBLE,
    LaurentClassification,
    classify,
    neutrality_factor,
)


@pytest.fixture(scope="module")
def design():
    return confocal_design(1.0, 0.2, 1.5, 5.0, 1.0)


def test_factor_closed_form():
    f, r0, shear = 0.37, 1.4, -0.11
    for n in (1, 2, 5):
        expected = (1 - f * r0 ** (-2 * n)) * (1 - f * r0 ** (2 * n)) - shear**2
        assert neutrality_factor(n, f, r0, shear) == expected
        # the factor depends on |n| only
        assert neutrality_factor(-n, f, r0, shear) == neutrality_factor(n, f, r0, shear)
        # any integral order, a NumPy one from np.arange included
        assert neutrality_factor(np.int64(n), f, r0, shear) == neutrality_factor(n, f, r0, shear)


def test_design_sits_on_mode_one_zero(design):
    # the designed shear is exactly the square root of the mode-1 product
    assert abs(neutrality_factor(1, design.f, 1.5, design.shear)) < 1e-14
    for n in range(2, 6):
        assert neutrality_factor(n, design.f, 1.5, design.shear) < -1e-3


def test_factors_strictly_decreasing(design):
    for f in (0.1, 0.3, 0.5, 0.7, 0.9):
        for r0 in (1.2, 1.5, 2.0, 3.0):
            vals = [neutrality_factor(n, f, r0, 0.0) for n in range(1, 6)]
            assert all(b < a for a, b in zip(vals, vals[1:]))


def test_factor_validation():
    with pytest.raises(ValidationError):
        neutrality_factor(0, 0.4, 1.5, 0.0)
    with pytest.raises(ValidationError):
        neutrality_factor(True, 0.4, 1.5, 0.0)
    for bad in (np.int64(0), np.True_, 1.0, np.float64(1.0)):
        with pytest.raises(ValidationError):
            neutrality_factor(bad, 0.4, 1.5, 0.0)
    with pytest.raises(ValidationError):
        neutrality_factor(1, 1.2, 1.5, 0.0)
    with pytest.raises(ValidationError):
        neutrality_factor(1, 0.4, 0.9, 0.0)
    with pytest.raises(ValidationError):
        neutrality_factor(1, 0.4, 1.5, math.inf)


def test_classify_confocal_map(design):
    cls = classify(LaurentMap({1: 1.0, -1: 0.2}, 1.5), design.f, design.shear)
    assert cls.verdict == VERDICT_COMPATIBLE
    assert cls.is_compatible
    assert cls.support == (1,)
    assert cls.admissible == (1,)
    d = cls.as_dict()
    assert d["verdict"] == VERDICT_COMPATIBLE and d["support"] == [1]


def test_classify_higher_mode_content(design):
    cls = classify(LaurentMap({1: 1.0, -1: 0.2, 2: 0.1}, 1.5), design.f, design.shear)
    assert cls.verdict == VERDICT_INCOMPATIBLE
    assert cls.support == (1, 2)
    assert 2 not in cls.admissible


def test_classify_wrong_shear_incompatible(design):
    # confocal shape, but a shear that misses the mode-1 zero
    cls = classify(LaurentMap({1: 1.0, -1: 0.2}, 1.5), design.f, 0.0)
    assert cls.verdict == VERDICT_INCOMPATIBLE
    assert cls.support == (1,) and cls.admissible == ()


def test_classify_degenerate_support():
    cls = classify(LaurentMap({1: 1e-12}, 1.5), 0.4, 0.0)
    assert cls.verdict == VERDICT_DEGENERATE
    assert cls.support == ()


def test_classify_validation(design):
    with pytest.raises(ValidationError):
        classify(LaurentMap({1: 1.0}, 1.5), design.f, design.shear, tol=0.0)
    with pytest.raises(ValidationError):
        classify(LaurentMap({1: 1.0}, 1.5), design.f, design.shear, coeff_tol=-1.0)

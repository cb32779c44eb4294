"""Curves, discretizations, Laurent maps, and coated-inclusion geometry."""

import math

import numpy as np
import pytest

from neutral_lab.errors import GeometryError, ValidationError
from neutral_lab.geometry import (
    CoatedInclusion,
    Curve,
    LaurentMap,
    area,
    confocal_pair,
    discretize,
    laurent_domain,
    make_ellipse,
    winding_numbers,
)


def test_ellipse_fourier_coefficients():
    # z(t) = a cos t + i b sin t has c_{+1} = (a+b)/2, c_{-1} = (a-b)/2
    curve = make_ellipse(0.0, 2.0, 1.0)
    ks = np.arange(curve.k_min, curve.k_min + len(curve.coeffs))
    coeffs = dict(zip(ks, curve.coeffs))
    assert coeffs[1] == pytest.approx(1.5)
    assert coeffs[-1] == pytest.approx(0.5)
    assert curve.center == 0j
    assert curve.max_radius() == pytest.approx(2.0)


@pytest.mark.parametrize("a,b", [(1.0, 1.0), (2.0, 1.0), (1.3, 0.4)])
def test_ellipse_area_exact(a, b):
    curve = make_ellipse(0.0, a, b)
    assert curve.signed_area() == pytest.approx(math.pi * a * b, abs=1e-13)
    # trapezoid quadrature of <x, n>/2 is exact for trigonometric polynomials
    assert area(discretize(curve, 64)) == pytest.approx(math.pi * a * b, abs=1e-12)


def test_circle_discretization_quantities():
    r = 1.7
    d = discretize(make_ellipse(0.0, r, r), 128)
    assert np.sum(d.weights) == pytest.approx(2 * math.pi * r, abs=1e-12)
    assert d.curvature == pytest.approx(np.full(128, 1.0 / r), abs=1e-12)
    # outward normal on a centered circle is x/|x|
    assert d.normals == pytest.approx(d.nodes / r, abs=1e-12)


def test_ellipse_curvature_closed_form():
    a, b = 2.0, 1.0
    d = discretize(make_ellipse(0.0, a, b), 64)
    assert d.curvature[0] == pytest.approx(a / b**2, abs=1e-12)  # at (a, 0)
    assert d.curvature[16] == pytest.approx(b / a**2, abs=1e-12)  # at (0, b)


def test_orientation_normalized_to_ccw():
    # the ellipse written with the clockwise parameter z(-t)
    cw = Curve.from_coeffs([1.5, 0.0, 0.5], k_min=-1)
    assert cw.signed_area() > 0
    ccw = make_ellipse(0.0, 2.0, 1.0)
    t = np.linspace(0.0, 2 * math.pi, 7)
    assert np.max(np.abs(cw.point(t) - ccw.point(t))) < 1e-14


def test_degenerate_curves_rejected():
    with pytest.raises(ValidationError):
        Curve.from_coeffs([0.5, 0.0, 0.5], k_min=-1)  # flat segment, zero area
    with pytest.raises(ValidationError):
        Curve.from_coeffs([0.0], k_min=1)
    with pytest.raises(ValidationError):
        Curve.from_coeffs([2.0], k_min=0)  # constant only


def test_self_intersecting_curve_rejected():
    # limacon with an inner loop: e^{it} + 0.8 e^{2it}
    with pytest.raises(GeometryError, match="self-intersect"):
        Curve.from_coeffs([1.0, 0.8], k_min=1)


def test_vanishing_tangent_rejected():
    # cardioid cusp: e^{it} + 0.5 e^{2it} has z'(pi) = 0
    with pytest.raises(GeometryError, match="tangent"):
        Curve.from_coeffs([1.0, 0.5], k_min=1)


def test_winding_numbers():
    t = np.linspace(0.0, 2 * math.pi, 256, endpoint=False)
    loop = make_ellipse(0.0, 2.0, 1.0).point(t)
    pts = np.array([0.0 + 0.0j, 1.5 + 0.0j, 0.0 + 1.5j, 3.0 + 0.0j])
    assert list(winding_numbers(loop, pts)) == [1, 1, 0, 0]


def test_discretize_node_count_validation():
    curve = make_ellipse(0.0, 1.0, 1.0)
    with pytest.raises(ValidationError):
        discretize(curve, 15)
    with pytest.raises(ValidationError):
        discretize(curve, 33)


def test_make_ellipse_validation():
    with pytest.raises(ValidationError):
        make_ellipse(0.0, 1.0, 0.0)
    with pytest.raises(ValidationError):
        make_ellipse(0.0, 1.0, 2.0)
    with pytest.raises(ValidationError):
        make_ellipse(0.0, math.inf, 1.0)


def test_confocal_pair_shares_foci():
    a1, am1, r0 = 1.0, 0.2, 1.5
    inc = confocal_pair(a1, am1, r0)
    t = np.zeros(1)
    ai = float(inc.inner.point(t)[0].real)
    bi = float(inc.inner.point(np.array([math.pi / 2]))[0].imag)
    ao = float(inc.outer.point(t)[0].real)
    bo = float(inc.outer.point(np.array([math.pi / 2]))[0].imag)
    assert (ai, bi) == pytest.approx((a1 + am1, a1 - am1))
    assert (ao, bo) == pytest.approx((a1 * r0 + am1 / r0, a1 * r0 - am1 / r0))
    # both ellipses share focal distance squared 4 a1 a_-1
    assert ai**2 - bi**2 == pytest.approx(4 * a1 * am1, abs=1e-13)
    assert ao**2 - bo**2 == pytest.approx(4 * a1 * am1, abs=1e-13)
    inc.validate()


def test_confocal_pair_validation():
    with pytest.raises(ValidationError):
        confocal_pair(1.0, 1.0, 1.5)  # a_-1 must stay below a1
    with pytest.raises(ValidationError):
        confocal_pair(1.0, 0.2, 1.0)  # shell modulus must exceed 1
    with pytest.raises(ValidationError):
        confocal_pair(-1.0, 0.2, 1.5)
    with pytest.raises(ValidationError):
        confocal_pair(1.0, math.nan, 1.5)


def test_laurent_domain_matches_confocal_pair():
    m = LaurentMap({1: 1.0, -1: 0.2}, 1.5)
    via_map = laurent_domain(m)
    direct = confocal_pair(1.0, 0.2, 1.5)
    for built, ref in ((via_map.inner, direct.inner), (via_map.outer, direct.outer)):
        t = 2 * math.pi * np.arange(64) / 64
        assert np.max(np.abs(built.point(t) - ref.point(t))) < 1e-12


def test_laurent_map_validation():
    with pytest.raises(ValidationError):
        LaurentMap({1: 1.0, 0: 0.3}, 1.5)  # constant term forbidden
    with pytest.raises(ValidationError):
        LaurentMap({2: 1.0}, 1.5)  # a_1 must be nonzero
    with pytest.raises(ValidationError):
        LaurentMap({1: 1.0}, 1.0)  # modulus must exceed 1
    m = LaurentMap({1: 1.0, 2: 0.0, -3: 0.1}, 2.0)
    assert 2 not in m.coeffs  # zero coefficients are dropped
    assert m.max_order == 3


def test_laurent_domain_rejects_folded_maps():
    # outer image is a limacon with a loop (|2 a_2 r0 / a_1| > 1 at r0 = 1.2)
    with pytest.raises(GeometryError):
        laurent_domain(LaurentMap({1: 1.0, 2: 0.6}, 1.2))
    # derivative vanishes at |zeta| = sqrt(1.8) inside the annulus
    with pytest.raises(GeometryError):
        laurent_domain(LaurentMap({1: 1.0, -1: 1.8}, 1.5))


def test_coated_inclusion_containment_validation():
    small = make_ellipse(0.0, 1.0, 0.8)
    big = make_ellipse(0.0, 2.0, 1.8)
    with pytest.raises(GeometryError):
        CoatedInclusion(big, small).validate()
    shifted = make_ellipse((1.8, 0.0), 1.0, 0.8)
    with pytest.raises(GeometryError):
        CoatedInclusion(shifted, big).validate()


def test_laurent_map_json_roundtrip():
    m = LaurentMap({1: 1.0, -1: 0.2, 2: 0.05 + 0.01j}, 1.5)
    back = LaurentMap.from_json({"coeffs": {"1": 1.0, "-1": 0.2, "2": [0.05, 0.01]}, "r0": 1.5})
    assert back.coeffs == m.coeffs
    assert back.r0 == m.r0
    with pytest.raises(ValidationError):
        LaurentMap.from_json({"r0": 1.5})


def test_area_fraction_of_reference_shell():
    # inner pi(a1+am1)(a1-am1) over outer pi(a1 r0 + am1/r0)(a1 r0 - am1/r0)
    inc = confocal_pair(1.0, 0.2, 1.5)
    f = area(discretize(inc.inner, 256)) / area(discretize(inc.outer, 256))
    assert f == pytest.approx(864.0 / 2009.0, abs=1e-13)

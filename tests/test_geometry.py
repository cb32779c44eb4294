"""Curves, discretizations, Laurent maps, and coated-inclusion geometry."""

import math

import numpy as np
import pytest

from neutral_lab.errors import GeometryError, ValidationError
from neutral_lab.geometry import (
    CoatedInclusion,
    LaurentMap,
    _first_self_intersection,
    _winding,
    area,
    confocal_pair,
    discretize,
    laurent_domain,
    make_ellipse,
)
from neutral_lab.cli import _laurent_map


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


def test_self_intersecting_curve_rejected():
    # inner image is the limacon with an inner loop e^{it} + 0.8 e^{2it}
    with pytest.raises(GeometryError, match="^inner boundary image self-intersects near t = "):
        laurent_domain(LaurentMap({1: 1, 2: 0.8}, 1.5))


def _all_pairs_self_intersection(z):
    """Reference: the cross-product predicate on every non-adjacent segment pair."""
    pts = np.column_stack([z.real, z.imag])
    a, b = pts, np.roll(pts, -1, axis=0)
    m = len(pts)

    def cross(o, p, q):
        return (p[..., 0] - o[..., 0]) * (q[..., 1] - o[..., 1]) - (
            p[..., 1] - o[..., 1]
        ) * (q[..., 0] - o[..., 0])

    a_i, b_i = a[:, None, :], b[:, None, :]
    a_j, b_j = a[None, :, :], b[None, :, :]
    crossing = (cross(a_i, b_i, a_j) * cross(a_i, b_i, b_j) < 0) & (
        cross(a_j, b_j, a_i) * cross(a_j, b_j, b_i) < 0
    )
    gap = (np.arange(m)[None, :] - np.arange(m)[:, None]) % m
    hits = np.argwhere(crossing & (gap > 1) & (gap < m - 1))
    return None if len(hits) == 0 else (int(hits[0, 0]), int(hits[0, 1]))


def _random_polylines(rng):
    """Closed polylines with and without crossings, including collinear and touching cases."""
    for m in (4, 5, 8, 17, 64, 128):
        for _ in range(20):
            yield rng.normal(size=m) + 1j * rng.normal(size=m)  # mostly crossing
            t = np.sort(rng.uniform(0.0, 2 * math.pi, m))
            star = rng.uniform(0.5, 1.5, m) * np.exp(1j * t)
            yield star  # simple unless an angular gap exceeds pi
            k = rng.integers(1, 4)
            yield star + rng.uniform(0.0, 1.5) * np.exp(1j * k * t)  # sometimes crossing
            yield rng.integers(-3, 4, m) + 1j * rng.integers(-3, 4, m)  # exact, degenerate


def test_self_intersection_prefilter_matches_all_pairs():
    results = []
    for z in _random_polylines(np.random.default_rng(7)):
        expected = _all_pairs_self_intersection(z)
        assert _first_self_intersection(z) == expected
        results.append(expected is None)
    assert 0 < sum(results) < len(results)  # both verdicts occur


@pytest.mark.parametrize("samples,message", [
    (128, None),
    (256, None),
    (1024, "outer boundary image self-intersects near t = 3.123185"),
])
def test_laurent_domain_verdict_by_sampling(samples, message):
    # an M=3 map whose outer-image fold shows only at 1024 samples
    m = LaurentMap({1: 1, -3: -0.1045, -2: -0.0177, -1: 0.2256, 2: 0.2633, 3: -0.0054},
                   1.7183)
    if message is None:
        laurent_domain(m, samples=samples)
    else:
        with pytest.raises(GeometryError) as info:
            laurent_domain(m, samples=samples)
        assert str(info.value) == message


def test_vanishing_tangent_rejected():
    # inner image is the cardioid e^{it} + 0.5 e^{2it}, whose cusp z'(pi) = 0 is a sample
    with pytest.raises(GeometryError,
                       match=r"^tangent of the inner boundary image vanishes near t = 3\.141593$"):
        laurent_domain(LaurentMap({1: 1, 2: 0.5}, 1.5))


def test_winding_numbers():
    t = np.linspace(0.0, 2 * math.pi, 256, endpoint=False)
    loop = make_ellipse(0.0, 2.0, 1.0).point(t)
    pts = np.array([0.0 + 0.0j, 1.5 + 0.0j, 0.0 + 1.5j, 3.0 + 0.0j])
    assert list(_winding(loop[:, None] - pts[None, :])) == [1, 1, 0, 0]


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


# maps whose boundary images are simple and nested but whose inner image is
# clockwise: Phi' vanishes inside the annulus (at zeta = +-sqrt(1.8) for the
# first; twice, at |zeta| = 1.062, 1.018, 1.115, for three seeded M=3 maps)
REVERSED_MAPS = [
    ({1: 1.0, -1: 1.8}, 2.5),
    ({1: 1.0, -3: -0.36247678956746077, -2: 0.972234621421517, -1: -1.0070484260229395,
      2: 0.8226900576372567, 3: 0.19062483086326143}, 1.427239421750203),
    ({1: 1.0, -3: -0.41578435266568536, -2: 0.8874457855090119, -1: -1.039729597173259,
      2: 0.8272238794312925, 3: 0.36999192357230504}, 1.0795080133438946),
    ({1: 1.0, -3: -0.17334817411747405, -2: -0.5603170160336804, -1: -0.8472641561364788,
      2: 0.04318793207457339, 3: -0.07969642097500107}, 1.5085266702593463),
]


@pytest.mark.parametrize("coeffs,r0", REVERSED_MAPS)
@pytest.mark.parametrize("samples", [128, 256])
def test_laurent_domain_refuses_reversed_orientation(coeffs, r0, samples):
    m = LaurentMap(coeffs, r0)
    inner = m.circle_image(1.0)
    assert inner.signed_area() < 0 < m.circle_image(r0).signed_area()
    with pytest.raises(GeometryError, match="inner boundary image has reversed orientation"):
        laurent_domain(m, samples=samples)


def test_coated_inclusion_containment_validation():
    small = make_ellipse(0.0, 1.0, 0.8)
    big = make_ellipse(0.0, 2.0, 1.8)
    with pytest.raises(GeometryError):
        CoatedInclusion(big, small).validate()
    shifted = make_ellipse((1.8, 0.0), 1.0, 0.8)
    with pytest.raises(GeometryError):
        CoatedInclusion(shifted, big).validate()


def test_pair_check_messages_shared_with_laurent_domain():
    big = make_ellipse(0.0, 2.0, 1.8)
    with pytest.raises(GeometryError, match="^inner boundary image is not enclosed"):
        CoatedInclusion(make_ellipse((1.8, 0.0), 1.0, 0.8), big).validate()
    # an inner ellipse through the outer vertices (+-2, 0): zero-width shell
    with pytest.raises(GeometryError, match=r"^boundary images touch \(zero-width shell\)$"):
        CoatedInclusion(make_ellipse(0.0, 2.0, 1.0), big).validate()
    with pytest.raises(GeometryError, match="^inner boundary image is not enclosed"):
        laurent_domain(LaurentMap({1: 1.0, -1: 1.8}, 1.5))


def test_laurent_map_json_roundtrip():
    # the CLI turns a geometry.laurent section into a map; a missing key is a
    # malformed-config case of tests/test_cli.py
    g = {"type": "laurent", "coeffs": {"1": 1.0, "-1": 0.2, "2": [0.05, 0.01]}, "r0": 1.5}
    back = _laurent_map({"geometry": g}, "neutrality")
    assert back.coeffs == {1: 1.0, -1: 0.2, 2: 0.05 + 0.01j}
    assert back.r0 == 1.5


def test_area_fraction_of_reference_shell():
    # inner pi(a1+am1)(a1-am1) over outer pi(a1 r0 + am1/r0)(a1 r0 - am1/r0)
    inc = confocal_pair(1.0, 0.2, 1.5)
    f = area(discretize(inc.inner, 256)) / area(discretize(inc.outer, 256))
    assert f == pytest.approx(864.0 / 2009.0, abs=1e-13)

"""Closed-form coating design and its cross-checks against the solver."""

import math

import numpy as np
import pytest

from neutral_lab.errors import DesignError, ValidationError
from neutral_lab.geometry import confocal_pair
from neutral_lab.designer import (
    check_area_relation,
    confocal_design,
    disk_matrix_conductivity,
    reciprocal_dual,
    sigma_from_mu,
)
from neutral_lab.transmission import ConductivityProfile, neutrality_report

# reference design, (a1, a_-1, r0, sigma_c, sigma_s) = (1, 0.2, 1.5, 5, 1);
# f and the slopes are exact rationals, the rest closed-form evaluations
REFERENCE = {
    "f": 864.0 / 2009.0,
    "lam": 0.75,
    "shear": -0.16177202588352414,
    "dmu": 0.37615740740740741,
    "smu": -3.4878472222222222,
    "mu1": -1.5558449074074074,
    "mu2": -1.9320023148148148,
    "sigma_m1": 1.9471087969306659,
    "sigma_m2": 1.6983228935138412,
}


def test_reference_design_values():
    dr = confocal_design(1.0, 0.2, 1.5, 5.0, 1.0)
    assert dr.f == pytest.approx(REFERENCE["f"], abs=1e-14)
    assert dr.lam == REFERENCE["lam"]
    assert dr.shear == pytest.approx(REFERENCE["shear"], abs=1e-14)
    assert dr.dmu == pytest.approx(REFERENCE["dmu"], abs=1e-14)
    assert dr.smu == pytest.approx(REFERENCE["smu"], abs=1e-13)
    assert dr.mu1 == pytest.approx(REFERENCE["mu1"], abs=1e-13)
    assert dr.mu2 == pytest.approx(REFERENCE["mu2"], abs=1e-13)
    assert dr.sigma_m[0] == pytest.approx(REFERENCE["sigma_m1"], abs=1e-12)
    assert dr.sigma_m[1] == pytest.approx(REFERENCE["sigma_m2"], abs=1e-12)
    # bookkeeping identities
    assert dr.shear == pytest.approx(-dr.f * dr.dmu, abs=1e-15)
    assert dr.smu == pytest.approx(-2.0 * dr.lam / dr.f, abs=1e-13)
    d = dr.as_dict()
    assert d["sigma_m"] == list(dr.sigma_m) and d["lambda"] == dr.lam


def test_disk_matrix_conductivity_closed_form():
    assert disk_matrix_conductivity(5.0, 1.0, 0.5) == pytest.approx(2.0, abs=1e-15)
    # perfectly conducting core: sm = ss (1+f)/(1-f)
    assert disk_matrix_conductivity(math.inf, 1.0, 0.25) == pytest.approx(5.0 / 3.0)
    # insulating core
    f = 0.3
    expected = (1.0 - f) / (1.0 + f)
    assert disk_matrix_conductivity(0.0, 1.0, f) == pytest.approx(expected, abs=1e-15)
    with pytest.raises(ValidationError):
        disk_matrix_conductivity(5.0, 1.0, 1.0)
    with pytest.raises(ValidationError):
        disk_matrix_conductivity(-1.0, 1.0, 0.5)
    with pytest.raises(ValidationError):
        disk_matrix_conductivity(5.0, math.inf, 0.5)
    with pytest.raises(ValidationError, match="^core and shell conductivities must differ$"):
        disk_matrix_conductivity(1.0, 1.0, 0.5)


@pytest.mark.parametrize("sigma_c", [0.0, 0.1, 1.01, 5.0, math.inf])
@pytest.mark.parametrize("f", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_zero_shear_design_reduces_to_disks(sigma_c, f):
    # a_-1 = 0 gives concentric circles with area fraction 1/r0^2
    dr = confocal_design(1.0, 0.0, f ** -0.5, sigma_c, 1.0)
    sm = disk_matrix_conductivity(sigma_c, 1.0, f)
    assert dr.sigma_m[0] == pytest.approx(sm, rel=1e-12)
    assert dr.sigma_m[1] == pytest.approx(sm, rel=1e-12)
    assert dr.shear == 0.0 and dr.dmu == 0.0


def test_contrast_sum_opposes_lambda():
    # smu = -2 lam / f, so lam and smu always have opposite signs
    for sigma_c in (0.0, 0.2, 3.0, math.inf):
        for am1, r0 in ((0.0, 1.3), (0.4, 1.8), (0.7, 1.1)):
            dr = confocal_design(1.0, am1, r0, sigma_c, 1.0)
            assert dr.lam * dr.smu < 0


def test_sigma_from_mu_inverts_contrast():
    for sm in (0.3, 2.0, 7.5):
        mu = (1.0 + sm) / (2.0 * (1.0 - sm))
        assert sigma_from_mu(mu, 1.0) == pytest.approx(sm, rel=1e-14)
    # |mu| <= 1/2 has no positive conductivity
    for mu in (0.5, -0.5, 0.2, 0.0):
        with pytest.raises(DesignError):
            sigma_from_mu(mu, 1.0)
    assert sigma_from_mu(math.inf, 3.0) == 3.0
    with pytest.raises(ValidationError):
        sigma_from_mu(math.nan, 1.0)


def test_admissible_geometry_is_always_designable():
    # min(|mu1|, |mu2|) - 1/2 = (1 - am1/a1)(r0^2 - 1)/(2 f (r0^2 + am1/a1))
    # is positive for every admissible parameter combination, so the
    # designer never lands in the excluded contrast band
    for am1 in np.linspace(0.0, 0.95, 8):
        for r0 in (1.01, 1.3, 2.0, 4.0):
            for sigma_c in (0.0, 0.5, 2.0, math.inf):
                dr = confocal_design(1.0, float(am1), r0, sigma_c, 1.0)
                assert min(abs(dr.mu1), abs(dr.mu2)) > 0.5
                assert dr.sigma_m[0] > 0 and dr.sigma_m[1] > 0


def test_design_validation():
    with pytest.raises(ValidationError):
        confocal_design(1.0, 0.2, 1.5, 1.0, 1.0)  # core equals shell
    with pytest.raises(ValidationError):
        confocal_design(1.0, 0.2, 1.5, 5.0, -1.0)
    with pytest.raises(ValidationError):
        confocal_design(1.0, 1.2, 1.5, 5.0, 1.0)  # a_-1 too large


def test_reciprocal_dual_involution():
    p = ConductivityProfile(5.0, 1.0, (2.0, 4.0))
    d1 = reciprocal_dual(p, axis=1)
    assert (d1.sigma_c, d1.sigma_s, d1.sigma_m) == (0.2, 1.0, (0.5, 0.5))
    assert reciprocal_dual(d1, axis=1).sigma_m == (2.0, 2.0)
    # extreme cores swap under inversion
    assert reciprocal_dual(ConductivityProfile.isotropic(0.0, 1.0, 2.0)).sigma_c == math.inf
    assert reciprocal_dual(ConductivityProfile.isotropic(math.inf, 1.0, 2.0)).sigma_c == 0.0
    with pytest.raises(ValidationError):
        reciprocal_dual(p, axis=3)


def test_area_relation_quadrature_crosscheck():
    for am1, r0 in ((0.2, 1.5), (0.0, 1.3), (0.5, 2.0), (0.7, 1.2)):
        dr = confocal_design(1.0, am1, r0, 5.0, 1.0)
        inc = confocal_pair(1.0, am1, r0)
        assert check_area_relation(dr, inc) < 1e-12
    # mismatched geometry breaks the relation at the size of the f error
    dr = confocal_design(1.0, 0.2, 1.5, 5.0, 1.0)
    wrong = confocal_pair(1.0, 0.2, 1.6)
    assert check_area_relation(dr, wrong) > 1e-2


def test_design_profile_and_verify():
    dr = confocal_design(1.0, 0.2, 1.5, 5.0, 1.0)
    p = dr.profile(5.0, 1.0)
    assert p.sigma_m == dr.sigma_m
    rep = neutrality_report(confocal_pair(1.0, 0.2, 1.5), p, n=128)
    assert max(rep.residuals) < 1e-12


@pytest.mark.parametrize("sigma_c", [0.0, math.inf])
def test_extreme_contrast_designs_verify(sigma_c):
    dr = confocal_design(1.0, 0.2, 1.5, sigma_c, 1.0)
    expected = {
        0.0: (0.4596622889305816, 0.3218210361067504),
        math.inf: (3.107317073170732, 2.1755102040816325),
    }[sigma_c]
    assert dr.sigma_m == pytest.approx(expected, rel=1e-12)
    rep = neutrality_report(confocal_pair(1.0, 0.2, 1.5), dr.profile(sigma_c, 1.0), n=128)
    assert max(rep.residuals) < 1e-12

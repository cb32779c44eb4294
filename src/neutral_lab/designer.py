"""Closed-form coating design for neutral coated disks and confocal ellipses.

For concentric disks with area fraction f, a single isotropic matrix value
makes the inclusion invisible to all uniform fields:

    (ss + sc)(sm - ss) + f (ss - sc)(sm + ss) = 0.

For the confocal pair built from a1 zeta + a_-1/zeta on 1 <= |zeta| <= r0, the
matrix must be diagonal-anisotropic. With

    f     = (a1^2 - a_-1^2) / (a1^2 r0^2 - a_-1^2 r0^-2)      (area fraction)
    kappa = a_-1 (f r0^-2 - 1) / a1                           (boundary shear)

the contrast parameters solve mu1 + mu2 = -2 lam / f and mu1 - mu2 = -kappa/f,
and sigma_m^j = ss (2 mu_j - 1)/(2 mu_j + 1). kappa is the coefficient of the
non-conjugate term in the shell's inner boundary condition (and the quantity
whose square the Laurent factor condition tests); it is -f (mu1 - mu2), not
mu1 - mu2 itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DesignError, ValidationError
from .geometry import CoatedInclusion, _validate_confocal_params, area, discretize
from .report import Report
from .transmission import DEFAULT_NODES, ConductivityProfile, _check_core_shell, _core_contrast


@dataclass(frozen=True)
class DesignResult(Report):
    """Conductivities and contrast bookkeeping for a designed neutral coating."""

    sigma_m: tuple[float, float]
    f: float
    lam: float
    mu1: float
    mu2: float
    dmu: float  # mu1 - mu2
    smu: float  # mu1 + mu2
    shear: float  # kappa = -f * dmu; Laurent n=1 boundary coefficient

    def profile(self, sigma_c: float, sigma_s: float) -> ConductivityProfile:
        return ConductivityProfile(sigma_c, sigma_s, self.sigma_m)


def sigma_from_mu(mu: float, sigma_s: float) -> float:
    """Invert mu = (ss + sm)/(2(ss - sm)); needs |mu| > 1/2 for sm > 0."""
    if math.isnan(mu):
        raise ValidationError("mu is NaN")
    if math.isinf(mu):
        return sigma_s
    if abs(mu) <= 0.5:
        raise DesignError(
            f"contrast mu = {mu:.6f} has no positive conductivity (|mu| <= 1/2)"
        )
    return sigma_s * (2.0 * mu - 1.0) / (2.0 * mu + 1.0)


def disk_matrix_conductivity(sigma_c: float, sigma_s: float, f: float) -> float:
    """Isotropic matrix value neutralizing concentric disks of area fraction f.

    The a_-1 = 0 case of the confocal design: mu1 = mu2 = -lam/f, and
    |lam| >= 1/2 makes |mu| > 1/2, so a positive value always exists.
    """
    if not (0.0 < f < 1.0):
        raise ValidationError(f"area fraction must lie in (0, 1), got {f}")
    _check_core_shell(sigma_c, sigma_s)
    return sigma_from_mu(-_core_contrast(sigma_c, sigma_s) / f, sigma_s)


def confocal_design(
    a1: float, am1: float, r0: float, sigma_c: float, sigma_s: float
) -> DesignResult:
    """Anisotropic matrix pair neutralizing the (a1, a_-1, r0) confocal shell.

    Raises DesignError when a contrast lands in [-1/2, 1/2] (no positive
    conductivity realizes it).
    """
    _validate_confocal_params(a1, am1, r0)
    _check_core_shell(sigma_c, sigma_s)

    lam = _core_contrast(sigma_c, sigma_s)
    f = (a1**2 - am1**2) / (a1**2 * r0**2 - am1**2 / r0**2)
    shear = am1 * (f / r0**2 - 1.0) / a1
    dmu = -shear / f
    smu = -2.0 * lam / f
    mu1 = 0.5 * (smu + dmu)
    mu2 = 0.5 * (smu - dmu)
    sm = []
    for label, mu in (("1", mu1), ("2", mu2)):
        try:
            sm.append(sigma_from_mu(mu, sigma_s))
        except DesignError as exc:
            raise DesignError(f"axis {label}: {exc}") from None
    return DesignResult((sm[0], sm[1]), f, lam, mu1, mu2, dmu, smu, shear)


def reciprocal_dual(p: ConductivityProfile, axis: int = 1) -> ConductivityProfile:
    """Profile with reciprocal conductivities (1/sc, 1/ss, 1/sm_axis).

    The dual of a configuration neutral to the axis-j uniform field (with the
    isotropic matrix value sigma_m^j) is neutral to the orthogonal field. Its
    contrasts flip sign: lam -> -lam, mu_j -> -mu_j. The dual matrix is
    isotropic, so the map is an involution on isotropic profiles.
    """
    if axis not in (1, 2):
        raise ValidationError(f"axis must be 1 or 2, got {axis}")
    sc = p.sigma_c
    inv_c = 0.0 if math.isinf(sc) else math.inf if sc == 0.0 else 1.0 / sc
    inv_m = 1.0 / p.sigma_m[axis - 1]
    return ConductivityProfile.isotropic(inv_c, 1.0 / p.sigma_s, inv_m)


def check_area_relation(dr: DesignResult, inc: CoatedInclusion, n: int = DEFAULT_NODES) -> float:
    """|2 lam/(mu1 + mu2) + |D|/|Omega|| with areas from boundary quadrature.

    Zero (to quadrature accuracy) for any correctly designed configuration:
    the contrast sum encodes exactly minus the area fraction.
    """
    f_quad = area(discretize(inc.inner, n)) / area(discretize(inc.outer, n))
    return abs(2.0 * dr.lam / dr.smu + f_quad)

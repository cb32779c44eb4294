"""Newtonian potentials of plane domains and the coated-shell identities.

N_D(x) = (1/2pi) int_D ln|x - y| dA(y), reduced to the boundary through the
divergence identity div_y [(y - x)(2 ln|x - y| - 1)/4] = ln|x - y|, so only
the curve quadrature is ever needed. The gradient uses
grad N_D = -(S_dD[n_1], S_dD[n_2]), which is continuous across the boundary
and therefore also gives on-curve gradients through the on-boundary single
layer quadrature.

For a neutral coated inclusion with area fraction f = |D|/|Omega| the
combination G = N_D - f N_Omega is constant outside Omega and equals
d_1 x_1^2 + d_2 x_2^2 + const in D with d_j = (1 - f(1 +/- (mu1 - mu2)))/4.
The induced free problem for w = (f/2)|x|^2 + 2G has Laplace's equation in
the shell, grad w = f x on the outer boundary, and
grad w = x + kappa (x_1, -x_2) on the inner one, with kappa = -f (mu1 - mu2)
the design shear coefficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .geometry import CoatedInclusion, Discretization, discretize
from .layerpot import (
    _kernel_rows,
    _layer_kernels,
    _refined_grid,
    _targets_xy,
    min_target_distance,
    single_layer_off,
    single_layer_on_boundary,
)
from .report import Report
from .transmission import DEFAULT_NODES, _core_grid, _far_probe

_SHELL_POINTS = 32  # mid-shell points of the harmonicity check
_STEP_FACTOR = 2e-4  # five-point Laplacian step, in outer diameters


def _boundary_reduction(src: Discretization, pts: np.ndarray, far=False) -> np.ndarray:
    def integrand(dx, dy, r2, out):
        flux = -(dx * src.normals[None, :, 0] + dy * src.normals[None, :, 1])
        out[...] = flux * (np.log(r2) - 1.0) * 0.25

    return _kernel_rows(pts, src, integrand, far=far)[0] @ src.weights / (2 * math.pi)


def newtonian_potential(src: Discretization, targets) -> np.ndarray:
    """N_D at targets (either side of the curve, outside the near zone)."""
    return _boundary_reduction(src, _targets_xy(targets), far=True)


def newtonian_gradient(src: Discretization, targets) -> np.ndarray:
    """grad N_D at off-curve targets, via -(S[n_1], S[n_2]).

    No solver path calls it; it is the plain-quadrature reference that the
    tests hold `newtonian_gradient_near` to.
    """
    return -single_layer_off(src, src.normals, targets)


def newtonian_potential_near(src: Discretization, targets) -> np.ndarray:
    """N_D at targets that may sit close to the curve (adaptive upsampling)."""
    pts = _targets_xy(targets)
    return _boundary_reduction(_refined_grid(src, min_target_distance(src, pts)), pts)


def newtonian_gradient_near(src: Discretization, targets) -> np.ndarray:
    """grad N_D near the curve (adaptive upsampling; never on it)."""
    pts = _targets_xy(targets)
    fine = _refined_grid(src, min_target_distance(src, pts))
    logr, = _layer_kernels(fine, pts, grad=False, far=False)
    # grad N = -(S[n1], S[n2]): single layer *values* with the normals as density columns
    return -(logr @ (fine.normals * fine.weights[:, None])) / (2 * math.pi)


def newtonian_gradient_on_boundary(src: Discretization) -> np.ndarray:
    """grad N_D sampled on the curve itself (single layers are continuous)."""
    return -single_layer_on_boundary(src, src.normals)


@dataclass(frozen=True)
class QuadraticFit:
    """Least-squares fit d1 x^2 + d2 y^2 + c1 x + c2 y + const."""

    d1: float
    d2: float
    c1: float
    c2: float
    const: float
    rms_residual: float


@dataclass(frozen=True)
class CombinedIdentityReport(Report):
    """Interior quadratic structure and exterior constancy of N_D - f N_Omega."""

    fit: QuadraticFit
    exterior_residual: float
    d_expected: tuple[float, float]
    d_mismatch: tuple[float, float]


def fit_quadratic(pts: np.ndarray, values: np.ndarray) -> QuadraticFit:
    x, y = pts[:, 0], pts[:, 1]
    basis = np.column_stack([x * x, y * y, x, y, np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(basis, values, rcond=None)
    resid = basis @ coef - values
    rms = float(np.sqrt(np.mean(resid**2)))
    return QuadraticFit(*(float(c) for c in coef), rms)


def combined_identity_check(inc: CoatedInclusion, dr,
                            n: int = DEFAULT_NODES) -> CombinedIdentityReport:
    """Fit N_D - f N_Omega inside D and test its constancy outside Omega.

    dr supplies the area fraction f and the contrast difference mu1 - mu2
    (a DesignResult, or anything with .f and .dmu); the expected interior
    coefficients are d_j = (1 - f (1 +/- dmu))/4.
    """
    f, dmu = float(dr.f), float(dr.dmu)
    d_in = discretize(inc.inner, n)
    d_out = discretize(inc.outer, n)

    pts = _core_grid(inc, d_in, d_out, factors=(0.2, 0.4, 0.6))
    g_in = newtonian_potential(d_in, pts) - f * newtonian_potential(d_out, pts)
    fit = fit_quadratic(pts, g_in)

    _, probe = _far_probe(inc, None)
    g_ext = newtonian_potential(d_in, probe) - f * newtonian_potential(d_out, probe)
    exterior = float(np.max(np.abs(g_ext - np.mean(g_ext))))

    d1e = (1.0 - f * (1.0 + dmu)) / 4.0
    d2e = (1.0 - f * (1.0 - dmu)) / 4.0
    return CombinedIdentityReport(
        fit, exterior, (d1e, d2e), (abs(fit.d1 - d1e), abs(fit.d2 - d2e))
    )


@dataclass(frozen=True)
class FreeBvpReport(Report):
    """Residuals of the shell free boundary problem for w."""

    harmonicity_residual: float
    outer_bc_residual: float
    inner_bc_residual: float

    @property
    def max_residual(self) -> float:
        return max(self.harmonicity_residual, self.outer_bc_residual, self.inner_bc_residual)


def _shell_midpoints(inc: CoatedInclusion) -> np.ndarray:
    t = 2 * math.pi * np.arange(_SHELL_POINTS) / _SHELL_POINTS
    if inc.origin is not None:
        z = inc.origin.circle_image(math.sqrt(inc.origin.r0)).point(t)
    else:
        z = 0.5 * (inc.inner.point(t) + inc.outer.point(t))
    return np.column_stack([z.real, z.imag])


def free_bvp_residual(inc: CoatedInclusion, f: float, shear: float,
                      n: int = DEFAULT_NODES) -> FreeBvpReport:
    """Check w = (f/2)|x|^2 + 2(N_D - f N_Omega) against its free problem.

    Harmonicity is measured by a five-point Laplacian at 32 mid-shell points
    (step = 2e-4 x outer diameter); the boundary conditions
    grad w = f x on the outer curve and grad w = x + shear (x1, -x2) on the
    inner one are evaluated at the quadrature nodes.
    """
    if not (0.0 < f < 1.0):
        raise ValidationError(f"area fraction must lie in (0, 1), got {f}")
    d_in = discretize(inc.inner, n)
    d_out = discretize(inc.outer, n)

    def w(pts):
        return 0.5 * f * np.sum(pts * pts, axis=1) + 2.0 * (
            newtonian_potential_near(d_in, pts) - f * newtonian_potential_near(d_out, pts)
        )

    mid = _shell_midpoints(inc)
    h = _STEP_FACTOR * 2.0 * inc.outer.max_radius()
    stencil = np.concatenate(
        [mid, mid + [h, 0], mid - [h, 0], mid + [0, h], mid - [0, h]]
    )
    vals = w(stencil).reshape(5, -1)
    lap = (vals[1] + vals[2] + vals[3] + vals[4] - 4.0 * vals[0]) / h**2
    harmonicity = float(np.max(np.abs(lap)))

    # outer condition: grad w - f x = 2 (grad N_D - f grad N_Omega) -> 0 on dOmega
    g_d = newtonian_gradient_near(d_in, d_out.nodes)
    g_o = newtonian_gradient_on_boundary(d_out)
    outer = float(np.max(np.linalg.norm(2.0 * (g_d - f * g_o), axis=1)))

    # inner condition: grad w = x + shear (x1, -x2) on dD
    g_d_in = newtonian_gradient_on_boundary(d_in)
    g_o_in = newtonian_gradient_near(d_out, d_in.nodes)
    grad_w = f * d_in.nodes + 2.0 * (g_d_in - f * g_o_in)
    target = d_in.nodes + shear * np.column_stack([d_in.nodes[:, 0], -d_in.nodes[:, 1]])
    inner = float(np.max(np.linalg.norm(grad_w - target, axis=1)))

    return FreeBvpReport(harmonicity, outer, inner)

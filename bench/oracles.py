"""Exact fields of coated disks and confocal coated ellipses in a uniform field.

Both geometries separate, so each layer carries a single angular mode and the
two interfaces give a 4x4 linear system per axis. The solutions are written
out here from the separated forms alone; nothing is taken from `neutral_lab`,
so they check the boundary-integral solver independently.

Coated disk (core radius r1, shell radius r2), background u = x (axis 1):

    core      u = A r cos t
    shell     u = (B r + C / r) cos t
    exterior  u = (r + D / r) cos t

Confocal ellipses x = c cosh xi cos eta, y = c sinh xi sin eta, core boundary
xi = xi1, coating boundary xi = xi2, background u = x = c cosh xi cos eta:

    core      u = A cosh xi cos eta          (= A x / c)
    shell     u = (B cosh xi + C sinh xi) cos eta
    exterior  u = c cosh xi cos eta + D e^(-xi) cos eta

Axis 2 swaps cosh and sinh in the core and shell and uses sin t / sin eta.
Potential and flux sigma du/dxi (or sigma du/dr) are continuous across each
interface; the metric factor is the same on both sides and cancels. A
perfectly conducting core (sigma_c = inf) is equipotential at 0 by symmetry,
so its rows become A = 0 and u(shell side) = 0. Axis j uses sigma_m^j.
D is the dipole coefficient: the inclusion is neutral to axis j exactly when
D vanishes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Layered:
    """Mode coefficients of one axis solve, plus what is needed to evaluate it."""

    kind: str  # "disk" or "ellipse"
    axis: int
    coef: tuple[float, float, float, float]  # A, B, C, D
    c: float  # focal half-distance (ellipse) or 0 (disk)

    @property
    def dipole(self) -> float:
        return self.coef[3]


def _solve(rows: list[list[float]], rhs: list[float]) -> tuple[float, float, float, float]:
    x = np.linalg.solve(np.array(rows, dtype=float), np.array(rhs, dtype=float))
    return tuple(float(v) for v in x)


def _interface_rows(sigma_c, sigma_s, sigma_m, core, core_d, sh1, sh1_d, sh2, sh2_d, bg2, bg2_d, ex2, ex2_d):
    """Rows for A, B, C, D from the two interface conditions.

    core/core_d: core mode value and its radial derivative at the inner
    interface; sh1*/sh2*: the two shell modes (value, derivative pairs) at
    the inner and outer interfaces; bg2/ex2: background and decaying
    exterior modes at the outer interface.
    """
    if math.isinf(sigma_c):
        rows = [[1.0, 0.0, 0.0, 0.0], [0.0, sh1[0], sh1[1], 0.0]]
        rhs = [0.0, 0.0]
    else:
        rows = [
            [core, -sh1[0], -sh1[1], 0.0],
            [sigma_c * core_d, -sigma_s * sh1_d[0], -sigma_s * sh1_d[1], 0.0],
        ]
        rhs = [0.0, 0.0]
    rows += [
        [0.0, sh2[0], sh2[1], -ex2],
        [0.0, sigma_s * sh2_d[0], sigma_s * sh2_d[1], -sigma_m * ex2_d],
    ]
    rhs += [bg2, sigma_m * bg2_d]
    return rows, rhs


def disk(r1: float, r2: float, sigma_c: float, sigma_s: float, sigma_m: float, axis: int) -> Layered:
    """Concentric disks; the same mode system holds for both axes."""
    rows, rhs = _interface_rows(
        sigma_c, sigma_s, sigma_m,
        core=r1, core_d=1.0,
        sh1=(r1, 1.0 / r1), sh1_d=(1.0, -1.0 / r1**2),
        sh2=(r2, 1.0 / r2), sh2_d=(1.0, -1.0 / r2**2),
        bg2=r2, bg2_d=1.0,
        ex2=1.0 / r2, ex2_d=-1.0 / r2**2,
    )
    return Layered("disk", axis, _solve(rows, rhs), 0.0)


def ellipse_coordinates(a: float, b: float) -> tuple[float, float]:
    """Focal half-distance c and elliptic radius xi of the ellipse with semi-axes a > b."""
    return math.sqrt(a * a - b * b), math.atanh(b / a)


def confocal(
    inner_ab: tuple[float, float],
    outer_ab: tuple[float, float],
    sigma_c: float,
    sigma_s: float,
    sigma_m: float,
    axis: int,
) -> Layered:
    """Confocal ellipses given by their semi-axes (major axis along x)."""
    c, xi1 = ellipse_coordinates(*inner_ab)
    c_out, xi2 = ellipse_coordinates(*outer_ab)
    if abs(c - c_out) > 1e-12 * max(1.0, c):
        raise ValueError(f"ellipses are not confocal: c = {c} vs {c_out}")
    ch1, sh1, ch2, sh2 = math.cosh(xi1), math.sinh(xi1), math.cosh(xi2), math.sinh(xi2)
    e2 = math.exp(-xi2)
    if axis == 1:
        # core cosh, shell (cosh, sinh), background c cosh
        core, core_d = ch1, sh1
        s1, s1_d, s2, s2_d = (ch1, sh1), (sh1, ch1), (ch2, sh2), (sh2, ch2)
        bg2, bg2_d = c * ch2, c * sh2
    else:
        # core sinh, shell (sinh, cosh), background c sinh
        core, core_d = sh1, ch1
        s1, s1_d, s2, s2_d = (sh1, ch1), (ch1, sh1), (sh2, ch2), (ch2, sh2)
        bg2, bg2_d = c * sh2, c * ch2
    rows, rhs = _interface_rows(
        sigma_c, sigma_s, sigma_m,
        core=core, core_d=core_d, sh1=s1, sh1_d=s1_d, sh2=s2, sh2_d=s2_d,
        bg2=bg2, bg2_d=bg2_d, ex2=e2, ex2_d=-e2,
    )
    return Layered("ellipse", axis, _solve(rows, rhs), c)


def _as_z(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    return pts[:, 0] + 1j * pts[:, 1]


def _field(f: np.ndarray, df: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """u = Re F and grad u = (Re F', -Im F') for an analytic F."""
    return f.real, np.column_stack([df.real, -df.imag])


def exterior(sol: Layered, points) -> tuple[np.ndarray, np.ndarray]:
    """u and grad u outside the coating boundary."""
    z = _as_z(points)
    a, _, _, d = sol.coef
    # axis 1: F = z + D g(z); axis 2: F = -i z + i D g(z), g the decaying mode
    rot = 1.0 if sol.axis == 1 else 1j
    if sol.kind == "disk":
        g, dg = 1.0 / z, -1.0 / z**2
    else:
        w = np.arccosh(z / sol.c)
        if np.any(w.real <= 0):
            raise ValueError("exterior point on the focal segment")
        g = np.exp(-w)
        dg = -g / (sol.c * np.sinh(w))
    f = np.conj(rot) * z + rot * d * g
    df = np.conj(rot) + rot * d * dg
    return _field(f, df)


def core(sol: Layered, points) -> tuple[np.ndarray, np.ndarray]:
    """u and grad u inside the core, where the field is uniform."""
    pts = np.asarray(points, dtype=float)
    slope = sol.coef[0] if sol.kind == "disk" else sol.coef[0] / sol.c
    j = sol.axis - 1
    grad = np.zeros_like(pts)
    grad[:, j] = slope
    return slope * pts[:, j], grad

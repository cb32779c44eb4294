"""Closed curves, coated inclusions, and annulus maps.

Curves are trigonometric polynomials z(t) = sum_k c_k e^{ikt} over t in
[0, 2pi), stored by their complex Fourier coefficients. make_ellipse builds
counterclockwise coefficients and laurent_domain refuses clockwise boundary
images, so the outward unit normal is (y', -x')/|z'|.
Discretization uses the N-point periodic trapezoid grid t_i = 2pi i/N, which
is spectrally accurate for the smooth (analytic) boundaries this package
deals with.
"""

from __future__ import annotations

import cmath
import math
import numbers
import re
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, ValidationError

_CHECK_SAMPLES = 256


def _sample_grid(samples: int) -> np.ndarray:
    return 2 * math.pi * np.arange(samples) / samples


@dataclass(frozen=True, eq=False)
class Curve:
    """Closed analytic curve given by Fourier coefficients c_{k_min..k_max}."""

    coeffs: np.ndarray
    k_min: int

    def point(self, t) -> np.ndarray:
        """Complex positions z(t)."""
        return self.sample(t)[0]

    def sample(self, t, orders=(0,)) -> list[np.ndarray]:
        """d^k z/dt^k at t for each k in orders by einsum, not BLAS, whose time varied 1000-fold."""
        t = np.atleast_1d(np.asarray(t, float))
        ks = np.arange(self.k_min, self.k_min + len(self.coeffs))
        basis = np.exp(1j * np.outer(t, ks))
        return [np.einsum("ij,j->i", basis, (1j * ks) ** k * self.coeffs) for k in orders]

    @property
    def center(self) -> complex:
        """Constant Fourier coefficient (parametric mean of the curve)."""
        if self.k_min <= 0 <= self.k_min + len(self.coeffs) - 1:
            return complex(self.coeffs[-self.k_min])
        return 0j

    def signed_area(self) -> float:
        """Enclosed area, exact from the coefficients (positive: ccw)."""
        ks = np.arange(self.k_min, self.k_min + len(self.coeffs))
        return math.pi * float(np.sum(ks * np.abs(self.coeffs) ** 2))

    def max_radius(self) -> float:
        return float(np.max(np.abs(self.point(_sample_grid(_CHECK_SAMPLES)))))

    def max_radius_tangent(self, dcurves) -> np.ndarray:
        """Derivative of max_radius() along each coefficient perturbation, at its active sample."""
        t = _sample_grid(_CHECK_SAMPLES)
        z = self.point(t)
        i = int(np.argmax(np.abs(z)))
        return np.array([(np.conj(z[i]) * dc.point(t[i])[0]).real for dc in dcurves]) / abs(z[i])


def _check_curve(curve: Curve, t: np.ndarray, label: str) -> np.ndarray:
    """The per-curve check: a nonvanishing tangent and no self-crossing.

    Samples the curve at t and returns z(t); a GeometryError names `label`.
    """
    z, dz = curve.sample(t, (0, 1))
    speed = np.abs(dz)
    if float(np.min(speed)) < 1e-12 * float(np.max(speed)):
        raise GeometryError(f"tangent of the {label} vanishes near t = {t[np.argmin(speed)]:.6f}")
    hit = _first_self_intersection(z)
    if hit is not None:
        raise GeometryError(f"{label} self-intersects near t = {t[hit[0]]:.6f}")
    return z


def _first_self_intersection(z: np.ndarray):
    """Index pair of the first properly crossing segment pair, else None.

    Operates on the closed polyline through the sample points z; adjacent
    segments (sharing an endpoint) are skipped. Only segment pairs whose
    closed bounding boxes overlap reach the cross-product test, and the first
    hit is returned in row-major order (i, then j). A proper crossing implies
    overlapping boxes, so the prefilter changes no verdict in exact
    arithmetic; it can only drop a rounding-level "crossing" between
    disjoint, nearly collinear segments.
    """
    a = np.column_stack([z.real, z.imag])
    b = np.roll(a, -1, axis=0)
    m = len(a)
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    near = (lo[:, None, 0] <= hi[None, :, 0]) & (lo[None, :, 0] <= hi[:, None, 0])
    near &= (lo[:, None, 1] <= hi[None, :, 1]) & (lo[None, :, 1] <= hi[:, None, 1])
    idx = np.arange(m)
    for shift in (-1, 0, 1):
        near[idx, (idx + shift) % m] = False
    i, j = np.nonzero(near)

    def cross(o, p, q):
        return (p[:, 0] - o[:, 0]) * (q[:, 1] - o[:, 1]) - (p[:, 1] - o[:, 1]) * (
            q[:, 0] - o[:, 0]
        )

    a_i, b_i, a_j, b_j = a[i], b[i], a[j], b[j]
    crossing = (cross(a_i, b_i, a_j) * cross(a_i, b_i, b_j) < 0) & (
        cross(a_j, b_j, a_i) * cross(a_j, b_j, b_i) < 0
    )
    hits = np.flatnonzero(crossing)
    if len(hits) == 0:
        return None
    return int(i[hits[0]]), int(j[hits[0]])


def _winding(w: np.ndarray) -> np.ndarray:
    """Winding numbers from the differences w[i, j] = z_loop[i] - points[j]."""
    turns = np.angle(np.roll(w, -1, axis=0) / w)
    return np.rint(np.sum(turns, axis=0) / (2 * math.pi)).astype(int)


def _check_pair(z_in: np.ndarray, z_out: np.ndarray) -> None:
    """The pair check on sampled boundaries: a gap, then nesting.

    The gap and the winding of the outer polyline about every inner sample
    share one m x m difference array; a failure raises GeometryError.
    """
    w = z_out[:, None] - z_in[None, :]
    if np.min(np.abs(w)) < 1e-9 * np.max(np.abs(z_out)):
        raise GeometryError("boundary images touch (zero-width shell)")
    if not np.all(_winding(w) == 1):
        raise GeometryError("inner boundary image is not enclosed by the outer image")


@dataclass(frozen=True, eq=False)
class Discretization:
    """Periodic trapezoid discretization of a Curve.

    nodes and normals are (N, 2) arrays; speed, curvature, weights
    are (N,). weights are the arclength quadrature weights 2pi/N * |z'|.
    """

    curve: Curve
    t: np.ndarray
    nodes: np.ndarray
    normals: np.ndarray
    speed: np.ndarray
    curvature: np.ndarray
    weights: np.ndarray

    @property
    def n(self) -> int:
        return len(self.t)

    @property
    def nodes_z(self) -> np.ndarray:
        return self.nodes[:, 0] + 1j * self.nodes[:, 1]


def discretize(curve: Curve, n: int) -> Discretization:
    """Sample a curve on the n-point periodic trapezoid grid.

    n must be even and at least 16 (the on-boundary quadrature splits the
    spectrum at the Nyquist frequency).
    """
    if n < 16 or n % 2 != 0:
        raise ValidationError(f"node count must be even and >= 16, got {n}")
    t = _sample_grid(n)
    z, dz, ddz = curve.sample(t, (0, 1, 2))
    speed = np.abs(dz)
    if float(np.min(speed)) < 1e-12 * float(np.max(speed)):
        raise GeometryError("tangent vanishes on the discretization grid")
    nodes = np.column_stack([z.real, z.imag])
    # ccw curve: outward normal is the unit tangent rotated by -pi/2
    normals = np.column_stack([dz.imag, -dz.real]) / speed[:, None]
    curvature = (dz.real * ddz.imag - dz.imag * ddz.real) / speed**3
    weights = (2 * math.pi / n) * speed
    return Discretization(curve, t, nodes, normals, speed, curvature, weights)


@dataclass(frozen=True, eq=False)
class GridTangent:
    """Derivatives of a Discretization along D coefficient perturbations.

    curves[d] is the perturbation dc of the curve's coefficients; nodes and
    normals are complex (D, N) arrays (x + iy), weights and curvature real.
    """

    curves: tuple
    nodes: np.ndarray
    normals: np.ndarray
    weights: np.ndarray
    curvature: np.ndarray


def discretize_tangent(disc: Discretization, dcurves) -> GridTangent:
    """The derivative of `discretize(disc.curve, disc.n)` along each perturbation dc.

    The nodes are linear in the coefficients, so with z' = i s nu, s = |z'|:
    ds = Re(conj(z') dz')/s, dnu = -i (dz' - z' ds/s)/s, dw = (2pi/N) ds and
    dkappa = Im(conj(dz') z'' + conj(z') dz'')/s^3 - 3 kappa ds/s.
    """
    dz, ddz = disc.curve.sample(disc.t, (1, 2))
    rows = [dc.sample(disc.t, (0, 1, 2)) for dc in dcurves]
    v0, v1, v2 = (np.reshape([r[k] for r in rows], (len(rows), disc.n)) for k in range(3))
    s = disc.speed
    ds = (np.conj(dz) * v1).real / s
    normals = -1j * (v1 - dz * ds / s) / s
    curvature = (np.conj(v1) * ddz + np.conj(dz) * v2).imag / s**3 - 3 * disc.curvature * ds / s
    return GridTangent(tuple(dcurves), v0, normals, (2 * math.pi / disc.n) * ds, curvature)


def area(disc: Discretization) -> float:
    """Enclosed area by the divergence theorem, (1/2) * sum <x, n> w."""
    return 0.5 * float(np.sum(np.sum(disc.nodes * disc.normals, axis=1) * disc.weights))


def make_ellipse(center, a: float, b: float, theta: float = 0.0) -> Curve:
    """Ellipse with semi-axes a >= b > 0, rotated by theta about its center.

    The parametrization is z(t) = center + e^{i theta} (a cos t + i b sin t),
    i.e. c_{+1} = (a+b)/2 e^{i theta} and c_{-1} = (a-b)/2 e^{i theta},
    counterclockwise because |c_{+1}| > |c_{-1}|.
    """
    center = complex(*center) if isinstance(center, (tuple, list)) else complex(center)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValidationError("semi-axes must be finite")
    if not (cmath.isfinite(center) and math.isfinite(theta)):
        raise ValidationError(f"center and theta must be finite, got {center}, {theta}")
    if b <= 0:
        raise ValidationError(f"semi-minor axis must be positive, got b = {b}")
    if a < b:
        raise ValidationError(f"semi-axes must satisfy a >= b, got a = {a}, b = {b}")
    rot = cmath.exp(1j * theta)
    coeffs = np.array([(a - b) / 2 * rot, center, (a + b) / 2 * rot])
    return Curve(coeffs, -1)


def _laurent_order(n) -> int:
    """A Laurent order: an integer (not a bool), or a string as str(int) writes it."""
    if isinstance(n, numbers.Integral) and not isinstance(n, bool):
        return int(n)
    if isinstance(n, str) and re.fullmatch(r"0|-?[1-9][0-9]*", n):
        return int(n)
    raise ValidationError(f"Laurent order must be an integer, got {n!r}")


@dataclass(frozen=True)
class LaurentMap:
    """Conformal-candidate map Phi(zeta) = sum_n a_n zeta^n on 1 <= |zeta| <= r0.

    Univalence is not implied by construction; `laurent_domain` checks it on
    the two boundary images. The leading coefficient a_1 must be nonzero (it
    fixes scale and orientation of the image annulus). Each key of coeffs
    names a distinct order (`_laurent_order`).
    """

    coeffs: dict
    r0: float

    def __post_init__(self):
        if not (math.isfinite(self.r0) and self.r0 > 1.0):
            raise ValidationError(f"annulus modulus r0 must exceed 1, got {self.r0}")
        orders = [_laurent_order(n) for n in self.coeffs]
        if len(set(orders)) < len(orders):
            raise ValidationError(f"two coefficient keys name one order: {list(self.coeffs)}")
        clean = {}
        for n, a in zip(orders, self.coeffs.values()):
            if n == 0:
                raise ValidationError("constant term a_0 is not allowed (fix the center at 0)")
            a = complex(a)
            if not cmath.isfinite(a):
                raise ValidationError(f"coefficient a_{n} must be finite, got {a}")
            if a != 0:
                clean[n] = a
        if clean.get(1, 0) == 0:
            raise ValidationError("leading coefficient a_1 must be nonzero")
        object.__setattr__(self, "coeffs", clean)

    @property
    def max_order(self) -> int:
        return max(abs(n) for n in self.coeffs)

    def circle_image(self, rho: float) -> Curve:
        """Image t -> Phi(rho e^{it}) of |zeta| = rho, coefficients c_n = a_n rho^n.

        The map's own parametrization is kept, so the curve is clockwise
        where Phi reverses orientation; `laurent_domain` refuses such maps.
        """
        n_lo = min(self.coeffs)
        n_hi = max(self.coeffs)
        coeffs = np.zeros(n_hi - n_lo + 1, dtype=complex)
        for n, a in self.coeffs.items():
            coeffs[n - n_lo] = a * rho**n
        return Curve(coeffs, n_lo)


@dataclass(frozen=True, eq=False)
class CoatedInclusion:
    """Core boundary (inner) inside coating boundary (outer), both ccw.

    origin records the annulus map the pair was built from, when there is
    one; design and free-boundary routines use it to place shell grids.
    """

    inner: Curve
    outer: Curve
    origin: LaurentMap | None = None

    def validate(self) -> None:
        """The pair check of `laurent_domain` on the two curves."""
        t = _sample_grid(_CHECK_SAMPLES)
        _check_pair(self.inner.point(t), self.outer.point(t))


def _validate_confocal_params(a1: float, am1: float, r0: float) -> None:
    if not all(map(math.isfinite, (a1, am1, r0))):
        raise ValidationError("confocal parameters must be finite")
    if a1 <= 0:
        raise ValidationError(f"a1 must be positive, got {a1}")
    if am1 < 0:
        raise ValidationError(f"a_-1 must be nonnegative, got {am1}")
    if am1 >= a1:
        raise ValidationError(
            f"need a_-1 < a1 for a nondegenerate inner ellipse (got {am1} >= {a1})"
        )
    if r0 <= 1.0:
        raise ValidationError(f"shell modulus r0 must exceed 1, got {r0}")


def confocal_pair(a1: float, am1: float, r0: float) -> CoatedInclusion:
    """Confocal ellipse pair: images of |zeta| in {1, r0} under a1 zeta + a_-1/zeta.

    Inner semi-axes (a1 + a_-1, a1 - a_-1), outer (a1 r0 + a_-1/r0,
    a1 r0 - a_-1/r0); both share focal distance squared 4 a1 a_-1. a_-1 = 0
    gives concentric circles of radii (a1, a1 r0).
    """
    _validate_confocal_params(a1, am1, r0)
    inner = make_ellipse(0.0, a1 + am1, a1 - am1)
    outer = make_ellipse(0.0, a1 * r0 + am1 / r0, a1 * r0 - am1 / r0)
    origin = LaurentMap({1: a1, -1: am1}, r0)
    return CoatedInclusion(inner, outer, origin)


def laurent_domain(m: LaurentMap, samples: int = _CHECK_SAMPLES) -> CoatedInclusion:
    """Coated inclusion bounded by the images of |zeta| = 1 and |zeta| = r0.

    Samples both boundary images at `samples` angles and refuses, with a
    GeometryError: a vanishing tangent or a self-crossing of either image,
    a zero-width shell, an inner image not enclosed by the outer one, and
    last an image with non-positive signed area (exact from the
    coefficients). Simple nested images that are both counterclockwise make
    Phi univalent on the closed annulus by the argument principle, so no
    interior points are sampled.
    """
    if samples < 3:
        raise ValidationError(f"the geometry check needs at least 3 samples, got {samples}")
    t = _sample_grid(samples)
    inner, outer = m.circle_image(1.0), m.circle_image(m.r0)
    z_in = _check_curve(inner, t, "inner boundary image")
    z_out = _check_curve(outer, t, "outer boundary image")
    _check_pair(z_in, z_out)
    for curve, label in ((inner, "inner"), (outer, "outer")):
        if curve.signed_area() <= 0:
            raise GeometryError(
                f"{label} boundary image has reversed orientation (signed area "
                f"{curve.signed_area():.6g}): the map is not univalent on the annulus"
            )
    return CoatedInclusion(inner, outer, m)

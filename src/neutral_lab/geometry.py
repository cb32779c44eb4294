"""Closed curves, coated inclusions, and annulus maps.

Curves are trigonometric polynomials z(t) = sum_k c_k e^{ikt} over t in
[0, 2pi), stored by their complex Fourier coefficients. All curves are
normalized to counterclockwise orientation at construction, so the outward
unit normal is (y', -x')/|z'|. Discretization uses the N-point periodic
trapezoid grid t_i = 2pi i/N, which is spectrally accurate for the smooth
(analytic) boundaries this package deals with.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GeometryError, ValidationError

_CHECK_SAMPLES = 256


def _synthesize(coeffs: np.ndarray, k_min: int, t: np.ndarray, order: int = 0) -> np.ndarray:
    """Evaluate d^order/dt^order of sum c_k e^{ikt} at parameters t."""
    ks = np.arange(k_min, k_min + len(coeffs))
    weights = (1j * ks) ** order * coeffs
    return np.exp(1j * np.outer(t, ks)) @ weights


@dataclass(frozen=True, eq=False)
class Curve:
    """Closed analytic curve given by Fourier coefficients c_{k_min..k_max}."""

    coeffs: np.ndarray
    k_min: int

    @classmethod
    def from_coeffs(cls, coeffs, k_min: int, check: bool = True) -> "Curve":
        """Build a curve, normalizing orientation to counterclockwise.

        Parameters
        ----------
        coeffs : array_like of complex
            Fourier coefficients, index i holding the coefficient of
            e^{i(k_min+i)t}.
        k_min : int
            Frequency of the first coefficient.
        check : bool
            Sample the curve and reject vanishing tangents and
            self-intersections (at 256-point resolution).
        """
        c = np.asarray(coeffs, dtype=complex).copy()
        if c.ndim != 1 or len(c) == 0:
            raise ValidationError("coefficient array must be 1-d and nonempty")
        ks = np.arange(k_min, k_min + len(c))
        scale = float(np.sum(np.abs(c[ks != 0])))
        if scale == 0.0:
            raise ValidationError("curve has no nonconstant Fourier content")
        signed_area = math.pi * float(np.sum(ks * np.abs(c) ** 2))
        if abs(signed_area) < 1e-12 * scale**2:
            raise ValidationError("curve encloses (numerically) zero signed area")
        if signed_area < 0:
            # reverse the parameter: z(-t) swaps c_k and c_{-k}
            c = c[::-1].copy()
            k_min = -int(ks[-1])
        curve = cls(c, int(k_min))
        if check:
            curve._check_sampled()
        return curve

    def point(self, t) -> np.ndarray:
        """Complex positions z(t)."""
        return _synthesize(self.coeffs, self.k_min, np.atleast_1d(np.asarray(t, float)))

    def derivative(self, t, order: int = 1) -> np.ndarray:
        return _synthesize(self.coeffs, self.k_min, np.atleast_1d(np.asarray(t, float)), order)

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

    def max_radius(self, samples: int = _CHECK_SAMPLES) -> float:
        t = np.linspace(0.0, 2 * math.pi, samples, endpoint=False)
        return float(np.max(np.abs(self.point(t))))

    def _check_sampled(self, samples: int = _CHECK_SAMPLES) -> None:
        t = np.linspace(0.0, 2 * math.pi, samples, endpoint=False)
        dz = self.derivative(t)
        speed = np.abs(dz)
        scale = float(np.max(speed))
        if float(np.min(speed)) < 1e-12 * scale:
            i = int(np.argmin(speed))
            raise GeometryError(f"tangent vanishes near t = {t[i]:.6f}")
        z = self.point(t)
        hit = _first_self_intersection(z)
        if hit is not None:
            raise GeometryError(
                f"curve self-intersects near t = {t[hit[0]]:.6f} and t = {t[hit[1]]:.6f}"
            )


def _first_self_intersection(z: np.ndarray):
    """Index pair of the first properly crossing segment pair, else None.

    Operates on the closed polyline through the sample points z; adjacent
    segments (sharing an endpoint) are skipped.
    """
    pts = np.column_stack([z.real, z.imag])
    a = pts
    b = np.roll(pts, -1, axis=0)
    m = len(pts)

    def cross(o, p, q):
        return (p[..., 0] - o[..., 0]) * (q[..., 1] - o[..., 1]) - (
            p[..., 1] - o[..., 1]
        ) * (q[..., 0] - o[..., 0])

    # all segment pairs at once; memory m^2 is fine at sampling resolution
    a_i, b_i = a[:, None, :], b[:, None, :]
    a_j, b_j = a[None, :, :], b[None, :, :]
    d1 = cross(a_i, b_i, a_j)
    d2 = cross(a_i, b_i, b_j)
    d3 = cross(a_j, b_j, a_i)
    d4 = cross(a_j, b_j, b_i)
    crossing = (d1 * d2 < 0) & (d3 * d4 < 0)
    idx = np.arange(m)
    gap = (idx[None, :] - idx[:, None]) % m
    crossing &= (gap > 1) & (gap < m - 1)
    hits = np.argwhere(crossing)
    if len(hits) == 0:
        return None
    return int(hits[0, 0]), int(hits[0, 1])


def winding_numbers(z_loop: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Winding number of the closed polyline z_loop about each point.

    z_loop: complex samples of a closed curve; points: complex array.
    """
    w = z_loop[:, None] - points[None, :]
    turns = np.angle(np.roll(w, -1, axis=0) / w)
    return np.rint(np.sum(turns, axis=0) / (2 * math.pi)).astype(int)


@dataclass(frozen=True, eq=False)
class Discretization:
    """Periodic trapezoid discretization of a Curve.

    nodes, tangents, normals are (N, 2) arrays; speed, curvature, weights
    are (N,). weights are the arclength quadrature weights 2pi/N * |z'|.
    """

    curve: Curve
    t: np.ndarray
    nodes: np.ndarray
    tangents: np.ndarray
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
    t = 2 * math.pi * np.arange(n) / n
    z = curve.point(t)
    dz = curve.derivative(t)
    ddz = curve.derivative(t, 2)
    speed = np.abs(dz)
    if float(np.min(speed)) < 1e-12 * float(np.max(speed)):
        raise GeometryError("tangent vanishes on the discretization grid")
    nodes = np.column_stack([z.real, z.imag])
    tangents = np.column_stack([dz.real, dz.imag]) / speed[:, None]
    # ccw curve: outward normal is the tangent rotated by -pi/2
    normals = np.column_stack([tangents[:, 1], -tangents[:, 0]])
    curvature = (dz.real * ddz.imag - dz.imag * ddz.real) / speed**3
    weights = (2 * math.pi / n) * speed
    return Discretization(curve, t, nodes, tangents, normals, speed, curvature, weights)


def area(disc: Discretization) -> float:
    """Enclosed area by the divergence theorem, (1/2) * sum <x, n> w."""
    return 0.5 * float(np.sum(np.sum(disc.nodes * disc.normals, axis=1) * disc.weights))


def make_ellipse(center, a: float, b: float, theta: float = 0.0) -> Curve:
    """Ellipse with semi-axes a >= b > 0, rotated by theta about its center.

    The parametrization is z(t) = center + e^{i theta} (a cos t + i b sin t),
    i.e. c_{+1} = (a+b)/2 e^{i theta} and c_{-1} = (a-b)/2 e^{i theta}.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValidationError("semi-axes must be finite")
    if b <= 0:
        raise ValidationError(f"semi-minor axis must be positive, got b = {b}")
    if a < b:
        raise ValidationError(f"semi-axes must satisfy a >= b, got a = {a}, b = {b}")
    if isinstance(center, (tuple, list)):
        center = complex(center[0], center[1])
    else:
        center = complex(center)
    rot = cmath.exp(1j * theta)
    coeffs = np.array([(a - b) / 2 * rot, center, (a + b) / 2 * rot])
    return Curve.from_coeffs(coeffs, k_min=-1, check=False)


@dataclass(frozen=True)
class LaurentMap:
    """Conformal-candidate map Phi(zeta) = sum_n a_n zeta^n on 1 <= |zeta| <= r0.

    Univalence is not implied by construction; `laurent_domain` checks it by
    sampling. The leading coefficient a_1 must be nonzero (it fixes scale and
    orientation of the image annulus).
    """

    coeffs: dict = field(default_factory=dict)
    r0: float = 2.0

    def __post_init__(self):
        if not (math.isfinite(self.r0) and self.r0 > 1.0):
            raise ValidationError(f"annulus modulus r0 must exceed 1, got {self.r0}")
        clean = {}
        for n, a in self.coeffs.items():
            n = int(n)
            if n == 0:
                raise ValidationError("constant term a_0 is not allowed (fix the center at 0)")
            a = complex(a)
            if a != 0:
                clean[n] = a
        if clean.get(1, 0) == 0:
            raise ValidationError("leading coefficient a_1 must be nonzero")
        object.__setattr__(self, "coeffs", clean)

    @property
    def max_order(self) -> int:
        return max(abs(n) for n in self.coeffs)

    def map_point(self, zeta):
        zeta = np.asarray(zeta, dtype=complex)
        out = np.zeros_like(zeta)
        for n, a in self.coeffs.items():
            out = out + a * zeta**n
        return out

    def derivative(self, zeta):
        zeta = np.asarray(zeta, dtype=complex)
        out = np.zeros_like(zeta)
        for n, a in self.coeffs.items():
            out = out + n * a * zeta ** (n - 1)
        return out

    def circle_image(self, rho: float) -> Curve:
        """Image of |zeta| = rho as a Curve, coefficients c_n = a_n rho^n (exact)."""
        n_lo = min(self.coeffs)
        n_hi = max(self.coeffs)
        coeffs = np.zeros(n_hi - n_lo + 1, dtype=complex)
        for n, a in self.coeffs.items():
            coeffs[n - n_lo] = a * rho**n
        return Curve.from_coeffs(coeffs, k_min=n_lo, check=False)

    @classmethod
    def from_json(cls, data: dict) -> "LaurentMap":
        try:
            raw = data["coeffs"]
            r0 = float(data["r0"])
            coeffs = {}
            for key, val in raw.items():
                if isinstance(val, (list, tuple)):
                    coeffs[int(key)] = complex(val[0], val[1])
                else:
                    coeffs[int(key)] = complex(float(val))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed map record: {exc}") from exc
        return cls(coeffs, r0)


def _check_univalence(m: LaurentMap, n_theta: int = 256, n_rho: int = 16) -> None:
    """Sampled univalence check on the closed annulus; raises GeometryError.

    Heuristic by necessity: nonvanishing derivative on an angular x radial
    grid, simple boundary images, and the inner image strictly inside the
    outer one. Interior fold-overs finer than the grid are not detected.
    """
    theta = 2 * math.pi * np.arange(n_theta) / n_theta
    rho = np.linspace(1.0, m.r0, n_rho)
    zeta = rho[:, None] * np.exp(1j * theta[None, :])
    dphi = np.abs(m.derivative(zeta))
    scale = max(abs(a) for a in m.coeffs.values())
    if float(dphi.min()) < 1e-12 * scale:
        i, j = np.unravel_index(int(np.argmin(dphi)), dphi.shape)
        raise GeometryError(
            f"map derivative vanishes near zeta = {rho[i]:.4f} e^(i {theta[j]:.4f})"
        )
    for rho_b, label in ((1.0, "inner"), (m.r0, "outer")):
        z = m.map_point(rho_b * np.exp(1j * theta))
        hit = _first_self_intersection(z)
        if hit is not None:
            raise GeometryError(
                f"{label} boundary image self-intersects near t = {theta[hit[0]]:.6f}"
            )
    z_in = m.map_point(np.exp(1j * theta))
    z_out = m.map_point(m.r0 * np.exp(1j * theta))
    wind = winding_numbers(z_out, z_in)
    if not np.all(wind == 1):
        raise GeometryError("inner boundary image is not enclosed by the outer image")
    gap = np.min(np.abs(z_in[:, None] - z_out[None, :]))
    if gap < 1e-9 * scale:
        raise GeometryError("boundary images touch (zero-width shell)")


@dataclass(frozen=True, eq=False)
class CoatedInclusion:
    """Core boundary (inner) inside coating boundary (outer), both ccw.

    origin records the annulus map the pair was built from, when there is
    one; design and free-boundary routines use it to place shell grids.
    """

    inner: Curve
    outer: Curve
    origin: LaurentMap | None = None

    def validate(self, samples: int = _CHECK_SAMPLES) -> None:
        t = np.linspace(0.0, 2 * math.pi, samples, endpoint=False)
        z_in = self.inner.point(t)
        z_out = self.outer.point(t)
        if np.min(np.abs(z_in[:, None] - z_out[None, :])) < 1e-12:
            raise GeometryError("inner and outer boundaries touch")
        if not np.all(winding_numbers(z_out, z_in) == 1):
            raise GeometryError("inner boundary is not strictly inside the outer one")


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
    origin = LaurentMap({1: a1, -1: am1} if am1 > 0 else {1: a1}, r0)
    return CoatedInclusion(inner, outer, origin)


def laurent_domain(m: LaurentMap, samples: int = _CHECK_SAMPLES) -> CoatedInclusion:
    """Coated inclusion bounded by the images of |zeta| = 1 and |zeta| = r0.

    Runs the sampled univalence check (at angular resolution `samples`) and
    rejects non-simple or non-nested boundary images with a GeometryError.
    The check subsumes CoatedInclusion.validate: simple boundary images,
    winding containment, and a strictly positive shell gap.
    """
    _check_univalence(m, n_theta=samples, n_rho=max(8, samples // 16))
    inner = m.circle_image(1.0)
    outer = m.circle_image(m.r0)
    return CoatedInclusion(inner, outer, m)

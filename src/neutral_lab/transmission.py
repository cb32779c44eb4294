"""Two-interface conductivity transmission problem via single layer potentials.

The field for background h is represented as u = h + S_inner[phi] + S_outer[psi]
with densities solving the block system

    (lam I - K*_inner) phi -  dnu S_outer[psi]          = dh/dnu   on the core boundary
    -dnu S_inner[phi]      + (mu I - K*_outer) psi      = dh/dnu   on the coating boundary

where lam, mu are the core/shell and shell/matrix contrast parameters. A
coupling block dnu S is built on the refined source grid (times trigonometric
interpolation, so the system stays N x N) when the curves lie in each other's
near zone, as in a thin shell. The same blocks give the interior flux on the
core boundary, dnu u|- = dnu h + (-1/2 I + K*_inner) phi + dnu S_outer[psi].
The representation stays valid in the perfectly insulating (sigma_c = 0) and
perfectly conducting (sigma_c = inf) limits, where lam = -1/2 and +1/2. Both
densities live in the mean-zero subspace; a rank-one weighted-mean term is
added to each diagonal block so the discrete system stays uniquely solvable
at the extreme contrasts. The system is solved by eliminating the core block,
which does not depend on mu, once; each axis then solves only the N x N
coating Schur complement with its own mu.

Only diagonal matrix tensors diag(sigma_m^1, sigma_m^2) are supported: the
axis-j solve uses the isotropic value sigma_m^j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    SolverError,
    UnsupportedConfigurationError,
    ValidationError,
)
from .geometry import CoatedInclusion, Discretization, discretize
from .layerpot import (
    _in_near_zone,
    _targets_xy,
    kstar_matrix,
    normal_derivative_coupling,
    single_layer_grad_near,
    single_layer_grad_off,
    single_layer_off,
)
from .report import Report

DEFAULT_NODES = 256
PROBE_POINTS = 64


def _check_core_shell(sigma_c: float, sigma_s: float) -> None:
    if not (math.isfinite(sigma_s) and sigma_s > 0):
        raise ValidationError(f"shell conductivity must be positive finite, got {sigma_s}")
    if math.isnan(sigma_c) or sigma_c < 0:
        raise ValidationError(f"core conductivity must be >= 0 (inf allowed), got {sigma_c}")


@dataclass(frozen=True)
class ConductivityProfile:
    """Piecewise-constant conductivities (core, shell, matrix-diagonal).

    sigma_c may be 0 (insulating core) or math.inf (perfectly conducting
    core); sigma_s and both matrix components must be positive, finite, and
    distinct from sigma_s (equal conductivities make the corresponding
    interface trivial and the contrast parameter undefined).
    """

    sigma_c: float
    sigma_s: float
    sigma_m: tuple[float, float]

    def __post_init__(self):
        sc, ss = float(self.sigma_c), float(self.sigma_s)
        sm = tuple(float(v) for v in self.sigma_m)
        if len(sm) != 2:
            raise ValidationError("sigma_m must be a pair (diagonal tensor)")
        _check_core_shell(sc, ss)
        if sc == ss:
            raise ValidationError("core and shell conductivities must differ")
        for j, v in enumerate(sm, start=1):
            if not (math.isfinite(v) and v > 0):
                raise ValidationError(f"sigma_m^{j} must be positive finite, got {v}")
            if v == ss:
                raise ValidationError(f"sigma_m^{j} equals the shell conductivity")
        object.__setattr__(self, "sigma_c", sc)
        object.__setattr__(self, "sigma_s", ss)
        object.__setattr__(self, "sigma_m", sm)

    @classmethod
    def isotropic(cls, sigma_c, sigma_s, sigma_m) -> "ConductivityProfile":
        return cls(sigma_c, sigma_s, (sigma_m, sigma_m))

    @property
    def is_isotropic(self) -> bool:
        return self.sigma_m[0] == self.sigma_m[1]


@dataclass(frozen=True)
class ContrastParams:
    """Contrast parameters lam (core/shell) and mu_j (shell/matrix^j)."""

    lam: float
    mu: tuple[float, float]


def _core_contrast(sigma_c: float, sigma_s: float) -> float:
    """lam = (sc+ss)/(2(sc-ss)); sigma_c = 0 and inf give exactly -1/2 and +1/2."""
    if sigma_c == sigma_s:
        raise ValidationError("core and shell conductivities must differ")
    if math.isinf(sigma_c):
        return 0.5
    return (sigma_c + sigma_s) / (2.0 * (sigma_c - sigma_s))


def contrasts(p: ConductivityProfile) -> ContrastParams:
    """lam = (sc+ss)/(2(sc-ss)), mu_j = (ss+sm_j)/(2(ss-sm_j)).

    sigma_c = 0 and inf land exactly on lam = -1/2 and +1/2. Physical
    profiles always give |mu_j| > 1/2.
    """
    ss = p.sigma_s
    mu = tuple((ss + sm) / (2.0 * (ss - sm)) for sm in p.sigma_m)
    return ContrastParams(_core_contrast(p.sigma_c, ss), mu)


@dataclass(frozen=True)
class HarmonicPoly:
    """Harmonic polynomial c0 + cx x + cy y + cq (x^2 - y^2) + cxy xy."""

    c0: float = 0.0
    cx: float = 0.0
    cy: float = 0.0
    cq: float = 0.0
    cxy: float = 0.0

    @classmethod
    def coordinate(cls, axis: int) -> "HarmonicPoly":
        if axis == 1:
            return cls(cx=1.0)
        if axis == 2:
            return cls(cy=1.0)
        raise ValidationError(f"axis must be 1 or 2, got {axis}")

    @property
    def is_constant(self) -> bool:
        return self.cx == self.cy == self.cq == self.cxy == 0.0

    def value(self, pts: np.ndarray) -> np.ndarray:
        x, y = pts[:, 0], pts[:, 1]
        return (
            self.c0
            + self.cx * x
            + self.cy * y
            + self.cq * (x * x - y * y)
            + self.cxy * x * y
        )

    def gradient(self, pts: np.ndarray) -> np.ndarray:
        x, y = pts[:, 0], pts[:, 1]
        gx = self.cx + 2.0 * self.cq * x + self.cxy * y
        gy = self.cy - 2.0 * self.cq * y + self.cxy * x
        return np.column_stack([gx, gy])


@dataclass(frozen=True, eq=False)
class DensityPair:
    """Solution densities, the grids they live on, and du/dnu|- at the core nodes."""

    phi: np.ndarray
    psi: np.ndarray
    axis: int | None
    h: HarmonicPoly
    disc_inner: Discretization
    disc_outer: Discretization
    core_flux: np.ndarray


def _weighted_mean(values: np.ndarray, weights: np.ndarray) -> float:
    return float(np.dot(values, weights) / np.sum(weights))


def _coupling(src: Discretization, tgt: Discretization) -> np.ndarray:
    """d/dnu_tgt S_src at the target nodes; refined when the curves are near."""
    if not _in_near_zone(src, tgt.nodes):
        return normal_derivative_coupling(src, tgt)
    grad = single_layer_grad_near(src, np.eye(src.n), tgt.nodes)
    return tgt.normals[:, 0, None] * grad[:, 0] + tgt.normals[:, 1, None] * grad[:, 1]


def _operator_parts(d_in, d_out):
    """The contrast-independent pieces of the block system."""
    return (
        kstar_matrix(d_in),
        kstar_matrix(d_out),
        _coupling(d_out, d_in),
        _coupling(d_in, d_out),
    )


def _solve(a: np.ndarray, b: np.ndarray, what: str) -> np.ndarray:
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"{what} singular", cond=float(np.linalg.cond(a))) from exc


def _solve_pairs(d_in, d_out, parts, lam, cases) -> list[DensityPair]:
    """Densities for each case (mu, h, axis), by eliminating the core block once.

    The core row gives phi = A11^-1 (b1 + C_oi psi) with A11 = lam I - K*_in,
    so psi solves the coating Schur complement mu I - K*_out - C_io A11^-1 C_oi,
    whose mu-free part is formed once for all cases. The core flux comes from
    the same blocks.
    """
    n1, n2 = d_in.n, d_out.n
    k_in, k_out, c_oi, c_io = parts
    rhs = [
        tuple(np.sum(h.gradient(d.nodes) * d.normals, axis=1) for d in (d_in, d_out))
        for _, h, _ in cases
    ]
    a11 = lam * np.eye(n1) - k_in
    # the weights are a left eigenvector of the discrete K* with eigenvalue
    # 1/2, so the weighted-mean term turns the block row functional into
    # (contrast + 1/2) w^T: required at +1/2 (conducting core), harmless for
    # contrast >= 0, and singular at -1/2 (insulating core) where the
    # unaugmented block is already invertible. Augment only when safe.
    if lam >= 0.0:
        a11 += d_in.weights / np.sum(d_in.weights)
    # the continuous right sides have exact mean zero; project off the
    # quadrature-level remainder so the rank-one terms see clean data
    b1 = np.column_stack([r - _weighted_mean(r, d_in.weights) for r, _ in rhs])
    y = _solve(a11, np.hstack([c_oi, b1]), f"transmission core block (lam={lam})")
    x_oi = y[:, :n2]
    schur = -k_out - c_io @ x_oi
    pairs = []
    for (mu, h, axis), (r1, r2), y1 in zip(cases, rhs, y[:, n2:].T):
        s = schur + mu * np.eye(n2)
        if mu >= 0.0:
            s += d_out.weights / np.sum(d_out.weights)
        b2 = r2 - _weighted_mean(r2, d_out.weights) + c_io @ y1
        psi = _solve(s, b2, f"transmission coating block (lam={lam}, mu={mu})")
        phi = y1 + x_oi @ psi
        if not (np.all(np.isfinite(phi)) and np.all(np.isfinite(psi))):
            raise SolverError("transmission solve produced non-finite densities")
        flux = r1 + (k_in @ phi - 0.5 * phi) + c_oi @ psi
        pairs.append(DensityPair(phi, psi, axis, h, d_in, d_out, flux))
    return pairs


def _assembled(inc: CoatedInclusion, n: int):
    """Both grids and the operator blocks they share."""
    d_in = discretize(inc.inner, n)
    d_out = discretize(inc.outer, n)
    return d_in, d_out, _operator_parts(d_in, d_out)


def solve_both_axes(
    inc: CoatedInclusion, p: ConductivityProfile, n: int = DEFAULT_NODES
) -> tuple[DensityPair, DensityPair]:
    """Densities for the uniform backgrounds h = x_1 and h = x_2, in that order.

    The axis-j solve uses the matrix component sigma_m^j. Only the
    mu-diagonal of the outer block differs between the axes, so the operator
    blocks, the core factorization and the mu-free part of the coating Schur
    complement are built once.
    """
    cp = contrasts(p)
    cases = [(cp.mu[axis - 1], HarmonicPoly.coordinate(axis), axis) for axis in (1, 2)]
    return tuple(_solve_pairs(*_assembled(inc, n), cp.lam, cases))


def solve_harmonic(
    inc: CoatedInclusion, p: ConductivityProfile, h: HarmonicPoly, n: int = DEFAULT_NODES
) -> DensityPair:
    """Densities for a general harmonic polynomial background.

    Requires an isotropic matrix (the per-axis decomposition used for
    diagonal tensors only applies to coordinate backgrounds).
    """
    if not p.is_isotropic:
        raise UnsupportedConfigurationError(
            "polynomial backgrounds need an isotropic matrix conductivity"
        )
    if h.is_constant:
        raise ValidationError("background is constant; nothing to solve")
    cp = contrasts(p)
    return _solve_pairs(*_assembled(inc, n), cp.lam, [(cp.mu[0], h, None)])[0]


def eval_u(
    inc: CoatedInclusion, pair: DensityPair, p: ConductivityProfile, points
) -> tuple[np.ndarray, np.ndarray]:
    """Field values and gradients u, grad u at points outside both near zones.

    inc and p are not read: the pair carries its grids and densities. The
    signature stays because benchmark code calls it with these arguments.
    """
    pts = _targets_xy(points)
    vals = (
        pair.h.value(pts)
        + single_layer_off(pair.disc_inner, pair.phi, pts)
        + single_layer_off(pair.disc_outer, pair.psi, pts)
    )
    grads = (
        pair.h.gradient(pts)
        + single_layer_grad_off(pair.disc_inner, pair.phi, pts)
        + single_layer_grad_off(pair.disc_outer, pair.psi, pts)
    )
    return vals, grads


def _probe_radius(radius) -> float:
    """A probe radius as a float; an integer beyond the float range is refused."""
    try:
        return float(radius)
    except OverflowError:
        raise ValidationError("probe radius is beyond the float range") from None


def _far_probe(inc: CoatedInclusion, radius: float | None) -> tuple[float, np.ndarray]:
    """(radius, points) of the PROBE_POINTS-point probe circle.

    The radius is 3 outer max radii by default and at least 2; its squared
    distance to the inclusion must stay a finite float.
    """
    r_out = inc.outer.max_radius()
    radius = 3.0 * r_out if radius is None else _probe_radius(radius)
    if not math.isfinite(radius):
        raise ValidationError(f"probe radius must be finite, got {radius}")
    if radius < 2.0 * r_out:
        raise ValidationError(
            f"probe radius {radius} too tight; needs at least twice "
            f"the outer max radius ({2 * r_out:.4f})"
        )
    if math.isinf((radius + r_out) * (radius + r_out)):
        raise ValidationError(f"probe radius {radius} too large: squared distances overflow")
    t = 2 * math.pi * np.arange(PROBE_POINTS) / PROBE_POINTS
    return radius, radius * np.column_stack([np.cos(t), np.sin(t)])


def _scattered_values(pair: DensityPair, pts: np.ndarray) -> np.ndarray:
    """u - h, i.e. the layer-potential part alone."""
    return single_layer_off(pair.disc_inner, pair.phi, pts) + single_layer_off(
        pair.disc_outer, pair.psi, pts
    )


def _core_grid(inc: CoatedInclusion, factors=(0.5,)) -> np.ndarray:
    """16-point copies of the core boundary scaled about its center, plus the center."""
    c0 = inc.inner.center
    t = 2 * math.pi * np.arange(16) / 16
    z = np.concatenate([c0 + s * (inc.inner.point(t) - c0) for s in factors])
    return np.vstack([np.column_stack([z.real, z.imag]), [c0.real, c0.imag]])


@dataclass(frozen=True)
class AxisReport:
    """Diagnostics for one uniform-field solve."""

    axis: int
    residual: float
    first_moment: tuple[float, float]
    core_gradient_mean: tuple[float, float]
    core_gradient_deviation: float
    core_slope_measured: float
    core_slope_predicted: float
    flux_identity_residual: float
    coating_identity_residual: float
    density_means: tuple[float, float]


@dataclass(frozen=True)
class NeutralityReport(Report):
    """Per-axis neutrality diagnostics on a far probe circle.

    residual is max |u - x_j| over the probe. flux_identity_residual compares
    phi with (2/(2 lam - 1)) du/dnu|- (for lam = 1/2 the rearranged residual
    ((2 lam - 1)/2) phi - du/dnu|- is reported, both sides vanishing there).
    The flux is `core_flux`, from the solve's own blocks, so this is the
    algebraic residual of the first block row: it checks the linear solve, not
    the discretisation (the probe residual and core slope check accuracy).
    coating_identity_residual compares psi with (2/(2 mu_j + 1)) n_j, which is
    an identity only for neutral configurations.
    """

    probe_radius: float
    nodes: int
    lam: float
    mu: tuple[float, float]
    axes: tuple[AxisReport, AxisReport]

    @property
    def residuals(self) -> tuple[float, float]:
        return (self.axes[0].residual, self.axes[1].residual)


def neutrality_report(
    inc: CoatedInclusion,
    p: ConductivityProfile,
    n: int = DEFAULT_NODES,
    probe_radius: float | None = None,
) -> NeutralityReport:
    """Solve both axes and measure how invisible the inclusion is."""
    probe_radius, probe = _far_probe(inc, probe_radius)
    core = _core_grid(inc)
    cp = contrasts(p)
    axes = []
    for pair in solve_both_axes(inc, p, n):
        axis = pair.axis
        j = axis - 1

        residual = float(np.max(np.abs(_scattered_values(pair, probe))))

        moment = (
            pair.disc_inner.nodes.T @ (pair.phi * pair.disc_inner.weights)
            + pair.disc_outer.nodes.T @ (pair.psi * pair.disc_outer.weights)
        )

        _, grads = eval_u(inc, pair, p, core)
        gmean = grads.mean(axis=0)
        gdev = float(np.max(np.linalg.norm(grads - gmean, axis=1)))
        slope_measured = float(gmean[j])
        denom = 2.0 * cp.lam * (2.0 * cp.mu[j] + 1.0)
        slope_predicted = (2.0 * cp.lam - 1.0) * (cp.mu[0] + cp.mu[1]) / denom

        flux = pair.core_flux
        if abs(2.0 * cp.lam - 1.0) > 1e-9:
            flux_resid = float(np.max(np.abs(pair.phi - 2.0 / (2.0 * cp.lam - 1.0) * flux)))
        else:
            flux_resid = float(np.max(np.abs(0.5 * (2.0 * cp.lam - 1.0) * pair.phi - flux)))

        coat_resid = float(
            np.max(np.abs(pair.psi - 2.0 / (2.0 * cp.mu[j] + 1.0) * pair.disc_outer.normals[:, j]))
        )

        means = (
            _weighted_mean(pair.phi, pair.disc_inner.weights),
            _weighted_mean(pair.psi, pair.disc_outer.weights),
        )
        axes.append(
            AxisReport(
                axis=axis,
                residual=residual,
                first_moment=(float(moment[0]), float(moment[1])),
                core_gradient_mean=(float(gmean[0]), float(gmean[1])),
                core_gradient_deviation=gdev,
                core_slope_measured=slope_measured,
                core_slope_predicted=float(slope_predicted),
                flux_identity_residual=flux_resid,
                coating_identity_residual=coat_resid,
                density_means=means,
            )
        )
    return NeutralityReport(float(probe_radius), n, cp.lam, cp.mu, (axes[0], axes[1]))


def decay_exponent(
    inc: CoatedInclusion,
    p: ConductivityProfile,
    h: HarmonicPoly,
    radii: tuple[float, float],
    n: int = DEFAULT_NODES,
) -> float:
    """Far-field decay rate of u - h between two probe radii.

    Fits max|u - h| ~ R^(-q) through the two radii and returns q. The radii
    need r2 > r1, and each one must pass the probe-radius rule. A neutral
    configuration driven by a non-uniform background decays one order faster
    (q ~ 2) than a generic one (q ~ 1).
    """
    r1, r2 = (_probe_radius(r) for r in radii)
    if not r2 > r1:
        raise ValidationError(f"need probe radii r2 > r1, got ({r1}, {r2})")
    probes = [_far_probe(inc, r)[1] for r in (r1, r2)]
    pair = solve_harmonic(inc, p, h, n)
    res1, res2 = (float(np.max(np.abs(_scattered_values(pair, pts)))) for pts in probes)
    if res1 <= 0.0 or res2 <= 0.0:
        raise SolverError("scattered field vanished on a probe circle; exponent undefined")
    return math.log(res1 / res2) / math.log(r2 / r1)

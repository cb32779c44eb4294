"""Dense Nystrom operators for the 2-d single layer potential.

Conventions: S[phi](x) = (1/2pi) int ln|x - y| phi(y) dsigma(y), with the
adjoint double layer K*[phi](x) = (1/2pi) int <x - y, nu_x>/|x - y|^2 phi dsigma.
Off-boundary evaluation uses the plain trapezoid rule, which is spectrally
accurate away from the curve; the plain evaluators refuse targets inside the
near zone rather than silently degrade, and the coupling refines there. On-boundary
values split off the periodic log kernel ln|2 sin((t - s)/2)| and integrate it
with its exact Fourier multipliers -1/(2|k|) (the remaining factor is smooth).
Every evaluator takes a density of shape (n,) or k density columns (n, k).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NearEvaluationError, ValidationError
from .geometry import Discretization, discretize

NEAR_FACTOR = 0.2
_REFINE_DECADES = 40.0  # target exp(-40) ~ 4e-18 quadrature tail
_REFINE_CAP = 2**17


def feature_size(src: Discretization) -> float:
    """Smallest osculating radius of the source curve, 1/max|kappa|."""
    return 1.0 / float(np.max(np.abs(src.curvature)))


def _targets_xy(targets) -> np.ndarray:
    pts = np.asarray(targets, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValidationError(f"targets must have shape (m, 2), got {pts.shape}")
    if not np.isfinite(pts).all():
        raise ValidationError("target coordinates must be finite")
    return pts


def _check_density(src: Discretization, density) -> np.ndarray:
    """A density of shape (n,), or k density columns of shape (n, k)."""
    rho = np.asarray(density)
    if rho.ndim not in (1, 2) or len(rho) != src.n:
        raise ValidationError(
            f"density must be (n,) or (n, k) on the {src.n}-node grid, got shape {rho.shape}"
        )
    return rho


def _offsets(pts: np.ndarray, nodes: np.ndarray):
    """Targets minus nodes, dx and dy, and r2 = dx^2 + dy^2 made in place: three (m, n) arrays."""
    dx = pts[:, None, 0] - nodes[None, :, 0]
    dy = pts[:, None, 1] - nodes[None, :, 1]
    r2 = dx * dx
    r2 += dy * dy
    return dx, dy, r2


def min_target_distance(src: Discretization, targets) -> float:
    """Smallest target-to-node distance; targets go in cache-sized blocks."""
    pts = _targets_xy(targets)
    step = max(1, 2**14 // src.n)
    mins = (_offsets(pts[lo : lo + step], src.nodes)[2].min() for lo in range(0, len(pts), step))
    return math.sqrt(min(mins, default=math.inf))


def _near_zone(src: Discretization, dist):
    """The one near-zone rule: (dist < limit, limit), limit = NEAR_FACTOR x feature size."""
    limit = NEAR_FACTOR * feature_size(src)
    return dist < limit, limit


def _far_offsets(src: Discretization, targets):
    """`_offsets` of targets from the nodes; a near-zone target, read off r2, is refused."""
    dx, dy, r2 = _offsets(_targets_xy(targets), src.nodes)
    dist = math.sqrt(float(r2.min(initial=math.inf)))
    near, limit = _near_zone(src, dist)
    if near:
        raise NearEvaluationError(
            f"target at distance {dist:.3e} from the source curve is inside the "
            f"near zone ({limit:.3e}); evaluate farther away or use the refined path",
            distance=dist,
            limit=limit,
        )
    return dx, dy, r2


def single_layer_off(src: Discretization, density, targets) -> np.ndarray:
    """S[density] at off-curve targets, shape (m,) or (m, k); near zone refused."""
    rho = _check_density(src, density)
    _, _, r2 = _far_offsets(src, targets)
    return (0.5 * np.log(r2)) @ (rho.T * src.weights).T / (2 * math.pi)


def single_layer_grad_off(src: Discretization, density, targets) -> np.ndarray:
    """grad S[density] at off-curve targets, shape (m, 2) or (m, 2, k)."""
    rho = _check_density(src, density)
    dx, dy, r2 = _far_offsets(src, targets)
    rw = (rho.T * src.weights).T
    gx = (dx / r2) @ rw
    gy = (dy / r2) @ rw
    return np.stack([gx, gy], axis=1) / (2 * math.pi)


def _normal_kernel(src: Discretization, normals: np.ndarray, dx, dy, r2) -> np.ndarray:
    """The one n.grad S kernel <x - y, nu_x>/|x - y|^2 w_y/(2 pi), x a target with normal nu_x."""
    kern = (dx * normals[:, None, 0] + dy * normals[:, None, 1]) / r2
    kern *= src.weights
    kern /= 2 * math.pi
    return kern


def kstar_matrix(src: Discretization) -> np.ndarray:
    """Nystrom matrix of K* on the source grid (weights folded in).

    The diagonal carries the limiting kernel value kappa(x)/2, so entries are
    kappa_i w_i /(4 pi) there; on a circle every entry is w_j/(4 pi).
    """
    dx, dy, r2 = _offsets(src.nodes, src.nodes)
    np.fill_diagonal(r2, 1.0)
    kern = _normal_kernel(src, src.normals, dx, dy, r2)
    np.fill_diagonal(kern, 0.5 * src.curvature * src.weights / (2 * math.pi))
    return kern


def normal_derivative_coupling(src: Discretization, tgt: Discretization) -> np.ndarray:
    """Matrix of d/dnu_tgt S_src[.] sampled at the target nodes.

    Plain trapezoid weights outside the source's near zone. When target nodes
    lie inside it (a thin shell), the same kernel is formed on the grid refined
    for the distance the plain path measured and reduced to the n source
    columns (`_near_rows`); a target on the source curve is refused.
    """
    try:
        return _normal_kernel(src, tgt.normals, *_far_offsets(src, tgt.nodes))
    except NearEvaluationError as exc:
        dist = exc.distance  # refine after the handler, once the refused offsets are freed
    return _near_rows(src, tgt.nodes, tgt.normals, dist)


def single_layer_on_boundary(src: Discretization, density) -> np.ndarray:
    """S[density] on the source curve itself (Kress-split product quadrature).

    ln|z(t)-z(s)| = ln|2 sin((t-s)/2)| + smooth; the log part acts diagonally
    in Fourier space with multipliers -1/(2|k|) (0 for k = 0), the smooth part
    goes through the trapezoid rule with diagonal limit ln|z'(t)|.
    """
    rho = _check_density(src, density)
    n = src.n
    g = (rho.T * src.speed).T

    freqs = np.fft.fftfreq(n, d=1.0 / n)
    mult = np.zeros(n)
    nonzero = freqs != 0
    mult[nonzero] = -0.5 / np.abs(freqs[nonzero])
    log_part = np.fft.ifft((np.fft.fft(g, axis=0).T * mult).T, axis=0)
    if np.isrealobj(rho):
        log_part = log_part.real

    z = src.nodes_z
    dz = np.abs(z[:, None] - z[None, :])
    dt = src.t[:, None] - src.t[None, :]
    sins = np.abs(2.0 * np.sin(0.5 * dt))
    np.fill_diagonal(dz, 1.0)
    np.fill_diagonal(sins, 1.0)
    remainder = np.log(dz / sins)
    np.fill_diagonal(remainder, np.log(src.speed))
    smooth_part = (remainder @ g) / n

    return smooth_part + log_part


def _refined_grid(src: Discretization, dist: float) -> Discretization:
    """Upsample the source grid until the trapezoid tail is negligible at distance dist.

    The one refinement rule of the package: the near layer potentials here
    and the near Newtonian potentials both use it.
    """
    if dist <= 0:
        raise NearEvaluationError("target lies on the source curve", distance=dist, limit=0.0)
    smax = float(np.max(src.speed))
    need = max(2 * src.n, int(math.ceil(_REFINE_DECADES * smax / dist)))
    m = 1 << int(math.ceil(math.log2(need)))
    if m > _REFINE_CAP:
        raise NearEvaluationError(
            f"target at distance {dist:.3e} needs {m} nodes (> cap {_REFINE_CAP})",
            distance=dist,
        )
    return discretize(src.curve, m)


def _near_rows(src: Discretization, pts: np.ndarray, normals: np.ndarray, dist: float):
    """n.grad S rows, shape (m, n), at targets as close as dist to the curve.

    `_normal_kernel` is formed on the refined grid in blocks of about 4e6
    entries, and each block is reduced to the n coarse columns by the
    transpose of trigonometric interpolation: keep the n lowest modes, the
    Nyquist bin split symmetrically (its real part).
    """
    fine = _refined_grid(src, dist)
    rows = np.empty((len(pts), src.n))
    block = max(1, int(4e6) // fine.n)
    for lo in range(0, len(pts), block):
        s = slice(lo, lo + block)
        kern = _normal_kernel(fine, normals[s], *_offsets(pts[s], fine.nodes))
        spec = np.fft.rfft(kern, axis=1)[:, : src.n // 2 + 1]
        del kern
        rows[s] = np.fft.irfft(spec, n=src.n, axis=1)
    return rows


def single_layer_grad_near(src: Discretization, density, targets) -> np.ndarray:
    """grad S[density] at targets arbitrarily close to (but not on) the curve.

    The density is the trigonometric interpolant of the nodal values on the
    refined grid: each component is the `_near_rows` of nu = e_x or e_y.
    Shape (m, 2), or (m, 2, k) for density columns of shape (n, k).
    """
    rho = _check_density(src, density)
    pts = _targets_xy(targets)
    dist = min_target_distance(src, pts)
    axes = [np.broadcast_to(e, pts.shape) for e in np.eye(2)]
    return np.stack([_near_rows(src, pts, nu, dist) @ rho for nu in axes], axis=1)

"""Dense Nystrom operators for the 2-d single layer potential.

Conventions: S[phi](x) = (1/2pi) int ln|x - y| phi(y) dsigma(y), with the
adjoint double layer K*[phi](x) = (1/2pi) int <x - y, nu_x>/|x - y|^2 phi dsigma.
Off-boundary evaluation uses the plain trapezoid rule, which is spectrally
accurate away from the curve; targets inside the near zone are refused rather
than silently degraded. On-boundary values split off the periodic log kernel
ln|2 sin((t - s)/2)| and integrate it with its exact Fourier multipliers
-1/(2|k|) (the remaining factor is smooth).
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
    return pts


def _check_density(src: Discretization, density) -> np.ndarray:
    rho = np.asarray(density)
    if rho.shape != (src.n,):
        raise ValidationError(
            f"density must match the {src.n}-node grid, got shape {rho.shape}"
        )
    return rho


def min_target_distance(src: Discretization, targets) -> float:
    """Smallest target-to-node distance; targets go in cache-sized blocks."""
    pts = _targets_xy(targets)
    x, y = src.nodes[:, 0], src.nodes[:, 1]
    step = max(1, 2**14 // src.n)
    best = math.inf
    for lo in range(0, len(pts), step):
        p = pts[lo : lo + step]
        best = min(best, float(((p[:, None, 0] - x) ** 2 + (p[:, None, 1] - y) ** 2).min()))
    return math.sqrt(best)


def _in_near_zone(src: Discretization, targets) -> bool:
    """The one near-zone test: a target within NEAR_FACTOR x feature size of the nodes."""
    return min_target_distance(src, targets) < NEAR_FACTOR * feature_size(src)


def _near_guard(src: Discretization, targets) -> None:
    if _in_near_zone(src, targets):
        dist = min_target_distance(src, targets)
        limit = NEAR_FACTOR * feature_size(src)
        raise NearEvaluationError(
            f"target at distance {dist:.3e} from the source curve is inside the "
            f"near zone ({limit:.3e}); evaluate farther away or use the refined path",
            distance=dist,
            limit=limit,
        )


def single_layer_off(src: Discretization, density, targets) -> np.ndarray:
    """S[density] at off-curve targets (plain trapezoid; near zone refused)."""
    rho = _check_density(src, density)
    pts = _targets_xy(targets)
    _near_guard(src, pts)
    dx = pts[:, None, 0] - src.nodes[None, :, 0]
    dy = pts[:, None, 1] - src.nodes[None, :, 1]
    r2 = dx * dx + dy * dy
    return (0.5 * np.log(r2)) @ (rho * src.weights) / (2 * math.pi)


def single_layer_grad_off(src: Discretization, density, targets) -> np.ndarray:
    """grad S[density] at off-curve targets, shape (m, 2)."""
    rho = _check_density(src, density)
    pts = _targets_xy(targets)
    _near_guard(src, pts)
    dx = pts[:, None, 0] - src.nodes[None, :, 0]
    dy = pts[:, None, 1] - src.nodes[None, :, 1]
    r2 = dx * dx + dy * dy
    rw = rho * src.weights
    gx = (dx / r2) @ rw
    gy = (dy / r2) @ rw
    return np.column_stack([gx, gy]) / (2 * math.pi)


def kstar_matrix(src: Discretization) -> np.ndarray:
    """Nystrom matrix of K* on the source grid (weights folded in).

    The diagonal carries the limiting kernel value kappa(x)/2, so entries are
    kappa_i w_i /(4 pi) there; on a circle every entry is w_j/(4 pi).
    """
    dx = src.nodes[:, None, 0] - src.nodes[None, :, 0]
    dy = src.nodes[:, None, 1] - src.nodes[None, :, 1]
    r2 = dx * dx + dy * dy
    np.fill_diagonal(r2, 1.0)
    kern = (dx * src.normals[:, None, 0] + dy * src.normals[:, None, 1]) / r2
    np.fill_diagonal(kern, 0.5 * src.curvature)
    return kern * src.weights[None, :] / (2 * math.pi)


def normal_derivative_coupling(src: Discretization, tgt: Discretization) -> np.ndarray:
    """Matrix of d/dnu_tgt S_src[.] sampled at the target nodes.

    Plain trapezoid weights: spectrally accurate only for target nodes outside
    the source's near zone (`_in_near_zone`), so not for a thin shell.
    """
    dx = tgt.nodes[:, None, 0] - src.nodes[None, :, 0]
    dy = tgt.nodes[:, None, 1] - src.nodes[None, :, 1]
    r2 = dx * dx + dy * dy
    if float(r2.min()) < 1e-24:
        raise ValidationError("source and target curves touch; coupling kernel is singular")
    kern = (dx * tgt.normals[:, None, 0] + dy * tgt.normals[:, None, 1]) / r2
    return kern * src.weights[None, :] / (2 * math.pi)


def single_layer_on_boundary(src: Discretization, density) -> np.ndarray:
    """S[density] on the source curve itself (Kress-split product quadrature).

    ln|z(t)-z(s)| = ln|2 sin((t-s)/2)| + smooth; the log part acts diagonally
    in Fourier space with multipliers -1/(2|k|) (0 for k = 0), the smooth part
    goes through the trapezoid rule with diagonal limit ln|z'(t)|.
    """
    rho = _check_density(src, density)
    n = src.n
    g = rho * src.speed

    freqs = np.fft.fftfreq(n, d=1.0 / n)
    mult = np.zeros(n)
    nonzero = freqs != 0
    mult[nonzero] = -0.5 / np.abs(freqs[nonzero])
    log_part = np.fft.ifft(np.fft.fft(g) * mult)
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


def _refined_grid(src: Discretization, targets) -> Discretization:
    """Upsample the source grid until the trapezoid tail is negligible at targets.

    The one refinement rule of the package: the near layer potentials here
    and the near Newtonian potentials both use it.
    """
    dist = min_target_distance(src, targets)
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


def single_layer_grad_near(src: Discretization, density, targets) -> np.ndarray:
    """grad S[density] at targets arbitrarily close to (but not on) the curve.

    The density is the trigonometric interpolant of the nodal values on the
    refined grid. Shape (m, 2), or (m, 2, k) for a density matrix of shape
    (n, k). Each block of about 4e6 fine-grid kernel entries is built once and
    reduced to the n coarse columns by the transpose of that interpolation:
    keep the n lowest modes, the Nyquist bin split symmetrically (its real part).
    """
    pts = _targets_xy(targets)
    fine = _refined_grid(src, pts)
    dens = np.asarray(density)
    cols = dens.reshape(len(dens), -1)
    out = np.empty((len(pts), 2, cols.shape[1]))
    block = max(1, int(4e6) // fine.n)
    for lo in range(0, len(pts), block):
        s = slice(lo, lo + block)
        dx = pts[s, None, 0] - fine.nodes[None, :, 0]
        dy = pts[s, None, 1] - fine.nodes[None, :, 1]
        # in place, so a block holds three fine-grid arrays at a time
        w = dx * dx
        w += dy * dy
        np.divide(fine.weights, w, out=w)
        for k, d in enumerate((dx, dy)):
            d *= w
            spec = np.fft.rfft(d, axis=1)[:, : src.n // 2 + 1]
            out[s, k] = np.fft.irfft(spec, n=src.n, axis=1) @ cols
    return out.reshape((len(pts), 2) + dens.shape[1:]) / (2 * math.pi)

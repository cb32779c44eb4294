"""Dense Nystrom operators for the 2-d single layer potential.

Conventions: S[phi](x) = (1/2pi) int ln|x - y| phi(y) dsigma(y), with the
adjoint double layer K*[phi](x) = (1/2pi) int <x - y, nu_x>/|x - y|^2 phi dsigma.
Off-boundary evaluation uses the plain trapezoid rule, which is spectrally
accurate away from the curve; the plain evaluators refuse targets inside the
near zone rather than silently degrade, and the coupling refines there. On-boundary
values split off the periodic log kernel ln|2 sin((t - s)/2)| and integrate it
with its exact Fourier multipliers -1/(2|k|) (the remaining factor is smooth).
Every evaluator takes a density of shape (n,) or k density columns (n, k).
The *_tangent functions differentiate these operators along coefficient
perturbations of the grids (`geometry.discretize_tangent`), for the shape
search's exact Jacobian.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NearEvaluationError, ValidationError
from .geometry import Discretization, GridTangent, discretize, discretize_tangent

NEAR_FACTOR = 0.2
_REFINE_DECADES = 40.0  # target exp(-40) ~ 4e-18 quadrature tail
_REFINE_CAP = 2**17
_ROW_ENTRIES = 2**13  # kernel entries per row block, whose offsets stay in cache


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
    rows = max(1, _ROW_ENTRIES // src.n)
    mins = (_offsets(pts[lo : lo + rows], src.nodes)[2].min() for lo in range(0, len(pts), rows))
    return math.sqrt(min(mins, default=math.inf))


def _near_zone(src: Discretization, dist):
    """The one near-zone rule: (dist < limit, limit), limit = NEAR_FACTOR x feature size."""
    limit = NEAR_FACTOR * feature_size(src)
    return dist < limit, limit


def _refuse_near(src: Discretization, pts: np.ndarray) -> None:
    """Refuse targets in the near zone, at their smallest distance to the nodes."""
    dist = min_target_distance(src, pts)
    near, limit = _near_zone(src, dist)
    if near:
        raise NearEvaluationError(
            f"target at distance {dist:.3e} from the source curve is inside the "
            f"near zone ({limit:.3e}); evaluate farther away or use the refined path",
            distance=dist,
            limit=limit,
        )


def _kernel_rows(pts: np.ndarray, src: Discretization, *kernels, far=True) -> list | None:
    """An (m, n) array per kernel, formed in place by kernel(dx, dy, r2, out) from row blocks of
    about _ROW_ENTRIES entries of the targets' `_offsets`, each block's r2 checked first: far
    refuses the near zone, far=False gives None inside the `_plain_reach`, far=None passes."""
    out = [np.empty((len(pts), src.n)) for _ in kernels]
    limit = -math.inf if far is None else _near_zone(src, 0.0)[1] if far else _plain_reach(src)
    rows = max(1, _ROW_ENTRIES // src.n)
    for lo in range(0, len(pts), rows):
        dx, dy, r2 = _offsets(pts[lo : lo + rows], src.nodes)
        if math.sqrt(float(r2.min())) < limit:
            return _refuse_near(src, pts) if far else None
        for a, kernel in zip(out, kernels):
            kernel(dx, dy, r2, a[lo : lo + rows])
    return out


def _layer_kernels(src: Discretization, pts: np.ndarray, value=True, grad=True):
    """The single layer's [ln r] if value, then [dx/r2, dy/r2] if grad, by `_kernel_rows`."""
    forms = [lambda dx, dy, r2, out: np.multiply(np.log(r2, out=out), 0.5, out=out)] * value
    forms += [lambda dx, dy, r2, out: np.divide(dx, r2, out=out),
              lambda dx, dy, r2, out: np.divide(dy, r2, out=out)] * grad
    return _kernel_rows(pts, src, *forms)


def single_layer_off(src: Discretization, density, targets) -> np.ndarray:
    """S[density] at off-curve targets, shape (m,) or (m, k); near zone refused."""
    return _off_fields(src, density, targets, value=True)[0]


def _off_fields(src: Discretization, density, targets, value=False, grad=False, kernels=None):
    """(S[density], grad S[density]) by `_layer_kernels`, or by the given kernels (value from
    the first, gradient from the last two, each at its points); None if unasked."""
    rho = _check_density(src, density)
    kern = _layer_kernels(src, _targets_xy(targets), value, grad) if kernels is None else kernels
    rw = (rho.T * src.weights).T
    s = kern[0] @ rw / (2 * math.pi) if value else None
    g = np.stack([kern[-2] @ rw, kern[-1] @ rw], axis=1) / (2 * math.pi) if grad else None
    return s, g


def single_layer_off_tangent(src: Discretization, dsrc: GridTangent, density, targets,
                             dtargets) -> np.ndarray:
    """The derivative of `single_layer_off(src, density, targets)`, density held fixed.

    Along each direction of the grid's tangent and of the targets' (complex
    (D, m)); shape (D, m) or (D, m, k).
    """
    rho = _check_density(src, density)
    logr, gx, gy = _layer_kernels(src, _targets_xy(targets))
    cols = rho.reshape(src.n, -1)
    wrho = (cols.T * src.weights).T
    # d ln r = <x - y, dx - dy>/r2: the target part scales rows, the node part the density
    out = logr @ (dsrc.weights[:, :, None] * cols)
    for g, dp, dn in ((gx, dtargets.real, dsrc.nodes.real), (gy, dtargets.imag, dsrc.nodes.imag)):
        out += dp[:, :, None] * (g @ wrho) - g @ (dn[:, :, None] * wrho)
    return out.reshape(out.shape[:2] + rho.shape[1:]) / (2 * math.pi)


def single_layer_grad_off(src: Discretization, density, targets) -> np.ndarray:
    """grad S[density] at off-curve targets, shape (m, 2) or (m, 2, k)."""
    return _off_fields(src, density, targets, grad=True)[1]


def _normal_kernel(weights: np.ndarray, normals: np.ndarray, dx, dy, r2, out=None) -> np.ndarray:
    """The n.grad S kernel <x - y, nu_x>/|x - y|^2 w_y/(2 pi) at targets x, normals nu_x; in out.

    weights are the columns' source weights w_y.
    """
    kern = np.multiply(dx, normals[:, None, 0], out=out)
    kern += dy * normals[:, None, 1]
    kern /= r2
    kern *= weights
    kern /= 2 * math.pi
    return kern


def _normal_kernel_tangent(src, dsrc: GridTangent, normals, dnormals, dpts, dx, dy, r2, density):
    """The derivative of `_normal_kernel` along each direction d, applied to density columns.

    dsrc is the source grid's tangent; dnormals and dpts, complex (D, m), are
    the targets' normal and position tangents; density is (n, k) and the
    result (D, m, k). With p = <x - y, nu_x> and k = p/r2:
    dk = (dp - 2k <x - y, dx - dy>)/r2, where dp = <dx - dy, nu_x> + <x - y, dnu_x>,
    and the weights add k dw. Each term scales the rows or the columns of one
    shared (m, n) array, so the derivative acts through seven matrix
    products and is never formed.
    """
    ratio = (dx * normals[:, None, 0] + dy * normals[:, None, 1]) / r2
    scale = src.weights / (2 * math.pi) / r2
    ax = (normals[:, None, 0] - 2 * ratio * dx) * scale
    ay = (normals[:, None, 1] - 2 * ratio * dy) * scale
    ratio /= 2 * math.pi
    out = sum(row[:, :, None] * (a @ density) for a, row in (
        (ax, dpts.real), (ay, dpts.imag), (dx * scale, dnormals.real), (dy * scale, dnormals.imag)))
    for a, col in ((ax, -dsrc.nodes.real), (ay, -dsrc.nodes.imag), (ratio, dsrc.weights)):
        out += a @ (col[:, :, None] * density)
    return out


def _tangent_product(src, dsrc, pts, normals, dpts, dnormals, density, self_grid=False):
    """`_normal_kernel_tangent` at the targets pts, in row blocks of about _ROW_ENTRIES entries.

    On the source's own grid (self_grid) the diagonal is left out: r2 = inf there.
    """
    out = np.empty((len(dpts), len(pts), density.shape[1]))
    rows = max(1, _ROW_ENTRIES // src.n)
    for lo in range(0, len(pts), rows):
        s = slice(lo, lo + rows)
        dx, dy, r2 = _offsets(pts[s], src.nodes)
        if self_grid:
            r2[np.arange(len(r2)), np.arange(lo, lo + len(r2))] = np.inf
        out[:, s] = _normal_kernel_tangent(src, dsrc, normals[s], dnormals[:, s], dpts[:, s],
                                           dx, dy, r2, density)
    return out


def _plain_kernel(src: Discretization, tgt: Discretization, step: int, own: bool):
    """`_normal_kernel` at every step-th node of tgt against every step-th source node, formed
    in row blocks of about _ROW_ENTRIES entries.

    The columns keep the fine grid's weights, so each entry is one of the whole block. A
    block's offsets stay in cache while its rows are formed in place in the output. A
    single block is returned as formed: forming it in a separate output raised the minor
    page faults of the N = 64 shape search about threefold. On the source's own grid (own,
    tgt is src) target r's r2 at its own node reads 1, and no target is refused. Else None
    once a block holds a target that a source node could put in the near zone, decided on
    its r2 before any division: every source node lies within an arc of step // 2 node
    spacings at the curve's largest speed from a formed one, so that arc is added to the limit.
    """
    nodes, weights = src.nodes[::step], src.weights[::step]
    pts, normals = tgt.nodes[::step], tgt.normals[::step]
    if not own:
        arc = step // 2 * 2 * math.pi * float(np.max(src.speed)) / src.n
        limit = _near_zone(src, 0.0)[1] + arc
    rows = max(1, _ROW_ENTRIES // len(nodes))
    out = None if rows >= len(pts) else np.empty((len(pts), len(nodes)))
    for lo in range(0, len(pts), rows):
        dx, dy, r2 = _offsets(pts[lo : lo + rows], nodes)
        if own:
            r2[np.arange(len(r2)), np.arange(lo, lo + len(r2))] = 1.0
        elif math.sqrt(float(r2.min())) < limit:
            return None
        kern = _normal_kernel(weights, normals[lo : lo + rows], dx, dy, r2,
                              None if out is None else out[lo : lo + rows])
    return kern if out is None else out


def kstar_matrix(src: Discretization, step: int = 1) -> np.ndarray:
    """Nystrom matrix of K* on the source grid (weights folded in), its entries at every
    step-th target and source node with the grid's own weights.

    The diagonal carries the limiting kernel value kappa(x)/2, so entries are
    kappa_i w_i /(4 pi) there; on a circle every entry is w_j/(4 pi).
    """
    kern = _plain_kernel(src, src, step, True)
    rows = np.arange(len(kern))
    kern[rows, rows] = _kstar_diagonal(src)[::step]
    return kern


def _kstar_diagonal(src: Discretization) -> np.ndarray:
    """`kstar_matrix`'s diagonal: the limiting kernel kappa/2 times w/(2 pi)."""
    return 0.5 * src.curvature * src.weights / (2 * math.pi)


def _kernel_line(src: Discretization, tgt: Discretization, k: int, axis: int) -> np.ndarray:
    """Column k (axis 0, at all of tgt's nodes) or row k (axis 1, against all of src's) of
    the plain `_normal_kernel` block from src's nodes to tgt's, without a near-zone check.

    On the source's own grid (tgt is src) entry k holds `kstar_matrix`'s diagonal.
    """
    one = slice(k, k + 1)
    rows, cols = (slice(None), one) if axis == 0 else (one, slice(None))
    dx, dy, r2 = _offsets(tgt.nodes[rows], src.nodes[cols])
    own = tgt is src
    if own:
        r2.flat[k] = 1.0
    line = _normal_kernel(src.weights[cols], tgt.normals[rows], dx, dy, r2).ravel()
    if own:
        line[k] = _kstar_diagonal(src)[k]
    return line


def kstar_tangent(src: Discretization, dsrc: GridTangent, density) -> np.ndarray:
    """The derivative of `kstar_matrix(src)` along each direction, applied to density columns.

    density is (n, k) and the result (D, n, k); the diagonal kappa w/(4 pi)
    moves by (dkappa w + kappa dw)/(4 pi).
    """
    out = _tangent_product(src, dsrc, src.nodes, src.normals, dsrc.nodes, dsrc.normals, density,
                           self_grid=True)
    out += ((dsrc.curvature * src.weights + src.curvature * dsrc.weights)
            / (4 * math.pi))[:, :, None] * density
    return out


def normal_derivative_coupling(src: Discretization, tgt: Discretization,
                               step: int = 1) -> np.ndarray:
    """Matrix of d/dnu_tgt S_src[.] sampled at the target nodes, its entries at every step-th
    target and source node with the grid's own weights.

    Plain trapezoid weights outside the source's near zone. When target nodes
    lie inside it (a thin shell), the same kernel is formed on the grid refined
    for the smallest target distance and reduced to the n source columns
    (`_near_rows`); a target on the source curve is refused. With step > 1, None is
    returned where the plain kernel could not serve every source node.
    """
    kern = _plain_kernel(src, tgt, step, False)
    if kern is not None or step > 1:
        return kern
    return _near_rows(src, tgt.nodes, tgt.normals, min_target_distance(src, tgt.nodes))


def coupling_tangent(src: Discretization, dsrc: GridTangent, tgt: Discretization,
                     dtgt: GridTangent, density) -> np.ndarray:
    """The derivative of `normal_derivative_coupling(src, tgt)` applied to density columns.

    Along both grids' tangents; density is (n, k) and the result (D, m, k).
    Where the coupling refines, the kernel is differentiated on the same fine
    grid and applied to the density's `_interpolated` values, the transpose of
    the reduction in `_near_rows`.
    """
    dist = min_target_distance(src, tgt.nodes)
    fine = _refined_grid(src, dist) if _near_zone(src, dist)[0] else src
    if fine is not src:
        src, dsrc = fine, discretize_tangent(fine, dsrc.curves)
        density = _interpolated(density, fine.n)
    return _tangent_product(src, dsrc, tgt.nodes, tgt.normals, dtgt.nodes, dtgt.normals, density)


def _interpolated(density, m: int) -> np.ndarray:
    """Density columns (n, k) as their trigonometric interpolants at m >= n equispaced nodes.

    The transpose of `_reduced`: the n lowest modes, with the Nyquist bin of an even
    n split symmetrically (an odd n has none), so (rows of _near_rows) @ density equals
    (the fine-grid kernel) @ _interpolated(density, fine.n). At m = n: the density, rounded.
    """
    n = len(density)
    spec = np.fft.rfft(density, axis=0)
    if n % 2 == 0 and m > n:
        spec[n // 2] /= 2
    return np.fft.irfft(spec, n=m, axis=0) * (m / n)


def _reduced(values, n: int) -> np.ndarray:
    """The transpose of `_interpolated` from n nodes along the node axis of values on m >= n
    nodes (a vector's only axis, else the second to last); m = n keeps the values."""
    axis = 0 if np.ndim(values) == 1 else -2
    if values.shape[axis] == n:
        return values
    return np.fft.irfft(np.fft.rfft(values, axis=axis), n, axis=axis)


def single_layer_on_boundary(src: Discretization, density) -> np.ndarray:
    """S[density] on the source curve itself (Kress-split product quadrature).

    ln|z(t)-z(s)| = ln|2 sin((t-s)/2)| + smooth; the log part acts diagonally
    in Fourier space with multipliers -1/(2|k|) (0 for k = 0), the smooth part
    goes through the trapezoid rule with diagonal limit ln|z'(t)|. Off the diagonal
    the smooth part is (1/2) ln r^2 less ln|2 sin((t-s)/2)|, a circulant whose
    trapezoid sum joins the multipliers as the DFT of -ln(2 sin(pi j/n)) / n (0 at
    j = 0), so only the log of r^2, its diagonal set to |z'|^2 first, is formed, in row
    blocks of about _ROW_ENTRIES entries, each multiplied into its rows of the result.
    """
    rho = _check_density(src, density)
    n = src.n
    g = (rho.T * src.speed).T

    k = np.arange(1, n)
    mult = np.fft.fft(np.append(0.0, -np.log(2.0 * np.sin(math.pi / n * k)))).real / n
    mult[1:] -= 0.5 / np.minimum(k, n - k)  # -1/(2|k|) at the signed frequencies
    log_part = np.fft.ifft((np.fft.fft(g, axis=0).T * mult).T, axis=0)
    if np.isrealobj(rho):
        log_part = log_part.real

    smooth = np.empty(g.shape, np.result_type(g, 0.0))
    rows = max(1, _ROW_ENTRIES // n)
    for lo in range(0, n, rows):
        r2 = _offsets(src.nodes[lo : lo + rows], src.nodes)[2]
        r2[np.arange(len(r2)), np.arange(lo, lo + len(r2))] = src.speed[lo : lo + rows] ** 2
        np.matmul(np.log(r2, out=r2), g, out=smooth[lo : lo + rows])
    return smooth * (0.5 / n) + log_part


def _plain_reach(src: Discretization) -> float:
    """The distance _REFINE_DECADES max|z'| / N from which the trapezoid tail is negligible."""
    return _REFINE_DECADES * float(np.max(src.speed)) / src.n


def _refined_grid(src: Discretization, dist: float) -> Discretization:
    """The grid that holds the trapezoid tail below exp(-_REFINE_DECADES) at distance dist:
    src itself from its `_plain_reach`, else 2^k >= max(2N, _REFINE_DECADES max|z'| / dist) nodes.

    The one refinement rule of the package: the near layer potentials here
    and the near Newtonian potentials both use it.
    """
    if dist <= 0:
        raise NearEvaluationError("target lies on the source curve", distance=dist, limit=0.0)
    need = _REFINE_DECADES * float(np.max(src.speed)) / dist
    if need <= src.n:
        return src
    m = 1 << int(math.ceil(math.log2(max(2 * src.n, math.ceil(need)))))
    if m > _REFINE_CAP:
        raise NearEvaluationError(
            f"target at distance {dist:.3e} needs {m} nodes (> cap {_REFINE_CAP})",
            distance=dist,
        )
    return discretize(src.curve, m)


def _near_rows(src: Discretization, pts: np.ndarray, normals: np.ndarray, dist: float):
    """n.grad S rows, shape (m, n), at targets as close as dist to the curve.

    `_normal_kernel` is formed on the `_refined_grid` for dist in blocks of about
    4e6 entries, and each block is reduced to the n coarse columns by `_reduced`.
    """
    fine = _refined_grid(src, dist)
    rows = np.empty((len(pts), src.n))
    block = max(1, int(4e6) // fine.n)
    for lo in range(0, len(pts), block):
        s = slice(lo, lo + block)
        kern = _normal_kernel(fine.weights, normals[s], *_offsets(pts[s], fine.nodes))
        rows[s] = _reduced(kern.T, src.n).T
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

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
at the extreme contrasts. From 512 nodes each block is held as Fourier factors in its target
variable where its sample at every fourth (or second) target and source node resolves it, its
coefficient rows on the sample's source nodes (a product reduces its operand to those nodes
first); any other block is formed densely (`_block`). Below 256 nodes the core block, which
does not depend on mu, is eliminated densely, and per axis the N x N coating Schur complement
mu I + S, a compact perturbation of mu I, is solved by one LU (`_Elimination`, for the solve
and its derivative). From 256 nodes GMRES solves each right side (`_Krylov`): on that
complement, applied unformed, where K*_inner is factored (`_core_factor`), else on the whole
system; several right sides or a give-up form the same dense elimination once, from every
block formed densely. A product one stage forms is handed on, never formed twice.
The kept state, one of those two immutable values, is held by a one-slot memo keyed on both
curves' coefficients, N, lam and the backgrounds for the public calls and the search's
evaluations (a sigma_m sweep eliminates once, and `eval_u` forms its kernels once); the last
evaluation holds it for the Jacobian.

Only diagonal matrix tensors diag(sigma_m^1, sigma_m^2) are supported: the
axis-j solve uses the isotropic value sigma_m^j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    GeometryError,
    SolverError,
    UnsupportedConfigurationError,
    ValidationError,
)
from .geometry import (
    CoatedInclusion,
    Discretization,
    GridTangent,
    _winding,
    discretize,
)
from .layerpot import (
    _interpolated,
    _kernel_line,
    _layer_kernels,
    _near_zone,
    _off_fields,
    _offsets,
    _reduced,
    _targets_xy,
    coupling_tangent,
    kstar_matrix,
    kstar_tangent,
    normal_derivative_coupling,
    single_layer_grad_near,  # no caller here: bench/spans.py traces this name
    single_layer_grad_off,
    single_layer_off,
)
from .report import Report

DEFAULT_NODES = 256
PROBE_POINTS = 64
_PROBE_SCALE = 3.0  # the default probe radius, in outer max radii
_CORE_MIN = 5  # fewest core points: the quadratic fit of the Newtonian check has 5 unknowns
# from _GMRES_NODES nodes each right side is solved by GMRES (`_Krylov`), which
# stops once the true residual is within _GMRES_TOL of |b|, or at _GMRES_CAP iterations;
# `_block` cuts a factored block's modes at the same _GMRES_TOL
_GMRES_NODES = 256
_GMRES_TOL = 1e-14
_GMRES_CAP = 60
# from _SAMPLE_NODES nodes a block is held by its low Fourier modes in the target variable
# (`_block`), and goes dense when its full-grid column has a coefficient past those modes
# above _FOURIER_TOL times the largest
_SAMPLE_NODES = 512
_FOURIER_TOL = 1e-13


def _check_core_shell(sigma_c: float, sigma_s: float) -> None:
    if not (math.isfinite(sigma_s) and sigma_s > 0):
        raise ValidationError(f"shell conductivity must be positive finite, got {sigma_s}")
    if math.isnan(sigma_c) or sigma_c < 0:
        raise ValidationError(f"core conductivity must be >= 0 (inf allowed), got {sigma_c}")
    if sigma_c == sigma_s:
        raise ValidationError("core and shell conductivities must differ")


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


def _solve(a: np.ndarray, b: np.ndarray, what: str) -> np.ndarray:
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"{what} singular", cond=float(np.linalg.cond(a))) from exc


def _pair(value, case, r1, phi, psi, k_phi=None, c_psi=None) -> DensityPair:
    """case (mu, h, axis)'s DensityPair on value's grids, core flux r1 + K*_in phi - phi / 2 +
    C_oi psi (by value's blocks where not given); non-finite densities are a SolverError."""
    if not (np.all(np.isfinite(phi)) and np.all(np.isfinite(psi))):
        raise SolverError("transmission solve produced non-finite densities")
    k_in, _, c_oi, _ = value.parts
    k_phi = k_in @ phi if k_phi is None else k_phi
    flux = r1 + (k_phi - 0.5 * phi) + (c_oi @ psi if c_psi is None else c_psi)
    return DensityPair(phi, psi, case[2], case[1], value.d_in, value.d_out, flux)


@dataclass(frozen=True, eq=False)
class _Elimination:
    """The formed mu-free core elimination of one geometry, N, lam and backgrounds; read-only.

    With A11 = lam I - K*_in, x_oi = A11^-1 C_oi and S = -K*_out - C_io x_oi, psi solves
    (mu I + S) psi = b by one LU and phi = y + x_oi psi; sides holds (dh/dnu on the core, y,
    b) per background, y = A11^-1 b1 and b the coating right side plus C_io y. parts holds
    (K*_in, K*_out, C_oi, C_io) as dense arrays, and A11 is solved by one LU. With the four
    blocks, x_oi and S that is six N x N arrays, 3 MB at N = 256 and 48 MB at N = 1024.
    `solve_tangent` differentiates `solve`'s densities only.
    """

    d_in: Discretization
    d_out: Discretization
    lam: float
    parts: tuple
    x_oi: np.ndarray
    schur: np.ndarray
    sides: tuple

    def solve(self, cases) -> list[DensityPair]:
        """Densities for each case (mu, h, axis), in the order of the backgrounds."""
        return [_pair(self, case, r1, *self._coating(case[0], y1, b2))
                for case, (r1, y1, b2) in zip(cases, self.sides)]

    def _coating(self, mu: float, y: np.ndarray, b: np.ndarray):
        """(phi, psi): (mu I + S) psi = b by one LU of the augmented copy of S, and
        phi = y + x_oi psi; b is (N,) or (N, k)."""
        s = _augment(self.schur.copy(), mu, self.d_out)
        psi = _solve(s, b, f"transmission coating block (lam={self.lam}, mu={mu})")
        return y + self.x_oi @ psi, psi

    def solve_tangent(self, pairs, mu, t_in: GridTangent, t_out: GridTangent, dmu):
        """(dphi, dpsi), each (2, N, D + C): the derivative of `pairs`, solved here at mu.

        Columns: one per direction of the grid tangents t_in and t_out (the same D), then
        one per column of dmu (2, C), which moves mu_j by dmu[j]. dx = -A^-1 (dA x - db).
        """
        d_in, d_out, lam, n = self.d_in, self.d_out, self.lam, self.d_in.n
        phi = np.column_stack([q.phi for q in pairs])
        psi = np.column_stack([q.psi for q in pairs])
        dim, cols = len(t_in.curves), len(t_in.curves) + dmu.shape[1]
        dphi, dpsi = np.zeros((2, n, cols)), np.zeros((2, n, cols))
        if dim:
            # db - dA x per direction and axis; db is the coordinate fields' normal
            # derivative, nu_j, less its weighted mean
            f = []
            for d, t, contrast, own, src, dsrc, other in (
                (d_in, t_in, np.full(2, lam), phi, d_out, t_out, psi),
                (d_out, t_out, np.array(mu), psi, d_in, t_in, phi),
            ):
                dnu = np.stack([t.normals.real, t.normals.imag], axis=2)
                fi = kstar_tangent(d, t, own) + coupling_tangent(src, dsrc, d, t, other) + dnu
                fi -= (_mean_tangent(d.normals, dnu, d, t)
                       + (contrast >= 0) * _mean_tangent(own, None, d, t))[:, None, :]
                f.append(fi)
            v1, = _core_solve(self.parts[0], lam, d_in, None,
                              f[0].transpose(1, 0, 2).reshape(n, -1))
            v1 = v1.reshape(n, dim, 2).transpose(2, 0, 1)
            dphi[:, :, :dim] = v1
            dpsi[:, :, :dim] = f[1].transpose(2, 1, 0) + self.parts[3] @ v1
        dpsi[:, :, dim:] = -psi.T[:, :, None] * dmu[:, None, :]
        for j, mu_j in enumerate(mu):
            dphi[j], dpsi[j] = self._coating(mu_j, dphi[j], dpsi[j])
        return dphi, dpsi


@dataclass(frozen=True, eq=False)
class _Krylov:
    """From _GMRES_NODES nodes: `_Elimination`'s grids and lam, the blocks (`_block`) as parts,
    `_core_factor`'s core, and rhs, (dh/dnu on the core, on the coating) per background;
    read-only. `_gmres` solves each right side: with core, `_Elimination`'s coating system,
    A11 solved by core (`_woodbury`) and S applied unformed (`_schur`), where a
    one-step solve makes 7 block products (3 Arnoldi, 3 check, K*_in phi), each (N + N/4) r
    multiply-adds for a factored block of rank r, and with every block factored (N = 1024,
    ranks up to 249) no N x N array is held, 3 to 9 MB in all; else the coupled system
    [lam I - K*_in, -C_oi; -C_io, mu I - K*_out], each diagonal block `_shift`ed (`_coupled`).
    The check that accepts gives the products phi and the core flux need. Several right sides
    (`solve_tangent`), or GMRES giving up on any case, take `dense`, the elimination that is
    kept below _GMRES_NODES."""

    d_in: Discretization
    d_out: Discretization
    lam: float
    parts: tuple
    core: tuple | None
    rhs: list

    def solve(self, cases) -> list[DensityPair]:
        """Densities for each case (mu, h, axis), all by `dense` if GMRES gives up on one."""
        pairs, n, product = [], self.d_in.n, self._schur if self.core else self._coupled
        for case, (r1, y, b) in zip(cases := list(cases), self.sides):
            shifts = _shift(self.lam, self.d_in), _shift(case[0], self.d_out)
            if (solved := _gmres(lambda v: product(v, shifts), b)) is None:
                return self.dense.solve(cases)
            x, aux = solved
            if self.core:  # x is psi; the check gave C_oi psi and A11^-1 C_oi psi
                c_psi, w = aux or (c := self.parts[2] @ x, _woodbury(*self.core, self.lam, c))
                pairs.append(_pair(self, case, r1, y + w, x, None, c_psi))
            else:  # x is (phi, psi); the check gave K*_in phi and C_oi psi
                pairs.append(_pair(self, case, r1, x[:n], x[n:], *(aux or (0.0, 0.0))))
        return pairs

    def _schur(self, v: np.ndarray, shifts):
        """(S v shifted, (C_oi v, A11^-1 C_oi v)), S v = -K*_out v - C_io A11^-1 C_oi v."""
        _, k_out, c_oi, c_io = self.parts
        k_v, c_v = _products(v, k_out, c_oi)
        w = _woodbury(*self.core, self.lam, c_v)
        return shifts[1](-k_v - c_io @ w, v), (c_v, w)

    def _coupled(self, v: np.ndarray, shifts):
        """(A v, (K*_in phi, C_oi psi)) for v = (phi, psi), A the coupled system."""
        (k_in, k_out, c_oi, c_io), n = self.parts, self.d_in.n
        (k_phi, c_phi), (c_psi, k_psi) = _products(v[:n], k_in, c_io), _products(v[n:], c_oi, k_out)
        return np.concatenate([shifts[0](-(k_phi + c_psi), v[:n]),
                               shifts[1](-(c_phi + k_psi), v[n:])]), (k_phi, c_psi)

    @cached_property
    def sides(self) -> tuple:
        """`_Elimination`'s sides with core, else (dh/dnu on the core, None, the coupled side,
        each half less its weighted mean) per background."""
        if self.core:
            return _sides(self.d_in, self.d_out, self.lam, self.parts, self.core, self.rhs)[0]
        return tuple((r1, None, np.concatenate([r1 - _weighted_mean(r1, self.d_in.weights),
                                                r2 - _weighted_mean(r2, self.d_out.weights)]))
                     for r1, r2 in self.rhs)

    @cached_property
    def dense(self) -> _Elimination:
        """The `_Elimination` of these blocks, formed densely at the first read; GMRES never
        reads it."""
        return _eliminate(self.d_in, self.d_out, self.lam, self.parts, self.rhs)

    solve_tangent = property(lambda self: self.dense.solve_tangent)


_kept: dict = {}  # the last `_Elimination` or `_Krylov` under its key; a miss frees it first
_fields: dict = {}  # `eval_u`'s kernels of the two latest point sets; a miss of _kept empties it


def _sides(d_in, d_out, lam: float, parts, core, rhs, *blocks):
    """(`_Elimination`'s sides for rhs, then A11^-1 of each block by `_core_solve`)."""
    # the continuous right sides have exact mean zero; project off the
    # quadrature-level remainder so the rank-one terms see clean data
    b1 = np.column_stack([r - _weighted_mean(r, d_in.weights) for r, _ in rhs])
    *solved, y = _core_solve(parts[0], lam, d_in, core, *blocks, b1)
    sides = tuple((r1, y1.copy(), r2 - _weighted_mean(r2, d_out.weights) + parts[3] @ y1)
                  for (r1, r2), y1 in zip(rhs, y.T))
    _read_only(*(v for side in sides for v in side))
    return sides, *solved


def _eliminate(d_in, d_out, lam: float, parts, rhs) -> _Elimination:
    """The `_Elimination` of the assembled blocks, each formed by `_dense`, core contrast lam
    and rhs."""
    parts = tuple(map(_dense, parts))
    sides, x_oi = _sides(d_in, d_out, lam, parts, None, rhs, parts[2])
    schur = -parts[1] - parts[3] @ x_oi
    x_oi = np.ascontiguousarray(x_oi)  # the solve's N x (N + 2) y fragmented the heap
    _read_only(schur, x_oi, *parts)
    return _Elimination(d_in, d_out, lam, parts, x_oi, schur, sides)


def _read_only(*arrays) -> None:
    for a in arrays:  # a `_Factored` block is read-only already
        if isinstance(a, np.ndarray):
            a.flags.writeable = False


def _elimination(inc: CoatedInclusion, n: int, lam: float, backgrounds):
    """The kept `_Elimination` or `_Krylov` for this key; a miss forms and keeps a new one."""
    curves = [(c.k_min, c.coeffs.dtype.str, c.coeffs.tobytes()) for c in (inc.inner, inc.outer)]
    entry = _kept.get(key := (*curves, n, lam, backgrounds))
    if entry is None:  # a local, so a concurrent miss in another thread cannot pull it away
        _kept.clear()
        _fields.clear()
        d_in, d_out, parts = _assembled(inc, n)
        rhs = [tuple(np.sum(h.gradient(d.nodes) * d.normals, axis=1) for d in (d_in, d_out))
               for h in backgrounds]
        core = _core_factor(parts[0], lam, d_in)
        _read_only(*parts, *(core or ()), *(r for side in rhs for r in side),
                   *vars(d_in).values(), *vars(d_out).values())
        entry = _kept[key] = (_Krylov(d_in, d_out, lam, parts, core, rhs) if n >= _GMRES_NODES
                              else _eliminate(d_in, d_out, lam, parts, rhs))
    return entry


def _shift(contrast: float, d: Discretization):
    """(B v, v) -> B v plus what `_augment(B, contrast, d)` adds to B, times v."""
    mean = d.weights / np.sum(d.weights) * (contrast >= 0.0)
    return lambda bv, v: bv + contrast * v + mean @ v


def _augment(a: np.ndarray, contrast: float, d: Discretization) -> np.ndarray:
    """a + contrast I, plus the weighted-mean term when contrast >= 0, formed in a itself.

    The weights are a left eigenvector of the discrete K* with eigenvalue 1/2, so the
    term turns the block row functional into (contrast + 1/2) w^T: required at +1/2
    (conducting core), harmless for contrast >= 0, singular at -1/2 (insulating core).
    """
    a.flat[:: d.n + 1] += contrast
    if contrast >= 0.0:
        a += d.weights / np.sum(d.weights)
    return a


@dataclass(frozen=True, eq=False)
class _Factored:
    """An operator block held as U G R: U = [1, cos kt, sin kt] (k = 1..m-1) at its N target
    nodes t, G the (2m - 1) x n Fourier coefficient rows at every (N/n)-th source node and R
    `_reduced`'s map to them; read-only. `block @ x` applies it."""

    u: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        self.u.flags.writeable = self.g.flags.writeable = False

    def __matmul__(self, x):
        return self.u @ (self.g @ _reduced(x, self.g.shape[1]))


def _products(v: np.ndarray, *blocks) -> list:
    """block @ v for each block; the `_Factored` ones of one G width share one `_reduced` v."""
    r = {b.g.shape[1]: None for b in blocks if isinstance(b, _Factored)}
    r = {w: _reduced(v, w) for w in r}
    return [b.u @ (b.g @ r[b.g.shape[1]]) if isinstance(b, _Factored) else b @ v for b in blocks]


def _dense(block) -> np.ndarray:
    """A block as one N x N array; G R is G interpolated to all N source nodes."""
    if isinstance(block, _Factored):
        return block.u @ _interpolated(block.g.T, len(block.u)).T
    return block


def _block(src: Discretization, tgt: Discretization):
    """The block from src's nodes to tgt's: K* on src's grid when tgt is src, else the coupling.

    From _SAMPLE_NODES nodes it is first sampled, once, at every s-th target and source node,
    s = gcd(N, 4), with the grid's own weights (`kstar_matrix`'s and the coupling's step), so
    each entry is one of the N x N block; those (N/s)^2 entries resolve the modes below N/8
    in both variables. The real FFT of the sample over the target nodes is cut after mode
    m - 1 < N/8, past which each mode's coefficients, transformed over the source nodes as
    well, are within _GMRES_TOL of the largest, so what the cut drops stays below GMRES's
    acceptance. The block is held as `_Factored`, rank 2m - 1 < N/4, its kept coefficient
    rows G on the N/s sampled source nodes and U built by one inverse real FFT. It is formed
    densely instead, one N x N array with the sample and its transform freed first, where
    the coupling's sample is refused (a source node between the sampled ones could put a
    target in the near zone; the dense coupling refines those rows), or where either of two
    guards finds content from mode N/8 on, which would fold onto the kept modes:
    - the largest-norm column, formed at all N targets, above _FOURIER_TOL of the sample's
      largest target coefficient;
    - then the largest-norm row, formed against all N sources, above _FOURIER_TOL of its
      own largest coefficient.
    A smaller grid forms the block densely. At N = 1024 the sample and each of its
    transforms take about 0.5 MB, U up to 2.1 MB and G up to 0.5 MB (rank 150: 1.2 MB and
    0.3 MB).
    """
    own, n = tgt is src, tgt.n
    if n >= _SAMPLE_NODES:
        step = math.gcd(n, 4)
        sample = kstar_matrix(src, step) if own else normal_derivative_coupling(src, tgt, step)
        if sample is not None:
            i, j = (int(np.argmax(np.einsum("ij,ij->" + a, sample, sample))) for a in "ij")
            f, scale = np.fft.rfft(sample, axis=0), len(sample)  # f / scale: the coefficients
            del sample
            top = np.max(np.abs(f[: n // 8]))
            line = lambda k, axis: np.abs(np.fft.rfft(_kernel_line(src, tgt, step * k, axis)))
            if (np.max(line(j, 0)[n // 8 :]) <= _FOURIER_TOL * top * n / scale
                    and np.max((row := line(i, 1))[n // 8 :]) <= _FOURIER_TOL * np.max(row)):
                size = np.max(np.abs(np.fft.fft(f[: n // 8], axis=1)), axis=1)
                m = len(size) - int(np.argmax(size[::-1] > _GMRES_TOL * np.max(size)))
                g = np.empty((2 * m - 1, f.shape[1]))
                g[0] = f[0].real / scale
                np.multiply(f[1:m].real, 2.0 / scale, out=g[1:m])
                np.multiply(f[1:m].imag, -2.0 / scale, out=g[m:])
                del f
                # U's columns are the inverse real FFTs of unit spectra: 1, cos kt and sin kt
                spec, k = np.zeros((m, 2 * m - 1), complex), np.arange(1, m)
                spec[0, 0], spec[k, k], spec[k, k + m - 1] = n, n / 2, -0.5j * n
                return _Factored(np.fft.irfft(spec, n, axis=0), g)
            del f
    return kstar_matrix(src) if own else normal_derivative_coupling(src, tgt)


def _core_factor(k_in, lam: float, d: Discretization):
    """(U, G, a, w): A11^-1 b = (b + U (G R b - a w^T b)) / lam, A11 = `_augment(-k_in, lam, d)`
    = lam I - L, or None. From K*_in's `_Factored` U G0 R (None, for the dense solve, when
    K*_in is dense): the weighted-mean term is constant in the target, so L = U G_L with
    G_L = G0 R - e_0 w^T, w the weights over their sum when lam >= 0 (else 0). Woodbury:
    G = (lam I_r - G_L U)^-1 G0, r = 2m - 1 < N/4, and a is that inverse's first column, so
    no factor is widened to N. U's modes are below n/2, so R U = (N/n) U at the n nodes.
    """
    if not isinstance(k_in, _Factored):
        return None
    u, g = k_in.u, k_in.g
    step, mean = len(u) // g.shape[1], d.weights / np.sum(d.weights) * (lam >= 0.0)
    gu = step * (g @ u[::step])
    gu[0] -= mean @ u
    inv = _solve(lam * np.eye(len(g)) - gu, np.eye(len(g)), f"transmission core block (lam={lam})")
    return u, inv @ g, inv[:, 0], mean


def _woodbury(u, g, a, mean, lam: float, b: np.ndarray) -> np.ndarray:
    """A11^-1 b by `_core_factor`'s factors."""
    return (u @ (g @ _reduced(b, g.shape[1]) - np.multiply.outer(a, mean @ b)) + b) / lam


def _core_solve(k_in, lam: float, d: Discretization, core, *blocks) -> list:
    """A11^-1 applied to each array block: by `_core_factor`'s factors core, or, if None, by
    one LU of the dense K*_in's A11 for all blocks."""
    if core:
        return [_woodbury(*core, lam, b) for b in blocks]
    y = _solve(_augment(-k_in, lam, d), np.hstack(blocks), f"transmission core block (lam={lam})")
    return np.split(y, np.cumsum([b.shape[1] for b in blocks[:-1]]), axis=1)


def _gmres(product, b: np.ndarray):
    """(x, aux) with A x = b, by unrestarted GMRES, or None.

    product(v) = (A v, aux), so A need not be formed (nor an augmented copy, see `_shift`);
    aux is the one of the check that accepted x. Arnoldi orthogonalises twice (CGS2); each step
    factors the Hessenberg matrix H = QR, so the least-squares residual is |b| |Q[0, k+1]|
    and y solves R y = |b| Q[0, :k+1]. Once that residual reaches _GMRES_TOL |b|, each step
    checks the true residual |b - A x| against the same bound. None after _GMRES_CAP
    iterations, or once a failed check's |b - A x| has fallen by fewer than half as many
    decades as the least-squares residual since the last check: it has stopped following
    that residual at the rounding floor of the products, where it wanders by a few percent.
    """
    beta = float(np.linalg.norm(b))
    if beta == 0.0:
        return np.zeros_like(b), None
    tol = _GMRES_TOL * beta
    basis = np.empty((_GMRES_CAP + 1, len(b)))
    basis[0] = b / beta
    hess = np.zeros((_GMRES_CAP + 1, _GMRES_CAP))
    floor, least = math.inf, 1.0  # the last failed check's true and least-squares residuals
    for k in range(_GMRES_CAP):
        v = product(basis[k])[0]
        for _ in range(2):
            c = basis[: k + 1] @ v
            v -= c @ basis[: k + 1]
            hess[: k + 1, k] += c
        h = hess[k + 1, k] = float(np.linalg.norm(v))
        q, r = np.linalg.qr(hess[: k + 2, : k + 1], mode="complete")
        if r[k, k] == 0.0:
            return None
        ls = beta * abs(q[0, k + 1])
        if ls <= tol:
            x = np.linalg.solve(r[: k + 1], beta * q[0, : k + 1]) @ basis[: k + 1]
            ax, aux = product(x)
            res = float(np.linalg.norm(b - ax))
            if res <= tol:
                return x, aux
            if res >= floor * math.sqrt(ls / least):
                return None
            floor, least = res, ls
        if h == 0.0:
            return None
        basis[k + 1] = v / h
    return None


def _assembled(inc: CoatedInclusion, n: int):
    """Both grids and the contrast-independent blocks (K*_in, K*_out, C_oi, C_io), by `_block`."""
    d_in = discretize(inc.inner, n)
    d_out = discretize(inc.outer, n)
    pairs = ((d_in, d_in), (d_out, d_out), (d_out, d_in), (d_in, d_out))
    return d_in, d_out, tuple(_block(src, tgt) for src, tgt in pairs)


def solve_both_axes(
    inc: CoatedInclusion, p: ConductivityProfile, n: int = DEFAULT_NODES
) -> tuple[DensityPair, DensityPair]:
    """Densities for the uniform backgrounds h = x_1 and h = x_2, in that order.

    The axis-j solve uses the matrix component sigma_m^j; both axes share one elimination.
    """
    return tuple(_solved(inc, p, n)[1])


def _solved(inc: CoatedInclusion, p: ConductivityProfile, n: int):
    """(the kept elimination, `solve_both_axes`' pairs as a list): the search holds both."""
    cp = contrasts(p)
    backgrounds = (HarmonicPoly.coordinate(1), HarmonicPoly.coordinate(2))
    elim = _elimination(inc, n, cp.lam, backgrounds)
    return elim, elim.solve(zip(cp.mu, backgrounds, (1, 2)))


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
    return _elimination(inc, n, cp.lam, (h,)).solve([(cp.mu[0], h, None)])[0]


def eval_u(
    inc: CoatedInclusion, pair: DensityPair, p: ConductivityProfile, points
) -> tuple[np.ndarray, np.ndarray]:
    """Field values and gradients u, grad u at points outside both near zones.

    Each grid's kernels at the points (`layerpot._layer_kernels`, 3 m N floats) are formed once
    per kept elimination (_fields holds those of the two latest point sets, a sigma_m sweep's
    exterior and core points, with the grids they are keyed on), so each density takes three
    products. inc and p are not read: benchmark code calls it with these arguments.
    """
    pts, grids = _targets_xy(points), (pair.disc_inner, pair.disc_outer)
    key = (*map(id, grids), pts.tobytes())
    entry = _fields.pop(key, None) or (grids, [_layer_kernels(d, pts) for d in grids])
    for old in list(_fields)[:-1]:  # a copy of the keys: another thread may change _fields
        _fields.pop(old, None)
    _fields[key] = entry  # the latest last
    (s_in, g_in), (s_out, g_out) = (_off_fields(d, rho, pts, True, True, kern) for d, rho, kern
                                    in zip(grids, (pair.phi, pair.psi), entry[1]))
    return pair.h.value(pts) + s_in + s_out, pair.h.gradient(pts) + g_in + g_out


def _gradient(pair: DensityPair, pts: np.ndarray) -> np.ndarray:
    """grad u at (m, 2) points outside both near zones."""
    return (pair.h.gradient(pts) + single_layer_grad_off(pair.disc_inner, pair.phi, pts)
            + single_layer_grad_off(pair.disc_outer, pair.psi, pts))


def _probe_radius(radius) -> float:
    """A probe radius as a float; an integer beyond the float range is refused."""
    try:
        return float(radius)
    except OverflowError:
        raise ValidationError("probe radius is beyond the float range") from None


def _far_probe(inc: CoatedInclusion, radius: float | None) -> tuple[float, np.ndarray]:
    """(radius, points) of the PROBE_POINTS-point probe circle.

    The radius is _PROBE_SCALE outer max radii by default and at least 2; its
    squared distance to the inclusion must stay a finite float.
    """
    r_out = inc.outer.max_radius()
    radius = _PROBE_SCALE * r_out if radius is None else _probe_radius(radius)
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


def _mean_tangent(values, dvalues, d: Discretization, dd: GridTangent) -> np.ndarray:
    """Derivative of the weighted mean of value columns (n, k) along each direction: (D, k).

    dvalues (D, n, k) moves the values, dd the grid's weights; None holds the values.
    """
    total = np.sum(d.weights)
    out = dd.weights @ values - np.outer(np.sum(dd.weights, axis=1), d.weights @ values) / total
    if dvalues is not None:
        out += d.weights @ dvalues
    return out / total


def _core_grid(
    inc: CoatedInclusion, d_in: Discretization, d_out: Discretization, factors=(0.5,)
) -> np.ndarray:
    """16-point copies of the core boundary scaled about its center, plus the center.

    A candidate is kept when its winding number about the core grid is 1 and
    it lies outside the near zone of both grids; a dropped one is not
    replaced, and fewer than _CORE_MIN kept points is a GeometryError.
    """
    c0 = inc.inner.center
    t = 2 * math.pi * np.arange(16) / 16
    z = np.concatenate([c0 + s * (inc.inner.point(t) - c0) for s in factors] + [[c0]])
    pts = np.column_stack([z.real, z.imag])
    dx, dy, r2 = _offsets(pts, d_in.nodes)
    # the winding number does not change when every difference flips sign
    keep = _winding((dx + 1j * dy).T) == 1
    for grid, sq in ((d_in, r2), (d_out, _offsets(pts, d_out.nodes)[2])):
        keep &= ~_near_zone(grid, np.sqrt(sq.min(axis=1)))[0]
    kept = int(np.count_nonzero(keep))
    if kept < _CORE_MIN:
        raise GeometryError(
            f"only {kept} of {len(pts)} core sample points lie inside "
            f"the core and outside both near zones; need {_CORE_MIN}"
        )
    return pts[keep]


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
    the discretisation (the probe residual and core slope check accuracy): a few
    1e-15 after a core solve, about 5e-14 (GMRES's acceptance) after a coupled one.
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
    cp = contrasts(p)
    pairs = solve_both_axes(inc, p, n)
    core = _core_grid(inc, pairs[0].disc_inner, pairs[0].disc_outer)
    axes = []
    for pair in pairs:
        j = pair.axis - 1

        residual = float(np.max(np.abs(_scattered_values(pair, probe))))

        moment = (
            pair.disc_inner.nodes.T @ (pair.phi * pair.disc_inner.weights)
            + pair.disc_outer.nodes.T @ (pair.psi * pair.disc_outer.weights)
        )

        grads = _gradient(pair, core)
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
                axis=pair.axis,
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

"""Bounded least-squares search for neutral coated shapes.

The shape space is a truncated Laurent map with the gauge a_1 = 1: the free
unknowns are the real coefficients a_n for -M <= n <= -1 and 2 <= n <= M,
the modulus r0 of the outer circle, and the two (log-parametrized) coating
conductivities, inside the fixed box that COEFF_BOUND, R0_BOUNDS and
SIGMA_BOUNDS define. The residual is the stacked exterior deviation u - x_j
of the two uniform-gradient transmission solves on a probe circle, so it
vanishes exactly on neutral configurations; the reported objective is the
summed squared maximum deviation of the two axes.

The optimizer is scipy's bounded trust-region reflective least squares
(method "trf") with the exact Jacobian of the discrete residual, formed here
from the solver's derivative of the densities. trf calls jac only at the point
it has just evaluated and accepted, so the search keeps its last evaluation
(elimination, densities and probe circle) and differentiates that. A start
whose geometry fails is refused; any later point whose geometry or solve
fails gets a constant residual larger than any feasible one, and a zero
Jacobian, so the trust region rejects the step. Everything is deterministic:
no randomness enters the search.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .designer import confocal_design
from .errors import (
    GeometryError,
    NearEvaluationError,
    SolverError,
    ValidationError,
)
from .geometry import Curve, LaurentMap, discretize_tangent, laurent_domain
from .layerpot import single_layer_off, single_layer_off_tangent
from .report import OMIT, Report
from .transmission import _PROBE_SCALE, PROBE_POINTS, ConductivityProfile, _check_core_shell
from .transmission import _far_probe, _scattered_values, _solved, contrasts
from .transmission import eval_u, solve_both_axes  # noqa: F401  (bench/spans.py patches both here)

PENALTY = 1.0e6
_CHECK_SAMPLES = 128  # angular resolution of validity checks inside the objective
_FAILURES = (GeometryError, ValidationError, SolverError, NearEvaluationError)
_TOL = 1e-15  # least_squares ftol/xtol/gtol: the target or max_evals ends a run
# the search box: |a_n| <= COEFF_BOUND keeps a_1 = 1 dominant
COEFF_BOUND = 0.95
R0_BOUNDS = (1.05, 4.0)
SIGMA_BOUNDS = (1e-3, 1e3)  # coating conductivities sigma_m^1, sigma_m^2


@dataclass(frozen=True)
class SearchConfig:
    """Core and shell conductivities, shape order and discretization of the search."""

    sigma_c: float
    sigma_s: float
    max_order: int = 2
    nodes: int = 128

    def __post_init__(self):
        _check_core_shell(self.sigma_c, self.sigma_s)
        for name in ("max_order", "nodes"):
            v = getattr(self, name)
            if not isinstance(v, numbers.Integral) or isinstance(v, bool):
                raise ValidationError(f"{name} must be an integer, got {v!r}")
        if self.max_order < 1:
            raise ValidationError("max_order must be at least 1")
        if self.nodes < 16 or self.nodes % 2:
            raise ValidationError("nodes must be an even integer >= 16")

    @property
    def coeff_orders(self) -> tuple[int, ...]:
        neg = tuple(range(-self.max_order, 0))
        pos = tuple(range(2, self.max_order + 1))
        return neg + pos

    @property
    def dim(self) -> int:
        return len(self.coeff_orders) + 3


@dataclass(frozen=True)
class ShapeParams(Report):
    """One point of the search space (gauge a_1 = 1)."""

    coeffs: dict[int, float]
    r0: float
    sigma_m: tuple[float, float]

    def laurent_map(self) -> LaurentMap:
        return LaurentMap(coeffs={1: 1.0, **self.coeffs}, r0=self.r0)

    def confocality_gap(self) -> float:
        gaps = [abs(v) for k, v in self.coeffs.items() if abs(k) >= 2]
        return max(gaps, default=0.0)


def encode(params: ShapeParams, cfg: SearchConfig) -> np.ndarray:
    """The unknown vector of a point; refuses a coefficient the search cannot vary."""
    for k, a in params.coeffs.items():
        if k not in cfg.coeff_orders:
            raise ValidationError(f"the search varies a_n only for n in {cfg.coeff_orders} "
                                  f"(a_1 = 1 is the gauge); the start sets a_{k}")
        if complex(a).imag != 0:
            raise ValidationError(f"the search varies only real a_n; the start sets a_{k} = {a}")
    x = [complex(params.coeffs.get(k, 0.0)).real for k in cfg.coeff_orders]
    x.append(params.r0)
    for s in params.sigma_m:
        if not (math.isfinite(s) and s > 0):
            raise ValidationError(f"sigma_m must be positive and finite, got {s}")
        x.append(math.log(s))
    return np.asarray(x, dtype=float)


def decode(x: np.ndarray, cfg: SearchConfig) -> ShapeParams:
    x = np.asarray(x, dtype=float)
    if x.shape != (cfg.dim,):
        raise ValidationError(f"expected vector of length {cfg.dim}, got shape {x.shape}")
    k = len(cfg.coeff_orders)
    coeffs = dict(zip(cfg.coeff_orders, (float(v) for v in x[:k])))
    r0 = float(x[k])
    sigma_m = (math.exp(float(x[k + 1])), math.exp(float(x[k + 2])))
    return ShapeParams(coeffs=coeffs, r0=r0, sigma_m=sigma_m)


def _box(cfg: SearchConfig) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper bounds of the search space, in encode() coordinates."""
    k = len(cfg.coeff_orders)
    llo, lhi = (math.log(s) for s in SIGMA_BOUNDS)
    lo = np.array([-COEFF_BOUND] * k + [R0_BOUNDS[0], llo, llo])
    hi = np.array([COEFF_BOUND] * k + [R0_BOUNDS[1], lhi, lhi])
    return lo, hi


def _in_box(x: np.ndarray, cfg: SearchConfig) -> bool:
    lo, hi = _box(cfg)
    return x.shape == lo.shape and bool(np.all((lo <= x) & (x <= hi)))


def _profile(params: ShapeParams, cfg: SearchConfig) -> ConductivityProfile:
    return ConductivityProfile(sigma_c=cfg.sigma_c, sigma_s=cfg.sigma_s, sigma_m=params.sigma_m)


def _deviations(params: ShapeParams, cfg: SearchConfig):
    """Exterior deviations u - x_j per axis on the standard probe circle, and their solve."""
    inc = laurent_domain(params.laurent_map(), samples=_CHECK_SAMPLES)
    profile = _profile(params, cfg)
    radius, probe = _far_probe(inc, None)
    elim, pairs = _solved(inc, profile, cfg.nodes)
    out = [_scattered_values(pair, probe) for pair in pairs]
    if not all(np.all(np.isfinite(d)) for d in out):
        raise SolverError("non-finite field on the probe circle")
    return out, (inc, profile, elim, pairs, radius, probe)


def _jacobian(evaluation, cfg: SearchConfig, vary) -> np.ndarray:
    """Exact derivative of the stacked deviations of `evaluation` (from `_deviations`).

    vary lists the unknowns (ascending). The boundary images are linear in each
    a_n (dc = r^n e^{int} on |zeta| = r); r0 moves the outer one by n a_n r0^(n-1) e^{int},
    and log sigma_m^j moves mu_j by sigma_s sigma_m^j / (sigma_s - sigma_m^j)^2. The rows
    S_in[phi] + S_out[psi] move with the densities (`solve_tangent`), both grids and the
    probe radius, _PROBE_SCALE outer max radii, at its active sample.
    """
    inc, profile, elim, pairs, radius, probe = evaluation
    m, d_in, d_out = inc.origin, pairs[0].disc_inner, pairs[0].disc_outer
    orders, k = cfg.coeff_orders, len(cfg.coeff_orders)
    d_inner = [Curve(np.ones(1, complex), orders[i]) for i in vary if i < k]
    d_outer = [Curve(np.full(1, m.r0 ** orders[i], complex), orders[i]) for i in vary if i < k]
    if k in vary:
        out = inc.outer
        d_inner.append(Curve(np.zeros(1, complex), 0))
        d_outer.append(Curve(out.coeffs * np.arange(out.k_min, out.k_min + len(out.coeffs)) / m.r0,
                             out.k_min))
    t_in, t_out = discretize_tangent(d_in, d_inner), discretize_tangent(d_out, d_outer)
    ss, sm = profile.sigma_s, np.array(profile.sigma_m)
    dmu = np.eye(2)[:, [i - k - 1 for i in vary if i > k]] * (ss * sm / (ss - sm) ** 2)[:, None]
    dphi, dpsi = elim.solve_tangent(pairs, contrasts(profile).mu, t_in, t_out, dmu)
    jac = np.stack([single_layer_off(d_in, dphi[j], probe) + single_layer_off(d_out, dpsi[j], probe)
                    for j in range(2)])
    if d_inner:
        phi, psi = (np.column_stack([getattr(q, a) for q in pairs]) for a in ("phi", "psi"))
        dprobe = _PROBE_SCALE * inc.outer.max_radius_tangent(d_outer)[:, None] * (
            probe[:, 0] + 1j * probe[:, 1]) / radius
        jac[..., :len(d_inner)] += (single_layer_off_tangent(d_in, t_in, phi, probe, dprobe)
                                    + single_layer_off_tangent(d_out, t_out, psi, probe, dprobe)).T
    return jac.reshape(-1, jac.shape[2])


def residuals(params: ShapeParams, cfg: SearchConfig) -> tuple[float, float]:
    """Max exterior deviation |u - x_j| per axis on the standard probe circle."""
    return tuple(float(np.max(np.abs(d))) for d in _deviations(params, cfg)[0])


def objective(x: np.ndarray, cfg: SearchConfig) -> float:
    """Summed squared residual; zero exactly at neutrality.

    Points outside the search box, or whose geometry or solve fails, score
    PENALTY + 1.
    """
    x = np.asarray(x, dtype=float)
    if _in_box(x, cfg):
        try:
            r1, r2 = residuals(decode(x, cfg), cfg)
            return r1 * r1 + r2 * r2
        except _FAILURES:
            pass
    return PENALTY + 1.0


@dataclass
class SearchResult(Report):
    """Outcome of a bounded least-squares search.

    evals counts residual evaluations and jacobians the exact Jacobians,
    one at each point the trust region accepted. history holds the best
    objective so far after every residual evaluation; improvements records
    (evaluation index, objective, confocality gap) at each point where the
    incumbent improved.
    """

    params: ShapeParams
    objective: float
    evals: int
    history: list[float] = field(repr=False, metadata=OMIT)
    improvements: list[tuple[int, float, float]] = field(
        repr=False, default_factory=list, metadata=OMIT
    )
    confocality_gap: float = 0.0
    converged: bool = False
    jacobians: int = 0


def _check_budget(max_evals) -> None:
    if not isinstance(max_evals, numbers.Integral) or isinstance(max_evals, bool) or max_evals < 1:
        raise ValidationError(f"the evaluation budget must be an integer >= 1, got {max_evals!r}")


def _least_squares(x, vary, bounds, cfg, max_evals, target):
    """Bounded trust-region least squares on the stacked probe deviations.

    x is a full unknown vector; the run varies its entries `vary`
    (ascending) inside bounds. Every residual evaluation counts against
    max_evals, and the run stops once the objective reaches target. Returns
    the best-so-far history, the improvements as (evaluation index,
    objective, params) and the number of Jacobians.
    """
    import scipy.optimize  # deferred: it costs more to import than the whole package

    _check_budget(max_evals)
    x = np.array(x, dtype=float)
    vary = list(vary)
    failed = np.full(2 * PROBE_POINTS, math.sqrt(PENALTY))
    history: list[float] = []
    improvements: list[tuple[int, float, ShapeParams]] = []
    point = evaluation = None  # the last evaluated point and its solve, None on the penalty
    jacobians = 0

    class _Stop(Exception):
        pass

    def params_of(v):
        full = x.copy()
        full[vary] = v
        return decode(full, cfg)

    def fun(v):
        nonlocal point, evaluation
        point, evaluation = v.copy(), None  # a miss below then frees the last elimination first
        params = params_of(v)
        try:
            devs, evaluation = _deviations(params, cfg)
            r1, r2 = (float(np.max(np.abs(d))) for d in devs)
            f, r = r1 * r1 + r2 * r2, np.concatenate(devs)
        except _FAILURES as exc:
            if not history and isinstance(exc, GeometryError):
                raise GeometryError(f"the start fails the geometry check: {exc}") from exc
            f, r = PENALTY + 1.0, failed
        if not history or f < history[-1]:
            improvements.append((len(history) + 1, f, params))
        history.append(improvements[-1][1])
        if history[-1] <= target or len(history) >= max_evals:
            raise _Stop
        return r

    def jac(v):
        nonlocal jacobians
        jacobians += 1
        if not np.array_equal(v, point):  # trf differentiates the point it has just evaluated
            raise RuntimeError("jac called at a point other than the last evaluated one")
        try:
            if evaluation is not None:
                return _jacobian(evaluation, cfg, vary)
        except _FAILURES:
            pass
        return np.zeros((len(failed), len(vary)))

    try:
        scipy.optimize.least_squares(
            fun, x[vary], jac=jac, bounds=bounds, method="trf", x_scale="jac",
            ftol=_TOL, xtol=_TOL, gtol=_TOL, max_nfev=max_evals,
        )
    except _Stop:
        pass
    return history, improvements, jacobians


def search(
    start: ShapeParams,
    cfg: SearchConfig,
    max_evals: int = 5000,
    target: float = 1e-12,
) -> SearchResult:
    """Minimize the neutrality objective from a given starting shape.

    The start must lie inside the search box, and its geometry must pass
    the check every evaluation runs: the first evaluation refuses it with a
    GeometryError otherwise. converged means the target objective was
    reached; the incumbent best point and the best-so-far history are
    returned either way.
    """
    if not (math.isfinite(target) and target > 0):
        raise ValidationError(f"target must be positive and finite, got {target!r}")
    x0 = encode(start, cfg)
    if not _in_box(x0, cfg):
        (llo, lhi), (rlo, rhi) = SIGMA_BOUNDS, R0_BOUNDS
        raise ValidationError(
            f"the start lies outside the search box (|a_n| <= {COEFF_BOUND}, "
            f"{rlo:g} <= r0 <= {rhi:g}, {llo:g} <= sigma_m <= {lhi:g})"
        )

    history, improvements, jacobians = _least_squares(
        x0, range(cfg.dim), _box(cfg), cfg, max_evals, target
    )
    _, best_f, best = improvements[-1]
    return SearchResult(
        params=best,
        objective=best_f,
        evals=len(history),
        history=history,
        improvements=[(e, f, p.confocality_gap()) for e, f, p in improvements],
        confocality_gap=best.confocality_gap(),
        converged=best_f <= target,
        jacobians=jacobians,
    )


@dataclass(frozen=True)
class PerturbationRow(Report):
    """One amplitude of the shape perturbation study."""

    amplitude: float
    valid: bool
    objective_fixed: float
    objective_reopt: float


def perturbation_study(
    am1: float,
    r0: float,
    sigma_c: float,
    sigma_s: float,
    amplitudes,
    nodes: int = 128,
    reopt_budget: int = 200,
) -> list[PerturbationRow]:
    """How fast neutrality degrades when an a_2 term deforms a neutral pair.

    For each amplitude eps the inner/outer pair of the confocal design gets
    an a_2 = eps Laurent term. objective_fixed keeps the designed coating
    conductivities; objective_reopt re-optimizes only the two conductivities
    (least squares as in search, without bounds, reopt_budget evaluations).
    Amplitudes that break the geometry are reported with valid=False and NaN
    objectives.
    """
    _check_budget(reopt_budget)  # once, so a study with no valid amplitude refuses it too
    dr = confocal_design(1.0, am1, r0, sigma_c, sigma_s)
    cfg = SearchConfig(sigma_c=sigma_c, sigma_s=sigma_s, max_order=2, nodes=nodes)
    rows = []
    for eps in amplitudes:
        coeffs = {-2: 0.0, -1: am1, 2: float(eps)}
        params = ShapeParams(coeffs=coeffs, r0=r0, sigma_m=dr.sigma_m)
        try:
            r1, r2 = residuals(params, cfg)
        except _FAILURES:
            rows.append(PerturbationRow(float(eps), False, math.nan, math.nan))
            continue
        fixed = r1 * r1 + r2 * r2

        history, _, _ = _least_squares(
            encode(params, cfg), (cfg.dim - 2, cfg.dim - 1), (-np.inf, np.inf), cfg,
            reopt_budget, 0.0,
        )
        rows.append(PerturbationRow(float(eps), True, fixed, min(fixed, history[-1])))
    return rows

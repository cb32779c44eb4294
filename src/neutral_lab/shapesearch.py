"""Derivative-free search for neutral coated shapes.

The shape space is a truncated Laurent map with the gauge a_1 = 1: the free
unknowns are the real coefficients a_n for -M <= n <= -1 and 2 <= n <= M,
the modulus r0 of the outer circle, and the two (log-parametrized) coating
conductivities. The objective is the summed squared exterior residual of
the two uniform-gradient transmission solves, so it vanishes exactly on
neutral configurations. Invalid geometry or out-of-bound parameters earn a
large penalty plus the violation magnitude, which keeps the simplex moving
back toward the feasible set.

The optimizer is restarted Nelder-Mead (scipy); restarts re-seed the
simplex at the incumbent best point, which recovers from premature simplex
collapse. Everything is deterministic: no randomness enters the search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .designer import confocal_design
from .errors import (
    GeometryError,
    NearEvaluationError,
    SolverError,
    ValidationError,
)
from .geometry import LaurentMap, laurent_domain
from .transmission import ConductivityProfile, _probe_circle, eval_u, solve_both_axes

PENALTY = 1.0e6
_CHECK_SAMPLES = 128  # angular resolution of validity checks inside the objective


@dataclass(frozen=True)
class SearchConfig:
    """Search-space bounds and discretization for objective evaluations."""

    sigma_c: float
    sigma_s: float
    max_order: int = 2
    nodes: int = 128
    probe_points: int = 64
    r0_bounds: tuple[float, float] = (1.05, 4.0)
    coeff_bound: float = 0.95
    sigma_bounds: tuple[float, float] = (1e-3, 1e3)

    def __post_init__(self):
        if self.max_order < 1:
            raise ValidationError("max_order must be at least 1")
        if self.nodes < 16 or self.nodes % 2:
            raise ValidationError("nodes must be an even integer >= 16")
        lo, hi = self.r0_bounds
        if not (1.0 < lo < hi):
            raise ValidationError(f"r0 bounds must satisfy 1 < lo < hi, got {self.r0_bounds}")
        slo, shi = self.sigma_bounds
        if not (0.0 < slo < shi):
            raise ValidationError(f"sigma bounds must satisfy 0 < lo < hi, got {self.sigma_bounds}")
        if not (0.0 < self.coeff_bound < 1.0):
            raise ValidationError("coeff_bound must lie in (0, 1) to keep a_1 dominant")

    @property
    def coeff_orders(self) -> tuple[int, ...]:
        neg = tuple(range(-self.max_order, 0))
        pos = tuple(range(2, self.max_order + 1))
        return neg + pos

    @property
    def dim(self) -> int:
        return len(self.coeff_orders) + 3


@dataclass(frozen=True)
class ShapeParams:
    """One point of the search space (gauge a_1 = 1)."""

    coeffs: dict[int, float]
    r0: float
    sigma_m: tuple[float, float]

    def laurent_map(self) -> LaurentMap:
        coeffs = {1: 1.0}
        coeffs.update({k: v for k, v in self.coeffs.items() if v != 0.0})
        return LaurentMap(coeffs=coeffs, r0=self.r0)

    def confocality_gap(self) -> float:
        gaps = [abs(v) for k, v in self.coeffs.items() if abs(k) >= 2]
        return max(gaps, default=0.0)

    def as_dict(self) -> dict:
        return {
            "coeffs": {str(k): v for k, v in sorted(self.coeffs.items())},
            "r0": self.r0,
            "sigma_m": list(self.sigma_m),
        }


def encode(params: ShapeParams, cfg: SearchConfig) -> np.ndarray:
    x = [params.coeffs.get(k, 0.0) for k in cfg.coeff_orders]
    x.append(params.r0)
    x.extend(math.log(s) for s in params.sigma_m)
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


def _bound_violation(x: np.ndarray, cfg: SearchConfig) -> float:
    k = len(cfg.coeff_orders)
    v = 0.0
    for c in x[:k]:
        v += max(0.0, abs(c) - cfg.coeff_bound)
    lo, hi = cfg.r0_bounds
    v += max(0.0, lo - x[k]) + max(0.0, x[k] - hi)
    llo, lhi = math.log(cfg.sigma_bounds[0]), math.log(cfg.sigma_bounds[1])
    for s in x[k + 1 :]:
        v += max(0.0, llo - s) + max(0.0, s - lhi)
    return v


def residuals(params: ShapeParams, cfg: SearchConfig) -> tuple[float, float]:
    """Max exterior deviation |u - x_j| per axis on the standard probe circle."""
    inc = laurent_domain(params.laurent_map(), samples=_CHECK_SAMPLES)
    profile = ConductivityProfile(
        sigma_c=cfg.sigma_c, sigma_s=cfg.sigma_s, sigma_m=params.sigma_m
    )
    radius = 3.0 * inc.outer.max_radius()
    probe = _probe_circle(radius, cfg.probe_points)
    out = []
    for pair in solve_both_axes(inc, profile, n=cfg.nodes):
        vals, _ = eval_u(inc, pair, profile, probe)
        out.append(float(np.max(np.abs(vals - probe[:, pair.axis - 1]))))
    return out[0], out[1]


def objective(x: np.ndarray, cfg: SearchConfig) -> float:
    """Penalized summed squared residual; zero exactly at neutrality."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        return PENALTY + float(np.sum(~np.isfinite(x)))
    viol = _bound_violation(x, cfg)
    if viol > 0.0:
        return PENALTY + viol
    try:
        params = decode(x, cfg)
        r1, r2 = residuals(params, cfg)
    except (GeometryError, ValidationError, SolverError, NearEvaluationError):
        return PENALTY + 1.0
    if not (math.isfinite(r1) and math.isfinite(r2)):
        return PENALTY + 1.0
    return r1 * r1 + r2 * r2


@dataclass
class SearchResult:
    """Outcome of a restarted Nelder-Mead run.

    history holds the best objective so far after every evaluation;
    improvements records (evaluation index, objective, confocality gap) at
    each point where the incumbent improved.
    """

    params: ShapeParams
    objective: float
    evals: int
    history: list[float] = field(repr=False)
    improvements: list[tuple[int, float, float]] = field(repr=False, default_factory=list)
    confocality_gap: float = 0.0
    converged: bool = False

    def as_dict(self) -> dict:
        return {
            "params": self.params.as_dict(),
            "objective": self.objective,
            "evals": self.evals,
            "confocality_gap": self.confocality_gap,
            "converged": self.converged,
        }


def search(
    start: ShapeParams,
    cfg: SearchConfig,
    max_evals: int = 5000,
    target: float = 1e-12,
    run_budget: int = 1500,
    xatol: float = 1e-12,
    fatol: float = 1e-12,
) -> SearchResult:
    """Minimize the neutrality objective from a given starting shape.

    converged means the target objective was reached; the incumbent best
    point and the best-so-far history are returned either way.
    """
    import scipy.optimize  # deferred: it costs more to import than the whole package

    if max_evals < 1 or run_budget < 1:
        raise ValidationError("evaluation budgets must be positive")
    if target <= 0:
        raise ValidationError("target must be positive")

    state = {"evals": 0, "best_f": math.inf, "best_x": None}
    history: list[float] = []
    improvements: list[tuple[int, float, float]] = []

    class _TargetReached(Exception):
        pass

    def fun(x):
        f = objective(x, cfg)
        state["evals"] += 1
        if f < state["best_f"]:
            state["best_f"] = f
            state["best_x"] = np.array(x, dtype=float)
            gap = max(
                (abs(float(v)) for v, k in zip(state["best_x"], cfg.coeff_orders)
                 if abs(k) >= 2),
                default=0.0,
            )
            improvements.append((state["evals"], f, gap))
        history.append(state["best_f"])
        if f <= target:
            raise _TargetReached
        return f

    try:
        fun(encode(start, cfg))
        stale = 0
        while state["best_f"] > target and state["evals"] < max_evals and stale < 2:
            before = state["best_f"]
            budget = min(run_budget, max_evals - state["evals"])
            if budget < cfg.dim + 2:
                break
            scipy.optimize.minimize(
                fun,
                state["best_x"],
                method="Nelder-Mead",
                options={
                    "maxfev": budget,
                    "xatol": xatol,
                    "fatol": fatol,
                    "disp": False,
                },
            )
            improved = state["best_f"] < before * (1.0 - 1e-3) or state["best_f"] < before - 1e-15
            stale = 0 if improved else stale + 1
    except _TargetReached:
        pass

    try:
        best = decode(state["best_x"], cfg)
    except OverflowError as exc:
        raise SolverError("search never reached the feasible region") from exc
    return SearchResult(
        params=best,
        objective=state["best_f"],
        evals=state["evals"],
        history=history,
        improvements=improvements,
        confocality_gap=best.confocality_gap(),
        converged=state["best_f"] <= target,
    )


@dataclass(frozen=True)
class PerturbationRow:
    """One amplitude of the shape perturbation study."""

    amplitude: float
    valid: bool
    objective_fixed: float
    objective_reopt: float

    def as_dict(self) -> dict:
        return {
            "amplitude": self.amplitude,
            "valid": self.valid,
            "objective_fixed": self.objective_fixed,
            "objective_reopt": self.objective_reopt,
        }


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
    (Nelder-Mead, reopt_budget evaluations). Amplitudes that break the
    geometry are reported with valid=False and NaN objectives.
    """
    import scipy.optimize

    dr = confocal_design(1.0, am1, r0, sigma_c, sigma_s)
    cfg = SearchConfig(sigma_c=sigma_c, sigma_s=sigma_s, max_order=2, nodes=nodes)
    rows = []
    for eps in amplitudes:
        coeffs = {-2: 0.0, -1: am1, 2: float(eps)}
        params = ShapeParams(coeffs=coeffs, r0=r0, sigma_m=dr.sigma_m)
        try:
            r1, r2 = residuals(params, cfg)
        except (GeometryError, ValidationError, SolverError, NearEvaluationError):
            rows.append(PerturbationRow(float(eps), False, math.nan, math.nan))
            continue
        fixed = r1 * r1 + r2 * r2

        def fun(ls, _coeffs=coeffs):
            p = ShapeParams(
                coeffs=_coeffs,
                r0=r0,
                sigma_m=(math.exp(float(ls[0])), math.exp(float(ls[1]))),
            )
            try:
                a, b = residuals(p, cfg)
            except (GeometryError, ValidationError, SolverError, NearEvaluationError):
                return PENALTY
            return a * a + b * b

        res = scipy.optimize.minimize(
            fun,
            np.log(np.asarray(dr.sigma_m)),
            method="Nelder-Mead",
            options={"maxfev": reopt_budget, "xatol": 1e-12, "fatol": 1e-14, "disp": False},
        )
        reopt = min(fixed, float(res.fun))
        rows.append(PerturbationRow(float(eps), True, fixed, reopt))
    return rows

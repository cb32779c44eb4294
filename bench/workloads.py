"""The three benchmark workloads: inputs from a seed, one operation, its checks.

A workload yields rounds of operations. An operation is a pair of callables:
`run()` makes the program calls and is the only part that is timed; `check`
takes what `run()` returned and lists every check that did not hold. Every
check compares against an oracle from `oracles.py`, a quantity the benchmark
derives itself from the inputs, or a property the method must have; none
compares against stored output of the program.

The package modules are looked up as attributes at call time, so the
tracer's patched entry points are used when tracing is on.
"""

from __future__ import annotations

import math
import traceback
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import oracles
from neutral_lab import designer, geometry, laurent, newtonian, shapesearch, transmission
from neutral_lab.errors import NearEvaluationError

SIGMA_S = 1.0


@dataclass
class Operation:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]
    # tells the named program fault apart from any other failure; an
    # operation that fails with it is counted as failed, not as incorrect
    expected_fault: Callable[[BaseException], bool] | None = None


def _circle(radius: float, m: int = 64) -> np.ndarray:
    t = 2 * math.pi * np.arange(m) / m
    return radius * np.column_stack([np.cos(t), np.sin(t)])


def _core_points(a: float, b: float, count: int = 16) -> np.ndarray:
    """Half-scale copy of the core ellipse (semi-axes a, b) plus its centre."""
    t = 2 * math.pi * np.arange(count) / count
    pts = 0.5 * np.column_stack([a * np.cos(t), b * np.sin(t)])
    return np.vstack([pts, [0.0, 0.0]])


def _semi_axes(am1: float, r0: float):
    """Semi-axes of the confocal pair of zeta + am1/zeta on |zeta| = 1 and r0."""
    return (1.0 + am1, 1.0 - am1), (r0 + am1 / r0, r0 - am1 / r0)


def _contrasts(sc: float, sm: tuple[float, float]):
    lam = 0.5 if math.isinf(sc) else (sc + SIGMA_S) / (2.0 * (sc - SIGMA_S))
    mu = tuple((SIGMA_S + s) / (2.0 * (SIGMA_S - s)) for s in sm)
    return lam, mu


def _layered(am1: float, r0: float, sc: float, sm: float, axis: int):
    if am1 == 0.0:
        return oracles.disk(1.0, r0, sc, SIGMA_S, sm, axis)
    inner, outer = _semi_axes(am1, r0)
    return oracles.confocal(inner, outer, sc, SIGMA_S, sm, axis)


def _raised_in(exc: BaseException, function: str) -> bool:
    return any(frame.name == function for frame in traceback.extract_tb(exc.__traceback__))


# ---------------------------------------------------------------- design-verify

DESIGN_NODES = 256
# Thin shells fail today: _inner_flux evaluates the coating curve's field at
# its offset points through single_layer_grad_off, whose near guard raises
# NearEvaluationError at every N. They do not depend on the seed, so the
# failed share is the same in every run.
THIN_SHELLS = [(0.0, 1.05, 5.0), (0.1, 1.1, 0.0), (0.2, 1.15, math.inf), (0.15, 1.08, 5.0)]
AM1_STRATA = [(0.0, 0.2), (0.2, 0.4), (0.4, 0.6)]
R0_BAND = (1.25, 2.5)


def _finite_core(rng: np.random.Generator) -> float:
    """One seeded finite core conductivity in [2, 20] or its reciprocal."""
    s = float(10.0 ** rng.uniform(math.log10(2.0), math.log10(20.0)))
    return s if rng.random() < 0.5 else 1.0 / s


def _design_run(am1: float, r0: float, sc: float):
    dr = designer.confocal_design(1.0, am1, r0, sc, SIGMA_S)
    inc = geometry.confocal_pair(1.0, am1, r0)
    area_resid = designer.check_area_relation(dr, inc, n=DESIGN_NODES)
    rep = transmission.neutrality_report(inc, dr.profile(sc, SIGMA_S), n=DESIGN_NODES)
    ident = newtonian.combined_identity_check(inc, dr, n=DESIGN_NODES)
    bvp = newtonian.free_bvp_residual(inc, dr.f, dr.shear, n=DESIGN_NODES)
    verdict = laurent.classify(inc.origin, dr.f, dr.shear)
    return dr, inc, area_resid, rep, ident, bvp, verdict


def _spoiled_residual(inc, dr, sc: float, probe_radius: float) -> float:
    """Smallest probe residual once both matrix values are raised by 20%."""
    spoiled = transmission.ConductivityProfile(sc, SIGMA_S, tuple(1.2 * s for s in dr.sigma_m))
    probe = _circle(probe_radius)
    out = []
    for pair in transmission.solve_both_axes(inc, spoiled, DESIGN_NODES):
        vals, _ = transmission.eval_u(inc, pair, spoiled, probe)
        out.append(float(np.max(np.abs(vals - probe[:, pair.axis - 1]))))
    return min(out)


def _design_check(am1: float, r0: float, sc: float):
    """Checks of one design; the two contrasting solves run here, untimed."""

    def check(out) -> list[str]:
        dr, inc, area_resid, rep, ident, bvp, verdict = out
        bad = []
        if max(rep.residuals) > 1e-6:
            bad.append(f"neutrality residual {max(rep.residuals):.2e} > 1e-6")
        lam, mu = _contrasts(sc, dr.sigma_m)
        for j, ax in enumerate(rep.axes):
            slope = (2 * lam - 1) * (mu[0] + mu[1]) / (2 * lam * (2 * mu[j] + 1))
            if abs(ax.core_slope_measured - slope) > 1e-6:
                bad.append(f"axis {j + 1} core slope {ax.core_slope_measured} vs {slope}")
        for j in (1, 2):
            dipole = _layered(am1, r0, sc, dr.sigma_m[j - 1], j).dipole
            if abs(dipole) > 1e-9:
                bad.append(f"oracle dipole {dipole:.2e} at designed sigma_m^{j}")
        broken = _spoiled_residual(inc, dr, sc, rep.probe_radius)
        if broken <= 1e-3:
            bad.append(f"perturbed sigma_m stays neutral ({broken:.2e} <= 1e-3)")
        (ai, bi), (ao, bo) = _semi_axes(am1, r0)
        f_exact = (ai * bi) / (ao * bo)
        if abs(2 * dr.lam / dr.smu + f_exact) > 1e-10 or area_resid > 1e-10:
            bad.append(f"area identity off: {2 * dr.lam / dr.smu + f_exact:.2e}, {area_resid:.2e}")
        fit = ident.fit
        if fit.rms_residual > 1e-8 or max(ident.d_mismatch) > 1e-6 or ident.exterior_residual > 1e-8:
            bad.append(f"Newtonian identity: rms {fit.rms_residual:.2e}, "
                       f"mismatch {max(ident.d_mismatch):.2e}, exterior {ident.exterior_residual:.2e}")
        # criterion 6's shift of the shear; the finite-difference Laplacian
        # alone reaches 7.6e-6 at a_-1 = 0.6, r0 = 1.25, close to the
        # absolute 1e-5 of criterion 6, so the bound is relative
        shifted = newtonian.free_bvp_residual(inc, dr.f, -dr.f * (dr.dmu + 0.1), n=DESIGN_NODES)
        if not 100.0 * bvp.max_residual <= shifted.max_residual:
            bad.append(f"free BVP {bvp.max_residual:.2e} not 100x below shifted "
                       f"{shifted.max_residual:.2e}")
        if abs(verdict.factors[1]) > 1e-12 or not verdict.is_compatible:
            bad.append(f"Laurent mode-1 factor {verdict.factors[1]:.2e}, {verdict.verdict}")
        return bad

    return check


def _inner_flux_fault(exc: BaseException) -> bool:
    return isinstance(exc, NearEvaluationError) and _raised_in(exc, "_inner_flux")


def _design_op(am1: float, r0: float, sc: float, thin: bool = False) -> Operation:
    label = f"design am1={am1:.4f} r0={r0:.4f} sc={sc:.4g}"
    return Operation(
        label,
        lambda: _design_run(am1, r0, sc),
        _design_check(am1, r0, sc),
        _inner_flux_fault if thin else None,
    )


class DesignVerify:
    """Confocal designs: 12 from the main band and one thin shell per round."""

    name = "design-verify"

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.cores = (0.0, 5.0, math.inf, _finite_core(rng))

    def prologue(self) -> list[Operation]:
        return []

    def round(self, k: int) -> list[Operation]:
        ops = []
        for sc in self.cores:
            for lo, hi in AM1_STRATA:
                am1 = float(self.rng.uniform(lo, hi))
                r0 = float(self.rng.uniform(*R0_BAND))
                ops.append(_design_op(am1, r0, sc))
        ops.append(_design_op(*THIN_SHELLS[k % len(THIN_SHELLS)], thin=True))
        return ops


# ---------------------------------------------------------------- shape-search

SEARCH_NODES = 64
REFERENCE = dict(am1=0.2, r0=1.5, sigma_c=5.0)


def _search_config():
    return shapesearch.SearchConfig(
        sigma_c=REFERENCE["sigma_c"], sigma_s=SIGMA_S, max_order=2, nodes=SEARCH_NODES
    )


def _search_check(res) -> list[str]:
    bad = []
    if not res.converged or res.objective > 1e-10:
        bad.append(f"search did not converge: objective {res.objective:.2e}")
    if res.confocality_gap > 1e-3:
        bad.append(f"confocality gap {res.confocality_gap:.2e} > 1e-3")
    return bad


def _frozen_check(rows) -> list[str]:
    row = rows[0]
    if not row.valid or not row.objective_reopt >= 1e-6:
        return [f"frozen a2=0.1 shape reaches {row.objective_reopt:.2e} < 1e-6"]
    return []


def criterion9_starts() -> list[tuple[float, float]]:
    """The five (a2, a-2) starts of acceptance criterion 9: uniform in +-0.05, rng 1.

    The pool does not depend on --seed. Search effort varies about twofold
    between starts (1,567 to 2,831 evaluations over six seeded starts), and
    some starts in the box do not reach 1e-10 within 5,000 evaluations, so
    seeded starts would make op_s unsteady and the failed share
    seed-dependent.
    """
    rng = np.random.default_rng(1)
    return [tuple(float(v) for v in rng.uniform(-0.05, 0.05, size=2)) for _ in range(5)]


class ShapeSearch:
    """Criterion-9 searches in a seeded order, plus one frozen-shape study."""

    name = "shape-search"

    def __init__(self, rng: np.random.Generator):
        pool = criterion9_starts()
        self.starts = [pool[i] for i in rng.permutation(len(pool))]
        dr = designer.confocal_design(1.0, REFERENCE["am1"], REFERENCE["r0"],
                                      REFERENCE["sigma_c"], SIGMA_S)
        self.sigma_m = dr.sigma_m

    def prologue(self) -> list[Operation]:
        def run():
            return shapesearch.perturbation_study(
                REFERENCE["am1"], REFERENCE["r0"], REFERENCE["sigma_c"], SIGMA_S, [0.1],
                nodes=SEARCH_NODES, reopt_budget=200,
            )

        return [Operation("perturbation_study a2=0.1", run, _frozen_check)]

    def round(self, k: int) -> list[Operation]:
        return [self._search_op(a2, am2) for a2, am2 in self.starts]

    def _search_op(self, a2: float, am2: float) -> Operation:
        start = shapesearch.ShapeParams(
            coeffs={-2: am2, -1: REFERENCE["am1"], 2: a2}, r0=REFERENCE["r0"],
            sigma_m=self.sigma_m,
        )

        def run():
            return shapesearch.search(start, _search_config(), max_evals=5000, target=1e-10)

        return Operation(f"search a2={a2:+.5f} a-2={am2:+.5f}", run, _search_check)


# ---------------------------------------------------------------- fine-solve

FINE_NODES = 1024
SWEEP = 3  # matrix conductivities per geometry


def _fine_run(inc, profiles, points):
    out = []
    for p in profiles:
        fields = []
        for pair in transmission.solve_both_axes(inc, p, FINE_NODES):
            fields.append([transmission.eval_u(inc, pair, p, pts) for pts in points])
        out.append(fields)
    return out


def _fine_check(am1, r0, sc, sweep, points):
    def check(out) -> list[str]:
        bad = []
        for sm, fields in zip(sweep, out):
            for j, per_set in enumerate(fields, start=1):
                sol = _layered(am1, r0, sc, sm[j - 1], j)
                for where, pts, (u, g) in zip(("exterior", "core"), points, per_set):
                    uo, go = (oracles.exterior if where == "exterior" else oracles.core)(sol, pts)
                    err = max(float(np.max(np.abs(u - uo))), float(np.max(np.abs(g - go))))
                    if err > 1e-10:
                        bad.append(f"sigma_m={sm} axis {j} {where} field off by {err:.2e}")
        return bad

    return check


class FineSolve:
    """Non-neutral sweeps on coated disks and confocal ellipses at N=1024."""

    name = "fine-solve"

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.cores = (0.0, _finite_core(rng), math.inf)

    def prologue(self) -> list[Operation]:
        return []

    def round(self, k: int) -> list[Operation]:
        rng = self.rng
        sc = self.cores[(k // 2) % 3]
        r0 = float(rng.uniform(*R0_BAND))
        am1 = 0.0 if k % 2 == 0 else float(rng.uniform(0.05, 0.6))
        sm = np.exp(rng.uniform(math.log(0.2), math.log(5.0), (SWEEP, 2)))
        if am1 == 0.0:
            sm[:, 1] = sm[:, 0]  # a disk takes one isotropic matrix value
        sweep = [(float(a), float(b)) for a, b in sm]
        inc = geometry.confocal_pair(1.0, am1, r0)
        profiles = [transmission.ConductivityProfile(sc, SIGMA_S, sm) for sm in sweep]
        (ai, bi), (ao, _) = _semi_axes(am1, r0)
        points = (_circle(2.0 * ao), _core_points(ai, bi))
        kind = "disk" if am1 == 0.0 else "ellipse"
        return [Operation(
            f"fine {kind} am1={am1:.4f} r0={r0:.4f} sc={sc:.4g}",
            lambda: _fine_run(inc, profiles, points),
            _fine_check(am1, r0, sc, sweep, points),
        )]


WORKLOADS = {w.name: w for w in (DesignVerify, ShapeSearch, FineSolve)}

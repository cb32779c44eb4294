"""Acceptance suite: one test per release criterion.

Each test prints a single summary line on success; a pytest failure line is
the corresponding fail marker. Expected numbers are closed-form values of
the frozen reference design or were cross-checked against an independent
oracle before being pinned here.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from neutral_lab.designer import check_area_relation, confocal_design, reciprocal_dual
from neutral_lab.geometry import (
    CoatedInclusion,
    LaurentMap,
    area,
    confocal_pair,
    discretize,
    laurent_domain,
    make_ellipse,
)
from neutral_lab.laurent import neutrality_factor
from neutral_lab.layerpot import single_layer_on_boundary
from neutral_lab.newtonian import combined_identity_check, free_bvp_residual
from neutral_lab.shapesearch import SearchConfig, ShapeParams, perturbation_study, search
from neutral_lab.transmission import (
    ConductivityProfile,
    HarmonicPoly,
    decay_exponent,
    eval_u,
    neutrality_report,
    solve_both_axes,
)

# reference design: inner/outer confocal pair of zeta + 0.2/zeta at radii
# (1, 1.5), core conductivity 5 in a unit shell
A1, AM1, R0 = 1.0, 0.2, 1.5
SIGMA_C, SIGMA_S = 5.0, 1.0

# closed forms for the reference design, frozen as oracles
EXPECTED = {
    "f": 0.43006470881035341,  # 864/2009
    "dmu": 0.37615740740740741,
    "sigma_m": (1.9471087969306659, 1.6983228935138412),
    "sigma_m_insulating": (0.4596622889305816, 0.3218210361067504),  # sigma_c = 0
    "sigma_m_conducting": (3.107317073170732, 2.1755102040816325),  # sigma_c = inf
}


def _pass(k: int, msg: str):
    print(f"criterion {k:2d} PASS  {msg}")


@pytest.fixture(scope="module")
def design():
    dr = confocal_design(A1, AM1, R0, SIGMA_C, SIGMA_S)
    inc = confocal_pair(A1, AM1, R0)
    return inc, dr, dr.profile(SIGMA_C, SIGMA_S)


@pytest.fixture(scope="module")
def design_report(design):
    inc, _, prof = design
    return neutrality_report(inc, prof, n=256)


def disks():
    return CoatedInclusion(
        make_ellipse(0.0, 1.0, 1.0), make_ellipse(0.0, math.sqrt(2.0), math.sqrt(2.0)), None
    )


def test_criterion_01_disk_neutrality():
    good = neutrality_report(
        disks(), ConductivityProfile.isotropic(5.0, 1.0, 2.0), n=256, probe_radius=3.0
    )
    worst = max(good.residuals)
    assert worst <= 1e-8
    bad = neutrality_report(
        disks(), ConductivityProfile.isotropic(5.0, 1.0, 2.4), n=256, probe_radius=3.0
    )
    spoiled = min(bad.residuals)
    assert spoiled > 1e-3
    _pass(1, f"disk residual {worst:.2e} <= 1e-8; perturbed coating {spoiled:.2e} > 1e-3")


def test_criterion_02_confocal_design(design):
    inc, dr, prof = design
    assert dr.f == pytest.approx(EXPECTED["f"], abs=1e-5)
    assert dr.dmu == pytest.approx(EXPECTED["dmu"], abs=1e-5)
    assert dr.sigma_m[0] == pytest.approx(EXPECTED["sigma_m"][0], abs=1e-5)
    assert dr.sigma_m[1] == pytest.approx(EXPECTED["sigma_m"][1], abs=1e-5)
    rep = neutrality_report(inc, prof, n=256)
    worst = max(rep.residuals)
    assert worst <= 1e-6

    variants = {0.0: "sigma_m_insulating", math.inf: "sigma_m_conducting"}
    for sc, key in variants.items():
        drv = confocal_design(A1, AM1, R0, sc, SIGMA_S)
        assert drv.sigma_m[0] == pytest.approx(EXPECTED[key][0], abs=1e-5)
        assert drv.sigma_m[1] == pytest.approx(EXPECTED[key][1], abs=1e-5)
        repv = neutrality_report(inc, drv.profile(sc, SIGMA_S), n=256)
        assert max(repv.residuals) <= 1e-6
    _pass(2, f"design values match closed forms; residual {worst:.2e} <= 1e-6 "
             "(core conductivities 5, 0, inf)")


def test_criterion_03_uniform_core_field(design, design_report):
    _, dr, _ = design
    ax2 = design_report.axes[1]
    assert ax2.axis == 2
    assert ax2.core_gradient_deviation <= 1e-6
    expected = (2 * dr.lam - 1) * (dr.mu1 + dr.mu2) / (2 * dr.lam * (2 * dr.mu2 + 1))
    assert ax2.core_slope_measured == pytest.approx(expected, abs=1e-6)
    _pass(3, f"core gradient deviation {ax2.core_gradient_deviation:.2e} <= 1e-6; "
             f"slope {ax2.core_slope_measured:.9f} matches {expected:.9f}")


def test_criterion_04_area_relation(design):
    inc, dr, _ = design
    worst = check_area_relation(dr, inc, n=256)
    for am1 in (0.05, 0.35, 0.6):
        for r0 in (1.2, 1.8, 2.5):
            drg = confocal_design(A1, am1, r0, SIGMA_C, SIGMA_S)
            incg = confocal_pair(A1, am1, r0)
            worst = max(worst, check_area_relation(drg, incg, n=256))
    assert worst <= 1e-10
    _pass(4, f"area relation residual {worst:.2e} <= 1e-10 over 10 geometries")


def test_criterion_05_newtonian_identity(design):
    inc, dr, _ = design
    rep = combined_identity_check(inc, dr, n=256)
    assert rep.fit.rms_residual <= 1e-8
    assert max(rep.d_mismatch) <= 1e-6
    assert rep.exterior_residual <= 1e-8
    bad_inc = laurent_domain(LaurentMap({1: 1.0, -1: 0.2, 2: 0.15}, 1.5))
    f_bad = area(discretize(bad_inc.inner, 256)) / area(discretize(bad_inc.outer, 256))
    bad = combined_identity_check(bad_inc, SimpleNamespace(f=f_bad, dmu=dr.dmu), n=256)
    assert bad.fit.rms_residual >= 1e-4
    _pass(5, f"quadratic fit rms {rep.fit.rms_residual:.2e}, coefficient mismatch "
             f"{max(rep.d_mismatch):.2e}, exterior deviation {rep.exterior_residual:.2e}; "
             f"non-confocal pair rms {bad.fit.rms_residual:.2e} >= 1e-4")


def test_criterion_06_free_boundary_value_problem(design):
    inc, dr, _ = design
    rep = free_bvp_residual(inc, dr.f, dr.shear, n=256)
    assert rep.max_residual <= 1e-5
    wrong = free_bvp_residual(inc, dr.f, -dr.f * (dr.dmu + 0.1), n=256)
    assert wrong.inner_bc_residual >= 1e-2
    _pass(6, f"designed potential residuals <= {rep.max_residual:.2e}; "
             f"perturbed shear breaks inner condition at {wrong.inner_bc_residual:.2e}")


def test_criterion_07_duality(design):
    inc, _, prof = design
    worst = 0.0
    for axis_src, axis_dual in ((1, 2), (2, 1)):
        dual = reciprocal_dual(prof, axis=axis_src)
        pair = solve_both_axes(inc, dual, n=256)[axis_dual - 1]
        t = np.linspace(0, 2 * math.pi, 64, endpoint=False)
        pts = 3.0 * inc.outer.max_radius() * np.column_stack([np.cos(t), np.sin(t)])
        vals, _ = eval_u(inc, pair, dual, pts)
        worst = max(worst, float(np.max(np.abs(vals - pair.h.value(pts)))))
    assert worst <= 1e-7
    _pass(7, f"reciprocal profiles neutral to the orthogonal field, residual {worst:.2e}")


def test_criterion_08_laurent_factors(design):
    _, dr, _ = design
    first = abs(neutrality_factor(1, dr.f, R0, dr.shear))
    assert first <= 1e-12
    higher = [abs(neutrality_factor(n, dr.f, R0, dr.shear)) for n in range(2, 6)]
    assert min(higher) >= 1e-3
    for f in (0.1, 0.3, 0.5, 0.7, 0.9):
        for r0 in (1.1, 1.3, 1.6, 2.0, 3.0):
            prod = [(1 - f * r0 ** (-2 * n)) * (1 - f * r0 ** (2 * n)) for n in range(1, 6)]
            assert all(a > b for a, b in zip(prod, prod[1:]))
    _pass(8, f"mode-1 factor {first:.2e} <= 1e-12, modes 2..5 >= {min(higher):.2e}; "
             "factor product strictly monotone on the 5x5 grid")


def test_criterion_09_uniqueness_search(design):
    _, dr, _ = design
    cfg = SearchConfig(sigma_c=SIGMA_C, sigma_s=SIGMA_S, max_order=2, nodes=64)
    rng = np.random.default_rng(1)
    worst_obj, worst_gap = 0.0, 0.0
    for _ in range(5):
        a2, am2 = rng.uniform(-0.05, 0.05, size=2)
        start = ShapeParams(
            coeffs={-2: float(am2), -1: AM1, 2: float(a2)}, r0=R0, sigma_m=dr.sigma_m
        )
        res = search(start, cfg, max_evals=5000, target=1e-10)
        assert res.converged
        worst_obj = max(worst_obj, res.objective)
        worst_gap = max(worst_gap, res.confocality_gap)
    assert worst_obj <= 1e-10
    assert worst_gap <= 1e-3

    row = perturbation_study(AM1, R0, SIGMA_C, SIGMA_S, [0.1], nodes=64,
                             reopt_budget=200)[0]
    assert row.valid
    assert row.objective_reopt >= 1e-6
    _pass(9, f"5 perturbed starts recover neutrality (objective <= {worst_obj:.2e}, "
             f"gap <= {worst_gap:.2e}); frozen non-confocal shape floor "
             f"{row.objective_reopt:.2e} >= 1e-6")


def test_criterion_10_decay_orders():
    inc = disks()
    neutral = ConductivityProfile.isotropic(5.0, 1.0, 2.0)
    off = ConductivityProfile.isotropic(5.0, 1.0, 2.4)
    q_neutral = decay_exponent(inc, neutral, HarmonicPoly(cq=1.0), (5.0, 10.0), n=128)
    assert q_neutral >= 1.8
    q_generic = decay_exponent(inc, off, HarmonicPoly(cx=1.0), (5.0, 10.0), n=128)
    assert q_generic == pytest.approx(1.0, abs=0.2)
    _pass(10, f"neutral quadratic-drive exponent {q_neutral:.3f} >= 1.8; "
              f"generic uniform-drive exponent {q_generic:.3f} = 1.0 +/- 0.2")


def test_criterion_11_numerics_hygiene():
    radius = 1.7
    circle = discretize(make_ellipse(0.0, radius, radius), 256)
    worst = np.max(np.abs(
        single_layer_on_boundary(circle, np.ones(circle.n)) - radius * math.log(radius)
    ))
    for k in range(1, 9):
        for mode in (np.cos(k * circle.t), np.sin(k * circle.t)):
            vals = single_layer_on_boundary(circle, mode)
            worst = max(worst, float(np.max(np.abs(vals + (radius / (2 * k)) * mode))))
    assert worst <= 1e-10

    curve = make_ellipse(0.0, 1.5, 0.6)
    ref = discretize(curve, 1024)
    vref = single_layer_on_boundary(ref, np.exp(2 * np.cos(ref.t)))

    def err(n):
        d = discretize(curve, n)
        vals = single_layer_on_boundary(d, np.exp(2 * np.cos(d.t)))
        return float(np.max(np.abs(vals - vref[:: 1024 // n])))

    factor = err(64) / max(err(128), 1e-16)
    assert factor >= 10.0
    _pass(11, f"circle diagonalization error {worst:.2e} <= 1e-10; "
              f"convergence factor 64->128 nodes {factor:.1e} >= 10")

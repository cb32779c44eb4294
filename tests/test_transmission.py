"""Two-interface transmission solves and neutrality diagnostics."""

import dataclasses
import importlib.util
import math
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from neutral_lab import layerpot, transmission
from neutral_lab.errors import (
    GeometryError,
    NearEvaluationError,
    SolverError,
    UnsupportedConfigurationError,
    ValidationError,
)
from neutral_lab.geometry import (
    CoatedInclusion,
    Curve,
    LaurentMap,
    _winding,
    confocal_pair,
    discretize,
    discretize_tangent,
    laurent_domain,
    make_ellipse,
)
from neutral_lab.layerpot import (
    _near_zone,
    min_target_distance,
    single_layer_grad_off,
    single_layer_off,
)
from neutral_lab.designer import confocal_design, reciprocal_dual
from neutral_lab.transmission import (
    ConductivityProfile,
    HarmonicPoly,
    contrasts,
    decay_exponent,
    eval_u,
    neutrality_report,
    solve_both_axes,
    solve_harmonic,
)


def _load_oracles():
    """The benchmark's exact coated-disk and confocal-ellipse fields, loaded by path."""
    path = Path(__file__).resolve().parents[1] / "bench" / "oracles.py"
    spec = importlib.util.spec_from_file_location("bench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module


oracles = _load_oracles()


def disks(r_in=1.0, r_out=math.sqrt(2.0)):
    return CoatedInclusion(
        make_ellipse(0.0, r_in, r_in), make_ellipse(0.0, r_out, r_out), None
    )


@pytest.fixture(scope="module")
def design_case():
    dr = confocal_design(1.0, 0.2, 1.5, 5.0, 1.0)
    inc = confocal_pair(1.0, 0.2, 1.5)
    return inc, dr, dr.profile(5.0, 1.0)


def test_contrast_parameters_exact():
    assert contrasts(ConductivityProfile.isotropic(0.0, 1.0, 2.0)).lam == -0.5
    assert contrasts(ConductivityProfile.isotropic(math.inf, 1.0, 2.0)).lam == 0.5
    cp = contrasts(ConductivityProfile(5.0, 1.0, (2.0, 4.0)))
    assert cp.lam == 0.75
    assert cp.mu == (-1.5, (1.0 + 4.0) / (2.0 * (1.0 - 4.0)))


def test_profile_validation():
    with pytest.raises(ValidationError):
        ConductivityProfile(-1.0, 1.0, (2.0, 2.0))
    with pytest.raises(ValidationError):
        ConductivityProfile(5.0, 0.0, (2.0, 2.0))
    with pytest.raises(ValidationError):
        ConductivityProfile(1.0, 1.0, (2.0, 2.0))  # core equals shell
    with pytest.raises(ValidationError):
        ConductivityProfile(5.0, 1.0, (1.0, 2.0))  # matrix equals shell
    with pytest.raises(ValidationError):
        ConductivityProfile(5.0, 1.0, (2.0,))
    with pytest.raises(ValidationError):
        ConductivityProfile(5.0, 1.0, (2.0, math.inf))
    assert ConductivityProfile.isotropic(5.0, 1.0, 2.0).is_isotropic


def test_disk_neutrality_machine_exact():
    # f = 1/2 disks with sigma = (5, 1, 2) are exactly neutral
    rep = neutrality_report(
        disks(), ConductivityProfile.isotropic(5.0, 1.0, 2.0), n=256, probe_radius=3.0
    )
    assert max(rep.residuals) < 1e-12
    for ax in rep.axes:
        assert abs(ax.first_moment[0]) < 1e-12 and abs(ax.first_moment[1]) < 1e-12
        assert ax.core_slope_measured == pytest.approx(0.5, abs=1e-12)
        assert ax.core_slope_predicted == pytest.approx(0.5, abs=1e-14)


def test_disk_perturbed_matrix_not_neutral():
    rep = neutrality_report(
        disks(), ConductivityProfile.isotropic(5.0, 1.0, 2.4), n=256, probe_radius=3.0
    )
    assert min(rep.residuals) > 1e-3


def test_field_values_match_background_when_neutral():
    inc = disks()
    p = ConductivityProfile.isotropic(5.0, 1.0, 2.0)
    pair = solve_both_axes(inc, p, n=256)[0]
    pts = np.array([[3.0, 0.0], [0.0, 3.0], [-2.5, 1.5]])
    vals, grads = eval_u(inc, pair, p, pts)
    assert np.max(np.abs(vals - pts[:, 0])) < 1e-12
    assert np.max(np.abs(grads - [1.0, 0.0])) < 1e-12


def test_design_identities(design_case):
    inc, dr, p = design_case
    rep = neutrality_report(inc, p, n=256)
    assert max(rep.residuals) < 1e-12
    for ax in rep.axes:
        # interior field is exactly linear; slope given by the contrasts
        assert ax.core_gradient_deviation < 1e-12
        assert ax.core_slope_measured == pytest.approx(ax.core_slope_predicted, abs=1e-10)
        # density identities: inner from the flux jump, outer from neutrality
        assert ax.flux_identity_residual < 1e-10
        assert ax.coating_identity_residual < 1e-12
    # the two axis slopes are the frozen rationals 49/89 and 41/101
    assert rep.axes[0].core_slope_measured == pytest.approx(49.0 / 89.0, abs=1e-12)
    assert rep.axes[1].core_slope_measured == pytest.approx(41.0 / 101.0, abs=1e-12)


def test_extreme_core_contrasts(design_case):
    inc, _, _ = design_case
    for sigma_c in (0.0, math.inf):
        dr = confocal_design(1.0, 0.2, 1.5, sigma_c, 1.0)
        rep = neutrality_report(inc, dr.profile(sigma_c, 1.0), n=256)
        assert max(rep.residuals) < 1e-12


@pytest.fixture
def kstar_calls(monkeypatch):
    """Node counts of the kstar_matrix calls transmission makes (two per elimination)."""
    calls, real = [], transmission.kstar_matrix

    def counting(disc):
        calls.append(disc.n)
        return real(disc)

    monkeypatch.setattr(transmission, "kstar_matrix", counting)
    return calls


def _same_densities(pairs, refs):
    return all(
        np.array_equal(getattr(pair, field), getattr(ref, field))
        for pair, ref in zip(pairs, refs, strict=True)
        for field in ("phi", "psi", "core_flux")
    )


def test_solve_both_axes_matches_single_solves(design_case, kstar_calls):
    inc, _, _ = design_case
    # a call served from the kept elimination equals a cold one bit for bit;
    # sigma_m on both sides of sigma_s = 1, so mu changes sign between the axes
    for sigma_c in (0.0, 5.0, math.inf):
        for sigma_m in ((0.5, 3.0), (3.0, 0.5)):
            p = ConductivityProfile(sigma_c, 1.0, sigma_m)
            transmission._kept.clear()
            cold = solve_both_axes(inc, p, n=128)
            transmission._kept.clear()
            solve_both_axes(inc, ConductivityProfile(sigma_c, 1.0, (2.0, 4.0)), n=128)
            calls = len(kstar_calls)
            warm = solve_both_axes(inc, p, n=128)
            assert len(kstar_calls) == calls  # nothing assembled again
            assert _same_densities(warm, cold)
    # one elimination path: single-case solves equal their axis bit for bit
    iso = ConductivityProfile.isotropic(5.0, 1.0, 0.5)
    for pair in solve_both_axes(inc, iso, n=128):
        ref = solve_harmonic(inc, iso, HarmonicPoly.coordinate(pair.axis), n=128)
        assert _same_densities([pair], [ref])


@pytest.mark.parametrize("part", ["inner", "outer", "n", "lam", "background"])
def test_kept_elimination_misses_when_its_key_changes(kstar_calls, part):
    base = dict(inc=disks(), sigma_c=5.0, n=64, h=HarmonicPoly(cq=1.0))
    change = {
        "inner": dict(inc=disks(r_in=0.9)),
        "outer": dict(inc=disks(r_out=1.5)),
        "n": dict(n=96),
        "lam": dict(sigma_c=7.0),
        "background": dict(h=HarmonicPoly(cxy=1.0)),
    }[part]

    def run(sigma_m, inc, sigma_c, n, h):
        return solve_harmonic(inc, ConductivityProfile.isotropic(sigma_c, 1.0, sigma_m), h, n)

    run(2.4, **base)
    # a new sigma_m, and an equal but new geometry, are served from the kept one
    run(0.5, **{**base, "inc": disks()})
    assert len(kstar_calls) == 2
    changed = run(0.5, **{**base, **change})
    assert len(kstar_calls) == 4
    transmission._kept.clear()
    assert _same_densities([changed], [run(0.5, **{**base, **change})])


def test_kept_elimination_holds_read_only_arrays(design_case):
    inc, _, p = design_case
    pairs = solve_both_axes(inc, p, n=64)
    (kept,) = transmission._kept.values()
    blocks = (*kept.parts, kept.x_oi, kept.schur)
    assert [b.shape for b in blocks] == [(64, 64)] * 5
    grids = [getattr(d, f) for d in (kept.d_in, kept.d_out)
             for f in ("t", "nodes", "normals", "weights")]
    for a in [*blocks, *(v for side in kept.sides for v in side), *grids]:
        assert not a.flags.writeable
    with pytest.raises(dataclasses.FrozenInstanceError):
        kept.schur = None
    assert pairs[0].disc_outer is kept.d_out
    with pytest.raises(ValueError, match="read-only"):
        pairs[0].disc_outer.weights[0] = 1.0


def test_a_miss_frees_the_kept_elimination_before_building(design_case, monkeypatch):
    inc, _, p = design_case
    solve_both_axes(inc, p, n=64)
    old = weakref.ref(next(iter(transmission._kept.values())).parts[0])
    alive, real = [], transmission.kstar_matrix

    def kstar(disc):
        alive.append(old() is not None)
        return real(disc)

    monkeypatch.setattr(transmission, "kstar_matrix", kstar)
    solve_both_axes(disks(), ConductivityProfile.isotropic(5.0, 1.0, 2.0), n=64)
    assert alive == [False, False]


def test_density_grid_convergence(design_case):
    inc, _, p = design_case
    coarse = solve_both_axes(inc, p, n=128)[0]
    fine = solve_both_axes(inc, p, n=256)[0]
    assert np.max(np.abs(fine.phi[::2] - coarse.phi)) < 1e-12
    assert np.max(np.abs(fine.psi[::2] - coarse.psi)) < 1e-12


def test_reciprocal_profile_neutral_to_orthogonal_field(design_case):
    inc, _, p = design_case
    for axis_src, axis_dual in ((1, 2), (2, 1)):
        dual = reciprocal_dual(p, axis=axis_src)
        assert dual.sigma_c == pytest.approx(0.2)
        assert dual.sigma_m[0] == pytest.approx(1.0 / p.sigma_m[axis_src - 1])
        pair = solve_both_axes(inc, dual, n=256)[axis_dual - 1]
        t = np.linspace(0, 2 * math.pi, 64, endpoint=False)
        pts = 3.0 * inc.outer.max_radius() * np.column_stack([np.cos(t), np.sin(t)])
        vals, _ = eval_u(inc, pair, dual, pts)
        assert np.max(np.abs(vals - pair.h.value(pts))) < 1e-12


def test_solve_harmonic_requires_isotropic_matrix(design_case):
    inc, _, p = design_case
    assert not p.is_isotropic
    with pytest.raises(UnsupportedConfigurationError):
        solve_harmonic(inc, p, HarmonicPoly(cq=1.0), n=64)


def test_constant_background_rejected():
    inc = disks()
    p = ConductivityProfile.isotropic(5.0, 1.0, 2.0)
    with pytest.raises(ValidationError):
        solve_harmonic(inc, p, HarmonicPoly(c0=3.0), n=64)
    with pytest.raises(ValidationError):
        HarmonicPoly.coordinate(0)


def test_probe_radius_precondition():
    inc = disks()
    p = ConductivityProfile.isotropic(5.0, 1.0, 2.0)
    with pytest.raises(ValidationError, match="twice the outer max radius"):
        neutrality_report(inc, p, n=64, probe_radius=1.5)


# one non-finite library input per case; each is refused before any solve
NON_FINITE = {
    "probe_radius-nan": lambda inc, p: neutrality_report(inc, p, n=64, probe_radius=math.nan),
    "probe_radius-inf": lambda inc, p: neutrality_report(inc, p, n=64, probe_radius=math.inf),
    "decay-radius-inf": lambda inc, p: decay_exponent(
        inc, p, HarmonicPoly(cq=1.0), (5.0, math.inf), n=64),
    "laurent-coeff-nan": lambda inc, p: LaurentMap({1: 1.0, -1: math.nan}, 1.5),
    "ellipse-center-nan": lambda inc, p: make_ellipse((0.0, math.nan), 2.0, 1.0),
    "ellipse-theta-nan": lambda inc, p: make_ellipse(0.0, 2.0, 1.0, math.nan),
}


@pytest.mark.parametrize("case", NON_FINITE)
def test_non_finite_inputs_refused(case):
    inc = disks()
    p = ConductivityProfile.isotropic(5.0, 1.0, 2.0)
    with pytest.raises(ValidationError, match="must be finite"):
        NON_FINITE[case](inc, p)


def test_harmonic_poly_gradient_consistency():
    h = HarmonicPoly(c0=0.3, cx=1.0, cy=-2.0, cq=0.7, cxy=0.4)
    pts = np.array([[0.3, -0.8], [1.1, 0.2]])
    eps = 1e-6
    for i, pt in enumerate(pts):
        fd_x = (h.value(np.array([pt + [eps, 0]]))[0] - h.value(np.array([pt - [eps, 0]]))[0]) / (2 * eps)
        fd_y = (h.value(np.array([pt + [0, eps]]))[0] - h.value(np.array([pt - [0, eps]]))[0]) / (2 * eps)
        assert h.gradient(pts)[i] == pytest.approx([fd_x, fd_y], abs=1e-8)
    assert HarmonicPoly().is_constant
    assert not h.is_constant


def test_decay_exponent_orders():
    inc = disks()
    neutral = ConductivityProfile.isotropic(5.0, 1.0, 2.0)
    off = ConductivityProfile.isotropic(5.0, 1.0, 2.4)
    # neutral coating kills the leading scattered mode of the quadratic
    # background, leaving one-order-faster decay
    q_neutral = decay_exponent(inc, neutral, HarmonicPoly(cq=1.0), (5.0, 10.0), n=128)
    assert q_neutral >= 1.8
    q_generic = decay_exponent(inc, off, HarmonicPoly(cx=1.0), (5.0, 10.0), n=128)
    assert q_generic == pytest.approx(1.0, abs=0.2)
    with pytest.raises(ValidationError):
        decay_exponent(inc, off, HarmonicPoly(cx=1.0), (2.0, 10.0), n=64)


# thin shells: each curve's nodes lie inside the other's near zone, so the
# coupling blocks are built on the refined grid
THIN = [(0.0, 1.05), (0.2, 1.03), (0.2, 1.01)]


def _oracle(am1, r0, sigma_c, sigma_m, axis):
    if am1 == 0.0:
        return oracles.disk(1.0, r0, sigma_c, 1.0, sigma_m, axis)
    inner = (1.0 + am1, 1.0 - am1)
    outer = (r0 + am1 / r0, r0 - am1 / r0)
    return oracles.confocal(inner, outer, sigma_c, 1.0, sigma_m, axis)


# a nearly insulating matrix puts mu near +1/2, where the coating block's
# weighted-mean term decides the solution. n = 512 solves the coating block
# by GMRES; its insulating-core cases with a nearly insulating matrix stall
# there and take the dense fallback
THIN_FIELDS = [
    pytest.param(am1, r0, sigma_c, sigma_m, n, id=f"{am1}-{r0}-{sigma_c}{suffix}{label}")
    for n, label in ((128, ""), (512, "-n512"))
    for sigma_m, suffix in (((2.0, 3.0), ""), ((1e-8, 1e-12), "-insulating-matrix"))
    for am1, r0 in THIN
    for sigma_c in (0.0, 5.0, math.inf)
]


@pytest.mark.parametrize("am1, r0, sigma_c, sigma_m, n", THIN_FIELDS)
def test_thin_shell_fields_match_exact(am1, r0, sigma_c, sigma_m, n):
    inc = confocal_pair(1.0, am1, r0)
    p = ConductivityProfile(sigma_c, 1.0, sigma_m)
    t = 2 * math.pi * np.arange(32) / 32
    a_out = r0 + am1 / r0
    exterior = 2.0 * a_out * np.column_stack([np.cos(t), np.sin(t)])
    core = 0.5 * np.column_stack([(1.0 + am1) * np.cos(t), (1.0 - am1) * np.sin(t)])
    for pair in solve_both_axes(inc, p, n=n):
        sol = _oracle(am1, r0, sigma_c, p.sigma_m[pair.axis - 1], pair.axis)
        for exact, pts in ((oracles.exterior, exterior), (oracles.core, core)):
            u, g = eval_u(inc, pair, p, pts)
            u_exact, g_exact = exact(sol, pts)
            assert np.max(np.abs(u - u_exact)) < 1e-12
            assert np.max(np.abs(g - g_exact)) < 1e-12


@pytest.mark.parametrize("r0", [1.1, 1.03, 1.01])
def test_thin_confocal_designs_are_neutral(r0):
    inc = confocal_pair(1.0, 0.2, r0)
    for sigma_c in (0.0, 5.0, math.inf):
        dr = confocal_design(1.0, 0.2, r0, sigma_c, 1.0)
        rep = neutrality_report(inc, dr.profile(sigma_c, 1.0), n=128)
        assert max(rep.residuals) < 1e-12
        for ax in rep.axes:
            assert abs(ax.core_slope_measured - ax.core_slope_predicted) < 1e-12


@pytest.mark.parametrize("am1, r0", [(0.2, 1.5)] + THIN)
def test_core_flux_is_interior_normal_derivative(am1, r0):
    # the jump-relation flux against the exact uniform core field
    inc = confocal_pair(1.0, am1, r0)
    p = ConductivityProfile(5.0, 1.0, (2.0, 3.0))
    for pair in solve_both_axes(inc, p, n=128):
        sol = _oracle(am1, r0, 5.0, p.sigma_m[pair.axis - 1], pair.axis)
        d_in = pair.disc_inner
        _, g_exact = oracles.core(sol, d_in.nodes)
        assert np.max(np.abs(pair.core_flux - np.sum(g_exact * d_in.normals, axis=1))) < 1e-12


_REFERENCE: dict = {}  # the last shape and N's reference blocks: cases of one shell run in a row


def _reference_blocks(inc, n):
    """(d_in, d_out, K*_in, K*_out, C_oi, C_io) of inc at n nodes, each block formed densely
    by layerpot itself, whatever route the solver takes; they do not depend on the
    conductivities, so the last shape and N's are kept."""
    key = (*((c.k_min, c.coeffs.tobytes()) for c in (inc.inner, inc.outer)), n)
    if key not in _REFERENCE:
        _REFERENCE.clear()
        d_in, d_out = discretize(inc.inner, n), discretize(inc.outer, n)
        blocks = (layerpot.kstar_matrix(d_in), layerpot.kstar_matrix(d_out),
                  layerpot.normal_derivative_coupling(d_out, d_in),
                  layerpot.normal_derivative_coupling(d_in, d_out))
        for b in blocks:
            b.flags.writeable = False
        _REFERENCE[key] = (d_in, d_out, *blocks)
    return _REFERENCE[key]


def _full_systems(inc, p, n):
    """Reference: the whole 2N x 2N block system per axis, as (matrix, right side), then the
    core grid, K*_in and C_oi, from `_reference_blocks`."""
    d_in, d_out, k_in, k_out, c_oi, c_io = _reference_blocks(inc, n)
    cp = contrasts(p)
    systems = []
    for j in (0, 1):
        a = np.block([[cp.lam * np.eye(n) - k_in, -c_oi], [-c_io, cp.mu[j] * np.eye(n) - k_out]])
        for contrast, d, rows in ((cp.lam, d_in, slice(0, n)), (cp.mu[j], d_out, slice(n, None))):
            if contrast >= 0.0:
                a[rows, rows] += np.outer(np.ones(n), d.weights) / np.sum(d.weights)
        b = np.concatenate(
            [d.normals[:, j] - np.dot(d.normals[:, j], d.weights) / np.sum(d.weights)
             for d in (d_in, d_out)]
        )
        systems.append((a, b))
    return systems, d_in, k_in, c_oi


def _full_system_solve(inc, p, n):
    """Reference: (phi, psi, core flux) per axis by one dense solve of `_full_systems`."""
    systems, d_in, k_in, c_oi = _full_systems(inc, p, n)
    out = []
    for j, (a, b) in enumerate(systems):
        x = np.linalg.solve(a, b)
        phi, psi = x[:n], x[n:]
        out.append((phi, psi, d_in.normals[:, j] + k_in @ phi - 0.5 * phi + c_oi @ psi))
    return out


# a non-confocal coating: its uniform-field right sides take 12 and 13 GMRES steps on the
# coupled system from 256 nodes, and its core has Fourier rank 107
LAURENT = LaurentMap({1: 1.0, -1: 0.2, 2: 0.1, -2: 0.05}, 1.5)
# matrices that put both mu near +1/2 (nearly insulating) and near -1/2 (the design of the
# r0 = 1.01 shell around a perfectly conducting core)
INSULATING = (1e-8, 1e-12)
THIN_DESIGN = confocal_design(1.0, 0.2, 1.01, math.inf, 1.0).profile(math.inf, 1.0).sigma_m
MATRICES = {INSULATING: "-insulating-matrix", THIN_DESIGN: "-design-matrix"}

# (am1, r0, sigma_c, n, low_rank[, sigma_m]); am1 "laurent" is LAURENT, and sigma_m is
# (0.5, 3.0) unless given. Below 256 nodes the core block is solved densely; from 256
# GMRES solves the coupled 2N system through the four blocks and no core system is
# solved. low_rank: K*_in is held as Fourier factors (from 512 nodes, when its low Fourier
# modes' rank stays below N/4: a-1 = 0.6 has rank 213 at 512 nodes and 229 at 1024, a-1 = 0.8
# rank 489). At r0 = 1.26 and 1024 nodes C_oi has rank past N/4 and is formed densely while
# the other three blocks are held as Fourier factors (C_io at rank 255): a mixed route. At
# 514 and 1022 nodes, not multiples of 4, the blocks are formed first at every second target
# node. The r0 = 1.01 shell with a perfectly conducting core at its design matrix (256 nodes),
# and with an insulating core and matrix (512 and 1024 nodes), are the three solves that
# GMRES gave up on while it stopped at |b - A x| <= 1e-14 |b|, the rounding floor of their
# products. The cases of one shape and N run in a row, so the reference blocks are formed once
ELIMINATION_CASES = [
    *((am1, r0, sc, n, n >= 512 and am1 <= 0.2) for am1, r0 in [(0.0, 1.5), (0.2, 1.5), (0.2, 1.01)]
      for n in [64, 256, 512] for sc in [0.0, 0.2, 5.0, math.inf]),
    (0.2, 1.01, 0.0, 512, True, INSULATING),
    *((0.6, 1.5, sc, 512, False) for sc in [0.0, 0.2, 5.0, math.inf]),
    (0.8, 1.5, 5.0, 512, False),
    ("laurent", 1.5, 5.0, 256, False),
    (0.2, 1.01, math.inf, 256, False, THIN_DESIGN),
    *((0.2, 1.01, sc, 256, False, INSULATING) for sc in [0.0, 5.0]),
    (0.0, 1.5, 0.0, 1024, True),
    (0.2, 1.5, 5.0, 1024, True),
    (0.6, 1.25, math.inf, 1024, True),
    ("laurent", 1.5, 5.0, 1024, True),
    (0.2, 1.01, 0.0, 1024, True),
    (0.2, 1.01, 0.0, 1024, True, INSULATING),
    (0.3, 1.26, 5.0, 1024, True),
    (0.2, 1.5, 5.0, 514, True),
    (0.3, 1.5, 5.0, 1022, True),
]


@pytest.mark.parametrize("am1, r0, sigma_c, n, low_rank, sigma_m",
                         [(*c, (0.5, 3.0))[:6] for c in ELIMINATION_CASES],
                         ids=["-".join(map(str, c[:4])) + (MATRICES[c[5]] if len(c) > 5 else "")
                              for c in ELIMINATION_CASES])
def test_block_elimination_matches_full_system(am1, r0, sigma_c, n, low_rank, sigma_m,
                                               core_solves, monkeypatch):
    # sigma_m on both sides of sigma_s = 1 puts mu_1 > 0 > mu_2
    inc = laurent_domain(LAURENT) if am1 == "laurent" else confocal_pair(1.0, am1, r0)
    p = ConductivityProfile(sigma_c, 1.0, sigma_m)
    assert (contrasts(p).mu[0] > 0.0 > contrasts(p).mu[1]) == (sigma_m == (0.5, 3.0))
    solved, gmres = [], transmission._gmres
    monkeypatch.setattr(transmission, "_gmres", lambda *a: solved.append(gmres(*a)) or solved[-1])
    pairs = solve_both_axes(inc, p, n=n)
    (kept,) = transmission._kept.values()
    if n >= 256:  # one coupled GMRES solve per axis, none given up, and no core system
        assert len(solved) == 2 and all(x is not None for x in solved) and core_solves == []
        assert isinstance(kept.parts[0], transmission._Factored) == low_rank
    else:
        assert solved == [] and core_solves == [n]
    if (am1, r0) == (0.3, 1.26):  # the mixed route: C_oi alone is formed densely
        k_in, k_out, c_oi, c_io = kept.parts
        assert isinstance(c_oi, np.ndarray)
        assert all(isinstance(b, transmission._Factored) for b in (k_in, k_out, c_io))
    for pair, ref in zip(pairs, _full_system_solve(inc, p, n)):
        for got, want in zip((pair.phi, pair.psi, pair.core_flux), ref):
            # the core flux vanishes for sigma_c = inf; dh/dnu is O(1) there
            assert np.max(np.abs(got - want)) <= 1e-12 * max(np.max(np.abs(want)), 1.0)


def _arrays(value):
    """Every array in a value, through tuples, lists and factored blocks."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, transmission._Factored):
        value = (value.f,)
    if isinstance(value, (tuple, list)):
        return [a for v in value for a in _arrays(v)]
    return []


def test_a_low_rank_elimination_forms_neither_x_oi_nor_the_schur_part():
    # every block is held as its target spectrum and GMRES forms no elimination: no N x N
    # array is held. K*_in has rank 107: 54 spectrum rows on every fourth source node
    inc, n = laurent_domain(LAURENT), 1024
    solve_both_axes(inc, ConductivityProfile(5.0, 1.0, (0.5, 3.0)), n=n)
    (kept,) = transmission._kept.values()
    assert isinstance(kept, transmission._Krylov) and "dense" not in vars(kept)
    arrays = _arrays(list(vars(kept).values()))
    assert all(a.ndim == 1 or min(a.shape) < n // 4 for a in arrays)
    assert all(isinstance(b, transmission._Factored) for b in kept.parts)
    assert kept.parts[0].f.shape == (54, n // 4) and kept.parts[0].f.dtype == complex
    assert not any(a.flags.writeable for a in arrays)


def test_a_formed_elimination_holds_only_the_blocks_its_solves_read():
    # at 512 nodes, where every block of this coating is factored, the elimination formed
    # from them holds K*_in, C_oi and C_io densely (the core flux and the derivative read
    # them), A11^-1 C_oi and S: five N x N arrays. K*_out's dense form is not held past S
    inc, n = confocal_pair(1.0, 0.2, 2.5), 512
    p = ConductivityProfile(5.0, 1.0, (0.5, 3.0))
    elim, pairs = transmission._solved(inc, p, n)
    assert all(isinstance(b, transmission._Factored) for b in elim.parts)
    formed = elim.dense
    square = [a for a in _arrays(list(vars(formed).values())) if a.ndim == 2]
    assert len(square) == 5 and all(a.shape == (n, n) for a in square)
    k_in, _, c_oi, c_io = elim.parts
    for a, b in zip(formed.parts, (k_in, c_oi, c_io)):
        assert np.array_equal(a, transmission._dense(b)) and not a.flags.writeable
    assert formed.x_oi is square[3] and formed.schur is square[4]
    assert sum(a.nbytes for a in _arrays(list(vars(formed).values()))) < 5.1 * 8 * n * n


def test_a_stalling_sigma_m_sweep_forms_the_schur_part_once(monkeypatch, core_solves):
    # a thin shell with an insulating core and matrix, the matrix scaled twice: with a cap of
    # one GMRES step the first axis gives up in every call, and the first call forms the
    # dense elimination (A11^-1 C_oi by one LU of the core block, and the Schur part) that
    # solves both axes of it and of the later calls
    inc = confocal_pair(1.0, 0.2, 1.01)
    monkeypatch.setattr(transmission, "_GMRES_CAP", 1)
    gave_up, formed, gmres, eliminate = [], [], transmission._gmres, transmission._eliminate

    def counted_gmres(*args):
        x = gmres(*args)
        gave_up.append(x is None)
        return x

    monkeypatch.setattr(transmission, "_gmres", counted_gmres)
    monkeypatch.setattr(transmission, "_eliminate", lambda *a: formed.append(a) or eliminate(*a))
    kept = []
    for scale in (1.0, 2.0, 4.0):
        p = ConductivityProfile(0.0, 1.0, (1e-8 * scale, 1e-12 * scale))
        for pair, ref in zip(solve_both_axes(inc, p, n=512), _full_system_solve(inc, p, 512)):
            for got, want in zip((pair.phi, pair.psi, pair.core_flux), ref):
                assert np.max(np.abs(got - want)) <= 1e-12 * max(np.max(np.abs(want)), 1.0)
        kept.extend(transmission._kept.values())
    assert gave_up == [True] * 3
    assert len(formed) == 1 and core_solves == [512]
    assert kept[0] is kept[1] is kept[2]
    assert all(isinstance(a, np.ndarray) for a in kept[0].dense.parts)
    assert not kept[0].dense.schur.flags.writeable


@pytest.mark.parametrize("n", [256, 1024], ids=["coupled-n256", "factored-n1024"])
def test_the_gmres_route_forms_the_elimination_once_and_only_when_asked(n, core_solves):
    # from 256 nodes each right side runs GMRES on the coupled system through the four
    # read-only blocks, dense at 256 nodes and factored at 1024, and solves no core system.
    # The elimination is formed at most once, from the blocks formed by `_dense` (the same
    # arrays below 512 nodes) and one LU of the core block, and a solve gives the same bytes
    # before and after it is formed
    inc, p = laurent_domain(LAURENT), ConductivityProfile(5.0, 1.0, (0.5, 3.0))
    elim, cold = transmission._solved(inc, p, n)
    assert isinstance(elim, transmission._Krylov) and core_solves == []
    assert isinstance(elim.parts[0], transmission._Factored) == (n == 1024)
    assert "dense" not in vars(elim)
    assert not any(a.flags.writeable for a in _arrays(elim.parts))
    formed = elim.dense
    assert elim.dense is formed and core_solves == [n]
    k_in, _, c_oi, c_io = elim.parts
    for a, b in zip(formed.parts, (k_in, c_oi, c_io)):
        assert isinstance(a, np.ndarray) and (a is b) == (n < 512)
        assert np.array_equal(a, transmission._dense(b)) and not a.flags.writeable
    again, warm = transmission._solved(inc, p, n)
    assert again is elim and elim.dense is formed and core_solves == [n]
    assert _same_densities(warm, cold)


@pytest.mark.parametrize("sigma_c", [0.0, 5.0, math.inf])
def test_the_coupled_gmres_solves_the_augmented_full_system(sigma_c):
    # a right side with nonzero weighted means tells each diagonal block's weighted-mean
    # term apart (the uniform fields' sides have none): lam = 3/4 and 1/2 and mu_1 = 3/2
    # carry it, lam = -1/2 and mu_2 = -1 do not
    inc, p = laurent_domain(LAURENT), ConductivityProfile(sigma_c, 1.0, (0.5, 3.0))
    elim, _ = transmission._solved(inc, p, 256)
    b = np.random.default_rng(3).standard_normal(512)
    for (a, _), mu in zip(_full_systems(inc, p, 256)[0], contrasts(p).mu):
        shifts = transmission._shift(elim.lam, elim.d_in), transmission._shift(mu, elim.d_out)
        x, _ = transmission._gmres(lambda v: elim._coupled(v, shifts), b)
        want = np.linalg.solve(a, b)
        assert np.max(np.abs(x - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("am1, n", [(0.2, 256), ("laurent", 256), ("laurent", 512)],
                         ids=["confocal-coupled-n256", "laurent-coupled-n256",
                              "laurent-factored-n512"])
def test_a_solve_that_gmres_gives_up_is_the_eager_dense_solve(am1, n, monkeypatch):
    # with _GMRES_NODES past n the dense elimination is formed at once (at 512 nodes from
    # the factored blocks) and each coating system solved by LU. A cap of one GMRES step gives
    # up on every right side (a confocal pair's coupled system takes two steps, the Laurent
    # map's several), and the elimination formed then solves both axes, with the same bytes
    inc = laurent_domain(LAURENT) if am1 == "laurent" else confocal_pair(1.0, am1, 1.5)
    p = ConductivityProfile(5.0, 1.0, (0.5, 3.0))
    monkeypatch.setattr(transmission, "_GMRES_NODES", math.inf)
    eager = solve_both_axes(inc, p, n=n)
    transmission._kept.clear()
    monkeypatch.setattr(transmission, "_GMRES_NODES", 256)
    krylov = solve_both_axes(inc, p, n=n)
    assert not _same_densities(krylov, eager)
    monkeypatch.setattr(transmission, "_GMRES_CAP", 1)
    assert _same_densities(solve_both_axes(inc, p, n=n), eager)
    (kept,) = transmission._kept.values()
    assert isinstance(kept, transmission._Krylov) and "dense" in vars(kept)
    assert isinstance(kept.parts[0], transmission._Factored) == (n == 512)


# cores whose K*_in has Fourier rank 489 and 469 at 512 nodes
HIGH_RANK = {"confocal-0.8": lambda: confocal_pair(1.0, 0.8, 1.5),
             "laurent": lambda: laurent_domain(LaurentMap({1: 1, -1: 0.3, -3: 0.1, 2: -0.08}, 1.5))}


@pytest.mark.parametrize("name", HIGH_RANK)
def test_a_high_rank_core_goes_dense_before_the_whole_transform(name, monkeypatch, core_solves):
    # the largest-norm column, formed at all 512 nodes, has coefficients past mode N/8,
    # so K*_in is formed densely with only its sample at every fourth target and source
    # node and that one column transformed: the row guard's row is not formed
    inc = HIGH_RANK[name]()
    shapes, rfft = [], np.fft.rfft
    monkeypatch.setattr(np.fft, "rfft", lambda a, *args, **kw: shapes.append(a.shape)
                        or rfft(a, *args, **kw))
    d = discretize(inc.inner, 512)
    k_in, b = transmission._block(d, d), d.normals
    assert shapes == [(128, 128), (512,)]
    assert np.array_equal(k_in, layerpot.kstar_matrix(d))
    x, = transmission._core_solve(k_in, 0.5, d, b)
    assert core_solves == [512]
    assert np.array_equal(x, np.linalg.solve(transmission._augment(-k_in, 0.5, d), b))


CORES = {"disk": lambda: confocal_pair(1.0, 0.0, 1.5),
         "confocal-0.3": lambda: confocal_pair(1.0, 0.3, 1.5),
         "confocal-0.6": lambda: confocal_pair(1.0, 0.6, 1.5),
         "laurent": lambda: laurent_domain(LAURENT)}


@pytest.mark.parametrize("lam", [0.75, -0.5])
@pytest.mark.parametrize("n", [512, 1024])
@pytest.mark.parametrize("name", CORES)
def test_the_core_factors_from_coarse_rows_match_the_whole_transforms(name, n, lam):
    # A11^-1 b by GMRES on K*_in's factors from its sample at every fourth node against
    # A11^-1 b by the LU of the whole dense K*_in, for 4 seeded sides less their weighted
    # mean; the normwise backward-error stop accepts every one. a-1 = 0.6 has content past
    # mode N/8 at 512 nodes, so that K*_in is formed densely and GMRES runs on it
    d = discretize(CORES[name]().inner, n)
    k_in, shift = transmission._block(d, d), transmission._shift(lam, d)
    assert isinstance(k_in, np.ndarray) == (name == "confocal-0.6" and n == 512)
    a11 = transmission._augment(-layerpot.kstar_matrix(d), lam, d)
    for b in np.random.default_rng(5).standard_normal((4, n)):
        b -= d.weights @ b / np.sum(d.weights)
        got = transmission._gmres(lambda v: (shift(-(k_in @ v), v), None), b)
        assert got is not None
        want = np.linalg.solve(a11, b)
        assert np.linalg.norm(got[0] - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("name", CORES)
def test_the_factored_core_assembly_holds_less_than_the_whole_transform(name):
    # K*_in from its sample at every fourth node to its Fourier factors, at ranks 1 to 229;
    # the whole N x (N/2 + 1) complex transform alone is 8.4 MB at 1024 nodes
    d = discretize(CORES[name]().inner, 1024)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        assert isinstance(transmission._block(d, d), transmission._Factored)
        transient = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert transient < 1024 * 513 * 16


# A sample at every fourth node folds a ripple of mode 259 on the core onto mode 3, at 512
# and 1024 nodes; only the full-grid column (core targets) or row (core sources) shows it
RIPPLE = CoatedInclusion(Curve(np.r_[1.0, np.zeros(257), 1e-10], 1), make_ellipse(0.0, 1.5, 1.5))
BLOCKS = {"confocal": lambda a, r0: confocal_pair(1.0, a, r0),
          "laurent": lambda a, r0: laurent_domain(LAURENT), "ripple": lambda a, r0: RIPPLE}
ROUTE_SHAPES = [("confocal", a, r0) for a in (0.0, 0.05, 0.3, 0.6) for r0 in (1.25, 1.5, 2.5)
                if a or r0 == 1.5] + [("confocal", 0.8, 1.5), ("laurent", 0.2, 1.5),
                                      ("ripple", 0.0, 1.5)]
# at 514 and 1022 nodes, not multiples of 4, the rows at every second target node are cut
# at the same N/8 modes
ROUTE_CASES = [(*shape, n) for n in (512, 1024) for shape in ROUTE_SHAPES] + [
    ("confocal", 0.3, 1.5, 514), ("confocal", 0.3, 1.5, 1022)]


@pytest.mark.parametrize("kind, am1, r0, n", ROUTE_CASES,
                         ids=["-".join(map(str, c)) for c in ROUTE_CASES])
def test_factored_blocks_apply_as_the_dense_blocks(kind, am1, r0, n, monkeypatch):
    # each block held as its target spectrum, applied to 4 seeded vectors (one alone, the
    # four, and stacked twice) and formed by `_dense`, against the dense blocks, relative to the
    # largest column norms (at most the 2-norms); every block tries its sample once
    inc = BLOCKS[kind](am1, r0)
    d_in, d_out = discretize(inc.inner, n), discretize(inc.outer, n)
    names = ("K*_in", "K*_out", "C_oi", "C_io")
    pairs = ((d_in, d_in), (d_out, d_out), (d_out, d_in), (d_in, d_out))
    v = np.random.default_rng(11).standard_normal((n, 4))
    formed, lines = [], []  # the arguments of each array `_block` forms, the axis of each line
    for fn in ("kstar_matrix", "normal_derivative_coupling"):
        monkeypatch.setattr(transmission, fn, lambda *a, form=getattr(transmission, fn):
                            formed.append(a) or form(*a))
    line = transmission._kernel_line
    monkeypatch.setattr(transmission, "_kernel_line", lambda *a: lines.append(a[-1]) or line(*a))
    factored, at_row_guard, step = set(), set(), math.gcd(n, 4)
    for name, (src, tgt) in zip(names, pairs):
        formed.clear()
        lines.clear()
        block = transmission._block(src, tgt)
        dense = (layerpot.kstar_matrix(src) if src is tgt
                 else layerpot.normal_derivative_coupling(src, tgt))
        if isinstance(block, np.ndarray):  # the sample, then the dense block
            assert len(formed) == 2 and formed[0][-1] == step
            assert np.array_equal(block, dense)
            if lines == [0, 1]:
                at_row_guard.add(name)
            continue
        factored.add(name)
        assert len(formed) == 1 and formed[0][-1] == step  # the sample the factors come from
        assert 2 * len(block.f) - 1 < n // 4 and block.f.shape[1] == n // step
        norm, stacked = np.max(np.linalg.norm(dense, axis=0)), np.stack([v, -2.0 * v])
        # (got, want, operand, its node axis): error within 1e-12 norm |operand|
        cases = [(block @ v, dense @ v, v, 0), (block @ v[:, 0], dense @ v[:, 0], v[:, 0], 0),
                 (block @ stacked, dense @ stacked, stacked, 1),
                 (transmission._dense(block), dense, np.eye(n), 0)]
        for got, want, x, axis in cases:
            err = np.linalg.norm(got - want, axis=axis)
            assert np.all(err <= 1e-12 * norm * np.linalg.norm(x, axis=axis)), name
    # the full-grid row of C_io shows source content from mode N/8 on where the core has a
    # ripple past it or is flat (a-1 = 0.8 at 1024 nodes, a-1 = 0.6 at 512): the row guard
    # sends it dense
    rows = (kind == "ripple" or am1 == 0.8) and n == 1024 or (am1, r0, n) == (0.6, 2.5, 512)
    assert at_row_guard == ({"C_io"} if rows else set())
    if n % 4:  # the routes the same shell takes at 512 and 1024 nodes
        assert factored == (set(names) if n > 1000 else {"K*_in", "K*_out"})
    elif kind == "ripple" or am1 == 0.8:  # the ripple, and a flat core (K*_in of rank 489
        # at 512 nodes), send every block with core targets or sources dense
        assert factored == {"K*_out"}
    elif n == 1024 and r0 == 1.25:  # couplings of rank past N/4
        assert factored == {"K*_in", "K*_out"}
    elif n == 1024 or r0 == 2.5:
        assert factored | at_row_guard >= {"K*_out", "C_io"}
        assert ("K*_in" in factored) == (n == 1024 or am1 < 0.6)


# every route shape at the four sampled grids, and the mixed route at r0 = 1.26, where C_oi
# alone is formed densely: its core row is a product of each block, its coating row merged
ROW_CASES = [(*shape, n) for n in (512, 514, 1022, 1024) for shape in ROUTE_SHAPES] + [
    ("confocal", 0.3, 1.26, 1024)]


@pytest.mark.parametrize("kind, am1, r0, n", ROW_CASES,
                         ids=["-".join(map(str, c)) for c in ROW_CASES])
def test_the_coupled_product_sums_each_rows_spectra_as_the_dense_blocks(kind, am1, r0, n):
    # each row of the coupled product, K*_in phi + C_oi psi and C_io phi + K*_out psi, against
    # the products of the four blocks formed by `_dense`, on 3 seeded (phi, psi), within 1e-12
    # of the row's largest column norm times |(phi, psi)|; the handed-on core terms sum to the
    # core row. Two factored blocks of a row give one term, whose spectra differ in length on
    # some rows; a row with a dense block gives two terms
    d_in, d_out, parts = transmission._assembled(BLOCKS[kind](am1, r0), n)
    k_in, k_out, c_oi, c_io = parts
    factored = [isinstance(b, transmission._Factored) for b in parts]
    for b in (b for b, f in zip(parts, factored) if f):  # no array of N rows or columns
        assert all(n not in a.shape for a in _arrays(b)) and 2 * len(b.f) - 1 < n // 4
    rows = ((k_in, c_oi), (c_io, k_out))
    merged = [isinstance(a, transmission._Factored) and isinstance(b, transmission._Factored)
              for a, b in rows]
    if (kind, am1, r0) == ("confocal", 0.3, 1.5) and n > 1000:  # odd 511 nodes at 1022
        # both rows merged, each from spectra of different lengths: 49 and 81, 78 and 31
        assert merged == [True, True] and len(k_in.f) != len(c_oi.f) != len(k_out.f)
    if (kind, am1, r0, n) == ("confocal", 0.3, 1.26, 1024):
        assert factored == [True, True, False, True] and merged == [False, True]
    krylov = transmission._Krylov(d_in, d_out, 0.75, parts, [])
    shifts = (lambda bv, v: bv,) * 2  # the product of the blocks alone, negated
    dense = [[transmission._dense(b) for b in row] for row in rows]
    norms = [max(np.max(np.linalg.norm(b, axis=0)) for b in row) for row in dense]
    for v in np.random.default_rng(13).standard_normal((3, 2 * n)):
        got, core = krylov._coupled(v, shifts)
        assert len(core) == (1 if merged[0] else 2)
        want = [a @ v[:n] + b @ v[n:] for a, b in dense]
        for i, norm in enumerate(norms):
            err = np.linalg.norm(-got[i * n:(i + 1) * n] - want[i])
            assert err <= 1e-12 * norm * np.linalg.norm(v)
        assert np.linalg.norm(sum(core) - want[0]) <= 1e-12 * norms[0] * np.linalg.norm(v)


def test_a_coupling_whose_unsampled_source_nodes_reach_the_near_zone_is_refined(monkeypatch):
    # every fourth target lies 0.1995 off the unit circle, radially above a source node
    # that is not sampled: the sampled nodes two spacings away lie outside the near zone
    # (0.2), the node between them inside it. The sample is refused, and the dense block
    # takes the near path at every target (on the plain grid, which 0.1995 >= 40/512 allows)
    n = 512
    src = discretize(Curve(np.array([1.0 + 0j]), 1), n)
    tgt = discretize(Curve(np.array([1.1995 * np.exp(4j * math.pi / n)]), 1), n)
    pts, limit = tgt.nodes[::4], layerpot._near_zone(src, 0.0)[1]
    sampled = math.sqrt(layerpot._offsets(pts, src.nodes[::4])[2].min())
    assert layerpot.min_target_distance(src, pts) < limit < sampled
    assert layerpot.normal_derivative_coupling(src, tgt, 4) is None
    refined, near_rows = [], layerpot._near_rows
    monkeypatch.setattr(layerpot, "_near_rows",
                        lambda s, p, *a: refined.append(len(p)) or near_rows(s, p, *a))
    block = transmission._block(src, tgt)
    assert refined == [n]
    assert np.array_equal(block, layerpot.normal_derivative_coupling(src, tgt))


class _CountedMatmul:
    """A dense block that appends its name to `events` per product taken with it."""

    events: list = []

    def __init__(self, block, name):
        self.block, self.name = block, name

    def __matmul__(self, other):
        self.events.append(self.name)
        return self.block @ other


class _CountedSpectrum(np.ndarray):
    """A factored block's spectrum F that appends its block's name to `events` per product F r."""

    events: list = []

    def __matmul__(self, other):
        self.events.append(self.name)
        return self.view(np.ndarray) @ other


def _counted(block, name):
    """The block with its products counted: a factored block keeps its type, so the route
    the solve takes is unchanged."""
    if isinstance(block, np.ndarray):
        return _CountedMatmul(block, name)
    f = block.f.view(_CountedSpectrum)
    f.name = name
    return dataclasses.replace(block, f=f)


@pytest.mark.parametrize("am1, n", [(0.2, 512), (0.0, 512), (0.2, 1024)],
                         ids=["confocal-n512", "disk-n512", "confocal-n1024"])
def test_a_two_step_coupled_solve_multiplies_by_c_oi_only_inside_its_products(
        am1, n, monkeypatch):
    # on a confocal pair or concentric disks GMRES takes two steps per axis on the coupled
    # system: two Arnoldi products and one true-residual check; the core flux reuses the
    # core row's terms of that check. K*_in and K*_out are factored at 512 and 1024 nodes,
    # the couplings only at 1024. A row of two factored blocks sums their spectra F R x
    # (K*_in's 37 rows padded to C_oi's 81) and takes one inverse FFT; a row with a dense
    # block takes its product, then the factored block's F product and one inverse FFT. C_oi
    # is applied only inside the coupled products
    inc, p = confocal_pair(1.0, am1, 1.5), ConductivityProfile(5.0, 1.0, (0.5, 3.0))
    elim, want = transmission._solved(inc, p, n)
    names = ("K*_in", "K*_out", "C_oi", "C_io")
    factored = {name for name, b in zip(names, elim.parts) if isinstance(b, transmission._Factored)}
    assert factored == ({"K*_in", "K*_out"} if n == 512 else set(names))
    events, product, gmres = [], transmission._Krylov._coupled, transmission._gmres
    irfft = np.fft.irfft
    monkeypatch.setattr(transmission._Krylov, "_coupled",
                        lambda self, *a: events.append("A") or product(self, *a))
    monkeypatch.setattr(transmission, "_gmres", lambda *a: events.append("gmres") or gmres(*a))
    # an inverse FFT to the N targets; the reductions to the sampled nodes are not counted
    monkeypatch.setattr(np.fft, "irfft", lambda a, m, *args, **kw:
                        (m == n and events.append("irfft")) or irfft(a, m, *args, **kw))
    monkeypatch.setattr(_CountedMatmul, "events", events)
    monkeypatch.setattr(_CountedSpectrum, "events", events)
    counted = dataclasses.replace(elim, parts=tuple(map(_counted, elim.parts, names)))
    got = counted.solve(zip(contrasts(p).mu, (pair.h for pair in want), (1, 2)))
    if n == 1024:
        step = ["A", "K*_in", "C_oi", "irfft", "C_io", "K*_out", "irfft"]
        assert len(elim.parts[0].f) == 37 and len(elim.parts[2].f) == 81
    else:
        step = ["A", "C_oi", "K*_in", "irfft", "C_io", "K*_out", "irfft"]
    assert events == (["gmres"] + step * 3) * 2
    for a, b in zip(got, want):
        assert all(np.array_equal(getattr(a, f), getattr(b, f)) for f in ("phi", "psi", "core_flux"))


def test_eval_u_is_the_sum_of_the_plain_evaluators():
    # one offsets pass per grid gives the values and gradients of the two evaluators,
    # bit for bit, and refuses a near-zone target as single_layer_off does
    inc, p = confocal_pair(1.0, 0.2, 1.5), ConductivityProfile(5.0, 1.0, (0.5, 3.0))
    t = np.linspace(0.0, 2 * np.pi, 40, endpoint=False)
    pts = np.column_stack([3.0 * np.cos(t), 2.5 * np.sin(t)])
    for n in (64, 1024):
        for pair in solve_both_axes(inc, p, n):
            vals, grads = eval_u(inc, pair, p, pts)
            want_u, want_g = pair.h.value(pts), pair.h.gradient(pts)
            for d, rho in ((pair.disc_inner, pair.phi), (pair.disc_outer, pair.psi)):
                want_u = want_u + single_layer_off(d, rho, pts)
                want_g = want_g + single_layer_grad_off(d, rho, pts)
            assert np.array_equal(vals, want_u) and np.array_equal(grads, want_g)
            near = np.vstack([pts, [pair.disc_outer.nodes[3] * 1.001]])
            with pytest.raises(NearEvaluationError) as got:
                eval_u(inc, pair, p, near)
            with pytest.raises(NearEvaluationError) as want:
                single_layer_off(pair.disc_outer, pair.psi, near)
            assert str(got.value) == str(want.value)
            assert (got.value.distance, got.value.limit) == (want.value.distance, want.value.limit)


def _plain_fields(pair, pts):
    """u and grad u by the plain single layer evaluators."""
    u, g = pair.h.value(pts), pair.h.gradient(pts)
    for d, rho in ((pair.disc_inner, pair.phi), (pair.disc_outer, pair.psi)):
        u, g = u + single_layer_off(d, rho, pts), g + single_layer_grad_off(d, rho, pts)
    return u, g


def test_eval_u_keeps_the_kernels_of_two_point_sets_for_the_kept_elimination():
    # the latest two point sets' kernels are kept with the grids they are keyed on; a
    # near-zone set is refused before anything is kept; a miss of the kept elimination
    # empties them, and a pair of an elimination no longer kept still evaluates as the
    # plain evaluators do
    inc, p = confocal_pair(1.0, 0.2, 1.5), ConductivityProfile(5.0, 1.0, (0.5, 3.0))
    t = np.linspace(0.0, 2 * np.pi, 40, endpoint=False)
    sets = [r * np.column_stack([np.cos(t), np.sin(t)]) for r in (3.0, 4.0, 5.0)]
    pairs = solve_both_axes(inc, p, 64)
    grids = (pairs[0].disc_inner, pairs[0].disc_outer)
    for k, pts in enumerate(sets + sets[1:]):
        for pair in pairs:
            got = eval_u(inc, pair, p, pts)
            assert all(np.array_equal(a, b) for a, b in zip(got, _plain_fields(pair, pts)))
        kept = list(transmission._fields.items())
        assert len(kept) == min(k + 1, 2) and kept[-1][0][2] == pts.tobytes()
        assert all(entry[0] == grids and len(entry[1]) == 2 for _, entry in kept)
    near = np.vstack([sets[0], [grids[1].nodes[3] * 1.001]])
    with pytest.raises(NearEvaluationError):
        eval_u(inc, pairs[0], p, near)
    assert list(transmission._fields.items()) == kept
    solve_both_axes(confocal_pair(1.0, 0.3, 1.5), p, 64)  # a miss
    assert transmission._fields == {}
    got = eval_u(inc, pairs[1], p, sets[0])
    assert all(np.array_equal(a, b) for a, b in zip(got, _plain_fields(pairs[1], sets[0])))
    with pytest.raises(NearEvaluationError):
        eval_u(inc, pairs[1], p, near)
    assert [entry[0] for entry in transmission._fields.values()] == [grids]


def _formed(schur, mu, d):
    """The `_gmres` product of a formed block, `_shift`ed by mu on grid d: nothing kept."""
    shift = transmission._shift(mu, d)
    return lambda v: (shift(schur @ v, v), None)


class _Counting:
    """A product that adds one to the last entry of a list per call."""

    def __init__(self, product, products):
        self.product, self.products = product, products

    def __call__(self, v):
        self.products[-1] += 1
        return self.product(v)


def _coating_system(inc):
    """(schur, d_out, axis-1 coating right side, mu) of a 64-node elimination of inc."""
    p = ConductivityProfile(5.0, 1.0, (0.5, 3.0))
    elim, _ = transmission._solved(inc, p, 64)
    return elim.schur, elim.d_out, elim.sides[0][2], contrasts(p).mu


@pytest.mark.parametrize("axis", [0, 1])
def test_gmres_agrees_with_the_dense_solve(axis):
    # mu_1 = 1.5 adds the weighted-mean term to the product, mu_2 = -1 does not
    schur, d, _, mu = _coating_system(laurent_domain(LAURENT))
    b = np.random.default_rng(3).standard_normal(64)
    x, _ = transmission._gmres(_formed(schur, mu[axis], d), b)
    want = np.linalg.solve(transmission._augment(schur.copy(), mu[axis], d), b)
    assert np.max(np.abs(x - want)) <= 1e-12 * np.max(np.abs(want))
    assert np.array_equal(transmission._gmres(_formed(schur, mu[axis], d), np.zeros(64))[0],
                          np.zeros(64))


def test_gmres_converges_in_one_step_on_a_one_step_krylov_space():
    # on concentric disks the coating right side of a uniform field is cos t, an
    # eigenvector of the rotation-invariant Schur part: one step and one true-residual check
    schur, d, b, mu = _coating_system(confocal_pair(1.0, 0.0, 1.5))
    products = [0]
    x, _ = transmission._gmres(_Counting(_formed(schur, mu[0], d), products), b)
    assert products == [2]
    want = np.linalg.solve(transmission._augment(schur.copy(), mu[0], d), b)
    assert np.max(np.abs(x - want)) <= 1e-13 * np.max(np.abs(want))


def test_gmres_past_its_cap_returns_none(monkeypatch):
    schur, d, _, mu = _coating_system(laurent_domain(LAURENT))
    b = np.random.default_rng(3).standard_normal(64)
    monkeypatch.setattr(transmission, "_GMRES_CAP", 1)
    products = [0]
    assert transmission._gmres(_Counting(_formed(schur, mu[1], d), products), b) is None
    assert products == [1]


def test_gmres_gives_up_once_its_true_residual_stops_falling():
    # the Laurent map's 64-node coating system, each product perturbed by a seeded random
    # vector of 1e-10 times the operand's norm: the Arnoldi relation holds for what the
    # products return, so the least-squares residual falls on, but the true residual
    # |b - A x| cannot fall below about 1e-10 |b|. GMRES gives up at its second check, two
    # products past where the unperturbed system converges, instead of running to its cap
    schur, d, _, mu = _coating_system(laurent_domain(LAURENT))
    b = np.random.default_rng(3).standard_normal(64)
    exact, noise = _formed(schur, mu[1], d), np.random.default_rng(17)

    def perturbed(v):
        e = noise.standard_normal(len(v))
        return exact(v)[0] + 1e-10 * np.linalg.norm(v) / np.linalg.norm(e) * e, None

    products = [0]
    assert transmission._gmres(_Counting(exact, products), b) is not None
    products.append(0)
    assert transmission._gmres(_Counting(perturbed, products), b) is None
    assert products == [10, 12] and products[1] < transmission._GMRES_CAP // 4


@pytest.mark.parametrize("failing_call", [1, 2])
def test_singular_block_raises_solver_error(design_case, monkeypatch, failing_call):
    # failing_call 1 is the core block, 2 the first coating Schur complement;
    # another geometry's elimination is kept first, and the miss frees it
    inc, _, p = design_case
    solve_both_axes(disks(), ConductivityProfile.isotropic(5.0, 1.0, 2.0), n=64)
    real_solve, calls = np.linalg.solve, []

    def solve(a, b):
        calls.append(a.copy())
        if len(calls) == failing_call:
            raise np.linalg.LinAlgError("Singular matrix")
        return real_solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", solve)
    with pytest.raises(SolverError) as info:
        solve_both_axes(inc, p, n=64)
    assert len(calls) == failing_call
    assert info.value.cond is not None and math.isfinite(info.value.cond)
    d_in, _, (k_in, *_) = transmission._assembled(inc, 64)
    core = contrasts(p).lam * np.eye(64) - k_in + d_in.weights / np.sum(d_in.weights)
    assert np.array_equal(calls[0], core)
    # a failed core solve keeps nothing; a failed coating solve keeps the elimination
    assert len(transmission._kept) == failing_call - 1


def test_core_points_lie_in_core_outside_near_zones():
    # seeded M=3 maps (a_n U(+-0.35), n in (-3, -2, -1, 2, 3); r0 U(1.2, 2.5)):
    # many cores are not star-shaped about their centre, so scaled copies of
    # the boundary reach into the shell
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(200):
        coeffs = dict(zip((-3, -2, -1, 2, 3), rng.uniform(-0.35, 0.35, 5)))
        r0 = rng.uniform(1.2, 2.5)
        try:
            inc = laurent_domain(LaurentMap(coeffs={1: 1.0, **coeffs}, r0=r0))
        except GeometryError:
            continue
        d_in, d_out = discretize(inc.inner, 128), discretize(inc.outer, 128)
        for factors in ((0.5,), (0.2, 0.4, 0.6)):
            pts = transmission._core_grid(inc, d_in, d_out, factors)
            z = pts[:, 0] + 1j * pts[:, 1]
            assert np.all(_winding(d_in.nodes_z[:, None] - z[None, :]) == 1)
            for pt in pts:
                for grid in (d_in, d_out):
                    assert not _near_zone(grid, min_target_distance(grid, [pt]))[0]
            checked += 1
    assert checked == 70


def test_neutrality_report_reads_core_points_only():
    # 2 of the 17 candidate points of this core lie in the shell; with them the
    # axis-2 core gradient deviation reads 1.34
    m = LaurentMap(coeffs={1: 1.0, -3: -0.34, -2: 0.09, -1: 0.205, 2: 0.009, 3: 0.158}, r0=1.494)
    inc = laurent_domain(m)
    d_in, d_out = discretize(inc.inner, 128), discretize(inc.outer, 128)
    assert len(transmission._core_grid(inc, d_in, d_out)) == 15
    rep = neutrality_report(inc, ConductivityProfile(5.0, 1.0, (2.0, 3.0)), n=128)
    assert max(ax.core_gradient_deviation for ax in rep.axes) < 0.5


def test_neutrality_report_forms_each_grids_kernels_once(monkeypatch):
    # probe and core kernels per grid, applied to both axes' densities: 4 formations
    formed = []
    kernels = layerpot._layer_kernels
    counted = lambda d, pts, *a, **kw: formed.append((d.n, len(pts))) or kernels(d, pts, *a, **kw)
    for module in (layerpot, transmission):
        monkeypatch.setattr(module, "_layer_kernels", counted)
    neutrality_report(confocal_pair(1.0, 0.3, 1.8), ConductivityProfile(5.0, 1.0, (2.0, 3.0)))
    assert len(formed) == 4


@pytest.mark.parametrize("scale", [0.999, 1.2])
def test_core_grid_refuses_too_few_core_points(scale):
    # every scaled copy sits in the inner near zone (0.999) or outside the core
    # (1.2); the centre alone is left, and no point replaces a dropped one
    inc = confocal_pair(1.0, 0.2, 1.5)
    d_in, d_out = discretize(inc.inner, 64), discretize(inc.outer, 64)
    with pytest.raises(GeometryError, match="^only 1 of 17 core sample points"):
        transmission._core_grid(inc, d_in, d_out, factors=(scale,))


def _moved(curve: Curve, dc: Curve, s: float) -> Curve:
    """The curve whose coefficients are those of curve plus s times those of dc."""
    lo = min(curve.k_min, dc.k_min)
    hi = max(curve.k_min + len(curve.coeffs), dc.k_min + len(dc.coeffs))
    coeffs = np.zeros(hi - lo, complex)
    for c, w in ((curve, 1.0), (dc, s)):
        coeffs[c.k_min - lo : c.k_min - lo + len(c.coeffs)] += w * c.coeffs
    return Curve(coeffs, lo)


def _densities(inc, p, n) -> np.ndarray:
    """(phi, psi) of both axes' solves, shape (axis, density, node)."""
    return np.array([[q.phi, q.psi] for q in transmission._solved(inc, p, n)[1]])


# (inner, outer) coefficient perturbations: the core alone, the coating alone, both
TANGENT_DIRECTIONS = [
    (Curve(np.array([0.3, 0.5j, 0.0, 0.2]), -2), Curve(np.zeros(1, complex), 0)),
    (Curve(np.zeros(1, complex), 0), Curve(np.array([0.1j, 0.4, 0.0, -0.3]), -2)),
    (Curve(np.array([0.2, -0.1j]), -1), Curve(np.array([0.5, 0.2]), 2)),
]
SOLVE_TANGENT_CASES = {  # (map, sigma_c, N): lam = 3/4, -1/2, -1/2, 1/2 and 3/4
    "laurent-n64": (LaurentMap({1: 1.0, -1: 0.2, 2: 0.03, -2: 0.02}, 1.5), 5.0, 64),
    "refined-r0=1.08-n64": (LaurentMap({1: 1.0, -1: 0.2, 2: -0.03, -2: 0.02}, 1.08), 0.0, 64),
    # GMRES on the coupled system; the derivative forms the elimination, as below 256 nodes
    "coupled-n256": (LaurentMap({1: 1.0, -1: 0.2, 2: 0.03, -2: 0.02}, 1.5), 0.0, 256),
    "low-rank-core-n512": (LaurentMap({1: 1.0, -1: 0.2, 2: 0.03, -2: 0.02}, 1.5), math.inf, 512),
    # every block held as Fourier factors, which the derivative's elimination forms densely
    "factored-blocks-n1024": (LaurentMap({1: 1.0, -1: 0.2, 2: 0.03, -2: 0.02}, 1.5), 5.0, 1024),
}


@pytest.mark.parametrize("name", SOLVE_TANGENT_CASES)
def test_solve_tangent_matches_central_differences_of_the_densities(name, monkeypatch,
                                                                      core_solves):
    # the derivative of the densities alone, no probe: three shape directions, then
    # log sigma_m^1 and log sigma_m^2 through dmu/dlog sm = ss sm / (ss - sm)^2;
    # sigma_m^1 < sigma_s < sigma_m^2 augments the coating block on axis 1 only
    m, sigma_c, n = SOLVE_TANGENT_CASES[name]
    ss, sm, h = 1.0, np.array([0.7, 2.0]), 1e-6
    inc, p = laurent_domain(m), ConductivityProfile(sigma_c, ss, tuple(sm))
    elim, pairs = transmission._solved(inc, p, n)
    assert all(isinstance(b, transmission._Factored) for b in elim.parts) == (n == 1024)
    t_in, t_out = (discretize_tangent(d, [dc[i] for dc in TANGENT_DIRECTIONS])
                   for i, d in enumerate((elim.d_in, elim.d_out)))
    refined, interpolated = [], layerpot._interpolated  # one per refined coupling derivative
    monkeypatch.setattr(layerpot, "_interpolated",
                        lambda *a: refined.append(a[1]) or interpolated(*a))
    assembled = []  # the derivative takes every block from the kept value
    for block in ("kstar_matrix", "normal_derivative_coupling"):
        monkeypatch.setattr(transmission, block, lambda *a, real=getattr(transmission, block):
                            assembled.append(a) or real(*a))
    dphi, dpsi = elim.solve_tangent(pairs, contrasts(p).mu, t_in, t_out,
                                    np.diag(ss * sm / (ss - sm) ** 2))
    assert len(refined) == (2 if name.startswith("refined") else 0) and assembled == []
    # the elimination (formed for the derivative from 256 nodes) and the derivative each
    # solve the core densely, and the evaluation's GMRES solves no core system
    assert core_solves == [n, n]
    fd = []
    for inner, outer in TANGENT_DIRECTIONS:
        plus, minus = (CoatedInclusion(_moved(inc.inner, inner, s), _moved(inc.outer, outer, s))
                       for s in (h, -h))
        fd.append(_densities(plus, p, n) - _densities(minus, p, n))
    for step in np.exp(h * np.eye(2)):
        plus, minus = (dataclasses.replace(p, sigma_m=tuple(v)) for v in (sm * step, sm / step))
        fd.append(_densities(inc, plus, n) - _densities(inc, minus, n))
    fd = np.stack(fd, axis=-1).reshape(-1, 5) / (2 * h)
    exact = np.stack([dphi, dpsi], axis=1).reshape(-1, 5)
    err = np.linalg.norm(exact - fd, axis=0) / np.linalg.norm(fd, axis=0)
    assert np.all(err <= 1e-6), err


def test_a_coupled_solve_tangent_matches_the_eager_elimination(monkeypatch):
    # at 256 nodes the derivative of the coupled solve's densities, through the elimination
    # formed for it, against the derivative of the eager dense route's densities
    m, sigma_c, n = SOLVE_TANGENT_CASES["coupled-n256"]
    inc, p = laurent_domain(m), ConductivityProfile(sigma_c, 1.0, (0.7, 2.0))
    got = []
    for nodes in (256, math.inf):
        monkeypatch.setattr(transmission, "_GMRES_NODES", nodes)
        transmission._kept.clear()
        elim, pairs = transmission._solved(inc, p, n)
        t_in, t_out = (discretize_tangent(d, [dc[i] for dc in TANGENT_DIRECTIONS])
                       for i, d in enumerate((pairs[0].disc_inner, pairs[0].disc_outer)))
        got.append(elim.solve_tangent(pairs, contrasts(p).mu, t_in, t_out, np.eye(2)))
    assert isinstance(elim, transmission._Elimination)
    for coupled, eager in zip(*got):
        assert np.max(np.abs(coupled - eager)) <= 1e-12 * np.max(np.abs(eager))

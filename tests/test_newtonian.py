"""Newtonian potentials of plane domains and the coating identities."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from neutral_lab.errors import NearEvaluationError
from neutral_lab.geometry import (
    CoatedInclusion,
    LaurentMap,
    area,
    confocal_pair,
    discretize,
    laurent_domain,
    make_ellipse,
)
from neutral_lab import layerpot, newtonian
from neutral_lab.designer import confocal_design
from neutral_lab.layerpot import _REFINE_DECADES, _refined_grid, min_target_distance
from neutral_lab.newtonian import (
    combined_identity_check,
    fit_quadratic,
    free_bvp_residual,
    newtonian_gradient,
    newtonian_gradient_near,
    newtonian_gradient_on_boundary,
    newtonian_potential,
    newtonian_potential_near,
)


@pytest.fixture(scope="module")
def unit_disk():
    return discretize(make_ellipse(0.0, 1.0, 1.0), 256)


@pytest.fixture(scope="module")
def ellipse21():
    return discretize(make_ellipse(0.0, 2.0, 1.0), 256)


@pytest.fixture(scope="module")
def design_case():
    dr = confocal_design(1.0, 0.2, 1.5, 5.0, 1.0)
    return confocal_pair(1.0, 0.2, 1.5), dr


def test_unit_disk_closed_form(unit_disk):
    # inside: (|x|^2 - 1)/4, outside: (1/2) ln |x|
    inside = np.array([[0.0, 0.0], [0.3, 0.1], [0.0, -0.5]])
    vals = newtonian_potential_near(unit_disk, inside)
    ref = (np.sum(inside**2, axis=1) - 1.0) / 4.0
    assert np.max(np.abs(vals - ref)) < 1e-13
    outside = np.array([[2.0, 0.0], [0.0, 3.0], [-1.5, 1.5]])
    vals_out = newtonian_potential(unit_disk, outside)
    assert np.max(np.abs(vals_out - 0.5 * np.log(np.linalg.norm(outside, axis=1)))) < 1e-13
    grad_out = newtonian_gradient(unit_disk, np.array([[2.0, 0.0]]))
    assert grad_out[0] == pytest.approx([0.25, 0.0], abs=1e-13)
    grad_in = newtonian_gradient_near(unit_disk, inside)
    assert np.max(np.abs(grad_in - inside / 2.0)) < 1e-13


def test_ellipse_interior_is_quadratic(ellipse21):
    # N = (b x^2 + a y^2) / (2 (a + b)) + const inside an (a, b) ellipse
    a, b = 2.0, 1.0
    t = 2 * math.pi * np.arange(24) / 24
    pts = np.column_stack([0.5 * a * np.cos(t), 0.5 * b * np.sin(t)])
    pts = np.vstack([pts, 0.3 * pts, [[0.0, 0.0]]])
    fit = fit_quadratic(pts, newtonian_potential_near(ellipse21, pts))
    assert fit.d1 == pytest.approx(b / (2 * (a + b)), abs=1e-10)
    assert fit.d2 == pytest.approx(a / (2 * (a + b)), abs=1e-10)
    assert fit.rms_residual < 1e-12
    grads = newtonian_gradient_near(ellipse21, pts)
    ref = np.column_stack([b * pts[:, 0] / (a + b), a * pts[:, 1] / (a + b)])
    assert np.max(np.abs(grads - ref)) < 1e-12


def test_ellipse_boundary_gradient_continuous(ellipse21):
    # grad N is continuous, so the interior closed form holds on the boundary
    a, b = 2.0, 1.0
    grads = newtonian_gradient_on_boundary(ellipse21)
    ref = np.column_stack(
        [b * ellipse21.nodes[:, 0] / (a + b), a * ellipse21.nodes[:, 1] / (a + b)]
    )
    assert np.max(np.abs(grads - ref)) < 1e-12


def test_far_field_log_coefficient(ellipse21):
    # N ~ (|D| / 2 pi) ln |x| with |D| = pi a b
    pts = np.array([[40.0, 0.0], [0.0, 40.0], [28.28, 28.28]])
    vals = newtonian_potential(ellipse21, pts)
    ref = (2.0 * 1.0 / 2.0) * np.log(np.linalg.norm(pts, axis=1))
    assert np.max(np.abs(vals - ref)) < 1e-3  # quadrupole tail ~ r^-2


def test_laplacian_is_indicator(ellipse21):
    h = 1e-3
    stencil = np.array([[0, 0], [h, 0], [-h, 0], [0, h], [0, -h]], float)

    def lap(pt):
        v = newtonian_potential_near(ellipse21, pt + stencil)
        return (v[1] + v[2] + v[3] + v[4] - 4 * v[0]) / h**2

    assert lap(np.array([0.4, 0.2])) == pytest.approx(1.0, abs=1e-6)
    assert lap(np.array([3.0, 1.0])) == pytest.approx(0.0, abs=1e-6)


def test_near_and_far_paths_agree(ellipse21):
    pts = np.array([[3.0, 0.5], [0.0, 2.5]])
    assert np.max(
        np.abs(newtonian_potential(ellipse21, pts) - newtonian_potential_near(ellipse21, pts))
    ) < 1e-13
    assert np.max(
        np.abs(newtonian_gradient(ellipse21, pts) - newtonian_gradient_near(ellipse21, pts))
    ) < 1e-13


def test_near_zone_guard(ellipse21):
    close = np.array([[2.0 + 1e-3, 0.0]])
    with pytest.raises(NearEvaluationError):
        newtonian_potential(ellipse21, close)
    # the refined path handles moderate proximity but refuses hopeless ones
    assert np.isfinite(newtonian_potential_near(ellipse21, close)).all()
    with pytest.raises(NearEvaluationError):
        newtonian_potential_near(ellipse21, np.array([[2.0 + 1e-9, 0.0]]))


def test_combined_identity_disks():
    # concentric disks: the shell combination is radial with d1 = d2 = (1-f)/4
    inc = CoatedInclusion(
        make_ellipse(0.0, 1.0, 1.0), make_ellipse(0.0, math.sqrt(2.0), math.sqrt(2.0)), None
    )
    rep = combined_identity_check(inc, SimpleNamespace(f=0.5, dmu=0.0))
    assert rep.fit.rms_residual < 1e-12
    assert max(rep.d_mismatch) < 1e-12
    assert rep.exterior_residual < 1e-12
    assert rep.fit.d1 == pytest.approx(0.125, abs=1e-12)


def test_combined_identity_design(design_case):
    inc, dr = design_case
    rep = combined_identity_check(inc, dr)
    assert rep.fit.rms_residual < 1e-12
    assert max(rep.d_mismatch) < 1e-10
    assert rep.exterior_residual < 1e-12
    d = rep.as_dict()
    assert d["fit"]["d1"] == rep.fit.d1


def test_combined_identity_flags_non_confocal(design_case):
    _, dr = design_case
    # elliptic inner boundary keeps the fit quadratic; the failure shows in
    # the exterior constancy and the d coefficients
    inc_ec = CoatedInclusion(make_ellipse(0.0, 1.2, 0.8), make_ellipse(0.0, 2.0, 2.0), None)
    f_ec = area(discretize(inc_ec.inner, 256)) / area(discretize(inc_ec.outer, 256))
    rep = combined_identity_check(inc_ec, SimpleNamespace(f=f_ec, dmu=dr.dmu))
    assert rep.fit.rms_residual < 1e-10
    assert rep.exterior_residual > 1e-4
    assert max(rep.d_mismatch) > 1e-3
    # a non-elliptic inner boundary breaks the quadratic fit itself
    inc_ne = laurent_domain(LaurentMap({1: 1.0, -1: 0.2, 2: 0.15}, 1.5))
    f_ne = area(discretize(inc_ne.inner, 256)) / area(discretize(inc_ne.outer, 256))
    rep_ne = combined_identity_check(inc_ne, SimpleNamespace(f=f_ne, dmu=dr.dmu))
    assert rep_ne.fit.rms_residual > 1e-4


def test_free_bvp_design(design_case):
    inc, dr = design_case
    rep = free_bvp_residual(inc, dr.f, dr.shear)
    assert rep.harmonicity_residual < 1e-5
    assert rep.outer_bc_residual < 1e-10
    assert rep.inner_bc_residual < 1e-10
    assert rep.max_residual < 1e-5


def test_free_bvp_disks():
    inc = CoatedInclusion(
        make_ellipse(0.0, 1.0, 1.0), make_ellipse(0.0, math.sqrt(2.0), math.sqrt(2.0)), None
    )
    rep = free_bvp_residual(inc, 0.5, 0.0)
    assert rep.max_residual < 1e-5


def test_free_bvp_detects_wrong_shear(design_case):
    inc, dr = design_case
    rep = free_bvp_residual(inc, dr.f, dr.shear - 0.1 * dr.f)
    assert rep.inner_bc_residual > 1e-2
    assert rep.harmonicity_residual < 1e-5  # still harmonic, only the BC breaks


def test_row_blocks_give_the_whole_grid_kernels_bit_for_bit(ellipse21):
    # 100 targets against 256 nodes take four row blocks of 32; the whole offset arrays,
    # formed at once, give the same numbers to the last bit
    t = np.linspace(0.0, 2 * np.pi, 100, endpoint=False)
    pts = np.column_stack([2.5 * np.cos(t), 1.6 * np.sin(t)])
    near = np.column_stack([2.02 * np.cos(t), 1.02 * np.sin(t)])

    def whole(src, targets):
        dx = targets[:, None, 0] - src.nodes[None, :, 0]
        dy = targets[:, None, 1] - src.nodes[None, :, 1]
        return dx, dy, dx * dx + dy * dy

    def potential(src, targets):
        dx, dy, r2 = whole(src, targets)
        flux = -(dx * src.normals[None, :, 0] + dy * src.normals[None, :, 1])
        return flux * (np.log(r2) - 1.0) * 0.25 @ src.weights / (2 * math.pi)

    fine = _refined_grid(ellipse21, min_target_distance(ellipse21, near))
    assert fine.n > ellipse21.n
    assert np.array_equal(newtonian_potential(ellipse21, pts), potential(ellipse21, pts))
    assert np.array_equal(newtonian_potential_near(ellipse21, near), potential(fine, near))
    logr = 0.5 * np.log(whole(fine, near)[2])
    assert np.array_equal(newtonian_gradient_near(ellipse21, near),
                          -(logr @ (fine.normals * fine.weights[:, None])) / (2 * math.pi))


# confocal (a-1, r0) pairs of the plain-grid rule's calibration
RULE_PAIRS = [(0.3, 1.8), (0.6, 1.25), (0.0, 1.5), (0.5, 2.4)]


@pytest.mark.parametrize("n", [64, 128, 256])
def test_refined_grid_keeps_the_plain_grid_exactly_where_the_rule_holds(n):
    # src itself when 40 max|z'| / d <= N, else a power of two >= max(2N, 40 max|z'| / d)
    src = discretize(confocal_pair(1.0, 0.3, 1.8).outer, n)
    reach = _REFINE_DECADES * float(np.max(src.speed)) / n
    for factor in (0.3, 0.99, 0.999999, 1.0, 1.000001, 1.01, 3.0):
        fine = _refined_grid(src, factor * reach)
        need = _REFINE_DECADES * float(np.max(src.speed)) / (factor * reach)
        if need <= n:
            assert fine is src
        else:
            assert fine.n >= max(2 * n, need) and fine.n & (fine.n - 1) == 0
            assert fine.n < 2 * max(2 * n, need)
    assert _refined_grid(src, reach) is src
    with pytest.raises(NearEvaluationError):
        _refined_grid(src, 0.0)


def _normal_offsets(src, factor):
    """Targets factor x the plain reach from each node along its outward and inward normal,
    kept where no node is nearer than that."""
    dist = factor * _REFINE_DECADES * float(np.max(src.speed)) / src.n
    pts = np.concatenate([src.nodes + dist * src.normals, src.nodes - dist * src.normals])
    keep = [min_target_distance(src, [p]) >= 0.999999 * dist for p in pts]
    return pts[np.array(keep)]


@pytest.mark.parametrize("n", [64, 128, 256])
@pytest.mark.parametrize("am1, r0", RULE_PAIRS)
def test_near_newtonian_stays_plain_past_the_reach_and_refines_inside_it(am1, r0, n,
                                                                        monkeypatch):
    # 1.01 x the reach: the plain grid, as accurate as an 8N-node one; 0.99 x: refined
    grids = []
    refined = layerpot._refined_grid
    monkeypatch.setattr(newtonian, "_refined_grid",
                        lambda src, d: grids.append(refined(src, d)) or grids[-1])
    inc = confocal_pair(1.0, am1, r0)
    for curve in (inc.inner, inc.outer):
        src, ref = discretize(curve, n), discretize(curve, 8 * n)
        pts = _normal_offsets(src, 1.01)
        assert len(pts) >= n
        for evaluate in (newtonian_potential_near, newtonian_gradient_near):
            got, want = evaluate(src, pts), evaluate(ref, pts)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        assert grids == []
        close = _normal_offsets(src, 0.99)
        for evaluate in (newtonian_potential_near, newtonian_gradient_near):
            evaluate(src, close)
            assert grids.pop().n >= 2 * n


def _recorded_passes(monkeypatch):
    """The node counts of every discretize call and the count of min_target_distance calls."""
    nodes, dists = [], []
    for module in (layerpot, newtonian):
        grid, dist = module.discretize, module.min_target_distance
        monkeypatch.setattr(module, "discretize",
                            lambda c, n, grid=grid: nodes.append(n) or grid(c, n))
        monkeypatch.setattr(module, "min_target_distance",
                            lambda *a, dist=dist: dists.append(1) or dist(*a))
    return nodes, dists


def test_free_bvp_stays_on_the_plain_grid_in_the_main_band(monkeypatch):
    # every target keeps the 256-node grids' reach: no refined grid and no distance pass
    dr = confocal_design(1.0, 0.3, 1.8, 5.0, 1.0)
    nodes, dists = _recorded_passes(monkeypatch)
    free_bvp_residual(confocal_pair(1.0, 0.3, 1.8), dr.f, dr.shear, n=256)
    assert nodes and max(nodes) == 256
    assert dists == []


def test_free_bvp_refines_a_thin_shell(monkeypatch):
    # the r0 = 1.05 shell's mid-shell stencil needs 2048-node grids
    dr = confocal_design(1.0, 0.0, 1.05, 5.0, 1.0)
    nodes, dists = _recorded_passes(monkeypatch)
    rep = free_bvp_residual(confocal_pair(1.0, 0.0, 1.05), dr.f, dr.shear, n=256)
    assert max(nodes) == 2048 and dists
    assert rep.outer_bc_residual < 1e-12 and rep.inner_bc_residual < 1e-12

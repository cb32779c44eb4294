"""Single layer potential quadrature and the Neumann-Poincare operator."""

import math

import numpy as np
import pytest

from neutral_lab.errors import NearEvaluationError, ValidationError
from neutral_lab.geometry import (
    LaurentMap,
    confocal_pair,
    discretize,
    laurent_domain,
    make_ellipse,
)
from neutral_lab.layerpot import (
    NEAR_FACTOR,
    _interpolated,
    _kernel_line,
    _near_zone,
    _normal_kernel,
    _offsets,
    _reduced,
    _refined_grid,
    feature_size,
    kstar_matrix,
    min_target_distance,
    normal_derivative_coupling,
    single_layer_grad_near,
    single_layer_grad_off,
    single_layer_off,
    single_layer_on_boundary,
)
from neutral_lab.newtonian import (
    newtonian_gradient_near,
    newtonian_potential,
    newtonian_potential_near,
)
from neutral_lab.transmission import ConductivityProfile, eval_u, solve_both_axes

RADIUS = 1.7


@pytest.fixture(scope="module")
def circle():
    return discretize(make_ellipse(0.0, RADIUS, RADIUS), 256)


def probe_ring(radius, m=64):
    t = 2 * math.pi * np.arange(m) / m
    return t, radius * np.column_stack([np.cos(t), np.sin(t)])


def test_circle_diagonalization_on_boundary(circle):
    # S[e^{ik theta}] = -(R / 2|k|) e^{ik theta} on the circle itself
    for k in range(1, 9):
        for dens in (np.cos(k * circle.t), np.sin(k * circle.t)):
            vals = single_layer_on_boundary(circle, dens)
            assert np.max(np.abs(vals + (RADIUS / (2 * k)) * dens)) < 1e-12
    # k = 0: S[1] = R ln R
    vals = single_layer_on_boundary(circle, np.ones(circle.n))
    assert np.max(np.abs(vals - RADIUS * math.log(RADIUS))) < 1e-12


@pytest.mark.parametrize("r,regime", [(2.5, "exterior"), (0.6, "interior")])
def test_circle_diagonalization_off_boundary(circle, r, regime):
    # the mode picks up (R/r)^|k| outside and (r/R)^|k| inside
    t, pts = probe_ring(r)
    for k in range(1, 9):
        ratio = (RADIUS / r) ** k if regime == "exterior" else (r / RADIUS) ** k
        for mode, dens in ((np.cos, np.cos(k * circle.t)), (np.sin, np.sin(k * circle.t))):
            vals = single_layer_off(circle, dens, pts)
            ref = -(RADIUS / (2 * k)) * ratio * mode(k * t)
            assert np.max(np.abs(vals - ref)) < 1e-12


def test_uniform_charge_potential_and_gradient(circle):
    ones = np.ones(circle.n)
    _, ext = probe_ring(2.5)
    assert np.max(np.abs(single_layer_off(circle, ones, ext) - RADIUS * math.log(2.5))) < 1e-13
    _, inn = probe_ring(0.6)
    # constant inside: the circle's own potential level R ln R
    assert np.max(np.abs(single_layer_off(circle, ones, inn) - RADIUS * math.log(RADIUS))) < 1e-13
    grad = single_layer_grad_off(circle, ones, np.array([[3.0, 0.0]]))
    assert grad[0] == pytest.approx([RADIUS / 3.0, 0.0], abs=1e-13)


def test_kstar_circle_entries(circle):
    # on a circle the kernel is the constant 1/(4 pi R); weights folded in
    k = kstar_matrix(circle)
    expected = np.tile(circle.weights / (4 * math.pi * RADIUS), (circle.n, 1))
    assert np.max(np.abs(k - expected)) < 1e-14


def test_kstar_annihilates_oscillatory_modes_on_circle(circle):
    # constant-kernel operator integrates mean-free densities to zero, so
    # the normal-derivative limits reduce to +-(1/2) density
    k = kstar_matrix(circle)
    for freq in (1, 3, 8):
        dens = np.cos(freq * circle.t)
        assert np.max(np.abs(k @ dens)) < 1e-12
        assert np.max(np.abs((0.5 * dens + k @ dens) - 0.5 * dens)) < 1e-12


def test_weights_are_left_eigenvector_of_kstar():
    # interior Gauss identity: integrating the jump kernel over the curve
    # gives exactly 1/2; discretely, w^T K = (1/2) w^T to machine precision
    for curve in (make_ellipse(0.0, 1.3, 0.8), make_ellipse(0.0, 2.0, 0.7)):
        d = discretize(curve, 128)
        k = kstar_matrix(d)
        assert np.max(np.abs(d.weights @ k - 0.5 * d.weights)) < 1e-14


@pytest.mark.parametrize("step", [1, 2, 4])
def test_block_rows_and_columns_are_the_whole_blocks(step):
    # the entries at every step-th target and source node, and the plain columns and rows
    # of K* and of a coupling, bit for bit: one kernel, its diagonal kappa w/(4 pi) on the
    # own grid
    inc = confocal_pair(1.0, 0.3, 1.5)
    d_in, d_out = discretize(inc.inner, 256), discretize(inc.outer, 256)
    k = kstar_matrix(d_in)
    assert np.array_equal(kstar_matrix(d_in, step), k[::step, ::step])
    coupling = normal_derivative_coupling(d_out, d_in)
    assert np.array_equal(normal_derivative_coupling(d_out, d_in, step), coupling[::step, ::step])
    for j in (0, 5, 255):
        assert np.array_equal(_kernel_line(d_in, d_in, j, 0), k[:, j])
        assert np.array_equal(_kernel_line(d_out, d_in, j, 0), coupling[:, j])
        assert np.array_equal(_kernel_line(d_in, d_in, j, 1), k[j])
        assert np.array_equal(_kernel_line(d_out, d_in, j, 1), coupling[j])


def test_jump_relation_generic_curve():
    # one-sided Richardson limits of d/dnu S at x +- eps nu reproduce
    # (+-1/2 I + K*) rho; accuracy is limited by the O(eps^3) remainder
    d = discretize(make_ellipse(0.0, 1.3, 0.8), 512)
    rho = np.cos(2 * d.t) + 0.3 * np.sin(3 * d.t)
    k = kstar_matrix(d)

    def flux(eps):
        pts = d.nodes + eps * d.normals
        grad = single_layer_grad_near(d, rho, pts)
        return np.sum(grad * d.normals, axis=1)

    def richardson(sign, eps=0.1):
        f1, f2, f4 = flux(sign * eps), flux(sign * eps / 2), flux(sign * eps / 4)
        return (4 * (2 * f4 - f2) - (2 * f2 - f1)) / 3

    ext, inn = richardson(+1.0), richardson(-1.0)
    assert np.max(np.abs(ext - (0.5 * rho + k @ rho))) < 1e-2
    assert np.max(np.abs(inn - (-0.5 * rho + k @ rho))) < 1e-3
    assert np.max(np.abs((ext - inn) - rho)) < 1e-2


def test_spectral_convergence_on_boundary():
    curve = make_ellipse(0.0, 1.5, 0.6)
    ref = discretize(curve, 1024)
    vref = single_layer_on_boundary(ref, np.exp(2 * np.cos(ref.t)))

    def err(n):
        d = discretize(curve, n)
        vals = single_layer_on_boundary(d, np.exp(2 * np.cos(d.t)))
        return np.max(np.abs(vals - vref[:: 1024 // n]))

    e64, e128 = err(64), err(128)
    assert e64 / max(e128, 1e-16) >= 10.0
    assert e128 < 1e-12


def _kress_split_reference(src, density):
    """S[density] on the curve by the full Kress remainder ln(|z(t) - z(s)| / |2 sin((t-s)/2)|)
    formed entry by entry, its diagonal ln|z'(t)|, plus the log part's multipliers -1/(2|k|)."""
    n, g = src.n, (density.T * src.speed).T
    freqs = np.fft.fftfreq(n, d=1.0 / n)
    mult = np.zeros(n)
    mult[freqs != 0] = -0.5 / np.abs(freqs[freqs != 0])
    log_part = np.fft.ifft((np.fft.fft(g, axis=0).T * mult).T, axis=0).real
    z = src.nodes_z
    dz = np.abs(z[:, None] - z[None, :])
    sins = np.abs(2.0 * np.sin(0.5 * (src.t[:, None] - src.t[None, :])))
    np.fill_diagonal(dz, 1.0)
    np.fill_diagonal(sins, 1.0)
    remainder = np.log(dz / sins)
    np.fill_diagonal(remainder, np.log(src.speed))
    return remainder @ g / n + log_part


@pytest.mark.parametrize("n", [64, 256, 1024])
@pytest.mark.parametrize("name", ["confocal", "laurent", "thin-r0-1.01"])
def test_on_boundary_single_layer_folds_the_circulant_log_into_its_multipliers(name, n):
    # the ln|2 sin| part of the smooth remainder is summed through the Fourier multipliers,
    # so only ln r^2 is formed entry by entry; both curves of each pair, normals as densities
    # (the Newtonian gradient's) and a smooth scalar density
    inc = {"confocal": lambda: confocal_pair(1.0, 0.3, 1.5),
           "laurent": lambda: laurent_domain(LaurentMap({1: 1.0, -1: 0.2, 2: 0.1, -2: 0.05}, 1.5)),
           "thin-r0-1.01": lambda: confocal_pair(1.0, 0.2, 1.01)}[name]()
    for curve in (inc.inner, inc.outer):
        d = discretize(curve, n)
        for density in (d.normals, np.exp(2 * np.cos(d.t))):
            want = _kress_split_reference(d, density)
            got = single_layer_on_boundary(d, density)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_near_zone_refused(circle):
    target = np.array([[RADIUS + 0.01, 0.0]])
    with pytest.raises(NearEvaluationError) as info:
        single_layer_off(circle, np.ones(circle.n), target)
    assert info.value.distance == pytest.approx(0.01, abs=1e-6)
    assert info.value.distance < info.value.limit


def test_density_shape_checked(circle):
    with pytest.raises(ValidationError):
        single_layer_off(circle, np.ones(circle.n - 1), np.array([[3.0, 0.0]]))
    with pytest.raises(ValidationError):
        single_layer_off(circle, np.ones(circle.n), np.zeros((2, 3)))


def test_coupling_between_disjoint_circles():
    # d/dnu S_{R1}[1] on the radius-R2 circle is exactly R1/R2
    d1 = discretize(make_ellipse(0.0, 1.0, 1.0), 64)
    d2 = discretize(make_ellipse(0.0, 2.0, 2.0), 64)
    vals = normal_derivative_coupling(d1, d2) @ np.ones(64)
    assert np.max(np.abs(vals - 0.5)) < 1e-13
    with pytest.raises(NearEvaluationError):
        normal_derivative_coupling(d1, d1)


def gradient_route(src, tgt):
    # the refined block built the long way: two gradient kernels on the refined
    # grid, each rfft-reduced to the coarse columns, recombined with the target normals
    fine = _refined_grid(src, min_target_distance(src, tgt.nodes))
    dx = tgt.nodes[:, None, 0] - fine.nodes[None, :, 0]
    dy = tgt.nodes[:, None, 1] - fine.nodes[None, :, 1]
    w = fine.weights / (dx * dx + dy * dy)

    def reduced(kern):
        spec = np.fft.rfft(kern, axis=1)[:, : src.n // 2 + 1]
        return np.fft.irfft(spec, n=src.n, axis=1) / (2 * math.pi)

    gx, gy = reduced(dx * w), reduced(dy * w)
    return tgt.normals[:, 0, None] * gx + tgt.normals[:, 1, None] * gy


@pytest.mark.parametrize("r2", [1.01, 1.05, 1.1, 1.3, 2.0])
def test_coupling_refuses_exactly_the_near_zone(r2):
    # concentric circles: d/dnu S_1[1] on radius r2 is 1/r2. The plain kernel
    # refuses exactly the source's near zone, and there the coupling refines
    src = discretize(make_ellipse(0.0, 1.0, 1.0), 64)
    tgt = discretize(make_ellipse(0.0, r2, r2), 64)
    block = normal_derivative_coupling(src, tgt)
    if r2 - 1.0 < NEAR_FACTOR * feature_size(src):
        assert np.max(np.abs(block @ np.ones(64) - 1.0 / r2)) < 1e-14
        assert np.max(np.abs(block - gradient_route(src, tgt))) < 1e-15
    else:
        dx = tgt.nodes[:, None, 0] - src.nodes[None, :, 0]
        dy = tgt.nodes[:, None, 1] - src.nodes[None, :, 1]
        kern = (dx * tgt.normals[:, None, 0] + dy * tgt.normals[:, None, 1]) / (dx * dx + dy * dy)
        assert np.array_equal(block, kern * src.weights / (2 * math.pi))
    with pytest.raises(NearEvaluationError) as info:
        normal_derivative_coupling(tgt, tgt)
    assert info.value.distance == 0.0


def test_single_layer_grad_near_interpolates_trigonometrically():
    # every coarse mode, Nyquist included, against the plain trapezoid rule on
    # the refined grid applied to the band-limited density itself
    src = discretize(make_ellipse(0.0, 1.0, 0.6), 64)
    pts = 1.01 * src.nodes[::7]
    fine = _refined_grid(src, min_target_distance(src, pts))

    def modes(t):
        cos = [np.cos(k * t) for k in range(33)]
        return np.column_stack(cos + [np.sin(k * t) for k in range(1, 32)])

    grads = single_layer_grad_near(src, modes(src.t), pts)
    dx = pts[:, None, 0] - fine.nodes[None, :, 0]
    dy = pts[:, None, 1] - fine.nodes[None, :, 1]
    r2 = dx * dx + dy * dy
    rw = modes(fine.t) * fine.weights[:, None] / (2 * math.pi)
    exact = np.stack([(dx / r2) @ rw, (dy / r2) @ rw], axis=1)
    assert fine.n > 4 * src.n
    assert np.max(np.abs(grads - exact)) < 1e-12 * np.max(np.abs(exact))


def test_interpolated_is_the_transpose_of_the_near_reduction():
    # a refined coupling applied to every coarse mode, Nyquist included, equals
    # its fine-grid kernel applied to the modes' _interpolated values
    src = discretize(make_ellipse(0.0, 1.0, 0.6), 64)
    tgt = discretize(make_ellipse(0.0, 1.02, 0.62), 64)
    fine = _refined_grid(src, min_target_distance(src, tgt.nodes))
    modes = np.column_stack([np.cos(k * src.t) for k in range(33)]
                            + [np.sin(k * src.t) for k in range(1, 32)])
    reduced = normal_derivative_coupling(src, tgt) @ modes
    kern = _normal_kernel(fine.weights, tgt.normals, *_offsets(tgt.nodes, fine.nodes))
    assert fine.n > 4 * src.n
    assert np.max(np.abs(kern @ _interpolated(modes, fine.n) - reduced)) < 1e-12 * np.max(
        np.abs(reduced))


@pytest.mark.parametrize("n", [9, 511, 512])
def test_interpolated_trigonometric_polynomials_are_their_own_interpolants(n):
    # a trigonometric polynomial of degree n // 2 at n nodes, its top cosine the Nyquist
    # mode when n is even (an odd n has none and takes the top sine too), interpolated to
    # 4n nodes; each mode k at node j of m is evaluated at the exact angle 2 pi (k j mod m) / m
    def poly(m):
        def mode(k, f):
            return f(2 * math.pi * (k * np.arange(m) % m) / m)

        top = n // 2
        return (mode(top, np.cos) + 0.3 * mode(1, np.sin) + 0.2 * mode(3, np.cos) - 0.1
                + (n % 2) * 0.5 * mode(top, np.sin))

    got = _interpolated(np.column_stack([poly(n), -2.0 * poly(n)]), 4 * n)
    assert np.max(np.abs(got - np.column_stack([poly(4 * n), -2.0 * poly(4 * n)]))) <= 1e-13


@pytest.mark.parametrize("n, m", [(256, 1024), (257, 514), (128, 512), (511, 1022)])
def test_reduced_is_the_transpose_of_interpolated(n, m):
    # x . (I y) = (I^T x) . y for seeded x on m nodes and y on n, I = _interpolated from n
    # to m, for a vector, columns and a stack of columns; an odd n has no Nyquist bin
    rng = np.random.default_rng(n)
    x, y = rng.standard_normal((2, m, 3)), rng.standard_normal((n, 3))
    want = np.einsum("smk,mk->sk", x, _interpolated(y, m))
    for got in (np.einsum("snk,nk->sk", _reduced(x, n), y),
                [[_reduced(x[s, :, k], n) @ y[:, k] for k in range(3)] for s in range(2)]):
        assert np.max(np.abs(np.asarray(got) - want)) <= 1e-13 * np.max(np.abs(want))
    assert _reduced(x, m) is x


def test_single_layer_grad_near_density_columns(circle):
    # inside the circle S[cos] = -x/2 and S[sin] = -y/2, right up to the curve
    _, pts = probe_ring(RADIUS - 1e-2, 16)
    dens = np.column_stack([np.cos(circle.t), np.sin(circle.t)])
    grads = single_layer_grad_near(circle, dens, pts)
    assert grads.shape == (16, 2, 2)
    assert np.max(np.abs(grads + 0.5 * np.eye(2))) < 1e-12
    for col in range(2):
        single = single_layer_grad_near(circle, dens[:, col], pts)
        assert np.max(np.abs(single - grads[:, :, col])) < 1e-14


NEAR = 1.01 * discretize(make_ellipse(0.0, 1.0, 0.6), 64).nodes[::7]
EVALUATORS = {
    "single_layer_off": lambda d, rho: single_layer_off(d, rho, probe_ring(3.0, 16)[1]),
    "single_layer_grad_off": lambda d, rho: single_layer_grad_off(d, rho, probe_ring(3.0, 16)[1]),
    "single_layer_on_boundary": single_layer_on_boundary,
    "single_layer_grad_near": lambda d, rho: single_layer_grad_near(d, rho, NEAR),
}


@pytest.mark.parametrize("shape", ["n-1", "n,2,2"])
@pytest.mark.parametrize("name", list(EVALUATORS))
def test_evaluators_refuse_misshapen_densities(name, shape):
    ell = discretize(make_ellipse(0.0, 1.0, 0.6), 64)
    density = np.ones(63) if shape == "n-1" else np.ones((64, 2, 2))
    with pytest.raises(ValidationError):
        EVALUATORS[name](ell, density)


@pytest.mark.parametrize("name", list(EVALUATORS))
def test_evaluators_take_density_columns(name):
    # k columns give the k single-density results side by side, in the last axis
    ell = discretize(make_ellipse(0.0, 1.0, 0.6), 64)
    cols = np.column_stack([np.cos(ell.t), np.sin(2 * ell.t), np.exp(np.cos(ell.t))])
    together = EVALUATORS[name](ell, cols)
    apart = np.stack([EVALUATORS[name](ell, c) for c in cols.T], axis=-1)
    assert together.shape == apart.shape
    assert np.max(np.abs(together - apart)) <= 1e-15 * np.max(np.abs(apart))


def _eval_u(targets):
    inc = confocal_pair(1.0, 0.2, 1.5)
    p = ConductivityProfile(5.0, 1.0, (2.0, 2.0))
    return eval_u(inc, solve_both_axes(inc, p, 64)[0], p, targets)


# every evaluator that takes targets, called on the unit-disk grid
TARGET_EVALUATORS = {
    "min_target_distance": min_target_distance,
    "single_layer_off": lambda d, pts: single_layer_off(d, np.ones(d.n), pts),
    "single_layer_grad_off": lambda d, pts: single_layer_grad_off(d, np.ones(d.n), pts),
    "single_layer_grad_near": lambda d, pts: single_layer_grad_near(d, np.ones(d.n), pts),
    "newtonian_potential": newtonian_potential,
    "newtonian_potential_near": newtonian_potential_near,
    "newtonian_gradient_near": newtonian_gradient_near,
    "eval_u": lambda d, pts: _eval_u(pts),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", list(TARGET_EVALUATORS))
def test_evaluators_refuse_nonfinite_targets(name, bad):
    # refused before any distance is formed: a NaN target would read NaN
    disk = discretize(make_ellipse(0.0, 1.0, 1.0), 64)
    with pytest.raises(ValidationError, match="^target coordinates must be finite$"):
        TARGET_EVALUATORS[name](disk, np.array([[bad, 0.0], [3.0, 0.0]]))


def test_feature_size_and_target_distance(circle):
    assert feature_size(circle) == pytest.approx(RADIUS, abs=1e-12)
    ell = discretize(make_ellipse(0.0, 2.0, 1.0), 128)
    assert feature_size(ell) == pytest.approx(1.0 / 2.0, rel=1e-6)
    assert min_target_distance(circle, np.array([[RADIUS + 0.25, 0.0]])) == pytest.approx(
        0.25, abs=1e-4
    )


def test_plain_evaluators_refuse_exactly_the_near_zone():
    # targets 0.1% either side of the near-zone edge, outside and inside the
    # curve, off the major and the minor axis end (both are nodes)
    ell = discretize(make_ellipse(0.0, 2.0, 1.0), 128)
    limit = NEAR_FACTOR * feature_size(ell)
    evaluators = [
        lambda pt: single_layer_off(ell, np.ones(ell.n), pt),
        lambda pt: single_layer_grad_off(ell, np.ones(ell.n), pt),
        lambda pt: newtonian_potential(ell, pt),
    ]
    for end, direction in (((2.0, 0.0), (1.0, 0.0)), ((0.0, 1.0), (0.0, 1.0))):
        for side in (1.0, -1.0):
            for step in (0.999, 1.001):
                pt = np.array([end]) + side * step * limit * np.array([direction])
                near = _near_zone(ell, min_target_distance(ell, pt))[0]
                assert near == (step < 1.0)
                for evaluate in evaluators:
                    if not near:
                        assert np.all(np.isfinite(evaluate(pt)))
                        continue
                    with pytest.raises(NearEvaluationError) as info:
                        evaluate(pt)
                    assert info.value.distance == min_target_distance(ell, pt)
                    assert info.value.limit == limit


def test_zero_targets(circle):
    none = np.zeros((0, 2))
    assert single_layer_off(circle, np.ones(circle.n), none).shape == (0,)
    assert single_layer_grad_off(circle, np.ones(circle.n), none).shape == (0, 2)
    assert newtonian_potential(circle, none).shape == (0,)
    assert min_target_distance(circle, none) == math.inf

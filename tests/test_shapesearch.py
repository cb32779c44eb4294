"""Derivative-free neutrality search over Laurent shapes and coatings."""

import dataclasses
import math
import subprocess
import sys

import numpy as np
import pytest

import neutral_lab.layerpot as layerpot
import neutral_lab.shapesearch as shapesearch
import neutral_lab.transmission as transmission
from neutral_lab.errors import GeometryError, SolverError, ValidationError
from neutral_lab.designer import confocal_design
from neutral_lab.geometry import confocal_pair, laurent_domain
from neutral_lab.shapesearch import (
    PENALTY,
    SearchConfig,
    ShapeParams,
    decode,
    encode,
    objective,
    perturbation_study,
    residuals,
    search,
)
from neutral_lab.transmission import ConductivityProfile, neutrality_report, solve_both_axes


@pytest.fixture(scope="module")
def design():
    return confocal_design(1.0, 0.2, 1.5, 5.0, 1.0)


@pytest.fixture(scope="module")
def cfg():
    return SearchConfig(sigma_c=5.0, sigma_s=1.0, max_order=2, nodes=64)


def optimum(design):
    return ShapeParams(coeffs={-2: 0.0, -1: 0.2, 2: 0.0}, r0=1.5, sigma_m=design.sigma_m)


def test_config_layout_and_validation():
    cfg = SearchConfig(sigma_c=5.0, sigma_s=1.0, max_order=3)
    assert cfg.coeff_orders == (-3, -2, -1, 2, 3)
    assert cfg.dim == 8
    with pytest.raises(ValidationError):
        SearchConfig(sigma_c=5.0, sigma_s=1.0, max_order=0)
    with pytest.raises(ValidationError):
        SearchConfig(sigma_c=5.0, sigma_s=1.0, nodes=63)


@pytest.mark.parametrize("key, value", [
    ("max_order", 2.0), ("max_order", True), ("max_order", "2"),
    ("nodes", 64.0), ("nodes", True),
])
def test_config_refuses_non_integer_counts(key, value):
    # an integral float or a bool would pass the range checks; numpy integers are counts
    with pytest.raises(ValidationError, match=f"^{key} must be an integer, got {value!r}$"):
        SearchConfig(sigma_c=5.0, sigma_s=1.0, **{key: value})
    cfg = SearchConfig(sigma_c=5.0, sigma_s=1.0, max_order=np.int64(2), nodes=np.int64(64))
    assert cfg.coeff_orders == (-2, -1, 2)


@pytest.mark.parametrize("sigma_c, sigma_s", [(1.0, 1.0), (-1.0, 1.0), (5.0, 0.0)],
                         ids=["equal", "negative-core", "zero-shell"])
def test_config_refuses_profiles_the_solver_refuses(sigma_c, sigma_s):
    # a search with such a profile could only score the penalty at every evaluation
    with pytest.raises(ValidationError) as refused:
        SearchConfig(sigma_c=sigma_c, sigma_s=sigma_s, nodes=64)
    with pytest.raises(ValidationError) as profile:
        ConductivityProfile(sigma_c, sigma_s, (2.0, 3.0))
    assert str(refused.value) == str(profile.value)


def test_encode_decode_roundtrip(cfg, design):
    params = ShapeParams(coeffs={-2: 0.03, -1: 0.2, 2: -0.01}, r0=1.4, sigma_m=(1.9, 1.7))
    back = decode(encode(params, cfg), cfg)
    assert back.coeffs == pytest.approx(params.coeffs)
    assert back.r0 == params.r0
    assert back.sigma_m == pytest.approx(params.sigma_m, rel=1e-14)
    m = params.laurent_map()
    assert m.coeffs[1] == 1.0  # gauge coefficient supplied automatically
    assert params.confocality_gap() == pytest.approx(0.03)


def test_objective_vanishes_at_design(cfg, design):
    assert objective(encode(optimum(design), cfg), cfg) < 1e-14


def test_objective_detects_shape_defect(cfg, design):
    bent = ShapeParams(coeffs={-2: 0.0, -1: 0.2, 2: 0.05}, r0=1.5, sigma_m=design.sigma_m)
    assert objective(encode(bent, cfg), cfg) > 1e-8


def test_objective_penalizes_invalid_points(cfg, design):
    out_of_bounds = encode(optimum(design), cfg).copy()
    out_of_bounds[-3] = 10.0  # r0 above its bound
    assert objective(out_of_bounds, cfg) >= PENALTY
    folded = ShapeParams(coeffs={-2: 0.0, -1: 0.2, 2: 0.9}, r0=1.5, sigma_m=design.sigma_m)
    assert objective(encode(folded, cfg), cfg) >= PENALTY
    nonfinite = encode(optimum(design), cfg).copy()
    nonfinite[0] = math.nan
    assert objective(nonfinite, cfg) >= PENALTY


@pytest.mark.parametrize("coeffs, message", [
    ({-1: 0.2, 3: 0.05}, "the start sets a_3"),
    ({1: 1.0, -1: 0.2}, "the start sets a_1"),
    ({-1: 0.2 + 0.1j}, "only real a_n"),
], ids=["order-3", "gauge", "complex"])
def test_search_refuses_start_it_cannot_vary(cfg, design, coeffs, message):
    # dropping the a_3 term would let the search converge at a shape that is not its start
    start = ShapeParams(coeffs=coeffs, r0=1.5, sigma_m=design.sigma_m)
    with pytest.raises(ValidationError, match=message):
        search(start, cfg, max_evals=50)


def test_search_returns_immediately_at_optimum(cfg, design):
    res = search(optimum(design), cfg, target=1e-10)
    assert res.converged
    assert res.evals == 1
    assert res.confocality_gap < 1e-12


def test_search_recovers_confocal_shape(cfg, design):
    # (a_-2, a_2); the second start, the first draw of default_rng(15) in +-0.05,
    # once stalled at objective 4.9e-9 after 5000 evaluations
    for am2, a2 in [(0.04, -0.03), (0.03158171113360575, 0.019274336796515232)]:
        start = ShapeParams(coeffs={-2: am2, -1: 0.2, 2: a2}, r0=1.5, sigma_m=design.sigma_m)
        res = search(start, cfg, max_evals=4000, target=1e-10)
        assert res.converged
        assert res.objective <= 1e-10
        assert res.confocality_gap <= 1e-3
        # best-so-far history never increases; improvements are strictly better
        assert all(b <= a for a, b in zip(res.history, res.history[1:]))
        objs = [f for _, f, _ in res.improvements]
        assert all(b < a for a, b in zip(objs, objs[1:]))
        evals = [e for e, _, _ in res.improvements]
        assert all(b > a for a, b in zip(evals, evals[1:]))


def test_search_is_deterministic(cfg, design):
    start = ShapeParams(coeffs={-2: 0.02, -1: 0.2, 2: 0.02}, r0=1.5, sigma_m=design.sigma_m)
    a = search(start, cfg, max_evals=600, target=1e-10)
    b = search(start, cfg, max_evals=600, target=1e-10)
    assert a.objective == b.objective
    assert a.evals == b.evals
    assert a.params.as_dict() == b.params.as_dict()


def test_search_reports_nonconvergence(cfg, design):
    # this start reaches the target at its 3rd evaluation
    start = ShapeParams(coeffs={-2: 0.05, -1: 0.2, 2: 0.05}, r0=1.5, sigma_m=design.sigma_m)
    res = search(start, cfg, max_evals=2, target=1e-10)
    assert not res.converged
    assert res.evals <= 2
    with pytest.raises(ValidationError):
        search(start, cfg, max_evals=0)
    with pytest.raises(ValidationError):
        search(start, cfg, target=0.0)


@pytest.mark.parametrize("stop", [
    {"target": math.inf}, {"target": math.nan}, {"max_evals": math.nan}, {"max_evals": 2.5},
], ids=["target=inf", "target=nan", "max_evals=nan", "max_evals=2.5"])
def test_search_refuses_a_stop_it_cannot_reach_or_count(cfg, design, stop):
    # an infinite target stopped at the first point and a NaN one never stopped; a NaN
    # budget ran on without end, and a fractional one was taken as given
    start = ShapeParams(coeffs={-2: 0.02, -1: 0.2, 2: 0.03}, r0=1.5, sigma_m=design.sigma_m)
    with pytest.raises(ValidationError):
        search(start, cfg, **stop)


@pytest.mark.parametrize("budget", [math.nan, 2.5, 0, True])
def test_perturbation_study_refuses_a_budget_that_is_not_a_count(budget):
    with pytest.raises(ValidationError, match="evaluation budget"):
        perturbation_study(0.2, 1.5, 5.0, 1.0, [0.1], nodes=64, reopt_budget=budget)


@pytest.mark.parametrize("amplitudes, budget", [([0.9], math.nan), ([], -3)])
def test_perturbation_study_refuses_a_bad_budget_with_no_valid_amplitude(amplitudes, budget):
    # a_2 = 0.9 breaks the geometry, so no amplitude reaches the re-optimisation
    with pytest.raises(ValidationError, match="evaluation budget"):
        perturbation_study(0.2, 1.5, 5.0, 1.0, amplitudes, nodes=64, reopt_budget=budget)


def test_perturbation_study_monotone():
    rows = perturbation_study(0.2, 1.5, 5.0, 1.0, [0.0, 0.05, 0.1], nodes=64, reopt_budget=200)
    assert [r.amplitude for r in rows] == [0.0, 0.05, 0.1]
    assert all(r.valid for r in rows)
    assert rows[0].objective_reopt < 1e-14
    # reoptimizing the coating cannot rescue a bent shape
    assert rows[1].objective_reopt > 1e-7
    assert rows[2].objective_reopt > 1e-6
    reopts = [r.objective_reopt for r in rows]
    assert all(b > a for a, b in zip(reopts, reopts[1:]))
    assert all(r.objective_reopt <= r.objective_fixed for r in rows)


def test_package_import_defers_scipy_optimize():
    # scipy.optimize is the slowest import; only the shapesearch optimizers need it
    code = "import sys, neutral_lab; print('scipy.optimize' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_search_refuses_start_outside_box(cfg, design):
    start = ShapeParams(coeffs={-2: 0.0, -1: 0.2, 2: 0.0}, r0=5.0, sigma_m=design.sigma_m)
    with pytest.raises(ValidationError) as info:
        search(start, cfg)
    assert str(info.value) == (
        "the start lies outside the search box "
        "(|a_n| <= 0.95, 1.05 <= r0 <= 4, 0.001 <= sigma_m <= 1000)"
    )


def test_search_checks_geometry_once_per_evaluation(cfg, design, monkeypatch):
    # the first criterion-9 start: the start's geometry is checked by its own
    # evaluation, not once more before it
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return laurent_domain(*args, **kwargs)

    monkeypatch.setattr(shapesearch, "laurent_domain", counted)
    a2, am2 = np.random.default_rng(1).uniform(-0.05, 0.05, size=2)
    start = ShapeParams(coeffs={-2: float(am2), -1: 0.2, 2: float(a2)}, r0=1.5,
                        sigma_m=design.sigma_m)
    res = search(start, cfg, max_evals=5000, target=1e-10)
    assert res.converged
    assert (res.evals, res.jacobians) == (3, 2)
    assert len(calls) == res.evals  # the Jacobian runs no geometry check


@pytest.mark.parametrize("sigma_m", [(0.0, 1.0), (1.0, -2.0), (math.inf, 1.0), (math.nan, 1.0)])
def test_search_refuses_nonpositive_matrix_conductivity(cfg, sigma_m):
    start = ShapeParams(coeffs={-2: 0.0, -1: 0.2, 2: 0.0}, r0=1.5, sigma_m=sigma_m)
    with pytest.raises(ValidationError, match="sigma_m must be positive and finite"):
        search(start, cfg)


def test_search_refuses_start_with_invalid_geometry(cfg, design):
    folded = ShapeParams(coeffs={-2: 0.0, -1: 0.2, 2: 0.9}, r0=1.5, sigma_m=design.sigma_m)
    with pytest.raises(GeometryError, match="the start fails the geometry check: .*self-inter"):
        search(folded, cfg, max_evals=30)


@pytest.mark.parametrize("a2", [0.0, 0.05])
def test_search_and_report_measure_one_residual(cfg, design, a2):
    # the search scores the neutrality report's probe residual, bit for bit
    params = ShapeParams(coeffs={-2: 0.0, -1: 0.2, 2: a2}, r0=1.5, sigma_m=design.sigma_m)
    profile = ConductivityProfile(sigma_c=cfg.sigma_c, sigma_s=cfg.sigma_s,
                                  sigma_m=params.sigma_m)
    rep = neutrality_report(laurent_domain(params.laurent_map()), profile, n=cfg.nodes)
    assert residuals(params, cfg) == rep.residuals


def test_search_scores_failed_solves_as_penalty(cfg, design, monkeypatch):
    # every solve after the start's fails: those evaluations score the penalty,
    # never become the incumbent, and still count toward max_evals
    start = ShapeParams(coeffs={-2: 0.02, -1: 0.2, 2: 0.02}, r0=1.5, sigma_m=design.sigma_m)
    first = objective(encode(start, cfg), cfg)
    calls = []

    def failing(*args, **kwargs):
        calls.append(args)
        if len(calls) > 1:
            raise SolverError("injected failure")
        return transmission._solved(*args, **kwargs)

    monkeypatch.setattr(shapesearch, "_solved", failing)
    res = search(start, cfg, max_evals=12, target=1e-10)
    assert res.evals == len(calls) == 12
    assert res.jacobians == 1  # at the start: trf differentiates only accepted points
    assert not res.converged
    assert res.objective == first < PENALTY
    assert res.history == [res.objective] * 12
    assert [e for e, _, _ in res.improvements] == [1]
    assert res.params == decode(encode(start, cfg), cfg)


def test_perturbation_study_reports_invalid_geometry():
    # a_2 = 0.9 folds the boundary images: the row says so instead of scoring it
    rows = perturbation_study(0.2, 1.5, 5.0, 1.0, [0.9], nodes=64)
    assert [(r.amplitude, r.valid) for r in rows] == [(0.9, False)]
    assert math.isnan(rows[0].objective_fixed) and math.isnan(rows[0].objective_reopt)


def _central_differences(params, cfg, h=1e-6):
    """Central differences of the stacked probe deviations in every unknown."""
    x = encode(params, cfg)
    cols = []
    for step in h * np.eye(cfg.dim):
        fp, fm = (np.concatenate(shapesearch._deviations(decode(x + s, cfg), cfg)[0])
                  for s in (step, -step))
        cols.append((fp - fm) / (2 * h))
    return np.column_stack(cols)


def _max_radius_tie(params) -> float:
    """Relative gap between the two largest |z| samples of the outer image's max radius.

    Real coefficients keep the image symmetric about the x-axis, so the samples
    t and -t stay tied under every perturbation and count once.
    """
    outer = params.laurent_map().circle_image(params.r0)
    r = np.sort(np.abs(outer.point(2 * math.pi * np.arange(129) / 256)))
    return (r[-1] - r[-2]) / r[-1]


def _survey_points(count, tie=1e-4):
    """The first `count` starts of the M=3 survey protocol (default_rng(0)) clear of a tie."""
    cfg = SearchConfig(sigma_c=5.0, sigma_s=1.0, max_order=3, nodes=64)
    rng = np.random.default_rng(0)
    points = []
    while len(points) < count:
        coeffs = {k: float(rng.uniform(-0.08, 0.08)) for k in cfg.coeff_orders}
        coeffs[-1] = float(rng.uniform(0.05, 0.5))
        r0 = float(rng.uniform(1.3, 2.5))
        sm = tuple(math.exp(rng.uniform(math.log(0.3), math.log(3.0))) for _ in range(2))
        params = ShapeParams(coeffs=coeffs, r0=r0, sigma_m=sm)
        try:
            shapesearch._deviations(params, cfg)  # the search refuses a start that fails
        except GeometryError:
            continue
        if _max_radius_tie(params) > tie:
            points.append((params, cfg))
    return points


def _jacobian_points():
    design = confocal_design(1.0, 0.2, 1.5, 5.0, 1.0)
    a2, am2 = np.random.default_rng(1).uniform(-0.05, 0.05, size=2)
    crit9 = ShapeParams(coeffs={-2: float(am2), -1: 0.2, 2: float(a2)}, r0=1.5,
                        sigma_m=design.sigma_m)
    # sigma_m^1 < sigma_s < sigma_m^2: the coating block is augmented on axis 1 only
    thin = ShapeParams(coeffs={-2: 0.02, -1: 0.2, 2: -0.03}, r0=1.08, sigma_m=(0.7, 2.0))
    points = {}
    for sc in (0.0, 5.0, math.inf):  # lam = -1/2, 3/4, 1/2
        cfg = SearchConfig(sigma_c=sc, sigma_s=1.0, max_order=2, nodes=64)
        points[f"criterion-9-sc{sc:g}"] = (crit9, cfg)
        points[f"refined-r0=1.08-sc{sc:g}"] = (thin, cfg)
    for i, point in enumerate(_survey_points(20)):
        points[f"survey-{i}"] = point
    return points


JACOBIAN_POINTS = _jacobian_points()


@pytest.mark.parametrize("name", JACOBIAN_POINTS)
def test_jacobian_matches_central_differences(name, monkeypatch):
    params, cfg = JACOBIAN_POINTS[name]
    assert _max_radius_tie(params) > 1e-4
    _, evaluation = shapesearch._deviations(params, cfg)  # the evaluation jac differentiates
    refined = []  # densities carried to a fine grid: one per refined coupling derivative
    interpolated = layerpot._interpolated
    monkeypatch.setattr(layerpot, "_interpolated",
                        lambda *a: refined.append(a[1]) or interpolated(*a))
    exact = shapesearch._jacobian(evaluation, cfg, range(cfg.dim))
    assert len(refined) == (2 if name.startswith("refined") else 0)
    fd = _central_differences(params, cfg)
    err = np.linalg.norm(exact - fd, axis=0) / np.linalg.norm(fd, axis=0)
    assert np.all(err <= 1e-6), err


def test_jacobian_at_512_nodes_forms_the_dense_elimination_once(monkeypatch, core_solves):
    # from 512 nodes the evaluation's GMRES solves the core block through K*_in's low
    # Fourier modes (rank 105 at the first criterion-9 start) and forms no elimination; the
    # Jacobian forms the dense elimination of the evaluation's blocks once, and the core
    # block is solved by one LU there and again in the derivative
    params, cfg = JACOBIAN_POINTS["criterion-9-sc5"]
    cfg = dataclasses.replace(cfg, nodes=512)
    formed, eliminate = [], transmission._eliminate
    monkeypatch.setattr(transmission, "_eliminate", lambda *a: formed.append(a) or eliminate(*a))
    _, evaluation = shapesearch._deviations(params, cfg)
    assert formed == [] and len(core_solves) == 1 and core_solves[0] <= 512 // 4
    exact = shapesearch._jacobian(evaluation, cfg, range(cfg.dim))
    assert len(formed) == 1 and core_solves[1:] == [512, 512]
    fd = _central_differences(params, cfg)
    err = np.linalg.norm(exact - fd, axis=0) / np.linalg.norm(fd, axis=0)
    assert np.all(err <= 1e-6), err


def test_jacobian_differentiates_mu_at_a_shell_conductivity_other_than_one():
    # every JACOBIAN_POINTS case has sigma_s = 1, which hides the factor sigma_s of
    # dmu/dlog sigma_m = sigma_s sigma_m / (sigma_s - sigma_m)^2
    params, cfg = JACOBIAN_POINTS["criterion-9-sc5"]
    cfg = dataclasses.replace(cfg, sigma_s=2.5)
    _, evaluation = shapesearch._deviations(params, cfg)
    exact = shapesearch._jacobian(evaluation, cfg, range(cfg.dim))
    fd = _central_differences(params, cfg)
    err = np.linalg.norm(exact - fd, axis=0) / np.linalg.norm(fd, axis=0)
    assert np.all(err <= 1e-6), err


def test_jacobian_check_skips_the_design_tie():
    # the confocal design is symmetric about both axes: its outer image is
    # largest at t = 0 and t = pi alike, and a_2 moves the two samples apart,
    # so the probe radius has a kink there and differences cannot check it
    design = confocal_design(1.0, 0.2, 1.5, 5.0, 1.0)
    assert _max_radius_tie(optimum(design)) < 1e-15
    assert all(_max_radius_tie(p) > 1e-4 for p, _ in JACOBIAN_POINTS.values())


def test_jacobian_is_zero_at_a_penalized_start(cfg, design, monkeypatch):
    # a start whose solve fails scores the penalty; its Jacobian is zero without
    # being formed, so the trust region sees a zero gradient and stops at once
    start = ShapeParams(coeffs={-2: 0.02, -1: 0.2, 2: 0.02}, r0=1.5, sigma_m=design.sigma_m)

    def failing(*args, **kwargs):
        raise SolverError("injected failure")

    monkeypatch.setattr(shapesearch, "_solved", failing)
    monkeypatch.setattr(shapesearch, "_jacobian", failing)
    res = search(start, cfg, max_evals=12, target=1e-10)
    assert (res.evals, res.jacobians) == (1, 1)
    assert res.objective == PENALTY + 1.0 and not res.converged


def test_jacobian_reads_no_module_state(cfg, design, monkeypatch):
    # the Jacobian differentiates the solve its evaluation holds: clearing the kept
    # elimination and solving another geometry in between changes no bit of it,
    # and nothing is assembled again
    a = ShapeParams(coeffs={-2: 0.02, -1: 0.2, 2: -0.02}, r0=1.5, sigma_m=design.sigma_m)
    _, evaluation = shapesearch._deviations(a, cfg)
    before = shapesearch._jacobian(evaluation, cfg, range(cfg.dim))
    transmission._kept.clear()
    solve_both_axes(confocal_pair(1.0, 0.3, 1.4), ConductivityProfile(5.0, 1.0, (2.0, 3.0)), n=64)
    calls, kstar = [], transmission.kstar_matrix
    monkeypatch.setattr(transmission, "kstar_matrix", lambda d: calls.append(d.n) or kstar(d))
    after = shapesearch._jacobian(evaluation, cfg, range(cfg.dim))
    assert calls == []
    np.testing.assert_array_equal(after, before)


def test_sigma_only_reoptimisation_forms_one_elimination(monkeypatch):
    # every step of the sigma_m-only re-optimisation keeps the geometry, so the kept
    # elimination serves all of them: one elimination is two kstar_matrix calls
    calls, kstar = [], transmission.kstar_matrix
    monkeypatch.setattr(transmission, "kstar_matrix", lambda d: calls.append(d.n) or kstar(d))
    (row,) = perturbation_study(0.2, 1.5, 5.0, 1.0, [0.1], nodes=64, reopt_budget=20)
    assert row.valid and row.objective_reopt < row.objective_fixed
    assert calls == [64, 64]


def test_jac_differentiates_the_last_evaluation_only(cfg, design, monkeypatch):
    # trf differentiates only the point it has just evaluated: jac differentiates
    # that evaluation, is zero when it scored the penalty, and refuses any other point
    import scipy.optimize

    start, other, folded = (
        ShapeParams(coeffs={-2: 0.0, -1: 0.2, 2: a2}, r0=1.5, sigma_m=design.sigma_m)
        for a2 in (0.02, 0.04, 0.9))
    got = {}

    def steps(fun, x0, jac, **kwargs):
        fun(x0)
        got["start"] = jac(x0)
        with pytest.raises(RuntimeError, match="other than the last evaluated"):
            jac(encode(other, cfg))
        fun(encode(folded, cfg))
        got["folded"] = jac(encode(folded, cfg))

    monkeypatch.setattr(scipy.optimize, "least_squares", steps)
    search(start, cfg, max_evals=10, target=1e-10)
    assert not np.any(got["folded"])
    _, evaluation = shapesearch._deviations(start, cfg)
    np.testing.assert_array_equal(got["start"],
                                  shapesearch._jacobian(evaluation, cfg, range(cfg.dim)))

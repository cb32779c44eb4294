"""Command line interface: exit codes, JSON reports, and artifacts."""

import csv
import json
import os
import subprocess
import sys

import pytest

from neutral_lab.cli import main, validate_config
from neutral_lab.designer import confocal_design

CLI = [sys.executable, "-m", "neutral_lab.cli"]


def run_cli(*args, **kwargs):
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, timeout=300, **kwargs
    )


def report_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_design_command_reports_coating():
    proc = run_cli("design", "--a1", "1", "--am1", "0.2", "--r0", "1.5",
                   "--sc", "5", "--ss", "1")
    rep = report_of(proc)
    assert rep["command"] == "design"
    res = rep["result"]
    assert res["sigma_m"][0] == pytest.approx(1.9471087969306659, abs=1e-12)
    assert res["sigma_m"][1] == pytest.approx(1.6983228935138412, abs=1e-12)
    assert res["f"] == pytest.approx(864.0 / 2009.0, abs=1e-13)
    assert res["lambda"] == 0.75


def test_design_verify_attaches_report():
    proc = run_cli("design", "--a1", "1", "--am1", "0.2", "--r0", "1.5",
                   "--sc", "5", "--ss", "1", "--verify")
    rep = report_of(proc)
    axes = rep["result"]["neutrality"]["axes"]
    assert max(ax["residual"] for ax in axes) < 1e-6


def test_disk_command():
    proc = run_cli("disk", "--sc", "5", "--ss", "1", "--f", "0.5")
    rep = report_of(proc)
    assert rep["result"]["sigma_m"] == pytest.approx(2.0, abs=1e-14)
    # 'inf' spelling for the perfectly conducting core
    proc = run_cli("disk", "--sc", "inf", "--ss", "1", "--f", "0.25")
    assert report_of(proc)["result"]["sigma_m"] == pytest.approx(5.0 / 3.0)


def test_solve_writes_artifacts(tmp_path):
    out = tmp_path / "artifacts"
    proc = run_cli("--out", str(out), "solve", "--a1", "1", "--am1", "0.2",
                   "--r0", "1.5", "--sc", "5", "--ss", "1",
                   "--sm", "1.9471087969306659,1.6983228935138412", "--axis", "1")
    rep = report_of(proc)
    assert (out / "report.json").exists()
    on_disk = json.loads((out / "report.json").read_text())
    assert on_disk["config_hash"] == rep["config_hash"]
    with open(out / "densities.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "x_in", "y_in", "phi", "x_out", "y_out", "psi"]
    assert len(rows) > 100
    with open(out / "samples.csv", newline="") as fh:
        header = next(csv.reader(fh))
    assert header == ["x", "y", "u", "ux", "uy"]


def test_neutrality_command(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({
        "geometry": {"type": "confocal", "a1": 1.0, "am1": 0.2, "r0": 1.5},
        "profile": {"sigma_c": 5.0, "sigma_s": 1.0,
                    "sigma_m": [1.9471087969306659, 1.6983228935138412]},
        "numerics": {"nodes": 128},
    }))
    proc = run_cli("--config", str(cfgfile), "neutrality")
    rep = report_of(proc)
    assert max(ax["residual"] for ax in rep["result"]["axes"]) < 1e-6


def test_unknown_config_key_rejected(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({
        "geometry": {"type": "confocal", "a1": 1.0, "am1": 0.2, "r0": 1.5},
        "profile": {"sigma_c": 5.0, "sigma_s": 1.0, "sigma_mm": 2.0},
    }))
    out = tmp_path / "never"
    proc = run_cli("--config", str(cfgfile), "--out", str(out), "neutrality")
    assert proc.returncode == 1
    assert "sigma_mm" in proc.stderr
    assert not out.exists()  # no artifacts written on failure


ELLIPSE = {"a": 3.0, "b": 2.0}
# one malformed value per config rule: (config, key path named on stderr)
MALFORMED = {
    "profile.sigma_c": ({"profile": {"sigma_c": "huge"}}, "profile.sigma_c"),
    "profile.sigma_s": ({"profile": {"sigma_s": 0}}, "profile.sigma_s"),
    "profile.sigma_m": ({"profile": {"sigma_m": [1, 2, 3]}}, "profile.sigma_m"),
    "numerics.nodes": ({"numerics": {"nodes": 64.0}}, "numerics.nodes"),
    "numerics.nodes-cap": ({"numerics": {"nodes": 100000000000}}, "numerics.nodes"),
    "numerics.probe_radius": ({"numerics": {"probe_radius": "far"}}, "numerics.probe_radius"),
    "numerics.probe_points": ({"numerics": {"probe_points": 2.5}}, "numerics.probe_points"),
    "numerics.tol": ({"numerics": {"tol": "1e-9"}}, "numerics.tol"),
    "solve.axis": ({"solve": {"axis": 3}}, "solve.axis"),
    "solve.axis-float": ({"solve": {"axis": 1.0}}, "solve.axis"),
    "solve.axis-bool": ({"solve": {"axis": True}}, "solve.axis"),
    "design.verify": ({"design": {"verify": "yes"}}, "design.verify"),
    "disk.f": ({"disk": {"f": None}}, "disk.f"),
    "newtonian.f": ({"newtonian": {"f": "0.4"}}, "newtonian.f"),
    "newtonian.shear": ({"newtonian": {"shear": [0.1]}}, "newtonian.shear"),
    "freebvp.f": ({"freebvp": {"f": True}}, "freebvp.f"),
    "freebvp.shear": ({"freebvp": {"shear": "x"}}, "freebvp.shear"),
    "laurent.f": ({"laurent": {"f": None}}, "laurent.f"),
    "laurent.shear": ({"laurent": {"shear": {}}}, "laurent.shear"),
    "laurent.coeff_tol": ({"laurent": {"coeff_tol": "tiny"}}, "laurent.coeff_tol"),
    "search.max_evals": ({"search": {"max_evals": 50.5}}, "search.max_evals"),
    "search.target": ({"search": {"target": "1e-10"}}, "search.target"),
    "search.max_order": ({"search": {"max_order": True}}, "search.max_order"),
    "search.perturb": ({"search": {"perturb": "0.05"}}, "search.perturb"),
    "search.sigma_m": ({"search": {"sigma_m": 2}}, "search.sigma_m"),
    "decay.h": ({"decay": {"h": "x3"}}, "decay.h"),
    "decay.radii": ({"decay": {"radii": [5]}}, "decay.radii"),
    "unknown-section": ({"solver": {}}, "'solver'"),
    "unknown-key": ({"profile": {"sigma_mm": 2.0}}, "profile.sigma_mm"),
    "section-not-object": ({"numerics": 5}, "'numerics'"),
    "geometry-not-object": ({"geometry": []}, "'geometry'"),
    "geometry-no-type": ({"geometry": {"a1": 1.0}}, "'geometry'"),
    "geometry.type": ({"geometry": {"type": "circle"}}, "geometry.type"),
    "geometry.type-list": ({"geometry": {"type": ["confocal"]}}, "geometry.type"),
    "confocal-required": ({"geometry": {"type": "confocal", "a1": 1, "am1": 0.2}},
                          "geometry.confocal requires 'r0'"),
    "confocal.a1": ({"geometry": {"type": "confocal", "a1": True, "am1": 0.2, "r0": 1.5}},
                    "geometry.a1"),
    "confocal-unknown": ({"geometry": {"type": "confocal", "a1": 1, "am1": 0.2, "r0": 1.5,
                                       "a2": 0.1}}, "geometry.a2"),
    "laurent-required": ({"geometry": {"type": "laurent", "r0": 1.5}},
                         "geometry.laurent requires 'coeffs'"),
    "laurent.coeffs": ({"geometry": {"type": "laurent", "coeffs": [1], "r0": 1.5}},
                       "geometry.coeffs"),
    "laurent.coeffs-order": ({"geometry": {"type": "laurent", "coeffs": {"x": 1}, "r0": 1.5}},
                             "geometry.coeffs"),
    "laurent.coeffs-value": ({"geometry": {"type": "laurent", "coeffs": {"1": [1, 2, 3]},
                                           "r0": 1.5}}, "geometry.coeffs"),
    "laurent.r0": ({"geometry": {"type": "laurent", "coeffs": {"1": 1}, "r0": "1.5"}},
                   "geometry.r0"),
    "ellipse_pair-required": ({"geometry": {"type": "ellipse_pair", "outer": ELLIPSE}},
                              "geometry.ellipse_pair requires 'inner'"),
    "ellipse-not-object": ({"geometry": {"type": "ellipse_pair", "inner": 3, "outer": ELLIPSE}},
                           "geometry.inner"),
    "ellipse-required": ({"geometry": {"type": "ellipse_pair", "inner": {"a": 1.0},
                                       "outer": ELLIPSE}}, "geometry.inner"),
    "ellipse.center": ({"geometry": {"type": "ellipse_pair", "outer": ELLIPSE,
                                     "inner": {"a": 1.0, "b": 0.5, "center": [0]}}},
                       "geometry.inner"),
    "ellipse.theta": ({"geometry": {"type": "ellipse_pair", "inner": ELLIPSE,
                                    "outer": {"a": 4.0, "b": 3.0, "theta": "0"}}},
                      "geometry.outer"),
    "ellipse-unknown": ({"geometry": {"type": "ellipse_pair", "outer": ELLIPSE,
                                      "inner": {"a": 1.0, "b": 0.5, "c": 0.1}}},
                        "geometry.inner"),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_config_values_exit_one(tmp_path, capsys, case):
    config, path = MALFORMED[case]
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(config))
    out = tmp_path / "never"
    assert main(["--config", str(cfgfile), "--out", str(out), "neutrality"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and path in captured.err
    assert not out.exists()


def test_malformed_config_rejected(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text("{not json")
    proc = run_cli("--config", str(cfgfile), "design")
    assert proc.returncode == 1


def test_invalid_parameters_exit_one():
    proc = run_cli("design", "--a1", "1", "--am1", "1.5", "--r0", "1.5",
                   "--sc", "5", "--ss", "1")
    assert proc.returncode == 1
    assert proc.stdout == ""


def test_flag_errors():
    # usage errors are validation failures, exit 1 like any other
    proc = run_cli("design", "--a1", "oops")
    assert proc.returncode == 1
    # confocal flags conflict with an explicit map
    proc = run_cli("design", "--a1", "1", "--map", '{"coeffs": {"1": 1.0}, "r0": 1.5}',
                   "--sc", "5", "--ss", "1")
    assert proc.returncode == 1


def test_search_nonconvergence_exits_two(tmp_path):
    proc = run_cli("--seed", "3", "search", "--a1", "1", "--am1", "0.2",
                   "--r0", "1.5", "--sc", "5", "--ss", "1",
                   "--sm", "1.9471087969306659,1.6983228935138412",
                   "--perturb", "0.05", "--max-evals", "5", "--target", "1e-12")
    assert proc.returncode == 2
    assert "converge" in proc.stderr.lower() or "objective" in proc.stderr.lower()


def test_search_refuses_start_with_invalid_geometry(capsys):
    # a folded start is a bad input (exit 1), not a numerical failure after penalized steps
    argv = ["--nodes", "64", "search", "--map", '{"coeffs": {"1": 1, "2": 0.6}, "r0": 1.2}',
            "--sc", "5", "--ss", "1", "--sm", "2", "--max-evals", "30"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: the start fails the geometry check")


def test_nodes_cap_is_inclusive():
    # the refused side is a MALFORMED case
    validate_config({"numerics": {"nodes": 4096}})


def test_search_perturb_requires_seed():
    # an unseeded random start could not be reproduced from the report
    proc = run_cli("search", "--a1", "1", "--am1", "0.2", "--r0", "1.5",
                   "--sc", "5", "--ss", "1", "--sm", "1.9471087969306659,1.6983228935138412",
                   "--perturb", "0.05", "--max-evals", "25")
    assert proc.returncode == 1
    assert "--seed" in proc.stderr


def test_search_map_coefficients():
    args = ("search", "--sc", "5", "--ss", "1",
            "--sm", "1.9471087969306659,1.6983228935138412",
            "--target", "1e-10", "--max-evals", "50", "--map")
    # a real coefficient may be written as an [re, im] pair
    proc = run_cli(*args, '{"coeffs": {"1": [1, 0], "-1": 0.2}, "r0": 1.5}')
    rep = report_of(proc)
    assert rep["result"]["converged"] is True
    assert rep["result"]["params"]["coeffs"]["-1"] == 0.2
    # complex coefficients and a_1 != 1 leave the search space
    for coeffs in ('{"1": 1, "-1": [0.2, 0.1]}', '{"1": 2, "-1": 0.2}'):
        proc = run_cli(*args, f'{{"coeffs": {coeffs}, "r0": 1.5}}')
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")


def test_search_at_design_converges(tmp_path):
    out = tmp_path / "search"
    proc = run_cli("--out", str(out), "search", "--a1", "1", "--am1", "0.2",
                   "--r0", "1.5", "--sc", "5", "--ss", "1",
                   "--sm", "1.9471087969306659,1.6983228935138412",
                   "--target", "1e-10", "--max-evals", "50")
    rep = report_of(proc)
    assert rep["result"]["converged"] is True
    assert rep["result"]["objective"] <= 1e-10
    with open(out / "history.csv", newline="") as fh:
        header = next(csv.reader(fh))
    assert header == ["iteration", "objective", "gap"]


def test_laurent_classify_command(tmp_path):
    out = tmp_path / "cls"
    proc = run_cli("--out", str(out), "laurent-classify", "--map",
                   '{"coeffs": {"1": 1.0, "-1": 0.2}, "r0": 1.5}',
                   "--f", "0.4300647088103534", "--shear", "-0.16177202588352414")
    rep = report_of(proc)
    assert rep["result"]["verdict"] == "confocal_compatible"
    with open(out / "factors.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "factor", "admissible", "in_support"]
    assert any(r[3] == "yes" for r in rows[1:])


def test_laurent_classify_f_alone_overrides_area_ratio():
    proc = run_cli("laurent-classify", "--a1", "1", "--am1", "0.2", "--r0", "1.5",
                   "--f", "0.3")
    rep = report_of(proc)
    assert rep["config"]["laurent"] == {"f": 0.3}
    assert (rep["result"]["f"], rep["result"]["shear"]) == (0.3, 0.0)
    assert rep["result"]["factors"]["1"] == pytest.approx((1 - 0.3 / 1.5**2) * (1 - 0.3 * 1.5**2))


# simple nested boundary images, but the inner one is clockwise (Phi' = 0 at
# zeta = +-sqrt(1.8) inside the annulus)
REVERSED_MAP = '{"coeffs": {"1": 1, "-1": 1.8}, "r0": 2.5}'


@pytest.mark.parametrize("args", [
    ("laurent-classify", "--map", REVERSED_MAP),
    ("laurent-classify", "--map", REVERSED_MAP, "--f", "0.4", "--shear", "0.1"),
    ("freebvp", "--map", REVERSED_MAP, "--f", "0.4", "--shear", "0.1"),
])
def test_reversed_map_exits_one(args):
    proc = run_cli(*args)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: inner boundary image has reversed orientation")
    assert proc.stdout == ""


def test_closed_stdout_exits_141():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(CLI + ["disk", "--sc", "5", "--ss", "1", "--f", "0.5"],
                              stdout=write_end, stderr=subprocess.PIPE, timeout=300)
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == b""


def test_config_hash_is_stable():
    args = ("design", "--a1", "1", "--am1", "0.2", "--r0", "1.5", "--sc", "5", "--ss", "1")
    h1 = report_of(run_cli(*args))["config_hash"]
    h2 = report_of(run_cli(*args))["config_hash"]
    assert h1 == h2
    h3 = report_of(run_cli("design", "--a1", "1", "--am1", "0.3", "--r0", "1.5",
                           "--sc", "5", "--ss", "1"))["config_hash"]
    assert h3 != h1


def test_freebvp_command():
    proc = run_cli("freebvp", "--a1", "1", "--am1", "0.2", "--r0", "1.5",
                   "--sc", "5", "--ss", "1")
    rep = report_of(proc)
    res = rep["result"]
    assert res["harmonicity_residual"] < 1e-5
    assert res["outer_bc_residual"] < 1e-8
    assert res["inner_bc_residual"] < 1e-8


def test_missing_section_exits_one():
    # no geometry flags: the handler finds no geometry section
    proc = run_cli("neutrality", "--sc", "5", "--ss", "1", "--sm", "2")
    assert proc.returncode == 1
    assert proc.stderr == "error: config has no 'geometry' section\n"
    proc = run_cli("solve", "--a1", "1", "--am1", "0.2", "--r0", "1.5")
    assert proc.returncode == 1
    assert "'profile'" in proc.stderr


def test_newtonian_explicit_shell_parameters():
    # a non-confocal shape has no design, so f and shear come from the flags
    proc = run_cli("newtonian", "--map", '{"coeffs": {"1": 1, "2": 0.05}, "r0": 1.5}',
                   "--f", "0.4", "--shear", "0.1")
    rep = report_of(proc)
    assert rep["config"]["newtonian"] == {"f": 0.4, "shear": 0.1}
    assert rep["result"]["d_expected"] == pytest.approx([0.175, 0.125])


def test_map_must_be_object():
    proc = run_cli("laurent-classify", "--map", "[1]")
    assert proc.returncode == 1
    assert proc.stderr == "error: --map must be a JSON object\n"


REFERENCE = ["--a1", "1", "--am1", "0.2", "--r0", "1.5", "--sc", "5", "--ss", "1"]


def test_newtonian_f_alone_overrides_design():
    # the shear keeps its designed value; d_j = (1 - f -/+ shear)/4
    base = report_of(run_cli("--nodes", "64", "newtonian", *REFERENCE))["result"]
    shear = confocal_design(1.0, 0.2, 1.5, 5.0, 1.0).shear
    rep = report_of(run_cli("--nodes", "64", "newtonian", *REFERENCE, "--f", "0.3"))
    assert rep["config"]["newtonian"] == {"f": 0.3}
    d_expected = rep["result"]["d_expected"]
    assert d_expected == pytest.approx([(0.7 + shear) / 4, (0.7 - shear) / 4], abs=1e-15)
    assert d_expected != pytest.approx(base["d_expected"], abs=1e-3)


@pytest.mark.parametrize("command", ["neutrality", "decay", "solve"])
def test_probe_points_must_be_positive(tmp_path, command):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"numerics": {"nodes": 64, "probe_points": 0}}))
    proc = run_cli("--config", str(cfgfile), command, *REFERENCE, "--sm", "2")
    assert proc.returncode == 1
    assert "at least one point" in proc.stderr


def test_solve_probe_radius_precondition():
    proc = run_cli("--nodes", "64", "solve", *REFERENCE, "--sm", "2", "--probe-radius", "0")
    assert proc.returncode == 1
    assert "twice the outer max radius" in proc.stderr


def test_search_nonpositive_matrix_conductivity_exits_one(tmp_path):
    proc = run_cli("search", *REFERENCE, "--sm", "0")
    assert proc.returncode == 1
    assert "sigma_m must be positive and finite" in proc.stderr
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"search": {"sigma_m": [0, 1]}}))
    proc = run_cli("--config", str(cfgfile), "search", *REFERENCE)
    assert proc.returncode == 1
    assert "sigma_m must be positive and finite" in proc.stderr


def test_unreadable_map_file_exits_one(tmp_path):
    proc = run_cli("laurent-classify", "--map", "@" + str(tmp_path / "missing.json"))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: cannot read --map ")

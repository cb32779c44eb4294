"""Command line interface: exit codes, JSON reports, and artifacts."""

import csv
import json
import math
import os
import subprocess
import sys

import pytest

from neutral_lab.cli import main, validate_config
from neutral_lab.designer import confocal_design
from neutral_lab.errors import ValidationError
from neutral_lab.geometry import confocal_pair
from neutral_lab.transmission import (
    ConductivityProfile,
    HarmonicPoly,
    decay_exponent,
    neutrality_report,
)

# a command runs in-process through main(argv); an interpreter is spawned only
# where the process itself is under test
CLI = [sys.executable, "-m", "neutral_lab.cli"]


@pytest.fixture
def run_cli(capsys):
    """main(argv) in-process, its exit code and captured output read like subprocess.run's."""
    def run(*args):
        code = main(list(args))
        out, err = capsys.readouterr()
        return subprocess.CompletedProcess(list(args), code, out, err)
    return run


def report_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_design_command_reports_coating(run_cli):
    proc = run_cli("design", "--a1", "1", "--am1", "0.2", "--r0", "1.5",
                   "--sc", "5", "--ss", "1")
    rep = report_of(proc)
    assert rep["command"] == "design"
    res = rep["result"]
    assert res["sigma_m"][0] == pytest.approx(1.9471087969306659, abs=1e-12)
    assert res["sigma_m"][1] == pytest.approx(1.6983228935138412, abs=1e-12)
    assert res["f"] == pytest.approx(864.0 / 2009.0, abs=1e-13)
    assert res["lambda"] == 0.75


def test_design_verify_attaches_report(run_cli):
    proc = run_cli("design", "--a1", "1", "--am1", "0.2", "--r0", "1.5",
                   "--sc", "5", "--ss", "1", "--verify")
    rep = report_of(proc)
    axes = rep["result"]["neutrality"]["axes"]
    assert max(ax["residual"] for ax in axes) < 1e-6


def test_disk_command(run_cli):
    proc = run_cli("disk", "--sc", "5", "--ss", "1", "--f", "0.5")
    rep = report_of(proc)
    assert rep["result"]["sigma_m"] == pytest.approx(2.0, abs=1e-14)
    # 'inf' spelling for the perfectly conducting core
    proc = run_cli("disk", "--sc", "inf", "--ss", "1", "--f", "0.25")
    assert report_of(proc)["result"]["sigma_m"] == pytest.approx(5.0 / 3.0)


def test_solve_writes_artifacts(run_cli, tmp_path):
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


def test_neutrality_command(run_cli, tmp_path):
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


def test_unknown_config_key_rejected(run_cli, tmp_path):
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
    # json.dumps writes inf as the literal Infinity, which has no place in the report
    "profile.sigma_c-inf": ({"profile": {"sigma_c": math.inf}},
                            "config key 'profile.sigma_c' has invalid value inf"),
    "numerics.nodes": ({"numerics": {"nodes": 64.0}}, "numerics.nodes"),
    "numerics.nodes-cap": ({"numerics": {"nodes": 100000000000}}, "numerics.nodes"),
    "numerics.probe_radius": ({"numerics": {"probe_radius": "far"}}, "numerics.probe_radius"),
    # no key sets the probe circle's point count: it is always 64
    "numerics.probe_points": ({"numerics": {"probe_points": 64}},
                              "unknown config key 'numerics.probe_points'"),
    "numerics.tol": ({"numerics": {"tol": "1e-9"}}, "numerics.tol"),
    "solve.axis": ({"solve": {"axis": 3}}, "solve.axis"),
    "solve.axis-float": ({"solve": {"axis": 1.0}}, "solve.axis"),
    "solve.axis-bool": ({"solve": {"axis": True}}, "solve.axis"),
    "design.verify": ({"design": {"verify": "yes"}}, "design.verify"),
    "disk.f": ({"disk": {"f": None}}, "disk.f"),
    "disk.f-overflow": ({"disk": {"f": 10**400}}, "config key 'disk.f' has invalid value 1000"),
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
    # the search start's sigma_m comes from profile.sigma_m (--sm) alone
    "search.sigma_m": ({"search": {"sigma_m": [2, 2]}}, "unknown config key 'search.sigma_m'"),
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
    # a key must be an order as str(int) writes it: "+1" would be a second a_1
    "laurent.coeffs-plus": ({"geometry": {"type": "laurent", "r0": 1.5,
                                          "coeffs": {"1": 1.0, "-1": 0.2, "+1": 2.0}}},
                            "geometry.coeffs"),
    "laurent.coeffs-padded": ({"geometry": {"type": "laurent", "coeffs": {"01": 1.0},
                                            "r0": 1.5}}, "geometry.coeffs"),
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


@pytest.mark.parametrize("argv, path", [
    (["disk", "--sc", "1e999", "--ss", "1", "--f", "0.5"], "profile.sigma_c"),
    (["disk", "--sc", "5", "--ss", "1", "--sm", "2,1e999", "--f", "0.5"], "profile.sigma_m"),
], ids=["sc", "sm"])
def test_infinite_flag_values_exit_one(capsys, argv, path):
    # a flag value that overflows to a float inf is refused like the config's Infinity;
    # the 'inf' token still spells a perfectly conducting core (test_disk_command)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: config key '{path}' has invalid value")


def test_malformed_config_rejected(run_cli, tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text("{not json")
    proc = run_cli("--config", str(cfgfile), "design")
    assert proc.returncode == 1


def test_invalid_parameters_exit_one(run_cli):
    proc = run_cli("design", "--a1", "1", "--am1", "1.5", "--r0", "1.5",
                   "--sc", "5", "--ss", "1")
    assert proc.returncode == 1
    assert proc.stdout == ""


def test_flag_errors(run_cli):
    # usage errors are validation failures, exit 1 like any other
    proc = run_cli("design", "--a1", "oops")
    assert proc.returncode == 1
    # confocal flags conflict with an explicit map
    proc = run_cli("design", "--a1", "1", "--map", '{"coeffs": {"1": 1.0}, "r0": 1.5}',
                   "--sc", "5", "--ss", "1")
    assert proc.returncode == 1


@pytest.mark.parametrize("argv, code", [([], 1), (["nosuch"], 1), (["--help"], 0)],
                         ids=["no-command", "unknown-command", "help"])
def test_main_returns_argparse_exit(capsys, argv, code):
    # main(argv) returns the code; argparse's SystemExit does not escape it
    assert main(argv) == code
    captured = capsys.readouterr()
    assert (captured.out if code == 0 else captured.err).startswith("usage: neutral-lab")


def test_search_nonconvergence_exits_two(run_cli, tmp_path):
    proc = run_cli("--seed", "3", "search", "--a1", "1", "--am1", "0.2",
                   "--r0", "1.5", "--sc", "5", "--ss", "1",
                   "--sm", "1.9471087969306659,1.6983228935138412",
                   "--perturb", "0.05", "--max-evals", "5", "--target", "1e-12")
    assert proc.returncode == 2
    assert "converge" in proc.stderr.lower() or "objective" in proc.stderr.lower()


@pytest.mark.parametrize("argv", [
    ["search", "--a1", "1", "--am1", "0.2", "--r0", "1.5", "--sc", "5", "--ss", "1",
     "--sm", "2", "--perturb", "0.03"],
    ["disk", "--sc", "5", "--ss", "1", "--f", "0.5"],
], ids=["search", "disk"])
def test_negative_seed_exits_one(capsys, argv):
    # every command refuses it, not only those that draw from the seed
    assert main(["--seed", "-1", *argv]) == 1
    assert capsys.readouterr() == ("", "error: --seed must be non-negative, got -1\n")


def test_out_path_that_is_a_file_exits_one(tmp_path, capsys):
    # the directory is made before the report is printed, so a refusal prints no report
    path = tmp_path / "report"
    path.write_text("kept")
    assert main(["--out", str(path), "disk", "--sc", "5", "--ss", "1", "--f", "0.5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot make --out directory: ")
    assert captured.err.count("\n") == 1
    assert path.read_text() == "kept"


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


def test_search_perturb_requires_seed(run_cli):
    # an unseeded random start could not be reproduced from the report
    proc = run_cli("search", "--a1", "1", "--am1", "0.2", "--r0", "1.5",
                   "--sc", "5", "--ss", "1", "--sm", "1.9471087969306659,1.6983228935138412",
                   "--perturb", "0.05", "--max-evals", "25")
    assert proc.returncode == 1
    assert "--seed" in proc.stderr


def test_search_map_coefficients(run_cli):
    args = ("search", "--sc", "5", "--ss", "1",
            "--sm", "1.9471087969306659,1.6983228935138412",
            "--target", "1e-10", "--max-evals", "50", "--map")
    # a real coefficient may be written as an [re, im] pair
    proc = run_cli(*args, '{"coeffs": {"1": [1, 0], "-1": 0.2}, "r0": 1.5}')
    rep = report_of(proc)
    assert rep["result"]["converged"] is True
    assert rep["result"]["params"]["coeffs"]["-1"] == 0.2


@pytest.mark.parametrize("coeffs, message", [
    ({"1": 1, "-1": [0.2, 0.1]}, "the search varies only real a_n; the start sets a_-1"),
    ({"1": 2, "-1": 0.2}, "the start sets a_1"),
    ({"1": 1, "-1": 0.2, "3": 0.05}, "(-2, -1, 2) (a_1 = 1 is the gauge); the start sets a_3"),
], ids=["complex", "gauge", "order"])
def test_search_start_outside_search_space_exits_one(capsys, coeffs, message):
    # shapesearch.encode refuses what the search cannot vary; the CLI adds no check
    argv = ["--nodes", "64", "search", "--sc", "5", "--ss", "1", "--sm", "2", "--max-order", "2",
            "--map", json.dumps({"coeffs": coeffs, "r0": 1.5})]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: the search varies") and message in captured.err


def test_search_at_design_converges(run_cli, tmp_path):
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


def test_laurent_classify_command(run_cli, tmp_path):
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


def test_laurent_classify_default_f_is_exact_area_ratio(capsys):
    # the image areas are exact in the coefficients: f = 864/2009, the design's f
    assert main(["laurent-classify", "--a1", "1", "--am1", "0.2", "--r0", "1.5"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["f"] == 864 / 2009


def test_laurent_classify_f_alone_overrides_area_ratio(run_cli):
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
def test_reversed_map_exits_one(run_cli, args):
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


def test_config_hash_is_stable(run_cli):
    # two interpreters print one hash: it reads no per-process state such as str hashes
    args = ["design", "--a1", "1", "--am1", "0.2", "--r0", "1.5", "--sc", "5", "--ss", "1"]
    spawn = [subprocess.run(CLI + args, capture_output=True, text=True, timeout=300)
             for _ in range(2)]
    h1, h2 = (report_of(proc)["config_hash"] for proc in spawn)
    assert h1 == h2
    h3 = report_of(run_cli("design", "--a1", "1", "--am1", "0.3", "--r0", "1.5",
                           "--sc", "5", "--ss", "1"))["config_hash"]
    assert h3 != h1


def test_freebvp_command(run_cli):
    proc = run_cli("freebvp", "--a1", "1", "--am1", "0.2", "--r0", "1.5",
                   "--sc", "5", "--ss", "1")
    rep = report_of(proc)
    res = rep["result"]
    assert res["harmonicity_residual"] < 1e-5
    assert res["outer_bc_residual"] < 1e-8
    assert res["inner_bc_residual"] < 1e-8


def test_missing_section_exits_one(run_cli):
    # no geometry flags: the handler names the first config entry it lacks
    proc = run_cli("neutrality", "--sc", "5", "--ss", "1", "--sm", "2")
    assert proc.returncode == 1
    assert proc.stderr == "error: neutrality requires geometry\n"
    proc = run_cli("solve", "--a1", "1", "--am1", "0.2", "--r0", "1.5")
    assert proc.returncode == 1
    assert proc.stderr == "error: solve requires profile.sigma_c\n"


def test_newtonian_explicit_shell_parameters(run_cli):
    # a non-confocal shape has no design, so f and shear come from the flags
    proc = run_cli("newtonian", "--map", '{"coeffs": {"1": 1, "2": 0.05}, "r0": 1.5}',
                   "--f", "0.4", "--shear", "0.1")
    rep = report_of(proc)
    assert rep["config"]["newtonian"] == {"f": 0.4, "shear": 0.1}
    assert rep["result"]["d_expected"] == pytest.approx([0.175, 0.125])


@pytest.mark.parametrize("command", ["newtonian", "freebvp"])
def test_shell_identities_off_confocal_name_override(capsys, command):
    # a non-confocal shape has no design; the refusal names the keys that replace it
    argv = [command, "--map", '{"coeffs": {"1": 1, "2": 0.05}, "r0": 1.5}', "--f", "0.4"]
    assert main(argv) == 1
    assert capsys.readouterr().err == (f"error: {command} requires geometry.type == 'confocal' "
                                       f"(or both '{command}.f' and '{command}.shear')\n")


def test_map_must_be_object(run_cli):
    proc = run_cli("laurent-classify", "--map", "[1]")
    assert proc.returncode == 1
    assert proc.stderr == "error: --map must be a JSON object\n"


@pytest.mark.parametrize("text, message", [
    ('{"coeffs": {"1": 1.0, "-1": 0.2}, "r0": 1.5, "R0": 9}', "unknown config key 'geometry.R0'"),
    ('{"type": "laurent", "coeffs": {"1": 1.0}, "r0": 1.5}', "unknown config key 'geometry.type'"),
    ('{"r0": 1.5}', "geometry.laurent requires 'coeffs'"),
    ('{"coeffs": {"1": 1.0}}', "geometry.laurent requires 'r0'"),
], ids=["stray-key", "type-key", "no-coeffs", "no-r0"])
def test_map_keys_checked_as_laurent_section(capsys, text, message):
    # --map takes exactly the keys of a geometry.laurent config section
    assert main(["laurent-classify", "--map", text]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


REFERENCE = ["--a1", "1", "--am1", "0.2", "--r0", "1.5", "--sc", "5", "--ss", "1"]


def test_newtonian_f_alone_overrides_design(run_cli):
    # the shear keeps its designed value; d_j = (1 - f -/+ shear)/4
    base = report_of(run_cli("--nodes", "64", "newtonian", *REFERENCE))["result"]
    shear = confocal_design(1.0, 0.2, 1.5, 5.0, 1.0).shear
    rep = report_of(run_cli("--nodes", "64", "newtonian", *REFERENCE, "--f", "0.3"))
    assert rep["config"]["newtonian"] == {"f": 0.3}
    d_expected = rep["result"]["d_expected"]
    assert d_expected == pytest.approx([(0.7 + shear) / 4, (0.7 - shear) / 4], abs=1e-15)
    assert d_expected != pytest.approx(base["d_expected"], abs=1e-3)


def test_design_verify_uses_probe_settings(capsys):
    argv = ["--nodes", "64", "design", *REFERENCE, "--verify", "--probe-radius"]
    assert main(argv + ["10"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["result"]["neutrality"]["probe_radius"] == 10.0
    # the same rule as the neutrality command: at least twice the outer max radius
    assert main(argv + ["1"]) == 1
    assert "twice the outer max radius" in capsys.readouterr().err


def test_probe_radius_beyond_float_range_refused(capsys):
    # squared distances to a probe at 1e300 overflow a float; 1e150 keeps a finite answer
    inc = confocal_pair(1.0, 0.2, 1.5)
    p = ConductivityProfile(5.0, 1.0, (2.0, 2.0))
    with pytest.raises(ValidationError, match="too large"):
        neutrality_report(inc, p, n=64, probe_radius=1e300)
    with pytest.raises(ValidationError, match="too large"):
        decay_exponent(inc, p, HarmonicPoly(cq=1.0), (5.0, 1e300), n=64)
    # an integer radius beyond the float range is refused by the same calls
    with pytest.raises(ValidationError, match="beyond the float range"):
        neutrality_report(inc, p, n=64, probe_radius=10**400)
    with pytest.raises(ValidationError, match="beyond the float range"):
        decay_exponent(inc, p, HarmonicPoly(cq=1.0), (5, 10**400), n=64)
    assert math.isfinite(decay_exponent(inc, p, HarmonicPoly(cq=1.0), (5.0, 1e150), n=64))
    for extra in (["neutrality", "--probe-radius", "1e300"], ["decay", "--radii", "5", "1e300"]):
        assert main(["--nodes", "64", *extra, *REFERENCE, "--sm", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: probe radius 1e+300 too large")


def test_solve_probe_radius_precondition(run_cli):
    proc = run_cli("--nodes", "64", "solve", *REFERENCE, "--sm", "2", "--probe-radius", "0")
    assert proc.returncode == 1
    assert "twice the outer max radius" in proc.stderr


def test_search_nonpositive_matrix_conductivity_exits_one(run_cli, tmp_path):
    proc = run_cli("search", *REFERENCE, "--sm", "0")
    assert proc.returncode == 1
    assert "sigma_m must be positive and finite" in proc.stderr
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"profile": {"sigma_m": [0, 1]}}))
    proc = run_cli("--config", str(cfgfile), "search", *REFERENCE)
    assert proc.returncode == 1
    assert "sigma_m must be positive and finite" in proc.stderr


def test_search_equal_core_shell_exits_one(capsys):
    # the refusal neutrality gives for the same flags, before any evaluation;
    # disk refuses the same profile
    args = ["--a1", "1", "--am1", "0.2", "--r0", "1.5", "--sc", "1", "--ss", "1",
            "--sm", "1.9,1.7"]
    for argv in (["search", *args], ["neutrality", *args],
                 ["disk", "--sc", "1", "--ss", "1", "--f", "0.5"]):
        assert main(["--nodes", "64", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: core and shell conductivities must differ\n"


def test_unreadable_map_file_exits_one(run_cli, tmp_path):
    proc = run_cli("laurent-classify", "--map", "@" + str(tmp_path / "missing.json"))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: cannot read --map ")


DESIGNED_SM = "1.9471087969306659,1.6983228935138412"


@pytest.mark.parametrize("axis", [1, 2])
def test_solve_residual_is_neutrality_residual(capsys, axis):
    # one evaluator of u - x_j on the probe circle serves both commands
    args = [*REFERENCE, "--sm", DESIGNED_SM]
    assert main(["--nodes", "64", "solve", *args, "--axis", str(axis)]) == 0
    solved = json.loads(capsys.readouterr().out)["result"]["residual"]
    assert main(["--nodes", "64", "neutrality", *args]) == 0
    axes = json.loads(capsys.readouterr().out)["result"]["axes"]
    assert solved == axes[axis - 1]["residual"]


REFERENCE_MAP = '{"coeffs": {"1": 1.0, "-1": 0.2}, "r0": 1.5}'
# each command's --out files: report.json plus the CSVs that README "Output" lists
OUT_FILES = {
    "solve": ([*REFERENCE, "--sm", DESIGNED_SM], {"densities.csv", "samples.csv"}),
    "neutrality": ([*REFERENCE, "--sm", DESIGNED_SM], set()),
    "design": (REFERENCE, set()),
    "disk": (["--sc", "5", "--ss", "1", "--f", "0.5"], set()),
    "newtonian": (REFERENCE, set()),
    "freebvp": (REFERENCE, set()),
    "laurent-classify": (["--map", REFERENCE_MAP], {"factors.csv"}),
    "search": ([*REFERENCE, "--sm", DESIGNED_SM, "--max-evals", "5"], {"history.csv"}),
    "decay": ([*REFERENCE, "--sm", "2"], set()),
}


@pytest.mark.parametrize("command", OUT_FILES)
def test_out_directory_holds_listed_files(tmp_path, capsys, command):
    args, csvs = OUT_FILES[command]
    assert main(["--out", str(tmp_path), "--nodes", "64", command, *args]) == 0
    capsys.readouterr()
    assert {p.name for p in tmp_path.iterdir()} == {"report.json", *csvs}

"""Command line front end.

Commands read an optional JSON config (--config), apply flag overrides, and
print one JSON report to stdout. --out writes the same report plus any
tabular artifacts (RFC-4180 CSV) into a directory. Every report embeds the
effective config and its sha256 hash so runs are reproducible.

Exit codes: 0 success; 1 invalid input (bad flags, malformed or unknown
config keys, invalid geometry); 2 numerical failure (singular solve, no
valid coating, search that misses its target); 141 (128 + SIGPIPE) when
stdout is closed before the report is written.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .errors import (
    DesignError,
    GeometryError,
    NearEvaluationError,
    SolverError,
    UnsupportedConfigurationError,
    ValidationError,
)
from . import designer, laurent, newtonian, shapesearch
from .geometry import (
    CoatedInclusion,
    LaurentMap,
    area,
    confocal_pair,
    discretize,
    laurent_domain,
    make_ellipse,
)
from .transmission import (
    ConductivityProfile,
    HarmonicPoly,
    decay_exponent,
    eval_u,
    neutrality_report,
    solve_both_axes,
    _far_probe,
)

_INF_TOKENS = {"inf", "Infinity", "infinity"}
# largest numerics.nodes: the dense N x N blocks stay at 128 MiB each
_MAX_NODES = 4096


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 on usage errors (validation, not numerics)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# config schema: one table per section declares each key's value rule and flag


def _is_num(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_sigma(v) -> bool:
    if isinstance(v, str):
        return v in _INF_TOKENS
    return isinstance(v, (int, float)) and not isinstance(v, bool) and (
        math.isinf(v) or v >= 0
    )


def _is_pair(v, rule=_is_num) -> bool:
    return isinstance(v, list) and len(v) == 2 and all(rule(x) for x in v)


def _is_order(k: str) -> bool:
    try:
        int(k)
    except ValueError:
        return False
    return True


def _sigma_value(v) -> float:
    return math.inf if isinstance(v, str) else float(v)


def _sigma_pair(v) -> tuple[float, float]:
    """A diagonal matrix conductivity given as SIGMA or [S1, S2]."""
    s1, s2 = v if isinstance(v, list) else (v, v)
    return _sigma_value(s1), _sigma_value(s2)


def _parse_sigma_flag(text: str) -> float | str:
    if text in _INF_TOKENS:
        return "inf"
    try:
        return float(text)
    except ValueError:
        raise ValidationError(f"conductivity flag must be a number or 'inf', got {text!r}")


def _parse_sm_flag(text: str) -> float | str | list:
    parts = text.split(",")
    if len(parts) == 1:
        return _parse_sigma_flag(parts[0])
    if len(parts) == 2:
        return [_parse_sigma_flag(p) for p in parts]
    raise ValidationError("--sm takes SIGMA or S1,S2")


_H_CHOICES = {
    "x1": HarmonicPoly(cx=1.0),
    "x2": HarmonicPoly(cy=1.0),
    "saddle": HarmonicPoly(cq=1.0),
    "xy": HarmonicPoly(cxy=1.0),
}


def _key(rule, name=None, parse=None, top=False, **flag) -> SimpleNamespace:
    """A config key: its value rule and, given argparse keyword arguments, its flag.

    The flag is --NAME, by default the key with underscores as dashes; parse
    turns the flag's value into the config value, and a top flag comes
    before the subcommand.
    """
    return SimpleNamespace(rule=rule, name=name, parse=parse, top=top, flag=flag or None)


_ELLIPSE = {"a": _is_num, "b": _is_num, "theta": _is_num, "center": _is_pair}


def _is_ellipse(v) -> bool:
    return isinstance(v, dict) and {"a", "b"} <= v.keys() and all(
        k in _ELLIPSE and _ELLIPSE[k](x) for k, x in v.items()
    )


# the keys of each geometry.type; all are required
_GEOMETRY = {
    "confocal": {
        "a1": _key(_is_num, type=float, help="confocal a_1 coefficient"),
        "am1": _key(_is_num, type=float, help="confocal a_-1 coefficient"),
        "r0": _key(_is_num, type=float, help="conformal modulus of the shell"),
    },
    "laurent": {
        "coeffs": _key(lambda v: isinstance(v, dict) and all(
            _is_order(k) and (_is_num(c) or _is_pair(c)) for k, c in v.items())),
        "r0": _key(_is_num),
    },
    "ellipse_pair": {"inner": _key(_is_ellipse), "outer": _key(_is_ellipse)},
}

_SHELL = {
    "f": _key(_is_num, type=float, help="volume fraction override"),
    "shear": _key(_is_num, type=float, help="inner shear coefficient"),
}
# the other sections; a command reads its own section (see _section_of)
_SECTIONS = {
    "profile": {
        "sigma_c": _key(_is_sigma, "sc", _parse_sigma_flag,
                        help="core conductivity (number or 'inf')"),
        "sigma_s": _key(lambda v: _is_num(v) and v > 0, "ss", type=float,
                        help="shell conductivity"),
        "sigma_m": _key(lambda v: _is_sigma(v) or _is_pair(v, _is_sigma), "sm", _parse_sm_flag,
                        help="matrix conductivity: SIGMA or S1,S2"),
    },
    "numerics": {
        "nodes": _key(lambda v: _is_int(v) and v <= _MAX_NODES, top=True, type=int,
                      help=f"quadrature nodes per curve (at most {_MAX_NODES})"),
        "probe_radius": _key(lambda v: v is None or _is_num(v), type=float),
        "probe_points": _key(_is_int),
        "tol": _key(_is_num, top=True, type=float, help="admissibility tolerance"),
    },
    "solve": {"axis": _key(lambda v: _is_int(v) and v in (1, 2), type=int, choices=(1, 2))},
    "neutrality": {},
    "design": {"verify": _key(lambda v: isinstance(v, bool), action="store_true",
                              help="attach a BIE neutrality report")},
    "disk": {"f": _key(_is_num, type=float, help="volume fraction")},
    "newtonian": _SHELL,
    "freebvp": _SHELL,
    "laurent": {**_SHELL, "coeff_tol": _key(_is_num, type=float)},
    "search": {
        "max_evals": _key(_is_int, type=int),
        "target": _key(_is_num, type=float),
        "max_order": _key(_is_int, type=int),
        "perturb": _key(_is_num, type=float,
                        help="uniform start perturbation amplitude (needs --seed)"),
        "sigma_m": _key(_is_pair),
    },
    "decay": {
        "h": _key(lambda v: isinstance(v, str) and v in _H_CHOICES, choices=sorted(_H_CHOICES)),
        "radii": _key(_is_pair, nargs=2, type=float, metavar=("R1", "R2")),
    },
}


def _section_of(command: str) -> str:
    return "laurent" if command == "laurent-classify" else command


def _check_keys(section: dict, keys: dict, path: str):
    for k in section:
        if k not in keys:
            raise ValidationError(f"unknown config key '{path}.{k}'")
    for k, key in keys.items():
        if k in section and not key.rule(section[k]):
            raise ValidationError(f"config key '{path}.{k}' has invalid value {section[k]!r}")


def _validate_geometry(g):
    if not isinstance(g, dict) or "type" not in g:
        raise ValidationError("config 'geometry' must be an object with a 'type'")
    t = g["type"]
    if not (isinstance(t, str) and t in _GEOMETRY):
        raise ValidationError(f"unknown geometry.type {t!r}")
    _check_keys({k: v for k, v in g.items() if k != "type"}, _GEOMETRY[t], "geometry")
    for k in _GEOMETRY[t]:
        if k not in g:
            raise ValidationError(f"geometry.{t} requires {k!r}")


def load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise ValidationError(f"cannot read config {path}: {e}")
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValidationError(f"malformed JSON in {path}: {e}")
    if not isinstance(cfg, dict):
        raise ValidationError("config root must be a JSON object")
    validate_config(cfg)
    return cfg


def validate_config(cfg: dict):
    for key, section in cfg.items():
        if key == "geometry":
            _validate_geometry(section)
            continue
        if key not in _SECTIONS:
            raise ValidationError(f"unknown config key '{key}'")
        if not isinstance(section, dict):
            raise ValidationError(f"config '{key}' must be an object")
        _check_keys(section, _SECTIONS[key], key)


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# builders


def build_geometry(g: dict) -> CoatedInclusion:
    t = g["type"]
    if t == "confocal":
        return confocal_pair(float(g["a1"]), float(g["am1"]), float(g["r0"]))
    if t == "laurent":
        return laurent_domain(LaurentMap.from_json(g))
    inner_d, outer_d = g["inner"], g["outer"]

    def _mk(d):
        center = complex(*d.get("center", (0.0, 0.0)))
        return make_ellipse(center, float(d["a"]), float(d["b"]), float(d.get("theta", 0.0)))

    inc = CoatedInclusion(inner=_mk(inner_d), outer=_mk(outer_d), origin=None)
    inc.validate()
    return inc


def build_profile(p: dict) -> ConductivityProfile:
    for k in ("sigma_c", "sigma_s", "sigma_m"):
        if k not in p:
            raise ValidationError(f"profile requires '{k}'")
    return ConductivityProfile(
        sigma_c=_sigma_value(p["sigma_c"]),
        sigma_s=float(p["sigma_s"]),
        sigma_m=_sigma_pair(p["sigma_m"]),
    )


def _core_shell(cfg: dict, command: str) -> tuple[float, float]:
    """(sigma_c, sigma_s) of the profile section; refuses a profile without them."""
    p = cfg.get("profile", {})
    for k in ("sigma_c", "sigma_s"):
        if k not in p:
            raise ValidationError(f"{command} requires profile.{k}")
    return _sigma_value(p["sigma_c"]), float(p["sigma_s"])


def _laurent_map(g: dict, command: str) -> LaurentMap:
    """The annulus map of a laurent or confocal geometry section."""
    if g["type"] == "laurent":
        return LaurentMap.from_json(g)
    if g["type"] == "confocal":
        return LaurentMap({1: float(g["a1"]), -1: float(g["am1"])}, float(g["r0"]))
    raise ValidationError(f"{command} requires a laurent or confocal geometry")


# ---------------------------------------------------------------------------
# artifact helpers


def _emit(report: dict, out_dir: str | None, csv_files: dict | None = None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text, flush=True)
    if out_dir is None:
        return
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(text + "\n", encoding="utf-8")
    for name, (header, rows) in (csv_files or {}).items():
        with open(out / name, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh, lineterminator="\r\n")
            w.writerow(header)
            w.writerows(rows)


# ---------------------------------------------------------------------------
# command handlers: each takes (cfg, seed) and returns (result_dict, csv_files)


class _Sections(dict):
    """The merged config; indexing a missing section raises ValidationError."""

    def __missing__(self, key):
        raise ValidationError(f"config has no '{key}' section")


def _given(sect: dict, *keys: str) -> dict:
    """The keys set in a section; the library's own defaults cover the rest."""
    return {k: sect[k] for k in keys if k in sect}


def _numerics(cfg: dict) -> dict:
    base = {"nodes": 256, "probe_radius": None, "probe_points": 64, "tol": 1e-9}
    base.update(cfg.get("numerics", {}))
    return base


def cmd_solve(cfg, seed):
    inc = build_geometry(cfg["geometry"])
    prof = build_profile(cfg["profile"])
    num = _numerics(cfg)
    axis = cfg.get("solve", {}).get("axis", 1)
    radius, probe = _far_probe(inc, num["probe_radius"], num["probe_points"])
    pair = solve_both_axes(inc, prof, num["nodes"])[axis - 1]
    vals, grads = eval_u(inc, pair, prof, probe)
    resid = float(np.max(np.abs(vals - probe[:, axis - 1])))
    result = {
        "axis": axis,
        "probe_radius": radius,
        "residual": resid,
        "phi": pair.phi.tolist(),
        "psi": pair.psi.tolist(),
    }
    d_in, d_out = pair.disc_inner, pair.disc_outer
    rows = zip(d_in.t, *d_in.nodes.T, pair.phi, *d_out.nodes.T, pair.psi)
    samples = zip(*probe.T, vals, *grads.T)
    return result, {
        "densities.csv": (["t", "x_in", "y_in", "phi", "x_out", "y_out", "psi"], rows),
        "samples.csv": (["x", "y", "u", "ux", "uy"], samples),
    }


def cmd_neutrality(cfg, seed):
    inc = build_geometry(cfg["geometry"])
    prof = build_profile(cfg["profile"])
    num = _numerics(cfg)
    rep = neutrality_report(
        inc, prof, n=num["nodes"],
        probe_radius=num["probe_radius"], probe_points=num["probe_points"],
    )
    return rep.as_dict(), None


def cmd_design(cfg, seed):
    g = cfg["geometry"]
    if g["type"] != "confocal":
        raise ValidationError("design requires geometry.type == 'confocal'")
    sc, ss = _core_shell(cfg, "design")
    dr = designer.confocal_design(float(g["a1"]), float(g["am1"]), float(g["r0"]), sc, ss)
    result = dr.as_dict()
    if cfg.get("design", {}).get("verify", False):
        rep = neutrality_report(build_geometry(g), dr.profile(sc, ss), n=_numerics(cfg)["nodes"])
        result["neutrality"] = rep.as_dict()
    return result, None


def cmd_disk(cfg, seed):
    d = cfg.get("disk", {})
    sc, ss = _core_shell(cfg, "disk")
    if "f" not in d:
        raise ValidationError("disk requires disk.f")
    sm = designer.disk_matrix_conductivity(sc, ss, float(d["f"]))
    return {"sigma_m": sm, "f": float(d["f"])}, None


def _design_for_geometry(cfg, section):
    """f and shear for the shell identities: explicit values win, else design."""
    g = cfg["geometry"]
    sect = cfg.get(section, {})
    if "f" in sect and "shear" in sect:
        return float(sect["f"]), float(sect["shear"])
    if g["type"] != "confocal":
        raise ValidationError(
            f"{section} needs explicit '{section}.f' and '{section}.shear' "
            "unless geometry.type == 'confocal'"
        )
    sc, ss = _core_shell(cfg, section)
    dr = designer.confocal_design(float(g["a1"]), float(g["am1"]), float(g["r0"]), sc, ss)
    return float(sect.get("f", dr.f)), float(sect.get("shear", dr.shear))


def cmd_newtonian(cfg, seed):
    inc = build_geometry(cfg["geometry"])
    num = _numerics(cfg)
    f, shear = _design_for_geometry(cfg, "newtonian")
    rep = newtonian.combined_identity_check(
        inc, SimpleNamespace(f=f, dmu=-shear / f), n=num["nodes"]
    )
    result = rep.as_dict()
    fit = rep.fit
    rows = [
        ("d1", fit.d1, rep.d_expected[0], rep.d_mismatch[0]),
        ("d2", fit.d2, rep.d_expected[1], rep.d_mismatch[1]),
        ("c1", fit.c1, 0.0, abs(fit.c1)),
        ("c2", fit.c2, 0.0, abs(fit.c2)),
        ("rms_residual", fit.rms_residual, 0.0, fit.rms_residual),
        ("exterior_residual", rep.exterior_residual, 0.0, rep.exterior_residual),
    ]
    return result, {"fit.csv": (["quantity", "value", "expected", "mismatch"], rows)}


def cmd_freebvp(cfg, seed):
    inc = build_geometry(cfg["geometry"])
    num = _numerics(cfg)
    f, shear = _design_for_geometry(cfg, "freebvp")
    rep = newtonian.free_bvp_residual(inc, f, shear, n=num["nodes"])
    result = rep.as_dict()
    result.update({"f": f, "shear": shear})
    return result, None


def cmd_laurent_classify(cfg, seed):
    m = _laurent_map(cfg["geometry"], "laurent-classify")
    inc = laurent_domain(m)
    num = _numerics(cfg)
    sect = cfg.get("laurent", {})
    if "f" in sect:
        f = float(sect["f"])
    else:
        f = area(discretize(inc.inner, 256)) / area(discretize(inc.outer, 256))
    shear = float(sect.get("shear", 0.0))
    cls = laurent.classify(m, f, shear, tol=num["tol"], **_given(sect, "coeff_tol"))
    result = cls.as_dict()
    result.update({"f": f, "shear": shear})
    rows = [(n, fac, "yes" if n in cls.admissible else "no",
             "yes" if n in cls.support else "no")
            for n, fac in sorted(cls.factors.items())]
    return result, {"factors.csv": (["n", "factor", "admissible", "in_support"], rows)}


def cmd_search(cfg, seed):
    sc, ss = _core_shell(cfg, "search")
    sect = cfg.get("search", {})
    perturb = float(sect.get("perturb", 0.0))
    if perturb and seed is None:
        raise ValidationError("search.perturb needs --seed so that the start is reproducible")
    num = _numerics(cfg)
    scfg = shapesearch.SearchConfig(sigma_c=sc, sigma_s=ss, nodes=num["nodes"],
                                    probe_points=num["probe_points"], **_given(sect, "max_order"))
    m = _laurent_map(cfg["geometry"], "search")
    if any(a.imag != 0 for a in m.coeffs.values()):
        raise ValidationError("search needs real Laurent coefficients")
    if m.coeffs[1] != 1:
        raise ValidationError("search uses the gauge a_1 = 1")
    beyond = set(m.coeffs) - {1, *scfg.coeff_orders}
    if beyond:
        raise ValidationError(f"coefficient order {max(beyond, key=abs)} exceeds search.max_order")
    coeffs = {k: m.coeffs.get(k, 0j).real for k in scfg.coeff_orders}
    sm = sect.get("sigma_m", cfg.get("profile", {}).get("sigma_m"))
    if sm is None:
        raise ValidationError("search requires profile.sigma_m or search.sigma_m")
    start = shapesearch.ShapeParams(coeffs=coeffs, r0=m.r0, sigma_m=_sigma_pair(sm))
    if perturb:
        rng = np.random.default_rng(seed)
        x = shapesearch.encode(start, scfg)
        x[: len(scfg.coeff_orders)] += rng.uniform(-perturb, perturb,
                                                   len(scfg.coeff_orders))
        start = shapesearch.decode(x, scfg)
    res = shapesearch.search(start, scfg, **_given(sect, "max_evals", "target"))
    result = res.as_dict()
    if not res.converged:
        raise SolverError(
            "search did not reach the target objective: "
            + json.dumps(result, sort_keys=True)
        )
    return result, {"history.csv": (["iteration", "objective", "gap"], res.improvements)}


def cmd_decay(cfg, seed):
    inc = build_geometry(cfg["geometry"])
    prof = build_profile(cfg["profile"])
    num = _numerics(cfg)
    sect = cfg.get("decay", {})
    h = _H_CHOICES[sect.get("h", "x1")]
    radii = sect.get("radii", [5.0, 10.0])
    expo = decay_exponent(inc, prof, h, (float(radii[0]), float(radii[1])),
                          n=num["nodes"], probe_points=num["probe_points"])
    return {"h": sect.get("h", "x1"), "radii": list(radii), "exponent": expo}, None


# ---------------------------------------------------------------------------
# argument parsing


_COMMANDS = {
    "solve": cmd_solve, "neutrality": cmd_neutrality, "design": cmd_design,
    "disk": cmd_disk, "newtonian": cmd_newtonian, "freebvp": cmd_freebvp,
    "laurent-classify": cmd_laurent_classify, "search": cmd_search, "decay": cmd_decay,
}


def _add_flags(parser, keys: dict, top: bool = False):
    for k, key in keys.items():
        if key.flag is not None and key.top == top:
            parser.add_argument("--" + (key.name or k).replace("_", "-"), **key.flag)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="neutral-lab",
                 description="Coated-inclusion neutrality laboratory")
    ap.add_argument("--config", help="JSON config file")
    ap.add_argument("--out", help="directory for report.json and CSV artifacts")
    _add_flags(ap, _SECTIONS["numerics"], top=True)
    ap.add_argument("--seed", type=int, help="seed for randomized options")
    sub = ap.add_subparsers(dest="command", required=True)

    for name in _COMMANDS:
        sp = sub.add_parser(name)
        _add_flags(sp, _GEOMETRY["confocal"])
        sp.add_argument("--map", help="LaurentMap as JSON text or @file path")
        for section in ("profile", "numerics", _section_of(name)):
            _add_flags(sp, _SECTIONS[section])
    return ap


def _merge_flags(cfg: dict, args) -> dict:
    """Overlay command-line flags onto the config dict (flags win)."""
    cfg = json.loads(json.dumps(cfg))  # deep copy, JSON-clean

    geo = cfg.setdefault("geometry", {})
    if args.map:
        text = args.map
        if text.startswith("@"):
            try:
                text = Path(text[1:]).read_text(encoding="utf-8")
            except OSError as e:
                raise ValidationError(f"cannot read --map {text[1:]}: {e}")
        try:
            m = json.loads(text)
        except json.JSONDecodeError as e:
            raise ValidationError(f"--map is not valid JSON: {e}")
        if not isinstance(m, dict):
            raise ValidationError("--map must be a JSON object")
        geo.clear()
        geo.update({"type": "laurent", "coeffs": m.get("coeffs", {}), "r0": m.get("r0")})
    confocal = {k: v for k in _GEOMETRY["confocal"] if (v := getattr(args, k)) is not None}
    if confocal:
        if geo.get("type") not in (None, "confocal"):
            raise ValidationError("--a1/--am1/--r0 conflict with a non-confocal geometry")
        geo.update(type="confocal", **confocal)
        geo.setdefault("am1", 0.0)
    if not geo:
        cfg.pop("geometry")

    for name in ("profile", "numerics", _section_of(args.command)):
        sect = cfg.setdefault(name, {})
        for k, key in _SECTIONS[name].items():
            v = None if key.flag is None else getattr(args, key.name or k)
            if v is not None and v is not False:
                sect[k] = key.parse(v) if key.parse else v
        if not sect:
            cfg.pop(name)

    validate_config(cfg)
    return cfg


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        cfg = load_config(args.config)
        cfg = _merge_flags(cfg, args)
        result, csv_files = _COMMANDS[args.command](_Sections(cfg), args.seed)
    except (ValidationError, GeometryError, UnsupportedConfigurationError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (SolverError, DesignError, NearEvaluationError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 2

    report = {
        "command": args.command,
        "config": cfg,
        "config_hash": config_hash(cfg),
        "seed": args.seed,
        "result": result,
    }
    try:
        _emit(report, args.out, csv_files)
    except BrokenPipeError:
        # stdout was closed early (e.g. `| head`): exit as if killed by
        # SIGPIPE, and point stdout at devnull so the exit flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return 0


if __name__ == "__main__":
    sys.exit(main())

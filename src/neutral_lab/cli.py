"""Command line front end.

Commands read an optional JSON config (--config), apply flag overrides, and
print one JSON report to stdout. --out writes the same report plus any
tabular artifacts (RFC-4180 CSV) into a directory. Every report embeds the
effective config and its sha256 hash so runs are reproducible.

main(argv) returns the exit code of every outcome: 0 success or --help; 1
invalid input (bad flags, malformed or unknown config keys, invalid
geometry); 2 numerical failure (singular solve, no valid coating, search
that misses its target); 141 (128 + SIGPIPE) when stdout is closed before
the report is written.
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
    _laurent_order,
    confocal_pair,
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
    _scattered_values,
)

_INF_TOKENS = {"inf", "Infinity", "infinity"}
# largest numerics.nodes: the dense N x N blocks stay at 128 MiB each
_MAX_NODES = 4096


# ---------------------------------------------------------------------------
# config schema: one table per section declares each key's value rule and flag


def _is_num(v) -> bool:
    """A finite float, or an int that converts to one (nan and inf compare False)."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_sigma(v) -> bool:
    """A number >= 0, or an inf token (a float inf has no JSON form for the report)."""
    return v in _INF_TOKENS if isinstance(v, str) else _is_num(v) and v >= 0


def _is_pair(v, rule=_is_num) -> bool:
    return isinstance(v, list) and len(v) == 2 and all(rule(x) for x in v)


def _is_order(k: str) -> bool:
    """An integer order as str(int) writes it (LaurentMap's rule for a string key)."""
    try:
        _laurent_order(k)
    except ValidationError:
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


def _json_object(source: str, what: str) -> dict:
    """The JSON object in `source`: JSON text, or '@' and a file path (named in errors)."""
    if source.startswith("@"):
        what = f"{what} {source[1:]}"
        try:
            source = Path(source[1:]).read_text(encoding="utf-8")
        except OSError as e:
            raise ValidationError(f"cannot read {what}: {e}")
    try:
        obj = json.loads(source)
    except json.JSONDecodeError as e:
        raise ValidationError(f"malformed JSON in {what}: {e}")
    if not isinstance(obj, dict):
        raise ValidationError(f"{what} must be a JSON object")
    return obj


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


def _need(cfg: dict, command: str, path: str):
    """The config value at a dotted path; refuses with '<command> requires <path>'."""
    value = cfg
    for key in path.split("."):
        if key not in value:
            raise ValidationError(f"{command} requires {path}")
        value = value[key]
    return value


def build_geometry(cfg: dict, command: str) -> CoatedInclusion:
    g = _need(cfg, command, "geometry")
    t = g["type"]
    if t == "confocal":
        return confocal_pair(float(g["a1"]), float(g["am1"]), float(g["r0"]))
    if t == "laurent":
        return laurent_domain(_laurent_map(cfg, command))
    inner_d, outer_d = g["inner"], g["outer"]

    def _mk(d):
        center = complex(*d.get("center", (0.0, 0.0)))
        return make_ellipse(center, float(d["a"]), float(d["b"]), float(d.get("theta", 0.0)))

    inc = CoatedInclusion(inner=_mk(inner_d), outer=_mk(outer_d), origin=None)
    inc.validate()
    return inc


def _core_shell(cfg: dict, command: str) -> tuple[float, float]:
    """(sigma_c, sigma_s) of the profile section."""
    sc = _sigma_value(_need(cfg, command, "profile.sigma_c"))
    return sc, float(_need(cfg, command, "profile.sigma_s"))


def build_profile(cfg: dict, command: str) -> ConductivityProfile:
    sc, ss = _core_shell(cfg, command)
    return ConductivityProfile(sc, ss, _sigma_pair(_need(cfg, command, "profile.sigma_m")))


def _laurent_map(cfg: dict, command: str) -> LaurentMap:
    """The annulus map of a laurent or confocal geometry section.

    Laurent coefficients are numbers or [re, im] pairs, as the value rule checked.
    """
    g = _need(cfg, command, "geometry")
    if g["type"] == "laurent":
        coeffs = {n: complex(*a) if isinstance(a, list) else a for n, a in g["coeffs"].items()}
        return LaurentMap(coeffs, float(g["r0"]))
    if g["type"] == "confocal":
        return LaurentMap({1: float(g["a1"]), -1: float(g["am1"])}, float(g["r0"]))
    raise ValidationError(f"{command} requires a laurent or confocal geometry")


# ---------------------------------------------------------------------------
# artifact helpers


def _out_dir(path: str | None) -> Path | None:
    """The --out directory, made once the command has succeeded and before any output."""
    if path is None:
        return None
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ValidationError(f"cannot make --out directory: {e}")
    return Path(path)


def _emit(report: dict, out: Path | None, csv_files: dict | None = None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text, flush=True)
    if out is None:
        return
    (out / "report.json").write_text(text + "\n", encoding="utf-8")
    for name, (header, rows) in (csv_files or {}).items():
        with open(out / name, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh, lineterminator="\r\n")
            w.writerow(header)
            w.writerows(rows)


# ---------------------------------------------------------------------------
# command handlers: each takes (cfg, seed) and returns (result_dict, csv_files)


def _given(sect: dict, *keys: str) -> dict:
    """The keys set in a section; the library's own defaults cover the rest."""
    return {k: sect[k] for k in keys if k in sect}


def _numerics(cfg: dict) -> dict:
    return {"nodes": 256, "probe_radius": None, "tol": 1e-9, **cfg.get("numerics", {})}


def _neutrality(cfg, inc, prof) -> dict:
    """The neutrality report with the config's node count and probe settings."""
    num = _numerics(cfg)
    return neutrality_report(inc, prof, n=num["nodes"], probe_radius=num["probe_radius"]).as_dict()


def cmd_solve(cfg, seed):
    inc = build_geometry(cfg, "solve")
    prof = build_profile(cfg, "solve")
    num = _numerics(cfg)
    axis = cfg.get("solve", {}).get("axis", 1)
    radius, probe = _far_probe(inc, num["probe_radius"])
    pair = solve_both_axes(inc, prof, num["nodes"])[axis - 1]
    vals, grads = eval_u(inc, pair, prof, probe)
    result = {
        "axis": axis,
        "probe_radius": radius,
        "residual": float(np.max(np.abs(_scattered_values(pair, probe)))),
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
    inc = build_geometry(cfg, "neutrality")
    return _neutrality(cfg, inc, build_profile(cfg, "neutrality")), None


def _confocal_design(cfg, command):
    """The coating design for a confocal geometry and the profile's core and shell."""
    g = _need(cfg, command, "geometry")
    if g["type"] != "confocal":
        shell = "shear" in _SECTIONS[command]
        override = f" (or both '{command}.f' and '{command}.shear')" if shell else ""
        raise ValidationError(f"{command} requires geometry.type == 'confocal'{override}")
    sc, ss = _core_shell(cfg, command)
    return designer.confocal_design(float(g["a1"]), float(g["am1"]), float(g["r0"]), sc, ss)


def cmd_design(cfg, seed):
    dr = _confocal_design(cfg, "design")
    result = dr.as_dict()
    if cfg.get("design", {}).get("verify", False):
        prof = dr.profile(*_core_shell(cfg, "design"))
        result["neutrality"] = _neutrality(cfg, build_geometry(cfg, "design"), prof)
    return result, None


def cmd_disk(cfg, seed):
    sc, ss = _core_shell(cfg, "disk")
    f = float(_need(cfg, "disk", "disk.f"))
    return {"sigma_m": designer.disk_matrix_conductivity(sc, ss, f), "f": f}, None


def _design_for_geometry(cfg, section):
    """f and shear for the shell identities: explicit values win, else design."""
    sect = cfg.get(section, {})
    if "f" in sect and "shear" in sect:
        return float(sect["f"]), float(sect["shear"])
    dr = _confocal_design(cfg, section)
    return float(sect.get("f", dr.f)), float(sect.get("shear", dr.shear))


def cmd_newtonian(cfg, seed):
    inc = build_geometry(cfg, "newtonian")
    num = _numerics(cfg)
    f, shear = _design_for_geometry(cfg, "newtonian")
    rep = newtonian.combined_identity_check(
        inc, SimpleNamespace(f=f, dmu=-shear / f), n=num["nodes"]
    )
    return rep.as_dict(), None


def cmd_freebvp(cfg, seed):
    inc = build_geometry(cfg, "freebvp")
    num = _numerics(cfg)
    f, shear = _design_for_geometry(cfg, "freebvp")
    rep = newtonian.free_bvp_residual(inc, f, shear, n=num["nodes"])
    result = rep.as_dict()
    result.update({"f": f, "shear": shear})
    return result, None


def cmd_laurent_classify(cfg, seed):
    m = _laurent_map(cfg, "laurent-classify")
    inc = laurent_domain(m)
    num = _numerics(cfg)
    sect = cfg.get("laurent", {})
    if "f" in sect:
        f = float(sect["f"])
    else:
        f = inc.inner.signed_area() / inc.outer.signed_area()
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
                                    **_given(sect, "max_order"))
    m = _laurent_map(cfg, "search")
    # ShapeParams supplies the gauge a_1 = 1; shapesearch.encode refuses any other a_1
    coeffs = {k: a for k, a in m.coeffs.items() if (k, a) != (1, 1)}
    sm = _sigma_pair(_need(cfg, "search", "profile.sigma_m"))
    start = shapesearch.ShapeParams(coeffs=coeffs, r0=m.r0, sigma_m=sm)
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
    inc = build_geometry(cfg, "decay")
    prof = build_profile(cfg, "decay")
    num = _numerics(cfg)
    sect = cfg.get("decay", {})
    h = _H_CHOICES[sect.get("h", "x1")]
    radii = sect.get("radii", [5.0, 10.0])
    expo = decay_exponent(inc, prof, h, radii, n=num["nodes"])
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
    ap = argparse.ArgumentParser(prog="neutral-lab",
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


def load_config(args) -> dict:
    """The --config file's config with the command-line flags overlaid (flags win)."""
    cfg = _json_object("@" + args.config, "config") if args.config else {}
    validate_config(cfg)
    geo = cfg.setdefault("geometry", {})
    if args.map:
        # the map is a geometry.laurent section: a stray key, 'type' too, is refused
        m = _json_object(args.map, "--map")
        _check_keys(m, _GEOMETRY["laurent"], "geometry")
        geo.clear()
        geo.update(m, type="laurent")
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
    """Run one command and return its exit code (see the module docstring)."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        # argparse has printed the help (code 0) or the usage error (code 2)
        return 1 if e.code else 0
    try:
        if args.seed is not None and args.seed < 0:
            raise ValidationError(f"--seed must be non-negative, got {args.seed}")
        cfg = load_config(args)
        result, csv_files = _COMMANDS[args.command](cfg, args.seed)
        out = _out_dir(args.out)
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
        _emit(report, out, csv_files)
    except BrokenPipeError:
        # stdout was closed early (e.g. `| head`): exit as if killed by
        # SIGPIPE, and point stdout at devnull so the exit flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return 0


if __name__ == "__main__":
    sys.exit(main())

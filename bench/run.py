"""Benchmark for neutral-lab: three workloads, end-to-end and per-layer metrics.

Run from the root of a source checkout:

    python3 bench/run.py --workload design-verify --seed 1 --seconds 15 --trace 0

Each workload is a closed loop: one caller, and the next operation starts
when the previous one ends. The run repeats whole rounds of operations until
--seconds have passed, checks every output, and prints as its last line one
JSON object with `correct`, `attempted`, `failed` and `metrics`. With
--trace 0 the metrics are the end-to-end ones; with --trace 1 every
operation runs traced, the middle one of each round runs once more untraced
to measure the tracing overhead, and the metrics are per layer.
--out writes the whole record, with machine information, as JSON.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_STARTS = 2  # fresh interpreters before and again after the workload
CLI_STARTS = 3  # fresh interpreters per cli figure
CHILD_TIMEOUT = 60


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("design-verify", "shape-search", "fine-solve"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="write the full record (BENCH_*.json) to this path")
    ap.add_argument("--spans", help="span CSV path for --trace 1 "
                                    "(default .bench_runs/spans-<workload>-<seed>.csv)")
    return ap.parse_args(argv)


# ------------------------------------------------------------------ machine

def _openblas():
    """Build string and thread count of every OpenBLAS loaded in this process."""
    found = []
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return found
    for path in libs:
        if not path.endswith(".so") and ".so." not in path:
            continue
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for suffix in ("64_", ""):
            for prefix in ("scipy_openblas", "openblas"):
                cfg = getattr(lib, f"{prefix}_get_config{suffix}", None)
                nth = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if cfg is not None and nth is not None:
                    cfg.restype = ctypes.c_char_p
                    nth.restype = ctypes.c_int
                    entry["config"] = cfg().decode()
                    entry["threads"] = int(nth())
                    break
            if "config" in entry:
                break
        found.append(entry)
    return found


def machine_info() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas(),
        "blas_threads_env": {k: os.environ[k] for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
    }


# ------------------------------------------------------- fresh interpreters

def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _timed_child(cmd: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    """Wall time of one child process; children run one at a time."""
    t0 = perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, env=_child_env(),
                          cwd=ROOT, timeout=CHILD_TIMEOUT)
    return perf_counter() - t0, proc


def setup_seconds() -> list[float]:
    """Fresh-interpreter `import neutral_lab` wall times."""
    out = []
    for _ in range(SETUP_STARTS):
        dt, proc = _timed_child([sys.executable, "-c", "import neutral_lab"])
        if proc.returncode != 0:
            raise RuntimeError(f"import neutral_lab failed: {proc.stderr.strip()}")
        out.append(dt)
    return out


def cli_layer(problems: list[str]) -> dict:
    """Cold start of `python -m neutral_lab.cli disk` and scipy.optimize import time."""
    cold = []
    for _ in range(CLI_STARTS):
        dt, proc = _timed_child([sys.executable, "-m", "neutral_lab.cli", "disk",
                                 "--sc", "5", "--ss", "1", "--f", "0.5"])
        cold.append(dt)
        try:
            got = json.loads(proc.stdout)["result"]["sigma_m"]
        except (ValueError, KeyError, TypeError):
            got = None
        # concentric disks at f = 1/2, cores 5 and shell 1: (6 + 2) / (6 - 2) = 2
        if proc.returncode != 0 or got is None or abs(got - 2.0) > 1e-12:
            problems.append(f"cli disk: exit {proc.returncode}, sigma_m {got}")
    scipy_opt = []
    for _ in range(CLI_STARTS):
        _, proc = _timed_child([sys.executable, "-X", "importtime", "-c", "import neutral_lab"])
        micro = 0
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() == "scipy.optimize":
                micro = int(parts[1])
        scipy_opt.append(micro * 1e-6)
    return {
        "cli.cold_start_s": statistics.median(cold),
        "cli.import_scipy_optimize_s": statistics.median(scipy_opt),
    }


# ----------------------------------------------------------------- the loop

@dataclass(slots=True)
class Sample:
    label: str
    seconds: float
    status: str  # "ok", "fault" (the expected program fault) or "error"
    round: int  # -1 for the prologue
    op: int


def _execute(op, problems: list[str]):
    """Time op.run(); returns (seconds, status, result)."""
    t0 = perf_counter()
    try:
        result = op.run()
    except Exception as exc:  # every failure is counted, expected or not
        dt = perf_counter() - t0
        if op.expected_fault is not None and op.expected_fault(exc):
            return dt, "fault", None
        problems.append(f"{op.label}: unexpected {type(exc).__name__}: {exc}")
        return dt, "error", None
    return perf_counter() - t0, "ok", result


def _check(op, result, problems: list[str]) -> None:
    for msg in op.check(result):
        problems.append(f"{op.label}: {msg}")


def run_workload(workload, seconds: float, tracer=None):
    """Whole rounds until `seconds` have passed.

    Returns the samples, the (traced, untraced) seconds of repeated
    operations, and the problems found. With a tracer every operation runs
    traced (its op id is its sample index), and the middle operation of each
    round runs once more untraced on the same input, for the overhead; the
    middle one, because the first operation of a run also pays for warm-up.
    """
    samples: list[Sample] = []
    repeats: list[tuple[float, float]] = []
    problems: list[str] = []
    t_start = perf_counter()

    def do(op, rnd, repeat):
        tracer_on = tracer is not None
        if tracer_on:
            tracer.op = len(samples)
            tracer.enabled = True
        try:
            dt, status, result = _execute(op, problems)
        finally:
            if tracer_on:
                tracer.enabled = False
        samples.append(Sample(op.label, dt, status, rnd, len(samples)))
        if status == "ok":
            _check(op, result, problems)
        if tracer_on and repeat and status == "ok":
            dt_plain, status, result = _execute(op, problems)
            if status == "ok":
                repeats.append((dt, dt_plain))
                _check(op, result, problems)

    for op in workload.prologue():
        do(op, -1, False)
    k = 0
    while k == 0 or perf_counter() - t_start < seconds:
        ops = workload.round(k)
        for i, op in enumerate(ops):
            do(op, k, i == len(ops) // 2)
        k += 1
    return samples, repeats, problems


def op_stats(samples: list[Sample]) -> dict:
    """op_s, ops_per_s and the tail percentile over the rounds' operations."""
    rounds = [s for s in samples if s.round >= 0]
    ok = sorted(s.seconds for s in rounds if s.status == "ok")
    busy = sum(s.seconds for s in rounds)
    out = {
        "op_s": statistics.median(ok) if ok else math.nan,
        "ops_per_s": len(ok) / busy if busy > 0 else math.nan,
    }
    if len(ok) >= 40:
        # highest whole percentile with at least ten samples beyond it
        p = math.floor(100.0 * (1.0 - 10.0 / len(ok)))
        value = statistics.quantiles(ok, n=100, method="inclusive")[p - 1]
        out["tail"] = {"percentile": p, "op_s": value, "samples": len(ok),
                       "beyond": sum(1 for v in ok if v > value)}
    return out


# ------------------------------------------------------------- per layer

SELF_SPANS = [
    "geometry.confocal_pair", "geometry.laurent_domain", "geometry.discretize",
    "layerpot.single_layer_grad_near", "layerpot.single_layer_off",
    "layerpot.single_layer_grad_off", "layerpot.single_layer_on_boundary",
    "layerpot.kstar_matrix", "layerpot.normal_derivative_coupling",
    "transmission.solve_both_axes", "transmission.neutrality_report", "transmission.eval_u",
    "designer.confocal_design", "designer.check_area_relation",
    "newtonian.combined_identity_check", "newtonian.free_bvp_residual",
    "laurent.classify",
    "shapesearch.search", "shapesearch.objective", "shapesearch.residuals",
]
CALL_SPANS = [
    "geometry.laurent_domain", "layerpot.single_layer_grad_near", "transmission.solve_both_axes",
]


def per_layer(records, samples: list[Sample]) -> dict:
    """Per-operation layer metrics from the spans `records` of a traced run.

    Self times are means over every traced round operation; the prologue
    (shape-search's frozen-shape study) is left out, as in op_s. Counts come from
    the first round alone, which holds the same operations in every run with
    the same seed, so they repeat exactly. Dense-solve figures are computed
    from N: each solve_both_axes call builds two (2N)^2 float64 system
    matrices and LU-factors both, (2/3)(2N)^3 flops each.
    """
    rounds = {s.op for s in samples if s.round >= 0}
    first = {s.op for s in samples if s.round == 0}
    in_first = [s for s in records if s[4] in first]
    n_ops, n_first = len(rounds), len(first)

    selfs = spans.self_times(records, rounds)
    out = {f"{name}.self_s": selfs.get(name, 0.0) / n_ops for name in SELF_SPANS}
    calls = spans.call_counts(in_first)
    for name in CALL_SPANS:
        out[f"{name}.calls"] = calls.get(name, 0) / n_first
    searches = sum(1 for s in samples if s.op in first and s.label.startswith("search"))
    out["shapesearch.objective.calls"] = (
        calls.get("shapesearch.objective", 0) / searches if searches else 0.0
    )
    evals = [s[5] for s in in_first if s[0] == "shapesearch.objective"]
    out["shapesearch.useful_eval_ratio"] = sum(evals) / len(evals) if evals else 0.0
    sizes = [s[5] for s in in_first if s[0] == "transmission.solve_both_axes"]
    out["transmission.dense_gflop"] = sum(2 * (2 / 3) * (2 * n) ** 3 for n in sizes) / 1e9 / n_first
    out["transmission.dense_mb"] = sum(2 * 8 * (2 * n) ** 2 for n in sizes) / 1e6 / n_first
    return out


UNITS = {"self_s": "s", "calls": "count", "dense_gflop": "GFLOP", "dense_mb": "MB",
         "useful_eval_ratio": "ratio", "cold_start_s": "s", "import_scipy_optimize_s": "s"}


def unit_of(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    raise KeyError(name)


# ------------------------------------------------------------------- main

def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "neutral_lab" / "__init__.py").is_file():
        print(f"error: no neutral_lab package under {SRC}", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import numpy as np

    import workloads

    workload = workloads.WORKLOADS[args.workload](np.random.default_rng(args.seed))
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine_info()}
    problems: list[str] = []

    if args.trace == 0:
        # half the starts before the workload and half after, so that a
        # passing load spike on the machine moves the median less
        setup = setup_seconds()
        samples, _, run_problems = run_workload(workload, args.seconds)
        setup += setup_seconds()
        stats = op_stats(samples)
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "op_s": (stats["op_s"], "s"),
            "ops_per_s": (stats["ops_per_s"], "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        record["setup_samples_s"] = setup
    else:
        tracer = spans.Tracer()
        cli = cli_layer(problems)
        undo = tracer.install()
        try:
            samples, repeats, run_problems = run_workload(workload, args.seconds, tracer)
        finally:
            undo()
        stats = {}  # timings of traced operations are not end-to-end figures
        layers = per_layer(tracer.spans, samples)
        layers.update(cli)
        metrics = {name: (value, unit_of(name)) for name, value in layers.items()}
        round_ops = [s for s in samples if s.round >= 0]
        mean_op = sum(s.seconds for s in round_ops) / len(round_ops)
        covered = sum(v for k, v in layers.items() if k.endswith(".self_s"))
        traced_s = statistics.median(t for t, _ in repeats) if repeats else math.nan
        plain_s = statistics.median(u for _, u in repeats) if repeats else math.nan
        record["trace_summary"] = {
            "repeated_ops": len(repeats),
            "traced_op_s": traced_s,
            "untraced_op_s": plain_s,
            "overhead_s": traced_s - plain_s,
            "mean_traced_op_s": mean_op,
            "coverage": covered / mean_op,
            "spans": len(tracer.spans),
        }
        spans_path = Path(args.spans) if args.spans else (
            ROOT / ".bench_runs" / f"spans-{args.workload}-{args.seed}.csv")
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.write_csv(spans_path)
        record["spans_path"] = str(spans_path)
    problems += run_problems

    attempted = len(samples)
    failed = sum(1 for s in samples if s.status != "ok")
    correct = not problems
    record.update({
        "correct": correct, "attempted": attempted, "failed": failed, "problems": problems,
        "ops": [{"label": s.label, "seconds": s.seconds, "status": s.status, "round": s.round}
                for s in samples],
        # no successful operation leaves a timing undefined: null, not NaN
        "metrics": {k: {"value": v if math.isfinite(v) else None, "unit": u}
                    for k, (v, u) in metrics.items()},
    })
    if "tail" in stats:
        record["op_s_tail"] = stats["tail"]

    report(record)
    for msg in problems:
        print(f"check failed: {msg}", file=sys.stderr)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


def report(record: dict) -> None:
    """Human-readable lines ahead of the final JSON line."""
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"attempted {record['attempted']}  failed {record['failed']}  "
          f"correct {record['correct']}")
    tail = record.get("op_s_tail")
    if tail:
        print(f"  op_s p{tail['percentile']} = {tail['op_s']:.6f} s "
              f"({tail['samples']} samples, {tail['beyond']} beyond)")
    summary = record.get("trace_summary")
    if summary:
        mean_op = summary["mean_traced_op_s"]
        print(f"  {summary['repeated_ops']} operations repeated untraced: median "
              f"{summary['traced_op_s']:.6f} s traced, {summary['untraced_op_s']:.6f} s untraced, "
              f"overhead {summary['overhead_s']:+.6f} s; spans cover "
              f"{100 * summary['coverage']:.1f}% of the mean traced op ({mean_op:.6f} s)")
    for name, m in record["metrics"].items():
        if m["value"] is None:
            print(f"  {name:45s} {'none':>14s} {m['unit']}")
            continue
        share = ""
        if summary and name.endswith(".self_s"):
            share = f"  {100 * m['value'] / summary['mean_traced_op_s']:5.1f}%"
        print(f"  {name:45s} {m['value']:14.6g} {m['unit']}{share}")


if __name__ == "__main__":
    sys.exit(main())

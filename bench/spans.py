"""In-memory spans around the public entry points of `neutral_lab`.

Each entry point is wrapped where its caller looks it up (a module
attribute), so `shapesearch.laurent_domain` and `geometry.laurent_domain`
are patched separately and both report as the span `geometry.laurent_domain`.
Nothing in the package changes; `Tracer.install` returns an undo function
that restores every attribute it replaced.
"""

from __future__ import annotations

import csv
import functools
import importlib
from collections import Counter, defaultdict
from time import perf_counter

# (module the caller looks the name up in, attribute, span name). The span
# name is the module that defines the function, so a layer keeps one name
# whichever caller reached it.
ENTRY_POINTS = [
    # entry points the benchmark itself calls
    ("geometry", "confocal_pair", "geometry.confocal_pair"),
    ("designer", "confocal_design", "designer.confocal_design"),
    ("designer", "check_area_relation", "designer.check_area_relation"),
    ("transmission", "neutrality_report", "transmission.neutrality_report"),
    ("transmission", "solve_both_axes", "transmission.solve_both_axes"),
    ("transmission", "eval_u", "transmission.eval_u"),
    ("newtonian", "combined_identity_check", "newtonian.combined_identity_check"),
    ("newtonian", "free_bvp_residual", "newtonian.free_bvp_residual"),
    ("laurent", "classify", "laurent.classify"),
    ("shapesearch", "search", "shapesearch.search"),
    ("shapesearch", "perturbation_study", "shapesearch.perturbation_study"),
    # entry points the package calls across module boundaries
    ("shapesearch", "objective", "shapesearch.objective"),
    ("shapesearch", "residuals", "shapesearch.residuals"),
    ("shapesearch", "laurent_domain", "geometry.laurent_domain"),
    ("shapesearch", "solve_both_axes", "transmission.solve_both_axes"),
    ("shapesearch", "eval_u", "transmission.eval_u"),
    ("transmission", "discretize", "geometry.discretize"),
    ("transmission", "kstar_matrix", "layerpot.kstar_matrix"),
    ("transmission", "normal_derivative_coupling", "layerpot.normal_derivative_coupling"),
    ("transmission", "single_layer_off", "layerpot.single_layer_off"),
    ("transmission", "single_layer_grad_off", "layerpot.single_layer_grad_off"),
    ("transmission", "single_layer_grad_near", "layerpot.single_layer_grad_near"),
    ("layerpot", "discretize", "geometry.discretize"),
    ("designer", "discretize", "geometry.discretize"),
    ("newtonian", "discretize", "geometry.discretize"),
    ("newtonian", "single_layer_on_boundary", "layerpot.single_layer_on_boundary"),
]


def _note_nodes(args, kwargs, result):
    """Node count of a solve_both_axes call (its third argument, n)."""
    if "n" in kwargs:
        return int(kwargs["n"])
    if len(args) > 2:
        return int(args[2])
    return int(importlib.import_module("neutral_lab.transmission").DEFAULT_NODES)


def _note_useful(args, kwargs, result):
    """1 when an objective evaluation was not penalized, else 0."""
    return int(result < importlib.import_module("neutral_lab.shapesearch").PENALTY)


NOTES = {
    "transmission.solve_both_axes": _note_nodes,
    "shapesearch.objective": _note_useful,
}


class Tracer:
    """Collects spans (name, start, end, parent index, operation id, note)."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.enabled = False
        self.op = -1

    def wrap(self, name: str, fn):
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(idx)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                self._stack.pop()
                value = note(args, kwargs, result) if note and result is not None else None
                self.spans[idx] = (name, start, end, parent, self.op, value)

        return traced

    def install(self):
        """Patch every entry point; returns a function that undoes it."""
        saved = []
        for mod_name, attr, span in ENTRY_POINTS:
            mod = importlib.import_module(f"neutral_lab.{mod_name}")
            orig = getattr(mod, attr)
            saved.append((mod, attr, orig))
            setattr(mod, attr, self.wrap(span, orig))

        def undo():
            for mod, attr, orig in reversed(saved):
                setattr(mod, attr, orig)

        return undo

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["index", "name", "start_s", "end_s", "parent", "op", "note"])
            for i, (name, start, end, parent, op, note) in enumerate(self.spans):
                out.writerow([i, name, f"{start:.9f}", f"{end:.9f}", parent, op,
                              "" if note is None else note])


def self_times(spans, ops) -> dict[str, float]:
    """Total self time per span name over the spans of operations `ops`.

    A span's self time is its duration minus the durations of its children.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    total: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _, op, _) in enumerate(spans):
        if op in ops:
            total[name] += (end - start) - child[i]
    return dict(total)


def call_counts(spans) -> Counter:
    return Counter(span[0] for span in spans)

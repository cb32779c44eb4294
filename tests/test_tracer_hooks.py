"""The benchmark tracer patches package attributes by name; each must exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest


def _load_spans():
    """bench/spans.py, loaded by path."""
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.mark.parametrize("module,attr", [(m, a) for m, a, _ in spans.ENTRY_POINTS])
def test_entry_point_resolves(module, attr):
    mod = importlib.import_module(f"neutral_lab.{module}")
    assert callable(getattr(mod, attr, None)), f"neutral_lab.{module}.{attr} is gone"


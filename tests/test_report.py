"""Report serialization: as_dict() mirrors each report's dataclass fields."""

import dataclasses
import json

import pytest

from neutral_lab.designer import confocal_design
from neutral_lab.geometry import LaurentMap, confocal_pair
from neutral_lab.laurent import classify
from neutral_lab.newtonian import combined_identity_check, free_bvp_residual
from neutral_lab.shapesearch import PerturbationRow, SearchResult, ShapeParams
from neutral_lab.transmission import neutrality_report

DR = confocal_design(1.0, 0.2, 1.5, 5.0, 1.0)
INC = confocal_pair(1.0, 0.2, 1.5)
PARAMS = ShapeParams(coeffs={-2: 0.01, -1: 0.2, 2: -0.02}, r0=1.5, sigma_m=DR.sigma_m)

REPORTS = {
    "NeutralityReport": lambda: neutrality_report(INC, DR.profile(5.0, 1.0), n=64),
    "DesignResult": lambda: DR,
    "CombinedIdentityReport": lambda: combined_identity_check(INC, DR, n=64),
    "FreeBvpReport": lambda: free_bvp_residual(INC, DR.f, DR.shear, n=64),
    "LaurentClassification": lambda: classify(
        LaurentMap({1: 1.0, -1: 0.2, 2: 0.01}, 1.5), DR.f, DR.shear
    ),
    "ShapeParams": lambda: PARAMS,
    "SearchResult": lambda: SearchResult(
        PARAMS, 1e-3, 3, history=[1.0, 1e-3, 1e-3], improvements=[(1, 1.0, 0.02), (2, 1e-3, 0.02)]
    ),
    "PerturbationRow": lambda: PerturbationRow(0.05, True, 1e-4, 1e-5),
}


def _keys(obj) -> set:
    names = {f.name for f in dataclasses.fields(obj)} - {"history", "improvements"}
    return {"lambda" if n == "lam" else n for n in names}


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_as_dict_mirrors_fields(name):
    rep = REPORTS[name]()
    assert type(rep).__name__ == name
    d = rep.as_dict()
    assert set(d) == _keys(rep)
    for key, value in d.items():
        field = getattr(rep, "lam" if key == "lambda" else key)
        if dataclasses.is_dataclass(field):
            assert set(value) == _keys(field)
        elif isinstance(field, tuple) and field and dataclasses.is_dataclass(field[0]):
            assert all(set(v) == _keys(f) for v, f in zip(value, field))
    # tuples become lists and dict keys str, so the report survives JSON unchanged
    assert json.loads(json.dumps(d)) == d
    if name == "SearchResult":
        assert "history" not in d and "improvements" not in d

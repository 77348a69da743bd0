import json

import numpy as np
import pytest

from trunca import (
    ArchimedeanCopula,
    MarshallOlkinCopula,
    NestedArchimedeanCopula,
    SurvivalCopula,
    generator,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
    survival,
)

SPECS = [
    {"kind": "independence", "d": 3},
    {"kind": "comonotone", "d": 2},
    {"kind": "archimedean", "generator": {"family": "clayton", "theta": 2.0}, "d": 2},
    {
        "kind": "archimedean",
        "generator": {"family": "gumbel", "theta": 2.0, "outer_alpha": 0.5},
        "d": 3,
    },
    {
        "kind": "nested_archimedean",
        "root": {"family": "clayton", "theta": 2.0},
        "sectors": [
            {"generator": {"family": "clayton", "theta": 2.0}, "d": 1},
            {"generator": {"family": "clayton", "theta": 6.0}, "d": 2},
        ],
    },
    {"kind": "marshall_olkin", "alpha1": 0.2, "alpha2": 0.7},
    {
        "kind": "survival",
        "inner": {"kind": "archimedean", "generator": {"family": "gumbel", "theta": 2.0}, "d": 2},
    },
]


@pytest.mark.parametrize("spec", SPECS, ids=[s["kind"] for s in SPECS])
def test_roundtrip(spec):
    m = model_from_dict(spec)
    out = model_to_dict(m)
    assert out.pop("schema") == "trunca/1"
    assert out == spec


def test_schema_enforced():
    with pytest.raises(ValueError):
        model_from_dict({"schema": "trunca/99", "kind": "independence", "d": 2})
    # schema-less dicts load (nested inner objects do not carry one)
    assert model_from_dict({"kind": "independence", "d": 2}).d == 2


def test_unknown_kind():
    with pytest.raises(ValueError):
        model_from_dict({"kind": "gaussian", "d": 2})


def test_file_io(tmp_path):
    m = survival(ArchimedeanCopula(generator("gumbel", 2.0), 2))
    path = tmp_path / "model.json"
    save_model(m, path)
    raw = json.loads(path.read_text())
    assert raw["schema"] == "trunca/1"
    back = load_model(path)
    assert isinstance(back, SurvivalCopula)
    pts = np.random.default_rng(0).random((50, 2))
    np.testing.assert_allclose(back.cdf(pts), m.cdf(pts), atol=1e-15)


def test_types_constructed():
    assert isinstance(model_from_dict(SPECS[4]), NestedArchimedeanCopula)
    assert isinstance(model_from_dict(SPECS[5]), MarshallOlkinCopula)


CLAYTON_GEN = {"family": "clayton", "theta": 2.0}
BAD_SPECS = {
    "top-level": {"kind": "archimedean", "generator": CLAYTON_GEN, "dim": 5},
    "top-level-mo": {"kind": "marshall_olkin", "alpha1": 0.2, "alpha2": 0.7, "alpha3": 0.1},
    "sector": {
        "kind": "nested_archimedean",
        "root": CLAYTON_GEN,
        "sectors": [
            {"generator": CLAYTON_GEN, "d": 1},
            {"generator": {"family": "clayton", "theta": 6.0}, "d": 2, "theta": 6.0},
        ],
    },
    "survival-inner": {
        "kind": "survival",
        "inner": {"kind": "archimedean", "generator": CLAYTON_GEN, "d": 2, "dim": 2},
    },
}


@pytest.mark.parametrize("spec", BAD_SPECS.values(), ids=list(BAD_SPECS))
def test_unknown_fields_rejected(spec):
    with pytest.raises(ValueError, match="unknown"):
        model_from_dict(spec)

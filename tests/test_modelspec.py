import json

import numpy as np
import pytest

from trunca import (
    ArchimedeanCopula,
    MarshallOlkinCopula,
    NestedArchimedeanCopula,
    SurvivalCopula,
    generator,
    generator_to_dict,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
    survival,
    truncate_general,
)
from trunca.cli import main
from trunca.copulas import CopulaModel

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


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_specs_cover_every_kind():
    # a new model class with a kind must get a row in the schema and a spec here
    kinds = {cls.kind for cls in _subclasses(CopulaModel) if cls.kind}
    assert {s["kind"] for s in SPECS} == kinds


def test_truncation_has_no_spec():
    tc = truncate_general(model_from_dict(SPECS[2]), [0.5, 0.5])
    with pytest.raises(TypeError):
        model_to_dict(tc)


def test_derived_generators_have_no_spec():
    # only the six families and their outer powers are written; a tilted
    # generator or a truncated nest's sector generator is derived
    nested = model_from_dict(SPECS[4])
    tc = truncate_general(nested, [0.2, 0.5, 0.5])
    derived = [generator("clayton", 2.0).tilt(0.5), generator("gumbel", 2.0, 0.5).tilt(1.0),
               tc.model.root, *(g for g, _ in tc.model.sectors)]
    for g in derived:
        with pytest.raises(ValueError, match="derived .* no JSON form"):
            generator_to_dict(g)
    with pytest.raises(ValueError, match="derived .* no JSON form"):
        model_to_dict(tc.model)


# where a dimension sits: a fixed point's d, an Archimedean model's d, a sector's d
def _with_d(where, d):
    if where == "independence":
        return {"kind": "independence", "d": d}
    if where == "archimedean":
        return {"kind": "archimedean", "generator": CLAYTON_GEN, "d": d}
    return {
        "kind": "nested_archimedean",
        "root": CLAYTON_GEN,
        "sectors": [{"generator": CLAYTON_GEN, "d": 1}, {"generator": CLAYTON_GEN, "d": d}],
    }


DIM_SITES = ["independence", "archimedean", "sector"]


@pytest.mark.parametrize("where", DIM_SITES)
@pytest.mark.parametrize("d", [3, 3.0])
def test_whole_dimension_loads(where, d):
    m = model_from_dict(_with_d(where, d))
    assert m.d == (4 if where == "sector" else 3)
    assert type(m.d) is int


@pytest.mark.parametrize("where", DIM_SITES)
@pytest.mark.parametrize("d", [2.9, 3.7, 1.9, "3", True], ids=repr)
def test_dimension_must_be_whole(where, d, tmp_path, capsys):
    spec = _with_d(where, d)
    with pytest.raises(ValueError, match="whole number"):
        model_from_dict(spec)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(spec))
    assert main(["cdf", "--model", str(path), "--u", ",".join(["0.5"] * 4)]) == 2
    assert "whole number" in capsys.readouterr().err


def test_missing_generator_is_config_error(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"schema": "trunca/1", "kind": "archimedean", "d": 2}))
    assert main(["cdf", "--model", str(path), "--u", "0.5,0.5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'generator'" in err

"""JSON (de)serialization of copula models.

The on-disk schema is versioned through a top-level ``"schema": "trunca/1"``
field.  Model objects mirror the model classes::

    {"schema": "trunca/1", "kind": "archimedean",
     "generator": {"family": "clayton", "theta": 2.0}, "d": 2}

    {"kind": "marshall_olkin", "alpha1": 0.2, "alpha2": 0.7}

    {"kind": "nested_archimedean", "root": {...generator...},
     "sectors": [{"generator": {...}, "d": 2}, ...]}

    {"kind": "survival", "inner": {...model...}}

Nested inner objects do not repeat the schema field.
"""

from __future__ import annotations

import json

from .copulas import (
    ArchimedeanCopula,
    ComonotoneCopula,
    IndependenceCopula,
    MarshallOlkinCopula,
    NestedArchimedeanCopula,
    SurvivalCopula,
)
from .generators import generator_from_dict, generator_to_dict

__all__ = ["SCHEMA", "model_to_dict", "model_from_dict", "load_model", "save_model"]

SCHEMA = "trunca/1"


def model_to_dict(model, schema=True):
    """Plain-JSON dictionary for a model; ``schema=True`` stamps the version."""
    if isinstance(model, IndependenceCopula):
        out = {"kind": "independence", "d": model.d}
    elif isinstance(model, ComonotoneCopula):
        out = {"kind": "comonotone", "d": model.d}
    elif isinstance(model, ArchimedeanCopula):
        out = {
            "kind": "archimedean",
            "generator": generator_to_dict(model.generator),
            "d": model.d,
        }
    elif isinstance(model, NestedArchimedeanCopula):
        out = {
            "kind": "nested_archimedean",
            "root": generator_to_dict(model.root),
            "sectors": [
                {"generator": generator_to_dict(g), "d": ds} for g, ds in model.sectors
            ],
        }
    elif isinstance(model, MarshallOlkinCopula):
        out = {"kind": "marshall_olkin", "alpha1": model.alpha1, "alpha2": model.alpha2}
    elif isinstance(model, SurvivalCopula):
        out = {"kind": "survival", "inner": model_to_dict(model.inner, schema=False)}
    else:
        raise TypeError(f"cannot serialize model of type {type(model).__name__}")
    if schema:
        out = {"schema": SCHEMA, **out}
    return out


def _no_extra(spec, what):
    if spec:
        raise ValueError(f"unknown {what} fields: {sorted(spec)}")


def _sector_from_dict(spec):
    spec = dict(spec)
    sector = (generator_from_dict(spec.pop("generator")), int(spec.pop("d")))
    _no_extra(spec, "sector")
    return sector


def model_from_dict(spec):
    """Build a model from its dictionary form (inverse of model_to_dict).

    Unknown fields are rejected at every level.
    """
    spec = dict(spec)
    schema = spec.pop("schema", None)
    if schema is not None and schema != SCHEMA:
        raise ValueError(f"unsupported model schema {schema!r} (expected {SCHEMA!r})")
    kind = spec.pop("kind", None)
    if kind is None:
        raise ValueError("model spec requires a 'kind' field")
    if kind == "independence":
        model = IndependenceCopula(d=spec.pop("d", 2))
    elif kind == "comonotone":
        model = ComonotoneCopula(d=spec.pop("d", 2))
    elif kind == "archimedean":
        gen = generator_from_dict(spec.pop("generator"))
        model = ArchimedeanCopula(gen, d=spec.pop("d", 2))
    elif kind == "nested_archimedean":
        root = generator_from_dict(spec.pop("root"))
        model = NestedArchimedeanCopula(root, [_sector_from_dict(s) for s in spec.pop("sectors")])
    elif kind == "marshall_olkin":
        model = MarshallOlkinCopula(spec.pop("alpha1"), spec.pop("alpha2"))
    elif kind == "survival":
        model = SurvivalCopula(model_from_dict(spec.pop("inner")))
    else:
        raise ValueError(f"unknown model kind {kind!r}")
    _no_extra(spec, "model")
    return model


def load_model(path):
    """Read a model from a JSON file."""
    with open(path, encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))


def save_model(model, path):
    """Write a model to a JSON file (with the schema stamp)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh, indent=2, sort_keys=True)
        fh.write("\n")

"""JSON (de)serialization of copula models and their generators.

The on-disk schema is versioned through a top-level ``"schema": "trunca/1"``
field.  The kind table ``_KINDS`` is the schema: each row maps a model
class's ``kind`` to the class and the fields of its JSON object, each of
which is also the constructor argument and the attribute of that name.
``_CODECS`` converts the fields that are not plain numbers::

    {"schema": "trunca/1", "kind": "archimedean",
     "generator": {"family": "clayton", "theta": 2.0}, "d": 2}

    {"kind": "marshall_olkin", "alpha1": 0.2, "alpha2": 0.7}

    {"kind": "nested_archimedean", "root": {...generator...},
     "sectors": [{"generator": {...}, "d": 2}, ...]}

    {"kind": "survival", "inner": {...model...}}

Nested inner objects do not repeat the schema field.  The fields are
written out here, not read from the constructors, so that renaming a
constructor argument cannot change the file format.
"""

from __future__ import annotations

import json

from .copulas import (ArchimedeanCopula, ComonotoneCopula, IndependenceCopula,
                      MarshallOlkinCopula, NestedArchimedeanCopula, SurvivalCopula)
from .generators import _FAMILY_CLASSES, OuterPowerGenerator, generator

__all__ = ["SCHEMA", "model_to_dict", "model_from_dict", "load_model", "save_model",
           "generator_to_dict", "generator_from_dict"]

SCHEMA = "trunca/1"

_KINDS = {cls.kind: (cls, fields) for cls, fields in [
    (IndependenceCopula, ("d",)),
    (ComonotoneCopula, ("d",)),
    (ArchimedeanCopula, ("generator", "d")),
    (NestedArchimedeanCopula, ("root", "sectors")),
    (MarshallOlkinCopula, ("alpha1", "alpha2")),
    (SurvivalCopula, ("inner",)),
]}


def _no_extra(spec, what):
    if spec:
        raise ValueError(f"unknown {what} fields: {sorted(spec)}")


def generator_to_dict(g):
    """JSON form, e.g. {"family": "clayton", "theta": 2.0} (+ "outer_alpha"); derived ones raise."""
    if isinstance(g, OuterPowerGenerator):
        out = generator_to_dict(g.base)
        out["outer_alpha"] = g.alpha
        return out
    if g.family not in _FAMILY_CLASSES:
        raise ValueError(f"derived generator {g!r} has no JSON form")
    out = {"family": g.family}
    if g.theta is not None:
        out["theta"] = g.theta
    return out


def generator_from_dict(spec):
    """Inverse of :func:`generator_to_dict`; rejects unknown fields."""
    spec = dict(spec)
    family = spec.pop("family", None)
    if family is None:
        raise ValueError("generator spec requires a 'family' field")
    theta = spec.pop("theta", None)
    outer_alpha = spec.pop("outer_alpha", None)
    _no_extra(spec, "generator")
    return generator(family, theta, outer_alpha)


def _sector_from_dict(spec):
    spec = dict(spec)
    sector = (generator_from_dict(spec.pop("generator")), spec.pop("d"))
    _no_extra(spec, "sector")
    return sector


def model_to_dict(model, schema=True):
    """Plain-JSON dictionary for a model; ``schema=True`` stamps the version."""
    cls, fields = _KINDS.get(getattr(model, "kind", None), (None, ()))
    if type(model) is not cls:
        raise TypeError(f"cannot serialize model of type {type(model).__name__}")
    out = {"kind": model.kind}
    for f in fields:
        value = getattr(model, f)
        out[f] = _CODECS[f][0](value) if f in _CODECS else value
    if schema:
        out = {"schema": SCHEMA, **out}
    return out


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
    if type(kind) is not str or kind not in _KINDS:
        raise ValueError(f"unknown model kind {kind!r}")
    cls, fields = _KINDS[kind]
    _no_extra(spec.keys() - set(fields), "model")
    return cls(**{f: _CODECS[f][1](v) if f in _CODECS else v for f, v in spec.items()})


# field: (to JSON, from JSON), for the fields that are not plain numbers
_CODECS = {
    "generator": (generator_to_dict, generator_from_dict),
    "root": (generator_to_dict, generator_from_dict),
    "sectors": (
        lambda sectors: [{"generator": generator_to_dict(g), "d": ds} for g, ds in sectors],
        lambda specs: [_sector_from_dict(s) for s in specs],
    ),
    "inner": (lambda inner: model_to_dict(inner, schema=False), model_from_dict),
}


def load_model(path):
    """Read a model from a JSON file."""
    with open(path, encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))


def save_model(model, path):
    """Write a model to a JSON file (with the schema stamp)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh, indent=2, sort_keys=True)
        fh.write("\n")

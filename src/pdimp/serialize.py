"""Versioned JSON round trips for fitted models.

Every document carries ``format`` (currently 1) and a ``kind`` tag; an
expression model serializes as its source text plus the schema it was
bound to. Loading validates the whole document against its schema, so a
malformed file fails with ParameterError instead of later, mid-analysis.

A tree document nests each split's ``left`` and ``right`` children. Loading
walks it a level at a time into the level-order node arrays of
``trees._FlatForest``; saving builds it from those arrays, last slot first,
so that both children exist before their parent. Neither recurses.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .data import FeatureSchema, write_json
from .errors import ParameterError
from .expressions import ExpressionModel, parse_expression
from .models import KnnModel, LinearModel, PredictionModel
from .trees import BaggedTreesModel, _FlatForest

FORMAT = 1


def _schema_to_json(schema) -> list[dict]:
    return [f.to_json() for f in schema]


def _field(doc, key: str, types, where: str):
    """``doc[key]``, required to be an instance of ``types`` (never a bool)."""
    if not isinstance(doc, dict) or key not in doc:
        raise ParameterError(f"{where} is missing {key!r}")
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, types):
        raise ParameterError(f"{where} has a malformed {key!r}: {value!r}")
    return value


def _floats(doc, key: str, where: str, ndim: int = 0):
    """``doc[key]`` as finite float64: a number when ``ndim`` is 0, else an
    array of ``ndim`` dimensions. Every number a document holds is read
    through here, so an integer beyond the float64 range, ``NaN`` and
    ``Infinity`` raise ParameterError too; a fitted model holds none."""
    value = _field(doc, key, list if ndim else (int, float), where)
    try:
        out = np.asarray(value, dtype=np.float64) if ndim else float(value)
    except (TypeError, ValueError, OverflowError):
        kind = "an array of float64 numbers" if ndim else "a float64 number"
        raise ParameterError(f"{where} field {key!r} is not {kind}") from None
    if ndim and out.ndim != ndim:
        raise ParameterError(f"{where} field {key!r} must be {ndim}-dimensional")
    if not (np.isfinite(out).all() if ndim else math.isfinite(out)):
        raise ParameterError(f"{where} field {key!r} holds a non-finite number")
    return out


def _schema_from_json(docs: list) -> tuple[FeatureSchema, ...]:
    schema = []
    for doc in docs:
        name = _field(doc, "name", str, "schema entry")
        kind = _field(doc, "kind", str, "schema entry")
        levels = doc.get("levels")
        if levels is not None and not (
            isinstance(levels, list) and all(isinstance(v, str) for v in levels)
        ):
            raise ParameterError(f"schema entry {name!r} has malformed levels")
        schema.append(FeatureSchema(name, kind, None if levels is None else tuple(levels)))
    return tuple(schema)


def _trees_to_json(model: BaggedTreesModel) -> list[dict]:
    """Each tree as nested node documents, built from the last slot back."""
    flat, schema = model._flat, model._feature_schema
    docs = [None] * len(flat.value)
    for i in reversed(range(len(docs))):
        value = float(flat.value[i])
        if not flat.internal[i]:
            docs[i] = {"value": value}
            continue
        j, left = int(flat.feature[i]), int(flat.child[i])
        doc = docs[i] = {"feature": j, "value": value,
                         "left": docs[left], "right": docs[left + 1]}
        if flat.cat_row[i] < 0:
            doc["threshold"] = float(flat.threshold[i])
        else:
            n_levels = len(schema[j].levels)
            mask = flat.cat_masks[flat.cat_row[i], :n_levels]
            doc["left_levels"] = [int(v) for v in np.flatnonzero(mask)]
            doc["n_levels"] = n_levels
    return [docs[r] for r in flat.root]


def _tree_node(doc, schema):
    """A tree node's (value, feature, split, children) for ``_FlatForest``,
    checked against ``schema``: a threshold splits a continuous feature, a
    level mask over the full level table splits a categorical one."""
    where = "tree node"
    if not isinstance(doc, dict):
        raise ParameterError(f"{where} must be a JSON object, got {doc!r}")
    if "feature" not in doc:
        return _floats(doc, "value", where), -1, None, ()
    j = _field(doc, "feature", int, where)
    if not 0 <= j < len(schema):
        raise ParameterError(f"tree node splits on feature {j}; the schema has {len(schema)}")
    feat = schema[j]
    value = _floats(doc, "value", where) if "value" in doc else 0.0
    if feat.is_continuous:
        if "left_levels" in doc:
            raise ParameterError(f"continuous feature {feat.name!r} cannot split on a level mask")
        split = _floats(doc, "threshold", where)
    else:
        if "threshold" in doc:
            raise ParameterError(f"categorical feature {feat.name!r} cannot split on a threshold")
        n_levels = _field(doc, "n_levels", int, where)
        if n_levels != len(feat.levels):
            raise ParameterError(
                f"tree node mask covers {n_levels} levels; feature {feat.name!r} "
                f"has {len(feat.levels)}"
            )
        left = _field(doc, "left_levels", list, where)
        if not all(isinstance(i, int) and not isinstance(i, bool) and 0 <= i < n_levels
                   for i in left):
            raise ParameterError(f"tree node has malformed left_levels: {left!r}")
        split = np.zeros(n_levels, dtype=bool)
        split[left] = True
    return value, j, split, (_field(doc, "left", dict, where), _field(doc, "right", dict, where))


def model_to_json(model: PredictionModel) -> dict:
    if isinstance(model, LinearModel):
        return {
            "format": FORMAT,
            "kind": "linear",
            "schema": _schema_to_json(model._feature_schema),
            "intercept": model.intercept,
            "coefficients": model.coefficients,
        }
    if isinstance(model, KnnModel):
        return {
            "format": FORMAT,
            "kind": "knn",
            "schema": _schema_to_json(model._feature_schema),
            "k": model.k,
            "train": model.train.tolist(),
            "targets": model.targets.tolist(),
            "scales": model.scales.tolist(),
        }
    if isinstance(model, BaggedTreesModel):
        return {
            "format": FORMAT,
            "kind": "bagged_trees",
            "schema": _schema_to_json(model._feature_schema),
            "n_trees": model.n_trees,
            "max_depth": model.max_depth,
            "min_leaf": model.min_leaf,
            "seed": model.seed,
            "trees": _trees_to_json(model),
        }
    if isinstance(model, ExpressionModel):
        return {
            "format": FORMAT,
            "kind": "expression",
            "schema": _schema_to_json(model._feature_schema),
            "source": model.source,
        }
    raise ParameterError(f"{type(model).__name__} does not serialize to JSON")


def model_from_json(doc: dict) -> PredictionModel:
    """Rebuild a model; a malformed document raises ParameterError."""
    if not isinstance(doc, dict):
        raise ParameterError("a model document must be a JSON object")
    if doc.get("format") != FORMAT:
        raise ParameterError(f"unsupported model document format {doc.get('format')!r}")
    kind = doc.get("kind")
    where = "model document"
    schema = _schema_from_json(_field(doc, "schema", list, where))
    if kind == "linear":
        coefficients = _field(doc, "coefficients", dict, where)
        coefficients = {key: _floats(coefficients, key, "coefficients") for key in coefficients}
        return LinearModel(_floats(doc, "intercept", where), coefficients, schema)
    if kind == "knn":
        train = _floats(doc, "train", where, ndim=2)
        targets = _floats(doc, "targets", where, ndim=1)
        scales = _floats(doc, "scales", where, ndim=1)
        if train.shape != (targets.size, len(schema)) or scales.size != len(schema):
            raise ParameterError(
                f"k-NN arrays do not match: train {train.shape}, targets {targets.shape}, "
                f"scales {scales.shape} for {len(schema)} features"
            )
        return KnnModel(_field(doc, "k", int, where), schema, train, targets, scales)
    if kind == "bagged_trees":
        trees = _field(doc, "trees", list, where)
        n_trees, max_depth, min_leaf, seed = (
            _field(doc, key, int, where) for key in ("n_trees", "max_depth", "min_leaf", "seed")
        )
        if not trees:
            raise ParameterError("bagged_trees document holds no trees")
        if n_trees != len(trees):
            raise ParameterError(f"n_trees is {n_trees} but the document holds {len(trees)} trees")
        forest = _FlatForest(schema, trees, lambda doc, _: _tree_node(doc, schema))
        return BaggedTreesModel(schema, forest, n_trees, max_depth, min_leaf, seed)
    if kind == "expression":
        return parse_expression(_field(doc, "source", str, where), schema)
    raise ParameterError(f"unknown model kind {kind!r}")


def save_model(model: PredictionModel, path) -> None:
    write_json(path, model_to_json(model))


def load_model(path) -> PredictionModel:
    with open(Path(path), "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # bad JSON or bad UTF-8
            raise ParameterError(f"{path} is not a JSON model document: {exc}") from None
        except RecursionError:
            raise ParameterError(f"{path} nests too deeply to be a model document") from None
    return model_from_json(doc)

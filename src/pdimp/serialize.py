"""Versioned JSON round trips for fitted models.

Every document carries ``format`` (currently 1) and a ``kind`` tag; an
expression model serializes as its source text plus the schema it was
bound to. Loading validates the whole document against its schema, so a
malformed file fails with ParameterError instead of later, mid-analysis.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .data import FeatureSchema, write_json
from .errors import ParameterError
from .expressions import ExpressionModel, parse_expression
from .models import KnnModel, LinearModel, PredictionModel
from .trees import BaggedTreesModel, _Node

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


def _array(doc, key: str, ndim: int, where: str) -> np.ndarray:
    try:
        value = np.asarray(_field(doc, key, list, where), dtype=np.float64)
    except (TypeError, ValueError):
        raise ParameterError(f"{where} field {key!r} is not a numeric array") from None
    if value.ndim != ndim:
        raise ParameterError(f"{where} field {key!r} must be {ndim}-dimensional")
    return value


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


def _node_to_json(node: _Node) -> dict:
    if node.is_leaf:
        return {"value": node.value}
    doc = {
        "feature": node.feature,
        "value": node.value,
        "left": _node_to_json(node.left),
        "right": _node_to_json(node.right),
    }
    if node.left_levels is None:
        doc["threshold"] = node.threshold
    else:
        doc["left_levels"] = [int(i) for i in np.flatnonzero(node.left_levels)]
        doc["n_levels"] = int(node.left_levels.size)
    return doc


def _node_from_json(doc, schema) -> _Node:
    """Tree node, checked against ``schema``: a threshold splits a continuous
    feature, a level mask over the full level table splits a categorical one."""
    where = "tree node"
    if not isinstance(doc, dict):
        raise ParameterError(f"{where} must be a JSON object, got {doc!r}")
    if "feature" not in doc:
        return _Node(value=_field(doc, "value", (int, float), where))
    j = _field(doc, "feature", int, where)
    if not 0 <= j < len(schema):
        raise ParameterError(f"tree node splits on feature {j}; the schema has {len(schema)}")
    feat = schema[j]
    value = _field(doc, "value", (int, float), where) if "value" in doc else 0.0
    node = _Node(feature=j, value=value)
    if feat.is_continuous:
        if "left_levels" in doc:
            raise ParameterError(f"continuous feature {feat.name!r} cannot split on a level mask")
        node.threshold = _field(doc, "threshold", (int, float), where)
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
        node.left_levels = np.zeros(n_levels, dtype=bool)
        node.left_levels[left] = True
    node.left = _node_from_json(_field(doc, "left", dict, where), schema)
    node.right = _node_from_json(_field(doc, "right", dict, where), schema)
    return node


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
            "trees": [_node_to_json(root) for root in model._roots],
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
        for key in coefficients:
            _field(coefficients, key, (int, float), "coefficients")
        return LinearModel(_field(doc, "intercept", (int, float), where), coefficients, schema)
    if kind == "knn":
        train = _array(doc, "train", 2, where)
        targets = _array(doc, "targets", 1, where)
        scales = _array(doc, "scales", 1, where)
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
        try:
            roots = [_node_from_json(tree, schema) for tree in trees]
        except RecursionError:
            raise ParameterError("a tree in the bagged_trees document nests too deeply") from None
        return BaggedTreesModel(schema, roots, n_trees, max_depth, min_leaf, seed)
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

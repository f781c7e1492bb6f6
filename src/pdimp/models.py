"""Prediction contract plus the linear and k-nearest-neighbor learners.

Every model maps a batch of rows to one float64 prediction per row,
deterministically and row-independently, which is all the partial
dependence machinery requires of it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .data import CATEGORICAL, Dataset, FeatureSchema
from .errors import ContractError, ParameterError, SingularDesignError

# query x training x feature differences held per k-NN distance block
_KNN_BLOCK_ELEMENTS = 65536


class PredictionModel:
    """Abstract scoring contract.

    Subclasses set ``_feature_schema`` (the features the model expects, in
    order) and implement ``_predict_checked``. ``concurrency_safe`` tells
    the engine whether predict may be called from several workers at once.
    """

    concurrency_safe = True
    _feature_schema: tuple[FeatureSchema, ...] = ()

    @property
    def feature_names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self._feature_schema)

    def predict(self, batch: Dataset) -> np.ndarray:
        self._validate_batch(batch)
        out = self._predict_checked(batch)
        return np.asarray(out, dtype=np.float64)

    def _predict_checked(self, batch: Dataset) -> np.ndarray:
        raise NotImplementedError

    def _validate_batch(self, batch: Dataset) -> None:
        expected = set(self.feature_names)
        got = set(batch.feature_names)
        if expected != got:
            missing = sorted(expected - got)
            extra = sorted(got - expected)
            raise ContractError(
                f"batch does not match model features (missing {missing}, extra {extra})"
            )
        for feat in self._feature_schema:
            actual = batch.schema_for(feat.name)
            if actual.kind != feat.kind:
                raise ContractError(
                    f"feature {feat.name!r} is {actual.kind} in the batch "
                    f"but {feat.kind} in the model"
                )
            if feat.kind == CATEGORICAL and actual.levels != feat.levels:
                raise ContractError(
                    f"feature {feat.name!r} has level table {list(actual.levels)} "
                    f"but the model was built with {list(feat.levels)}"
                )


class LinearModel(PredictionModel):
    """Ordinary least squares fit with reference-coded categorical features.

    ``coefficients`` is keyed by design-column name: the feature name for a
    continuous feature, ``"name=level"`` for each non-reference categorical
    level (the first level is the reference).
    """

    def __init__(self, intercept: float, coefficients: dict[str, float],
                 schema: Sequence[FeatureSchema]):
        self._feature_schema = tuple(schema)
        self.intercept = float(intercept)
        self.coefficients = dict(coefficients)
        expected = _design_column_names(self._feature_schema)
        if list(self.coefficients) != expected:
            raise ParameterError(
                f"coefficient names {list(self.coefficients)} do not match design columns {expected}"
            )
        values = [self.intercept, *self.coefficients.values()]
        if not all(np.isfinite(values)):
            raise ParameterError("linear model coefficients must be finite")

    def _predict_checked(self, batch: Dataset) -> np.ndarray:
        out = np.full(batch.n_rows, self.intercept, dtype=np.float64)
        for feat in self._feature_schema:
            col = batch.column(feat.name)
            if feat.is_continuous:
                out += self.coefficients[feat.name] * col
            else:
                for k, level in enumerate(feat.levels[1:], start=1):
                    out += self.coefficients[f"{feat.name}={level}"] * (col == k)
        return out


class KnnModel(PredictionModel):
    """k-nearest-neighbor regression under standardized Euclidean distance.

    Queries are scored in blocks of rows: a block holds at most
    ``_KNN_BLOCK_ELEMENTS`` query x training x feature differences (one
    row at a time when the training matrix alone is larger). Each row's k
    nearest training rows are picked exactly, in (distance, row) order, so
    distance ties resolve to the lower training row and every prediction is
    bit-identical to scoring the rows one by one with a stable argsort.
    """

    def __init__(self, k: int, schema: Sequence[FeatureSchema], train: np.ndarray,
                 targets: np.ndarray, scales: np.ndarray):
        self._feature_schema = tuple(schema)
        self.k = int(k)
        self.train = np.asarray(train, dtype=np.float64)
        self.targets = np.asarray(targets, dtype=np.float64)
        self.scales = np.asarray(scales, dtype=np.float64)
        if not (1 <= self.k <= len(self.targets)):
            raise ParameterError(f"k={self.k} must be in [1, {len(self.targets)}]")
        if np.any(self.scales <= 0):
            raise ParameterError("scale factors must be strictly positive")
        self._scaled_train = self.train / self.scales

    def _predict_checked(self, batch: Dataset) -> np.ndarray:
        columns = [batch.column(f.name) for f in self._feature_schema]
        query = np.column_stack(columns) / self.scales
        block = max(1, _KNN_BLOCK_ELEMENTS // self._scaled_train.size)
        out = np.empty(batch.n_rows, dtype=np.float64)
        for start in range(0, batch.n_rows, block):
            diff = self._scaled_train - query[start:start + block, None]
            diff *= diff
            dist = np.sqrt(np.sum(diff, axis=2))
            out[start:start + block] = np.mean(self.targets[_nearest(dist, self.k)], axis=1)
        return out


def _nearest(dist: np.ndarray, k: int) -> np.ndarray:
    """Column indices of each row's k smallest entries, in (value, index) order.

    Equal to ``np.argsort(dist, axis=1, kind="stable")[:, :k]``. The k-th
    smallest value is found by partition; a row with exactly k entries at or
    below it sorts only those, which are already in index order. A row with
    ties at that value (or NaN) takes the full stable argsort.
    """
    if k == dist.shape[1]:
        return np.argsort(dist, axis=1, kind="stable")
    kth = np.partition(dist, k - 1, axis=1)[:, k - 1:k]
    candidates = dist <= kth
    exact = np.count_nonzero(candidates, axis=1) == k
    nearest = np.empty((dist.shape[0], k), dtype=np.intp)
    if exact.any():
        index = np.nonzero(candidates[exact])[1].reshape(-1, k)
        order = np.argsort(np.take_along_axis(dist[exact], index, axis=1), axis=1, kind="stable")
        nearest[exact] = np.take_along_axis(index, order, axis=1)
    if not exact.all():
        tied = ~exact
        nearest[tied] = np.argsort(dist[tied], axis=1, kind="stable")[:, :k]
    return nearest


def _design_column_names(schema: Sequence[FeatureSchema]) -> list[str]:
    names = []
    for feat in schema:
        if feat.is_continuous:
            names.append(feat.name)
        else:
            names.extend(f"{feat.name}={level}" for level in feat.levels[1:])
    return names


def _design_matrix(dataset: Dataset, schema: Sequence[FeatureSchema]) -> np.ndarray:
    cols = [np.ones(dataset.n_rows)]
    for feat in schema:
        col = dataset.column(feat.name)
        if feat.is_continuous:
            cols.append(col.astype(np.float64))
        else:
            for k in range(1, len(feat.levels)):
                cols.append((col == k).astype(np.float64))
    return np.column_stack(cols)


def _collinear_columns(design: np.ndarray, names: list[str]) -> list[str]:
    """Greedily grow an independent column set; whatever fails to enter is collinear."""
    offenders = []
    kept = design[:, :1]
    for j in range(1, design.shape[1]):
        candidate = np.column_stack([kept, design[:, j]])
        if np.linalg.matrix_rank(candidate) > np.linalg.matrix_rank(kept):
            kept = candidate
        else:
            offenders.append(names[j - 1])
    return offenders


def fit_linear(dataset: Dataset, target_name: str) -> LinearModel:
    """Least-squares fit of ``target_name`` on every other column."""
    features, y = dataset.split_target(target_name)
    schema = features.schema
    names = _design_column_names(schema)
    design = _design_matrix(features, schema)
    if features.n_rows <= design.shape[1]:
        raise ParameterError(
            f"need more than {design.shape[1]} rows to fit {design.shape[1]} design columns"
        )
    if np.linalg.matrix_rank(design) < design.shape[1]:
        offenders = _collinear_columns(design, names)
        raise SingularDesignError(
            f"design matrix is rank deficient; collinear columns: {offenders}",
            columns=offenders,
        )
    beta, *_ = np.linalg.lstsq(design, y, rcond=None)
    return LinearModel(beta[0], dict(zip(names, beta[1:])), schema)


def fit_knn(dataset: Dataset, target_name: str, k: int) -> KnnModel:
    """Store the training sample; predictions average the k nearest targets.

    Features are scaled by their sample standard deviation so distances are
    unit-free; constant columns keep scale 1. Continuous features only.
    """
    features, y = dataset.split_target(target_name)
    for feat in features.schema:
        if not feat.is_continuous:
            raise ParameterError(
                f"k-NN supports continuous features only; {feat.name!r} is categorical"
            )
    if not (1 <= k <= features.n_rows):
        raise ParameterError(f"k={k} must be in [1, {features.n_rows}]")
    train = np.column_stack([features.column(f.name) for f in features.schema])
    scales = np.std(train, axis=0, ddof=1) if features.n_rows > 1 else np.ones(train.shape[1])
    scales = np.where(scales > 0, scales, 1.0)
    return KnnModel(k, features.schema, train, y, scales)

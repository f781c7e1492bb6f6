"""Partial dependence: grid construction, dataset perturbation, averaging.

The estimator walks a grid of values for one or two interest features; at
each grid point every training row has those features overwritten, the
model scores the modified copy, and the predictions are aggregated. Means
use fixed left-to-right summation in row order so results are identical
whether grid points run serially or on worker threads, and identical to a
naive nested-loop evaluation.

Predictions at grid points come from one place, ``_score_points``, by
one of two paths. A model with a ``predict_grid`` method (bagged trees)
scores all points in one serial call; any other model, the external
bridge included, is called once per point, with points spread over worker
threads. Both give the same predictions as a per-point ``predict``.
``pd_values_at`` aggregates each point's predictions as soon as they are
scored, so only ``ice_curves`` (and the tree kernel's block) holds a
points x rows matrix.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .data import Dataset, FeatureSchema, write_csv, write_json
from .errors import (
    DegenerateGridError,
    GridStrategyError,
    NonFiniteError,
    ParameterError,
)
from .models import PredictionModel


@dataclass(frozen=True)
class GridStrategy:
    """How evaluation points are chosen for a continuous feature."""

    kind: str
    count: int | None = None

    @classmethod
    def unique(cls) -> "GridStrategy":
        return cls("unique")

    @classmethod
    def quantile(cls, count: int) -> "GridStrategy":
        if count < 1:
            raise ParameterError("quantile grid needs count >= 1")
        return cls("quantile", count)

    @classmethod
    def equidistant(cls, count: int) -> "GridStrategy":
        if count < 2:
            raise ParameterError("equidistant grid needs count >= 2")
        return cls("equidistant", count)

    @classmethod
    def parse(cls, text: str) -> "GridStrategy":
        """Parse ``unique``, ``quantile:Q``, or ``equidistant:K``."""
        name, sep, arg = text.partition(":")
        if name == "unique" and not sep:
            return cls.unique()
        if name in ("quantile", "equidistant") and sep:
            try:
                count = int(arg)
            except ValueError:
                raise ParameterError(f"bad grid strategy count {arg!r}") from None
            return cls.quantile(count) if name == "quantile" else cls.equidistant(count)
        raise ParameterError(f"bad grid strategy {text!r}")

    def __str__(self) -> str:
        return self.kind if self.count is None else f"{self.kind}:{self.count}"


@dataclass(frozen=True)
class GridAxis:
    """Ordered evaluation values for one feature.

    ``values`` are in dataset encoding (floats, or int level indices for a
    categorical feature); ``labels`` decodes categorical values for output.
    """

    feature: str
    kind: str
    values: np.ndarray
    labels: tuple[str, ...] | None = None

    def __len__(self) -> int:
        return len(self.values)

    def display(self, index: int):
        if self.labels is not None:
            return self.labels[index]
        return float(self.values[index])


@dataclass(frozen=True)
class Grid:
    axes: tuple[GridAxis, ...]
    strategy: GridStrategy

    @property
    def features(self) -> tuple[str, ...]:
        return tuple(axis.feature for axis in self.axes)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(axis) for axis in self.axes)

    @property
    def size(self) -> int:
        return int(np.prod(self.shape))

    def points(self) -> list[tuple]:
        """Grid points as value tuples, row-major for a pair."""
        if len(self.axes) == 1:
            return [(v,) for v in self.axes[0].values.tolist()]
        a, b = self.axes
        return [(u, v) for u in a.values.tolist() for v in b.values.tolist()]


def build_grid(dataset: Dataset, features: Sequence[str], strategy: GridStrategy) -> Grid:
    """Evaluation grid over 1 or 2 features.

    Continuous axes honor the strategy: sorted distinct training values,
    interpolated quantiles of the distinct values, or evenly spaced points
    over [min, max]; duplicate points collapse. A categorical axis is
    always its full level table (in stored level order) and only accepts
    the ``unique`` strategy.
    """
    features = list(features)
    if not 1 <= len(features) <= 2:
        raise ParameterError("grids cover one or two features")
    if len(set(features)) != len(features):
        raise ParameterError(f"grid features must be distinct, got {features}")
    axes = []
    for name in features:
        feat = dataset.schema_for(name)
        if not feat.is_continuous:
            if strategy.kind != "unique":
                raise GridStrategyError(
                    f"{strategy} grid is not defined for categorical feature {name!r}; "
                    "its grid is the level table"
                )
            values = np.arange(len(feat.levels), dtype=np.int64)
            if values.size == 0:
                raise DegenerateGridError(f"categorical feature {name!r} has no levels")
            axes.append(GridAxis(name, feat.kind, values, feat.levels))
            continue
        col = dataset.column(name)
        if col.size == 0:
            raise DegenerateGridError(f"feature {name!r} has no training values")
        distinct = np.unique(col)
        if strategy.kind == "unique":
            points = distinct
        elif strategy.kind == "quantile":
            probs = np.linspace(0.0, 1.0, strategy.count + 1)
            points = np.unique(np.quantile(distinct, probs))
        else:
            points = np.unique(np.linspace(distinct[0], distinct[-1], strategy.count))
        axes.append(GridAxis(name, feat.kind, points))
    return Grid(tuple(axes), strategy)


@dataclass(frozen=True)
class PDResult:
    """Averaged predictions over a grid, flattened row-major for pairs."""

    grid: Grid
    values: np.ndarray
    n_train: int
    baseline: float
    aggregator: str = "mean"

    def value_matrix(self) -> np.ndarray:
        """Values reshaped to the grid shape (k_i x k_j for a pair)."""
        return self.values.reshape(self.grid.shape)

    def rows(self):
        """Iterate (grid point display values..., pd value)."""
        for flat, value in enumerate(self.values):
            coords = np.unravel_index(flat, self.grid.shape)
            yield tuple(
                axis.display(int(i)) for axis, i in zip(self.grid.axes, coords)
            ) + (float(value),)

    def to_csv(self, target) -> None:
        write_csv(target, list(self.grid.features) + ["pd"],
                  ([_format_cell(v) for v in row] for row in self.rows()))

    def to_json_dict(self) -> dict:
        points = {
            axis.feature: (
                list(axis.labels) if axis.labels is not None else [float(v) for v in axis.values]
            )
            for axis in self.grid.axes
        }
        values = self.value_matrix()
        return {
            "features": list(self.grid.features),
            "strategy": str(self.grid.strategy),
            "points": points,
            "values": values.tolist(),
            "n_train": self.n_train,
            "baseline": self.baseline,
            "aggregator": self.aggregator,
        }

    def to_json(self, target) -> None:
        write_json(target, self.to_json_dict())


@dataclass(frozen=True)
class ICEResult:
    """Per-row prediction traces across a single-feature grid."""

    grid: Grid
    curves: np.ndarray  # n_train x grid size
    baseline: float
    pd_values: np.ndarray = field(repr=False)

    def to_csv(self, target) -> None:
        axis = self.grid.axes[0]
        write_csv(target, ["row_id", "grid_value", "prediction"], (
            [i, _format_cell(axis.display(j)), _format_cell(float(self.curves[i, j]))]
            for i in range(self.curves.shape[0])
            for j in range(self.curves.shape[1])
        ))

    def to_json_dict(self) -> dict:
        axis = self.grid.axes[0]
        points = list(axis.labels) if axis.labels is not None else [float(v) for v in axis.values]
        return {
            "feature": axis.feature,
            "strategy": str(self.grid.strategy),
            "points": points,
            "curves": self.curves.tolist(),
            "pd": [float(v) for v in self.pd_values],
            "baseline": self.baseline,
        }

    def to_json(self, target) -> None:
        write_json(target, self.to_json_dict())


def _format_cell(value):
    return repr(value) if isinstance(value, float) else value


def ordered_mean(values: np.ndarray) -> float:
    """Mean by fixed left-to-right summation; bit-reproducible by construction.

    ``np.add.accumulate`` adds strictly in order, like a Python loop
    starting from 0.0; the ``+ 0.0`` gives that loop's +0.0 when every
    value is -0.0. Overflow to inf stays as silent as in that loop.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        total = np.add.accumulate(values)[-1]
    return (float(total) + 0.0) / len(values)


def aggregate(values: np.ndarray, aggregator: str) -> float:
    """Collapse one grid point's predictions: mean, median, or trimmed:ALPHA.

    The trimmed mean drops floor(alpha * n) values from each tail of the
    sorted predictions before the fixed-order mean.
    """
    if aggregator == "mean":
        return ordered_mean(values)
    if aggregator == "median":
        return float(np.median(values))
    name, sep, arg = aggregator.partition(":")
    if name == "trimmed" and sep:
        try:
            alpha = float(arg)
        except ValueError:
            raise ParameterError(f"bad trim fraction {arg!r}") from None
        if not 0 <= alpha < 0.5:
            raise ParameterError("trim fraction must be in [0, 0.5)")
        cut = int(alpha * len(values))
        kept = np.sort(values)[cut: len(values) - cut]
        if kept.size == 0:
            raise ParameterError("trim fraction removes every prediction")
        return ordered_mean(kept)
    raise ParameterError(f"unknown aggregator {aggregator!r}")


def _constant_column(feat: FeatureSchema, value, n: int) -> np.ndarray:
    if feat.is_continuous:
        return np.full(n, float(value), dtype=np.float64)
    return np.full(n, int(value), dtype=np.int64)


def _point_label(features, dataset, point) -> str:
    parts = []
    for name, value in zip(features, point):
        feat = dataset.schema_for(name)
        shown = value if feat.is_continuous else feat.levels[int(value)]
        parts.append(f"{name}={shown}")
    return ", ".join(parts)


def _check_finite(block: np.ndarray, dataset, features, points) -> None:
    """Raise NonFiniteError at the first point whose row of ``block`` is not finite."""
    bad = np.flatnonzero(~np.isfinite(block).all(axis=1))
    if bad.size:
        raise NonFiniteError(
            f"model produced a non-finite prediction at grid point "
            f"({_point_label(features, dataset, points[bad[0]])})"
        )


def _predictions_at_point(model, dataset, features, point) -> np.ndarray:
    perturbed = dataset
    for name, value in zip(features, point):
        feat = dataset.schema_for(name)
        perturbed = perturbed.replace_column(
            name, _constant_column(feat, value, dataset.n_rows)
        )
    preds = model.predict(perturbed)
    _check_finite(preds[None, :], dataset, features, [point])
    return preds


def _score_points(model, dataset, features, points, workers, reduce) -> list:
    """``reduce`` of the training-set predictions at each grid point, in point order.

    A model with ``predict_grid`` scores every point in one serial call,
    which shares work between points and ignores ``workers``. Otherwise
    grid points are the unit of parallelism: each point's rows are scored
    as one block and reduced on the thread that scored them, so the outcome
    is invariant to ``workers``.
    """
    features = list(features)
    for name in features:
        dataset.schema_for(name)
    predict_grid = getattr(model, "predict_grid", None)
    if predict_grid is not None:
        block = predict_grid(dataset, features, points)
        _check_finite(block, dataset, features, points)
        return [reduce(row) for row in block]

    def score(point):
        return reduce(_predictions_at_point(model, dataset, features, point))

    if workers <= 1 or len(points) <= 1:
        return [score(p) for p in points]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(score, points))


def predictions_at_points(model: PredictionModel, dataset: Dataset,
                          features: Sequence[str], points: Sequence[tuple],
                          workers: int = 1) -> list[np.ndarray]:
    """Training-set predictions with the interest features pinned to each point."""
    return _score_points(model, dataset, features, points, workers, lambda preds: preds)


def pd_values_at(model: PredictionModel, dataset: Dataset, features: Sequence[str],
                 points: Sequence[tuple], workers: int = 1,
                 aggregator: str = "mean") -> np.ndarray:
    """Partial dependence values at an explicit list of grid points.

    Each point's predictions are aggregated as soon as they are scored.
    """
    if dataset.n_rows == 0:
        raise ParameterError("cannot average over an empty dataset")
    return np.array(_score_points(model, dataset, features, points, workers,
                                  lambda preds: aggregate(preds, aggregator)))


def _baseline(model, dataset, aggregator) -> float:
    preds = model.predict(dataset)
    if not np.all(np.isfinite(preds)):
        raise NonFiniteError("model produced a non-finite prediction on the training data")
    return aggregate(preds, aggregator)


def partial_dependence(model: PredictionModel, dataset: Dataset, grid: Grid,
                       workers: int = 1, aggregator: str = "mean") -> PDResult:
    """Estimated partial dependence of the model on a single feature.

    For each grid value the feature column is overwritten with that
    constant, the model scores all n training rows, and the aggregate
    (mean, by default) is recorded.
    """
    if len(grid.axes) != 1:
        raise ParameterError("partial_dependence takes a single-feature grid; "
                             "use joint_partial_dependence for pairs")
    values = pd_values_at(model, dataset, grid.features, grid.points(), workers, aggregator)
    return PDResult(grid, values, dataset.n_rows, _baseline(model, dataset, aggregator), aggregator)


def joint_partial_dependence(model: PredictionModel, dataset: Dataset, grid: Grid,
                             workers: int = 1, aggregator: str = "mean") -> PDResult:
    """Partial dependence on a feature pair; values are row-major over the grid."""
    if len(grid.axes) != 2:
        raise ParameterError("joint_partial_dependence takes a two-feature grid")
    values = pd_values_at(model, dataset, grid.features, grid.points(), workers, aggregator)
    return PDResult(grid, values, dataset.n_rows, _baseline(model, dataset, aggregator), aggregator)


def ice_curves(model: PredictionModel, dataset: Dataset, grid: Grid,
               workers: int = 1) -> ICEResult:
    """Individual conditional expectation curves, one per training row.

    Column means of the curve matrix reproduce ``partial_dependence``
    exactly (same predictions, same summation order).
    """
    if len(grid.axes) != 1:
        raise ParameterError("ICE curves are defined for a single feature")
    preds = predictions_at_points(model, dataset, grid.features, grid.points(), workers)
    curves = np.column_stack(preds)
    pd_values = np.array([ordered_mean(col) for col in preds])
    return ICEResult(grid, curves, _baseline(model, dataset, "mean"), pd_values)

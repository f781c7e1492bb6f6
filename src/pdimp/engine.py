"""Partial dependence: grid construction, dataset perturbation, averaging.

The estimator walks a grid of values for one or two interest features; at
each grid point every training row has those features overwritten, the
model scores the modified copy, and the predictions are aggregated. Means
use fixed left-to-right summation in row order so results are identical
whether grid points run serially or on worker threads, and identical to a
naive nested-loop evaluation.

A grid point is one row of a float64 (points x pinned features) array, a
categorical value stored as its level code: ``Grid.points`` builds it, and
the statistics slice their axes' values or the cells they need into it.
Predictions at grid points come from one place, ``_score_points``, and
one model method, ``predict_grid``. The points go to the model in slabs of
consecutive points, each slab's points x rows block within a private
memory cap, and each block is reduced (aggregated per point) before its
slab is done; slabs run on the ``workers`` threads. A model's
``predict_grid`` gives the same predictions as a per-point ``predict``, so
neither the slab size nor the worker count changes a result. Only
``ice_curves``, which returns every prediction, holds a rows x points
matrix. The baseline that ``pdp`` and ``ice`` report, the aggregate
prediction on the training data, is the grid point that pins nothing,
scored and checked like any other.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import product
from typing import Sequence

import numpy as np

from .data import Dataset, write_csv, write_json
from .errors import (
    DegenerateGridError,
    GridStrategyError,
    NonFiniteError,
    ParameterError,
)
from .models import PredictionModel

# grid points x rows predictions held per slab; a memory cap only,
# results do not depend on it
_SLAB_ELEMENTS = 1 << 16


# the largest count a quantile or equidistant grid may ask for; an axis
# allocates about count + 1 floats before duplicate points collapse
MAX_GRID_COUNT = 1_000_000


@dataclass(frozen=True)
class GridStrategy:
    """How evaluation points are chosen for a continuous feature.

    A quantile or equidistant count above ``MAX_GRID_COUNT`` is refused
    before anything is allocated.
    """

    kind: str
    count: int | None = None

    @classmethod
    def unique(cls) -> "GridStrategy":
        return cls("unique")

    @classmethod
    def quantile(cls, count: int) -> "GridStrategy":
        if not 1 <= count <= MAX_GRID_COUNT:
            raise ParameterError(f"quantile grid needs 1 <= count <= {MAX_GRID_COUNT}")
        return cls("quantile", count)

    @classmethod
    def equidistant(cls, count: int) -> "GridStrategy":
        if not 2 <= count <= MAX_GRID_COUNT:
            raise ParameterError(f"equidistant grid needs 2 <= count <= {MAX_GRID_COUNT}")
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

    def shown(self) -> list:
        """The values as results write them: level labels, or floats."""
        return list(self.labels) if self.labels is not None else [float(v) for v in self.values]


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

    def points(self) -> np.ndarray:
        """Grid points as rows of a float64 (size x features) array, row-major
        for a pair; a categorical value is its level code."""
        mesh = np.meshgrid(*(axis.values for axis in self.axes), indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1, dtype=np.float64)


def build_grid(dataset: Dataset, features: Sequence[str], strategy: GridStrategy) -> Grid:
    """Evaluation grid over 1 or 2 features, each axis as :func:`feature_axis`
    builds it; a categorical feature only accepts the ``unique`` strategy.
    """
    features = list(features)
    if not 1 <= len(features) <= 2:
        raise ParameterError("grids cover one or two features")
    if len(set(features)) != len(features):
        raise ParameterError(f"grid features must be distinct, got {features}")
    axes = []
    for name in features:
        if strategy.kind != "unique" and not dataset.schema_for(name).is_continuous:
            raise GridStrategyError(
                f"{strategy} grid is not defined for categorical feature {name!r}; "
                "its grid is the level table"
            )
        axes.append(feature_axis(dataset, name, strategy))
    return Grid(tuple(axes), strategy)


def feature_axis(dataset: Dataset, name: str, strategy: GridStrategy) -> GridAxis:
    """Evaluation values of one feature.

    A continuous axis honors the strategy: sorted distinct training values,
    interpolated quantiles of the distinct values, or evenly spaced points
    over [min, max]; duplicate points collapse. A categorical axis is always
    its full level table, in stored level order, whatever the strategy.
    """
    feat = dataset.schema_for(name)
    if not feat.is_continuous:
        if not feat.levels:
            raise DegenerateGridError(f"categorical feature {name!r} has no levels")
        return GridAxis(name, feat.kind, np.arange(len(feat.levels), dtype=np.int64), feat.levels)
    col = dataset.column(name)
    if col.size == 0:
        raise DegenerateGridError(f"feature {name!r} has no training values")
    distinct = _distinct(col)
    if strategy.kind == "unique":
        points = distinct
    elif strategy.kind == "quantile":
        probs = np.linspace(0.0, 1.0, strategy.count + 1)
        points = _distinct(_quantiles(distinct, probs))
    else:
        points = _distinct(np.linspace(distinct[0], distinct[-1], strategy.count))
    return GridAxis(name, feat.kind, points)


def _distinct(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values of a finite array: ``np.unique``'s sort and
    boundary mask, without the ``numpy.ma`` import (about 10 ms of every
    command) that ``np.unique`` makes on first use."""
    values = np.sort(values)
    keep = np.empty(values.size, dtype=bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def _quantiles(distinct: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """``np.quantile(distinct, probs)`` of sorted distinct finite values:
    its linear interpolation, step for step, without its call of
    ``np.unique``."""
    virtual = (len(distinct) - 1) * probs
    below = np.floor(virtual)
    above = below + 1
    top = virtual >= len(distinct) - 1
    below[top] = above[top] = -1
    below, above = below.astype(np.intp), above.astype(np.intp)
    t = virtual - below
    low, high = distinct[below], distinct[above]
    step = high - low
    values = low + step * t
    np.subtract(high, step * (1 - t), out=values, where=t >= 0.5)
    return values


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

    def sidecar(self) -> dict:
        """The column schema written next to the plot data."""
        return {
            "columns": [{"name": axis.feature, "role": "grid", "kind": axis.kind}
                        for axis in self.grid.axes] + [{"name": "pd", "role": "value"}],
            "baseline": self.baseline,
            "n_train": self.n_train,
            "aggregator": self.aggregator,
            "strategy": str(self.grid.strategy),
        }

    def to_csv(self, target) -> None:
        points = product(*(axis.shown() for axis in self.grid.axes))  # row-major
        write_csv(target, column_names(self.sidecar()),
                  ([_format_cell(v) for v in point + (value,)]
                   for point, value in zip(points, self.values.tolist())))

    def to_json_dict(self) -> dict:
        return {
            "features": list(self.grid.features),
            "strategy": str(self.grid.strategy),
            "points": {axis.feature: axis.shown() for axis in self.grid.axes},
            "values": self.value_matrix().tolist(),
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

    def sidecar(self) -> dict:
        """The column schema written next to the plot data."""
        axis = self.grid.axes[0]
        return {
            "columns": [
                {"name": "row_id", "role": "series"},
                {"name": "grid_value", "role": "grid", "kind": axis.kind},
                {"name": "prediction", "role": "value"},
            ],
            "baseline": self.baseline,
            "feature": axis.feature,
            "strategy": str(self.grid.strategy),
        }

    def to_csv(self, target) -> None:
        shown = [_format_cell(v) for v in self.grid.axes[0].shown()]
        write_csv(target, column_names(self.sidecar()), (
            [i, shown[j], _format_cell(float(self.curves[i, j]))]
            for i in range(self.curves.shape[0])
            for j in range(self.curves.shape[1])
        ))

    def to_json_dict(self) -> dict:
        axis = self.grid.axes[0]
        return {
            "feature": axis.feature,
            "strategy": str(self.grid.strategy),
            "points": axis.shown(),
            "curves": self.curves.tolist(),
            "pd": [float(v) for v in self.pd_values],
            "baseline": self.baseline,
        }

    def to_json(self, target) -> None:
        write_json(target, self.to_json_dict())


def _format_cell(value):
    return repr(value) if isinstance(value, float) else value


def column_names(sidecar: dict) -> list[str]:
    """The CSV header of a result: the names of its sidecar's columns."""
    return [column["name"] for column in sidecar["columns"]]


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


def _point_label(features, dataset, point) -> str:
    parts = []
    for name, value in zip(features, point):
        feat = dataset.schema_for(name)
        shown = float(value) if feat.is_continuous else feat.levels[int(value)]
        parts.append(f"{name}={shown}")
    return ", ".join(parts) or "the baseline with no feature pinned"


def _check_finite(values: np.ndarray, dataset, features, points, message: str) -> None:
    """Raise NonFiniteError with ``message`` naming the first point whose
    entry of ``values`` (a value, or a row of predictions) is not finite."""
    bad = np.flatnonzero(~np.isfinite(values).reshape(len(values), -1).all(axis=1))
    if bad.size:
        raise NonFiniteError(message.format(_point_label(features, dataset, points[bad[0]])))


def _score_points(model, dataset, features, points, workers, reduce) -> np.ndarray:
    """The ``reduce(g, predictions)`` of the training-set predictions at
    ``points[g]``, for every grid point, as an array.

    Points go to ``model.predict_grid`` in slabs of consecutive points,
    each at most ``_SLAB_ELEMENTS`` points x rows (one point at least), so
    a model that shares work between points shares it within a slab. Each
    slab's block is checked and reduced on the thread that scored it, into
    its own entries of the result, and a reduction that is not finite
    raises NonFiniteError; the outcome does not depend on the slab size or
    on ``workers``.
    """
    features = list(features)
    for name in features:
        dataset.schema_for(name)
    size = max(1, _SLAB_ELEMENTS // max(1, dataset.n_rows))
    starts = range(0, len(points), size)
    out = np.empty(len(points))

    def score(start):
        slab = points[start:start + size]
        block = model.predict_grid(dataset, features, slab)
        _check_finite(block, dataset, features, slab,
                      "model produced a non-finite prediction at grid point ({})")
        for g, row in enumerate(block, start):
            out[g] = reduce(g, row)
        _check_finite(out[start:start + len(slab)], dataset, features, slab,
                      "the partial dependence at grid point ({}) overflows float64")

    if workers <= 1 or len(starts) <= 1:
        for start in starts:
            score(start)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(score, starts))  # raises the first slab's error, in point order
    return out


def pd_values_at(model: PredictionModel, dataset: Dataset, features: Sequence[str],
                 points: np.ndarray, workers: int = 1,
                 aggregator: str = "mean") -> np.ndarray:
    """Partial dependence values at grid points, one row of ``points`` each.

    Each point's predictions are aggregated as soon as they are scored; a
    value that is not finite raises NonFiniteError.
    """
    if dataset.n_rows == 0:
        raise ParameterError("cannot average over an empty dataset")
    return _score_points(model, dataset, features, points, workers,
                         lambda g, preds: aggregate(preds, aggregator))


def _baseline(model, dataset, aggregator) -> float:
    """The aggregate prediction on the training data: the PD value at the
    grid point that pins nothing."""
    return float(pd_values_at(model, dataset, [], np.empty((1, 0)), aggregator=aggregator)[0])


def partial_dependence(model: PredictionModel, dataset: Dataset, grid: Grid,
                       workers: int = 1, aggregator: str = "mean") -> PDResult:
    """Estimated partial dependence of the model on the grid's feature or
    pair; a pair's values are row-major over the grid.

    At each grid point the feature columns are overwritten with the point's
    constants, the model scores all n training rows, and the aggregate
    (mean, by default) is recorded.
    """
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
    points = grid.points()
    curves = np.empty((dataset.n_rows, len(points)))

    def keep(g, preds):
        curves[:, g] = preds
        return ordered_mean(preds)

    pd_values = _score_points(model, dataset, grid.features, points, workers, keep)
    return ICEResult(grid, curves, _baseline(model, dataset, "mean"), pd_values)

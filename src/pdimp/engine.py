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
Predictions at grid points come from one place, ``pd_values_at``, and
one model method, ``predict_grid``, over every model's one kernel,
``_grid``. The points go to the model in slabs of consecutive points, each
slab's points x rows block within a private memory cap, and one call
reduces each block along its rows before its slab is done; slabs run on
at most ``workers`` threads. Row g of a block equals ``predict`` with point g
pinned, so neither the slab size nor the worker count changes a result.
Only ``ice_curves``, which returns every prediction, holds a rows x points
matrix: it hands that curve matrix to ``pd_values_at``, which copies each
slab's block into it before reducing the block. The baseline that ``pdp``
and ``ice`` report, the aggregate prediction on the training data, is the
grid point that pins nothing, scored and checked like any other.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Sequence

import numpy as np

from .data import Dataset
from .errors import (
    DegenerateGridError,
    GridStrategyError,
    NonFiniteError,
    ParameterError,
    is_integer,
)
from .limits import MAX_GRID_COUNT
from .models import PredictionModel

# grid points x rows predictions held per slab; a memory cap only,
# results do not depend on it
_SLAB_ELEMENTS = 1 << 16

# the smallest count of each grid strategy; unique takes none
_MIN_COUNT = {"unique": None, "quantile": 1, "equidistant": 2}


@dataclass(frozen=True)
class GridStrategy:
    """How evaluation points are chosen for a continuous feature.

    The kind and its count (``_MIN_COUNT`` to ``MAX_GRID_COUNT``, none for
    ``unique``) are checked when the strategy is built, before any grid is.
    """

    kind: str
    count: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in _MIN_COUNT:
            raise ParameterError(f"unknown grid strategy kind {self.kind!r}; "
                                 f"pick one of {', '.join(_MIN_COUNT)}")
        low = _MIN_COUNT[self.kind]
        if low is None:
            if self.count is not None:
                raise ParameterError("the unique grid takes no count")
        elif not (is_integer(self.count) and low <= self.count <= MAX_GRID_COUNT):
            raise ParameterError(f"{self.kind} grid needs {low} <= count <= {MAX_GRID_COUNT}")

    @classmethod
    def unique(cls) -> "GridStrategy":
        return cls("unique")

    @classmethod
    def quantile(cls, count: int) -> "GridStrategy":
        return cls("quantile", count)

    @classmethod
    def equidistant(cls, count: int) -> "GridStrategy":
        return cls("equidistant", count)

    @classmethod
    def parse(cls, text: str) -> "GridStrategy":
        """Parse ``unique``, ``quantile:Q``, or ``equidistant:K``."""
        name, sep, arg = text.partition(":")
        if name not in _MIN_COUNT or (name == "unique") == bool(sep):  # a count iff it takes one
            raise ParameterError(f"bad grid strategy {text!r}")
        try:
            count = int(arg) if sep else None
        except ValueError:
            raise ParameterError(f"bad grid strategy count {arg!r}") from None
        return cls(name, count)

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
        for a pair; a categorical value is its level code. A grid of more
        than ``MAX_GRID_COUNT`` points is refused before anything is allocated."""
        if self.size > MAX_GRID_COUNT:
            raise ParameterError(f"the grid over {' x '.join(self.features)} has "
                                 f"{self.size} points, more than {MAX_GRID_COUNT}")
        mesh = np.meshgrid(*(axis.values for axis in self.axes), indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1, dtype=np.float64)


def build_grid(dataset: Dataset, features: Sequence[str], strategy: GridStrategy) -> Grid:
    """Evaluation grid over 1 or 2 distinct features, each axis as :func:`feature_axis`
    builds it: a categorical axis is its level table whatever the strategy."""
    features = list(features)
    if not 1 <= len(features) <= 2:
        raise ParameterError("grids cover one or two features")
    if len(set(features)) != len(features):
        raise ParameterError(f"grid features must be distinct, got {features}")
    return Grid(tuple(feature_axis(dataset, name, strategy) for name in features), strategy)


def feature_axis(dataset: Dataset, name: str, strategy: GridStrategy) -> GridAxis:
    """Evaluation values of one feature.

    A continuous axis honors the strategy: sorted distinct training values,
    interpolated quantiles of the distinct values, or evenly spaced points
    over [min, max]; duplicate points collapse, and a non-finite point (the
    values span past float64) is a GridStrategyError. A categorical axis is
    always its full level table, in stored level order, whatever the strategy.
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
        return GridAxis(name, feat.kind, distinct)
    with np.errstate(over="ignore", invalid="ignore"):  # a span past float64's maximum
        points = (_quantiles(distinct, np.linspace(0.0, 1.0, strategy.count + 1))
                  if strategy.kind == "quantile"
                  else np.linspace(distinct[0], distinct[-1], strategy.count))
    if not np.isfinite(points).all():
        raise GridStrategyError(f"feature {name!r} spans more than float64 can hold, so its "
                                f"{strategy} grid has non-finite points; use the unique grid")
    return GridAxis(name, feat.kind, _distinct(points))


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

    def rows(self):
        """The CSV rows under the sidecar's columns, as values: grid values
        (level labels or floats), then the PD float."""
        points = product(*(axis.shown() for axis in self.grid.axes))  # row-major
        return (point + (value,) for point, value in zip(points, self.values.tolist()))

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

    def rows(self):
        """The CSV rows under the sidecar's columns, one per row and grid
        point, as values: the int row id, the grid value and the prediction."""
        shown = self.grid.axes[0].shown()
        return ([i, x, value] for i, curve in enumerate(self.curves)
                for x, value in zip(shown, curve.tolist()))

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


def ordered_mean(values: np.ndarray, out: np.ndarray | None = None):
    """Mean over the last axis by fixed left-to-right summation; bit-reproducible.

    ``np.add.accumulate`` adds in order along each row, into ``out`` if given
    (it may be ``values``), like a Python loop from 0.0; the ``+ 0.0`` gives
    that loop's +0.0 when all are -0.0. Overflow to inf is as silent as there.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        total = np.add.accumulate(values, axis=-1, out=out)[..., -1]
    return (total + 0.0) / values.shape[-1]


def reducer(aggregator: str) -> Callable[[np.ndarray], np.ndarray]:
    """The function that collapses each grid point's predictions, named by
    ``mean``, ``median`` or ``trimmed:ALPHA``; ParameterError for any other
    name or a fraction outside [0, 0.5).

    It reduces a (points x rows) block along its last axis, each point as its
    row alone would, overwriting the block: a copy cost page faults per slab.
    The trimmed mean drops floor(alpha * n) < n / 2 sorted values per tail.
    """
    if aggregator == "mean":
        return lambda block: ordered_mean(block, out=block)
    if aggregator == "median":
        return lambda block: np.median(block, axis=-1, overwrite_input=True)
    name, sep, arg = aggregator.partition(":")
    if name == "trimmed" and sep:
        try:
            alpha = float(arg)
        except ValueError:
            raise ParameterError(f"bad trim fraction {arg!r}") from None
        if not 0 <= alpha < 0.5:
            raise ParameterError("trim fraction must be in [0, 0.5)")

        def trimmed_mean(block):
            cut = int(alpha * block.shape[-1])
            block.sort(axis=-1)
            kept = block[..., cut: block.shape[-1] - cut]
            return ordered_mean(kept, out=kept)
        return trimmed_mean
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


def pd_values_at(model: PredictionModel, dataset: Dataset, features: Sequence[str],
                 points: np.ndarray, workers: int = 1, aggregator: str = "mean",
                 curves: np.ndarray | None = None) -> np.ndarray:
    """Partial dependence values at grid points, one row of ``points`` each;
    ``workers`` below 1, or not an int, and a dataset with no rows are
    ParameterErrors.

    Points go to ``model.predict_grid`` in slabs of consecutive points,
    each at most ``_SLAB_ELEMENTS`` points x rows (one point at least), so
    a model that shares work between points shares it within a slab. Each
    slab's block is checked, copied into its columns of ``curves`` (rows x
    points) if given, and reduced by ``aggregator`` on the thread that
    scored it, into its own entries of the result; a value that is not
    finite raises NonFiniteError. The outcome depends on neither the slab
    size nor ``workers``.

    Slabs run on min(``workers``, slabs, CPUs available to the process)
    threads; with one, the calling thread scores them and no pool starts.
    """
    if not (is_integer(workers) and workers >= 1):
        raise ParameterError(f"workers must be an integer of at least 1, got {workers!r}")
    reduce = reducer(aggregator)
    if dataset.n_rows == 0:
        raise ParameterError("cannot average over an empty dataset")
    features = list(features)
    size = max(1, _SLAB_ELEMENTS // dataset.n_rows)
    starts = range(0, len(points), size)
    out = np.empty(len(points))

    def score(start):
        slab = points[start:start + size]
        block = model.predict_grid(dataset, features, slab)
        _check_finite(block, dataset, features, slab,
                      "model produced a non-finite prediction at grid point ({})")
        if curves is not None:
            curves[:, start:start + len(slab)] = block.T
        out[start:start + len(slab)] = reduce(block)
        _check_finite(out[start:start + len(slab)], dataset, features, slab,
                      "the partial dependence at grid point ({}) overflows float64")

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    threads = min(workers, len(starts), cpus or 1)
    if threads <= 1:
        for start in starts:
            score(start)
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(score, starts))  # raises the first slab's error, in point order
    return out


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
    pd_values = pd_values_at(model, dataset, grid.features, points, workers, curves=curves)
    return ICEResult(grid, curves, _baseline(model, dataset, "mean"), pd_values)

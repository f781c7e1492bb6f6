"""Pairwise interaction strength from partial dependence functions.

If two features do not interact, the importance of one computed inside
each slice of the joint partial dependence is the same no matter where
the other is held: slices only shift vertically. The statistic here is
the sd of those conditional importances, averaged over both directions.
Both the importances and their sd are :func:`~pdimp.importance.spread`
scores under its flat rule, so a pair with a feature the model never
reads scores exactly 0.0. Friedman's H-statistic is provided alongside
for comparison; it contrasts the joint PD with the sum of the marginal
PDs at the training points. Each training row snaps to its nearest grid
point (its own level for a categorical feature), and one helper reads H's
joint PD at the rows' cells: from the pair's joint table, which
``interaction_matrix`` computes once for both statistics, or, in
``h_statistic``, from only the cells some row falls in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import combinations
from typing import Sequence

import numpy as np

from .data import CATEGORICAL, Dataset
from .engine import Grid, GridStrategy, build_grid, ordered_mean, pd_values_at
from .errors import DegenerateGridError, NonFiniteError, ParameterError
from .importance import SAMPLE_SD, measure_for, spread
from .models import PredictionModel


@dataclass(frozen=True)
class PairStatistics:
    features: tuple[str, str]
    stat_pd: float
    spread_first_given_second: float
    spread_second_given_first: float
    stat_h: float | None = None
    degenerate: bool = False


@dataclass(frozen=True)
class InteractionReport:
    """Per-pair statistics, sorted descending by the PD-based statistic."""

    pairs: tuple[PairStatistics, ...]
    grid_strategy: str

    def ranked_pairs(self) -> list[tuple[str, str]]:
        return [p.features for p in self.pairs]

    def stat_for(self, a: str, b: str) -> PairStatistics:
        wanted = frozenset((a, b))
        for pair in self.pairs:
            if frozenset(pair.features) == wanted:
                return pair
        raise KeyError((a, b))

    def sidecar(self) -> dict:
        """The column schema written next to the plot data."""
        return {
            "columns": [
                {"name": "feature_i", "role": "label"},
                {"name": "feature_j", "role": "label"},
                {"name": "stat_pd", "role": "value"},
                {"name": "stat_h", "role": "value", "optional": True},
            ],
            "grid_strategy": self.grid_strategy,
        }

    def rows(self):
        """The CSV rows under the sidecar's columns, in rank order, as
        values: both feature names, the PD statistic float and H, which is
        None (an empty cell) where it is absent or NaN."""
        return ([*p.features, p.stat_pd, _reported_h(p.stat_h)] for p in self.pairs)

    def to_json_dict(self) -> dict:
        return {
            "grid_strategy": self.grid_strategy,
            "pairs": [
                {
                    "features": list(p.features),
                    "stat_pd": p.stat_pd,
                    "stat_h": _reported_h(p.stat_h),
                    "components": {
                        f"{p.features[0]}|{p.features[1]}": p.spread_first_given_second,
                        f"{p.features[1]}|{p.features[0]}": p.spread_second_given_first,
                    },
                }
                for p in self.pairs
            ],
        }

    def to_text(self, top: int | None = None) -> str:
        rows = self.pairs if top is None else self.pairs[:top]
        lines = [f"{'pair':24}  {'stat_pd':>14}  {'stat_h':>10}"]
        for p in rows:
            h = "" if _reported_h(p.stat_h) is None else f"{p.stat_h:10.6f}"
            note = "  (degenerate)" if p.degenerate else ""
            pair = p.features[0] + " * " + p.features[1]
            lines.append(f"{pair:24}  {p.stat_pd:14.8g}  {h}{note}")
        return "\n".join(lines)


def _reported_h(h: float | None) -> float | None:
    """H as results report it: None where it is absent or NaN."""
    return None if h is None or math.isnan(h) else h


def pd_interaction(model: PredictionModel, dataset: Dataset, pair: Sequence[str],
                   grid_strategy: GridStrategy | None = None,
                   workers: int = 1) -> float:
    """Interaction statistic for one unordered feature pair: the one-pair
    case of :func:`interaction_matrix`.

    Builds the joint PD once, computes the importance of each feature
    conditional on every grid value of the other, takes the sd of those
    conditional importances per direction, and averages the two. A pair
    with a one-point axis raises :class:`DegenerateGridError`.
    """
    (stat,) = interaction_matrix(model, dataset, [pair], grid_strategy, workers=workers).pairs
    if stat.degenerate:
        raise DegenerateGridError("interaction needs at least 2 grid points per feature")
    return stat.stat_pd


def check_pairs(dataset: Dataset,
                pairs: Sequence[Sequence[str]] | None = None) -> list[tuple[str, str]]:
    """The pairs to score: all of ``dataset``'s when ``pairs`` is None, else
    ``pairs`` as tuples, checked in order. An unknown name raises
    UnknownFeatureError; a pair of one feature, or a pair given twice in
    either order, raises ParameterError."""
    if pairs is None:
        return list(combinations(dataset.feature_names, 2))
    checked, seen = [], set()
    for a, b in pairs:
        dataset.schema_for(a)
        dataset.schema_for(b)
        if a == b:
            raise ParameterError("interaction needs two distinct features")
        if frozenset((a, b)) in seen:
            raise ParameterError(f"the pair {a}:{b} is requested twice")
        seen.add(frozenset((a, b)))
        checked.append((a, b))
    return checked


def _pair_statistics(grid: Grid, table: np.ndarray) -> PairStatistics:
    """Both directional spreads and their mean; a pair with a one-point axis
    has no slices to compare and scores 0 with a ``degenerate`` flag."""
    if min(grid.shape) < 2:
        return PairStatistics(grid.features, 0.0, 0.0, 0.0, degenerate=True)
    measure_a, measure_b = (measure_for(axis.kind, SAMPLE_SD) for axis in grid.axes)
    s_ab = spread(np.array([spread(column, measure_a) for column in table.T]), SAMPLE_SD)
    s_ba = spread(np.array([spread(row, measure_b) for row in table]), SAMPLE_SD)
    return PairStatistics(grid.features, (s_ab + s_ba) / 2.0, s_ab, s_ba)


def _snap_codes(column: np.ndarray, grid_values: np.ndarray) -> np.ndarray:
    """Index of the nearest grid value for each training value (ties go low)."""
    if len(grid_values) == 1:
        return np.zeros(len(column), dtype=np.intp)
    pos = np.searchsorted(grid_values, column)
    pos = np.clip(pos, 1, len(grid_values) - 1)
    left = grid_values[pos - 1]
    right = grid_values[pos]
    with np.errstate(over="ignore"):  # at most one gap overflows; the other side is nearer
        return np.where(column - left <= right - column, pos - 1, pos)


def _pair_h(model, dataset: Dataset, grid: Grid, marginals: dict[str, np.ndarray],
            workers: int, table: np.ndarray | None = None) -> float:
    """Friedman's H of the grid's pair, each row read at its own grid cell
    (snapped, or its level code). The joint PD is read from the scored joint
    ``table`` or, without one, scored at only the cells some row falls in;
    each feature's marginal PD at each row is read from ``marginals``,
    scored over its axis and stored there first if missing."""
    codes = [dataset.column(axis.feature) if axis.kind == CATEGORICAL
             else _snap_codes(dataset.column(axis.feature), axis.values) for axis in grid.axes]
    cells = codes[0] * grid.shape[1] + codes[1]
    if table is None:
        needed, where = np.unique(cells, return_inverse=True)
        i, j = np.divmod(needed, grid.shape[1])
        points = np.stack((grid.axes[0].values[i], grid.axes[1].values[j]), axis=1,
                          dtype=np.float64)
        joint = pd_values_at(model, dataset, grid.features, points, workers)[where]
    else:
        joint = table.reshape(-1)[cells]
    for axis, code in zip(grid.axes, codes):
        if axis.feature not in marginals:
            values = pd_values_at(model, dataset, [axis.feature], axis.values[:, None], workers)
            marginals[axis.feature] = values[code]
    return _h(grid.features, joint, *(marginals[f] for f in grid.features))


def _h(pair: tuple[str, str], joint: np.ndarray, marginal_a: np.ndarray,
       marginal_b: np.ndarray) -> float:
    """Friedman's H of a pair from its joint PD and each feature's marginal
    PD at each training row."""
    a, b = pair
    with np.errstate(over="ignore", invalid="ignore"):
        f_joint = joint - ordered_mean(joint)
        f_a = marginal_a - ordered_mean(marginal_a)
        f_b = marginal_b - ordered_mean(marginal_b)
        denom = float(np.sum(f_joint**2))
        num = float(np.sum((f_joint - f_a - f_b) ** 2))
    if not (math.isfinite(denom) and math.isfinite(num)):
        raise NonFiniteError(f"Friedman's H of {a} and {b} overflows float64")
    if denom == 0.0:
        return math.nan
    return math.sqrt(max(num / denom, 0.0))


def h_statistic(model: PredictionModel, dataset: Dataset, pair: Sequence[str],
                grid_strategy: GridStrategy | None = None, workers: int = 1) -> float:
    """Friedman's H for one pair, evaluated at the training points.

    All three partial dependence functions (joint and both marginals) are
    evaluated at each row's own feature values, mean-centered over the
    rows, and compared:

        H^2 = sum((joint - marg_i - marg_j)^2) / sum(joint^2)

    With a quantile or equidistant strategy, training values snap to the
    nearest grid point first (a cost cap); ``unique`` is exact. The joint
    term is the pair's joint PD table indexed by the rows' grid cells; only
    the cells some row falls in are evaluated (at most n points, where the
    full ``unique`` table has up to n^2). Returns NaN when the denominator
    is zero (joint PD centered identically 0).
    """
    if grid_strategy is None:
        grid_strategy = GridStrategy.unique()
    (pair,) = check_pairs(dataset, [pair])
    return _pair_h(model, dataset, build_grid(dataset, pair, grid_strategy), {}, workers)


def interaction_matrix(model: PredictionModel, dataset: Dataset,
                       pairs: Sequence[tuple[str, str]] | None = None,
                       grid_strategy: GridStrategy | None = None,
                       include_h: bool = False, workers: int = 1) -> InteractionReport:
    """Pair statistics for every requested (default: all) unordered pair.

    Pairs run one after another, each spreading its slabs of grid points
    over ``workers`` threads. Each pair's joint PD table is computed once and
    serves both conditional directions and H; each feature's marginal PD
    for H is computed once for the whole report. A pair with a one-point
    axis (a constant column) scores 0 with a ``degenerate`` flag instead of
    failing the whole report; its H is computed as for any other pair.
    ``pairs`` is checked by :func:`check_pairs` before any work.
    """
    if grid_strategy is None:
        grid_strategy = GridStrategy.quantile(10)
    marginals: dict[str, np.ndarray] = {}  # feature -> marginal PD at each row, for H
    results = []
    for pair in check_pairs(dataset, pairs):
        grid = build_grid(dataset, pair, grid_strategy)
        table = pd_values_at(model, dataset, pair, grid.points(), workers).reshape(grid.shape)
        stat = _pair_statistics(grid, table)
        if include_h:
            stat = replace(stat, stat_h=_pair_h(model, dataset, grid, marginals, workers, table))
        results.append(stat)
    ranked = sorted(results, key=lambda s: -s.stat_pd)
    return InteractionReport(tuple(ranked), str(grid_strategy))

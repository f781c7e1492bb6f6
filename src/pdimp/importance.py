"""Variable importance as the flatness of the partial dependence function.

A feature whose partial dependence barely moves has little influence on
the predicted outcome. The score is the sample standard deviation of the
PD values for a continuous feature and the range divided by four for a
categorical one (an sd estimate for small samples); the median absolute
deviation is available as a robust alternative.

The flat rule: a spread of equal values is exactly 0.0 under every
measure, whatever the round-off of their mean or median. :func:`spread`
is the only code that turns PD values into a score, so the rule holds
for every score built from them, the interaction statistic's included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import CATEGORICAL, Dataset
from .engine import GridStrategy, PDResult, build_grid, pd_values_at, reducer
from .errors import DegenerateGridError, NonFiniteError, ParameterError
from .limits import MEASURES
from .models import PredictionModel

SAMPLE_SD, MAD, RANGE_OVER_4 = MEASURES


def _check_measure(measure: str) -> None:
    if measure not in MEASURES:
        raise ParameterError(f"unknown flatness measure {measure!r}; pick one of {MEASURES}")


def spread(values: np.ndarray, measure: str) -> float:
    """The ``measure`` of PD values, exactly 0.0 for equal ones (the flat
    rule); NonFiniteError when a value or the score is not finite."""
    _check_measure(measure)
    if measure in (SAMPLE_SD, MAD) and len(values) < 2:
        raise DegenerateGridError(f"{measure} needs at least 2 grid points")
    if not np.isfinite(values).all():
        raise NonFiniteError("a partial dependence value overflows float64")
    if values.max() == values.min():
        return 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        if measure == SAMPLE_SD:
            score = np.std(values, ddof=1)
        elif measure == MAD:
            score = np.median(np.abs(values - np.median(values)))
        else:
            score = (values.max() - values.min()) / 4.0
    if not np.isfinite(score):
        raise NonFiniteError(f"the {measure} of partial dependence values overflows float64")
    return float(score)


def measure_for(kind: str, measure: str) -> str:
    """The flatness measure a feature of ``kind`` is scored by: range/4 for a
    categorical feature, whatever was requested, else ``measure``."""
    _check_measure(measure)
    return RANGE_OVER_4 if kind == CATEGORICAL else measure


def importance_from_pd(pd: PDResult, measure: str = SAMPLE_SD) -> float:
    """Score a single-feature PD result by the measure its feature takes."""
    if len(pd.grid.axes) != 1:
        raise ParameterError("importance is defined for single-feature PD results")
    return spread(pd.values, measure_for(pd.grid.axes[0].kind, measure))


@dataclass(frozen=True)
class ImportanceEntry:
    name: str
    score: float
    measure: str
    grid_size: int
    degenerate: bool = False


@dataclass(frozen=True)
class ImportanceReport:
    """Per-feature scores, sorted descending (ties keep dataset order)."""

    entries: tuple[ImportanceEntry, ...]
    grid_strategy: str
    aggregator: str

    def ranked_names(self) -> list[str]:
        return [e.name for e in self.entries]

    def score_of(self, name: str) -> float:
        for entry in self.entries:
            if entry.name == name:
                return entry.score
        raise KeyError(name)

    def sidecar(self) -> dict:
        """The column schema written next to the plot data."""
        return {
            "columns": [
                {"name": "feature", "role": "label"},
                {"name": "score", "role": "value"},
            ],
            "grid_strategy": self.grid_strategy,
            "aggregator": self.aggregator,
        }

    def rows(self):
        """The CSV rows under the sidecar's columns, in rank order, as
        values: the feature name and its score float."""
        return ([e.name, e.score] for e in self.entries)

    def to_json_dict(self) -> dict:
        return {
            "grid_strategy": self.grid_strategy,
            "aggregator": self.aggregator,
            "features": [
                {
                    "name": e.name,
                    "score": e.score,
                    "measure": e.measure,
                    "grid_size": e.grid_size,
                    "degenerate": e.degenerate,
                }
                for e in self.entries
            ],
        }

    def to_text(self) -> str:
        width = max((len(e.name) for e in self.entries), default=7)
        lines = [f"{'feature'.ljust(width)}  {'score':>14}  measure"]
        for e in self.entries:
            note = "  (degenerate)" if e.degenerate else ""
            lines.append(f"{e.name.ljust(width)}  {e.score:14.8g}  {e.measure}{note}")
        return "\n".join(lines)


def importance_all(model: PredictionModel, dataset: Dataset,
                   grid_strategy: GridStrategy | None = None,
                   measure: str = SAMPLE_SD, workers: int = 1,
                   aggregator: str = "mean") -> ImportanceReport:
    """One partial dependence pass and one score per feature.

    Each feature's grid is :func:`build_grid`'s: a categorical grid is its
    level table whatever the strategy. A feature with fewer than two grid
    points (a constant column) cannot support a spread and scores 0 with a
    ``degenerate`` flag instead of failing the whole report.
    """
    if dataset.n_rows < 2:
        raise ParameterError("importance needs at least 2 training rows")
    _check_measure(measure)
    reducer(aggregator)  # checked even when no feature has a grid to score
    if grid_strategy is None:
        grid_strategy = GridStrategy.unique()
    entries = []
    for name in dataset.feature_names:
        grid = build_grid(dataset, [name], grid_strategy)
        used = measure_for(grid.axes[0].kind, measure)
        if grid.size < 2:
            entries.append(ImportanceEntry(name, 0.0, used, grid.size, degenerate=True))
            continue
        values = pd_values_at(model, dataset, [name], grid.points(), workers, aggregator)
        entries.append(ImportanceEntry(name, spread(values, used), used, grid.size))
    ranked = sorted(entries, key=lambda e: -e.score)
    return ImportanceReport(tuple(ranked), str(grid_strategy), aggregator)


def theoretical_uniform_sd(beta: float) -> float:
    """Population sd of the true PD of a coefficient-``beta`` feature on U(0,1).

    The true partial dependence of a linear term is a line with slope
    ``beta``, whose variance under a uniform marginal is ``beta**2 / 12``.
    """
    return abs(beta) / math.sqrt(12.0)

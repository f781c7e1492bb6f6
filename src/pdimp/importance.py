"""Variable importance as the flatness of the partial dependence function.

A feature whose partial dependence barely moves has little influence on
the predicted outcome. The score is the sample standard deviation of the
PD values for a continuous feature and the range divided by four for a
categorical one (an sd estimate for small samples); the median absolute
deviation is available as a robust alternative.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import Dataset
from .engine import GridStrategy, PDResult, build_grid, pd_values_at
from .errors import DegenerateGridError, ParameterError
from .models import PredictionModel

SAMPLE_SD = "sd"
MAD = "mad"
RANGE_OVER_4 = "range4"
MEASURES = (SAMPLE_SD, MAD, RANGE_OVER_4)


def sample_sd(values: np.ndarray) -> float:
    """Standard deviation with the k-1 denominator."""
    return float(np.std(values, ddof=1))


def _mad(values: np.ndarray) -> float:
    return float(np.median(np.abs(values - np.median(values))))


def _range_over_4(values: np.ndarray) -> float:
    return float(values.max() - values.min()) / 4.0


def spread(values: np.ndarray, measure: str) -> float:
    if measure not in MEASURES:
        raise ParameterError(f"unknown flatness measure {measure!r}; pick one of {MEASURES}")
    if measure in (SAMPLE_SD, MAD) and len(values) < 2:
        raise DegenerateGridError(f"{measure} needs at least 2 grid points")
    if values.max() == values.min():
        return 0.0  # guarantee zero-iff-flat, immune to mean round-off
    if measure == SAMPLE_SD:
        return sample_sd(values)
    if measure == MAD:
        return _mad(values)
    return _range_over_4(values)


def importance_from_pd(pd: PDResult, measure: str = SAMPLE_SD) -> float:
    """Score a single-feature PD result.

    Categorical features always use range/4, whatever was requested; a
    perfectly flat PD scores exactly 0 under every measure.
    """
    if len(pd.grid.axes) != 1:
        raise ParameterError("importance is defined for single-feature PD results")
    if measure not in MEASURES:
        raise ParameterError(f"unknown flatness measure {measure!r}; pick one of {MEASURES}")
    axis = pd.grid.axes[0]
    used = RANGE_OVER_4 if axis.kind == "categorical" else measure
    return spread(pd.values, used)


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

    def to_csv(self, target) -> None:
        if isinstance(target, (str, Path)):
            with open(target, "w", encoding="utf-8", newline="") as fh:
                self.to_csv(fh)
            return
        writer = csv.writer(target, lineterminator="\n")
        writer.writerow(["feature", "score"])
        for entry in self.entries:
            writer.writerow([entry.name, repr(entry.score)])

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

    def to_json(self, target) -> None:
        if isinstance(target, (str, Path)):
            with open(target, "w", encoding="utf-8") as fh:
                self.to_json(fh)
            return
        json.dump(self.to_json_dict(), target, indent=2)
        target.write("\n")

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

    The strategy applies to continuous features; a categorical grid is its
    level table regardless. A feature with fewer than two grid points (a
    constant column) cannot support a spread and scores 0 with a
    ``degenerate`` flag instead of failing the whole report.
    """
    if dataset.n_rows < 2:
        raise ParameterError("importance needs at least 2 training rows")
    if measure not in MEASURES:
        raise ParameterError(f"unknown flatness measure {measure!r}; pick one of {MEASURES}")
    if grid_strategy is None:
        grid_strategy = GridStrategy.unique()
    entries = []
    for feat in dataset.schema:
        strategy = grid_strategy if feat.is_continuous else GridStrategy.unique()
        grid = build_grid(dataset, [feat.name], strategy)
        used = RANGE_OVER_4 if not feat.is_continuous else measure
        if grid.size < 2:
            entries.append(ImportanceEntry(feat.name, 0.0, used, grid.size, degenerate=True))
            continue
        values = pd_values_at(model, dataset, grid.features, grid.points(), workers, aggregator)
        entries.append(ImportanceEntry(feat.name, spread(values, used), used, grid.size))
    ranked = sorted(entries, key=lambda e: -e.score)
    return ImportanceReport(tuple(ranked), str(grid_strategy), aggregator)


def theoretical_uniform_sd(beta: float) -> float:
    """Population sd of the true PD of a coefficient-``beta`` feature on U(0,1).

    The true partial dependence of a linear term is a line with slope
    ``beta``, whose variance under a uniform marginal is ``beta**2 / 12``.
    """
    return abs(beta) / math.sqrt(12.0)

"""Seeded synthetic benchmarks with closed-form partial dependence truths.

Two generators: a two-feature linear response and the classic ten-feature
benchmark ``y = 10 sin(pi x1 x2) + 20 (x3 - 0.5)^2 + 10 x4 + 5 x5 + eps``
whose features are iid U(0,1) and where x6..x10 never enter the response.

Reproducibility contract: all draws come from a Philox4x32-10 counter
stream (numpy's ``Philox`` bit generator) keyed by the seed. Feature
columns are drawn first, one ``random(n)`` call per feature in schema
order; noise is drawn last as ``(integers(0, 2**53) + 0.5) / 2**53``
mapped through the inverse normal CDF and scaled by sigma. The same spec
therefore yields the same dataset, bit for bit, on any platform.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .data import CONTINUOUS, Dataset, FeatureSchema
from .errors import ParameterError

LINEAR = "linear"
FRIEDMAN = "friedman"

# the most rows a simulation may ask for; a Friedman dataset of this many
# rows holds 11 float64 columns, 0.88 GB
MAX_SIMULATION_ROWS = 10_000_000


@dataclass(frozen=True)
class SimulationSpec:
    kind: str
    n: int
    seed: int
    sigma: float
    beta0: float = 1.0
    beta1: float = 3.0
    beta2: float = -5.0

    def __post_init__(self):
        if self.kind not in (LINEAR, FRIEDMAN):
            raise ParameterError(f"unknown simulation kind {self.kind!r}")
        if not 1 <= self.n <= MAX_SIMULATION_ROWS:
            raise ParameterError(f"n must be in [1, {MAX_SIMULATION_ROWS}]")
        if self.sigma < 0:
            raise ParameterError("sigma must be nonnegative")


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=int(seed) & 0xFFFFFFFFFFFFFFFF))


def _gaussian(rng: np.random.Generator, n: int) -> np.ndarray:
    # imported here: scipy's start-up cost is paid only by commands that simulate
    from scipy.special import ndtri

    # strictly interior uniforms, (k + 0.5) / 2^53, keep the inverse CDF finite
    bits = rng.integers(0, 1 << 53, size=n, dtype=np.int64)
    return ndtri((bits + 0.5) * 2.0**-53)


def generate(spec: SimulationSpec) -> Dataset:
    """Simulate a dataset (features plus target column ``y``) from a spec."""
    rng = _rng(spec.seed)
    if spec.kind == LINEAR:
        names = ["x1", "x2"]
    else:
        names = [f"x{i}" for i in range(1, 11)]
    columns = {name: rng.random(spec.n) for name in names}
    noise = spec.sigma * _gaussian(rng, spec.n)
    if spec.kind == LINEAR:
        y = spec.beta0 + spec.beta1 * columns["x1"] + spec.beta2 * columns["x2"] + noise
    else:
        y = (
            10.0 * np.sin(np.pi * columns["x1"] * columns["x2"])
            + 20.0 * (columns["x3"] - 0.5) ** 2
            + 10.0 * columns["x4"]
            + 5.0 * columns["x5"]
            + noise
        )
    schema = [FeatureSchema(name, CONTINUOUS) for name in names]
    schema.append(FeatureSchema("y", CONTINUOUS))
    columns["y"] = y
    return Dataset(schema, columns)


FRIEDMAN_EXPRESSION = "10*sin(pi*x1*x2) + 20*(x3 - 0.5)^2 + 10*x4 + 5*x5"


def true_pd_linear(which: str, beta0: float, beta1: float, beta2: float, value: float) -> float:
    """True partial dependence of the linear response under uniform marginals.

    Averaging the other feature out of ``b0 + b1 x1 + b2 x2`` leaves a line
    with the original slope and the other term replaced by its mean:
    ``f1(v) = b0 + b2/2 + b1 v`` and symmetrically for x2.
    """
    if which == "x1":
        return beta0 + beta2 / 2.0 + beta1 * value
    if which == "x2":
        return beta0 + beta1 / 2.0 + beta2 * value
    raise ParameterError(f"which must be 'x1' or 'x2', got {which!r}")


def true_pd_friedman_pair(pair: tuple[str, str], x1: float, other: float) -> float:
    """Closed-form joint partial dependence of the ten-feature benchmark.

    Supported pairs: (x1, x2) and (x1, x4), with the remaining features
    integrated out over their U(0,1) marginals:

        f(x1, x2) = 10 sin(pi x1 x2) + 55/6
        f(x1, x4) = 10 (1 - cos(pi x1)) / (pi x1) + 10 x4 + 25/6

    At x1 = 0 the (x1, x4) form is its removable-singularity limit
    ``10 x4 + 25/6``; a warning flags the limit evaluation.
    """
    if tuple(pair) == ("x1", "x2"):
        return 10.0 * math.sin(math.pi * x1 * other) + 55.0 / 6.0
    if tuple(pair) == ("x1", "x4"):
        if x1 == 0.0:
            warnings.warn("x1=0 is a removable singularity; returning the x1->0 limit")
            return 10.0 * other + 25.0 / 6.0
        return 10.0 * (1.0 - math.cos(math.pi * x1)) / (math.pi * x1) + 10.0 * other + 25.0 / 6.0
    raise ParameterError(f"no closed form stored for pair {pair!r}")

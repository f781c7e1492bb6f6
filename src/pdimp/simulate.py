"""Seeded synthetic benchmarks with closed-form partial dependence truths.

Two generators: a two-feature linear response and the classic ten-feature
benchmark ``y = 10 sin(pi x1 x2) + 20 (x3 - 0.5)^2 + 10 x4 + 5 x5 + eps``
whose features are iid U(0,1) and where x6..x10 never enter the response.

Reproducibility contract: all draws come from a Philox4x32-10 counter
stream (numpy's ``Philox`` bit generator) keyed by the seed, which must
lie in [0, 2**64). Feature columns are drawn first, one ``random(n)`` call
per feature in schema order; noise is drawn last as
``(integers(0, 2**53) + 0.5) / 2**53`` mapped through the inverse normal
CDF and scaled by sigma. The same spec therefore yields the same dataset,
bit for bit, on any platform whose C library computes ``log`` alike.

The inverse normal CDF is a numpy port of ``ndtri`` from S. L. Moshier's
Cephes library: a rational approximation in ``p - 1/2`` for p in
(exp(-2), 1 - exp(-2)], and in the tails, with ``x = sqrt(-2 log p)``, one
of two rational approximations in ``1/x`` that switch at x = 8. It keeps
Cephes' coefficients, cut points, Horner order and operation order, so it
returns the compiled C routine's doubles bit for bit. The tail logs go
through ``math.log``, the C library's ``log`` that Cephes calls: ``np.log``'s
own vectorised loop differs from it in the last bit on a few inputs in a
million, which would move those draws.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .data import CONTINUOUS, Dataset, FeatureSchema
from .errors import ParameterError, is_integer
from .limits import MAX_SIMULATION_ROWS

LINEAR = "linear"
FRIEDMAN = "friedman"


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
        for name in ("n", "seed"):
            if not is_integer(getattr(self, name)):
                raise ParameterError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if not 1 <= self.n <= MAX_SIMULATION_ROWS:
            raise ParameterError(f"n must be in [1, {MAX_SIMULATION_ROWS}]")
        if not 0 <= self.seed < 2**64:
            raise ParameterError(f"seed must be in [0, 2**64), got {self.seed}")
        for name in ("sigma", "beta0", "beta1", "beta2"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Real):
                raise ParameterError(f"{name} must be a number, got {value!r}")
            if not math.isfinite(value):
                raise ParameterError(f"{name} must be finite, got {value}")
        if self.sigma < 0:
            raise ParameterError("sigma must be nonnegative")


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=int(seed)))


# Cephes ndtri's coefficients, highest power first; each Q starts with the
# leading 1 that Cephes' p1evl adds, which Horner's rule multiplies exactly
_S2PI = 2.50662827463100050242e0  # sqrt(2 pi)
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _polevl(x: np.ndarray, coef: tuple) -> np.ndarray:
    """Horner's rule, highest power first, in Cephes' polevl order."""
    ans = np.full_like(x, coef[0])
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _clog(x: np.ndarray) -> np.ndarray:
    """Natural log through the C library, one element at a time."""
    return np.fromiter(map(math.log, x.tolist()), np.float64, x.size)


def _ndtri(p: np.ndarray) -> np.ndarray:
    """Inverse of the standard normal CDF for p in [0, 1]; -inf and +inf at the ends."""
    flip = p > 1.0 - _EXP_M2
    y = np.where(flip, 1.0 - p, p)
    out = np.empty_like(y)
    centre = y > _EXP_M2
    yc = y[centre] - 0.5
    y2 = yc * yc
    out[centre] = (yc + yc * (y2 * _polevl(y2, _P0) / _polevl(y2, _Q0))) * _S2PI
    tail = ~centre
    yt = y[tail]
    xt = np.full_like(yt, np.inf)  # y = 0: p is 0 or 1
    inner = yt > 0.0
    x = np.sqrt(-2.0 * _clog(yt[inner]))
    x0 = x - _clog(x) / x
    z = 1.0 / x
    x1 = np.where(x < 8.0, z * _polevl(z, _P1) / _polevl(z, _Q1),
                  z * _polevl(z, _P2) / _polevl(z, _Q2))
    xt[inner] = x0 - x1
    out[tail] = np.where(flip[tail], xt, -xt)
    return out


def _gaussian(rng: np.random.Generator, n: int) -> np.ndarray:
    # (k + 0.5) / 2^53 lies in (0, 1) for every k but the last, 2^53 - 1,
    # which rounds to 1.0 and so draws +inf
    bits = rng.integers(0, 1 << 53, size=n, dtype=np.int64)
    return _ndtri((bits + 0.5) * 2.0**-53)


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

"""Prediction contract plus the linear and k-nearest-neighbor learners.

Every model maps a batch of rows to one float64 prediction per row,
deterministically and row-independently, which is all the partial
dependence machinery requires of it. ``predict_grid`` scores the rows with
one or two features pinned to each of a slab of grid points, the rows of a
(points x pinned features) array. Every value is a finite number, or a
categorical feature's level code. ``predict_grid`` checks that once, so no
kernel meets NaN, inf or a code outside the level table, and hands ``_grid``
the pinned columns and a float64 copy of the points; ``_grid`` never writes
into the points it is given. ``_grid`` is every model's one kernel, and
``predict`` is its point that pins nothing.

A kernel allocates each block-sized work array once per ``_grid`` call and
writes every per-point step into it, so scoring more points of a slab costs
arithmetic, not fresh memory from the allocator. Each such array stays local
to the call, since the engine may call ``predict_grid`` from several threads.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .data import CATEGORICAL, Dataset, FeatureSchema
from .errors import ContractError, ParameterError, SingularDesignError, is_integer

# query x training distances held per block of k-NN query rows, and
# differences per piece of the candidates' exact distances
_KNN_BLOCK_ELEMENTS = 65536


class PredictionModel:
    """Abstract scoring contract.

    Subclasses set ``_feature_schema`` (the features the model expects, in
    order) and implement ``_grid``. The engine scores grid points only
    through ``predict_grid``, one slab of consecutive points per call, and
    may make those calls from several threads at once, so a model that
    holds per-request state must serialise its calls itself.
    """

    _feature_schema: tuple[FeatureSchema, ...] = ()

    @property
    def feature_names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self._feature_schema)

    def predict(self, batch: Dataset) -> np.ndarray:
        self._validate_batch(batch)
        return self._grid(batch, [], np.empty((1, 0)))[0]

    def predict_grid(self, batch: Dataset, features: Sequence[str], points) -> np.ndarray:
        """Predictions with ``features`` pinned to each point: one row per point.

        ``points`` holds one row per point, one value per named feature: a
        finite number, or a level code (a whole number in [0, levels)) for a
        categorical one; any other raises ``ParameterError``. Row ``g`` equals
        ``predict`` on ``batch`` with the named columns set to ``points[g]``
        (a batch ``Dataset`` accepts), bit for bit. The block is new, the caller's.
        """
        if len(set(features)) != len(features):
            raise ParameterError(f"grid features must be distinct, got {list(features)}")
        self._validate_batch(batch)
        schemas = [batch.schema_for(name) for name in features]
        cols = [self.feature_names.index(feat.name) for feat in schemas]
        try:
            pinned = np.array(points, dtype=np.float64).reshape(len(points), len(cols))
        except ValueError:
            raise ParameterError(f"each grid point must hold one number per pinned feature "
                                 f"{list(features)}") from None
        for values, feat in zip(pinned.T, schemas):
            if feat.is_continuous and not np.isfinite(values).all():
                raise ParameterError(f"grid values of continuous feature {feat.name!r} must be "
                                     f"finite, got {values[~np.isfinite(values)][0]}")
            if not feat.is_continuous and not np.all(
                    (values >= 0) & (values < len(feat.levels)) & (np.floor(values) == values)):
                raise ParameterError(f"grid values of categorical feature {feat.name!r} must be "
                                     f"level codes 0 to {len(feat.levels) - 1}")
        return self._grid(batch, cols, pinned)

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

    def _grid(self, batch: Dataset, cols: list[int], pinned: np.ndarray) -> np.ndarray:
        columns = pinned_columns(batch, self.feature_names, cols, pinned)
        out = np.full((len(pinned), batch.n_rows), self.intercept)
        for feat in self._feature_schema:
            col = columns[feat.name]
            if feat.is_continuous:
                out += self.coefficients[feat.name] * col
            else:
                for k, level in enumerate(feat.levels[1:], start=1):
                    out += self.coefficients[f"{feat.name}={level}"] * (col == k)
        return out


class KnnModel(PredictionModel):
    """k-nearest-neighbor regression under standardized Euclidean distance.

    Each row's k nearest training rows are picked exactly, in (distance,
    row) order, so distance ties resolve to the lower training row and every
    prediction is bit-identical to scoring the rows one by one with a stable
    argsort of their exact distances.

    In ``_grid`` the distance over the unpinned features is the same at
    every grid point, so it is summed once per block of rows. Adding the
    pinned terms of a point gives each training row a distance that differs
    from the exact one by rounding only; the training rows within a proven
    margin of the k-th smallest of those are the only ones whose exact
    distance is computed. A query row with no provable margin (an inf
    distance, or one near overflow) keeps every training row.
    """

    def __init__(self, k: int, schema: Sequence[FeatureSchema], train: np.ndarray,
                 targets: np.ndarray, scales: np.ndarray):
        if not is_integer(k):
            raise ParameterError(f"k must be an integer, got {k!r}")
        self._feature_schema = tuple(schema)
        self.k = int(k)
        self.train = np.asarray(train, dtype=np.float64)
        self.targets = np.asarray(targets, dtype=np.float64)
        self.scales = np.asarray(scales, dtype=np.float64)
        if not (1 <= self.k <= len(self.targets)):
            raise ParameterError(f"k={self.k} must be in [1, {len(self.targets)}]")
        if not np.all(np.isfinite(self.scales) & (self.scales > 0)):
            raise ParameterError("scale factors must be finite and strictly positive")
        self._scaled_train = self.train / self.scales

    def _grid(self, batch: Dataset, cols: list[int], pinned: np.ndarray) -> np.ndarray:
        """Predictions with the columns ``cols`` set to each row of ``pinned``.

        Query rows go in blocks of at most ``_KNN_BLOCK_ELEMENTS`` query x
        training distances (one row at least); the candidates' exact
        distances are computed in pieces of at most that many differences.
        """
        query = np.column_stack([batch.column(f.name) for f in self._feature_schema])
        query /= self.scales
        pinned = pinned / self.scales[cols]
        train = self._scaled_train
        rows = max(1, min(batch.n_rows, _KNN_BLOCK_ELEMENTS // len(train)))
        out = np.empty((len(pinned), batch.n_rows))
        work = np.empty((3, rows, len(train)))
        mask = np.empty((rows, len(train)), dtype=bool)
        for start in range(0, batch.n_rows, rows):
            block = query[start:start + rows]
            rest, scratch, approx = work[:, :len(block)]
            rest.fill(0.0)  # the unpinned features' terms
            for f in range(train.shape[1]):
                if f not in cols:
                    np.subtract(train[:, f], block[:, f:f + 1], out=scratch)
                    scratch *= scratch
                    rest += scratch
            for g, values in enumerate(pinned):
                block[:, cols] = values  # query is this call's own copy
                out[g, start:start + rows] = self._pruned(
                    rest, cols, values, block, (scratch, approx, mask[:len(block)]))
        return out

    def _pruned(self, rest, cols, values, block, work) -> np.ndarray:
        """Predictions for the scaled query rows ``block``, whose
        unpinned distance terms sum to ``rest`` and whose ``cols`` hold
        ``values``. ``work`` holds the call's scratch, approximate-distance
        and keep arrays, each of ``rest``'s shape, which this point overwrites.

        Why the margin is safe. For one query row and training row, the
        exact squared distance ``e`` and the approximate one ``a`` (``rest``
        plus the pinned terms) are floating-point sums of the same p
        nonnegative terms, bit-identical in both, added in different orders
        with at most p + 1 additions. Every term and partial sum is
        nonnegative, so without overflow each sum is within a factor 1 +- g
        of the real sum S of the terms, g = (p + 1)u / (1 - (p + 1)u), u =
        2**-53; a relative bound is enough, whatever the order. Let A be
        the row's k-th smallest ``a``. The k training rows with ``a <= A``
        have S <= A / (1 - g), so E, the k-th smallest ``e``, is at most rho
        A with rho = (1 + g) / (1 - g). A training row can be among the k
        nearest only if its rounded root is at most that of E, so e <= E
        ((1 + u) / (1 - u))**2, and its ``a`` is at most rho e. Chained: a
        <= A rho**2 ((1 + u) / (1 - u))**2, about A (1 + (4p + 8)u), which
        ``margin`` = 1 + 8(p + 2)u exceeds for any p below 2**40 (it is
        exact: a multiple of 2**-52 above 1). Rounding A * margin cannot
        drop such a row: a float below the real product is at most its
        rounding. Kept rows are rescored exactly, so extra ones change
        nothing.

        Inf voids the bound, so a query row whose A * margin is not at most
        2**1000 keeps every training row: its stable sort then runs over all
        of its exact distances in training-row order, with no padding, as a
        sort of the whole row does. Every value is finite, so only a
        distance that overflows is inf. For every other row no sum that the
        argument uses comes near overflow, every kept row's exact distance
        is finite, and a row whose ``a`` is inf is rightly never kept.
        """
        k, train = self.k, self._scaled_train
        n_train, p = train.shape
        scratch, approx, keep = work
        term = train[:, cols] - values
        term *= term
        np.add(rest, np.sum(term, axis=1), out=approx)
        np.copyto(scratch, approx)
        scratch.partition(k - 1, axis=1)
        limit = scratch[:, k - 1:k] * (1.0 + (p + 2) * 2.0**-50)
        np.less_equal(approx, limit, out=keep)
        keep[~(limit[:, 0] <= 2.0**1000)] = True  # no margin: every training row
        row, cand = np.divmod(np.flatnonzero(keep), n_train)
        dist = np.empty(len(cand))
        step = max(1, _KNN_BLOCK_ELEMENTS // p)
        for a in range(0, len(cand), step):
            diff = np.take(train, cand[a:a + step], axis=0)
            diff -= np.take(block, row[a:a + step], axis=0)
            diff *= diff
            dist[a:a + step] = np.sum(diff, axis=1)
        np.sqrt(dist, out=dist)
        # each query row's candidates, in training-row order, padded with
        # inf (a row that keeps every training row has no padding, and in
        # every other row each candidate's distance is finite); a stable
        # sort of each row then picks the k nearest in (distance, row) order
        counts = np.bincount(row, minlength=len(block))
        first = np.cumsum(counts) - counts
        slot = np.arange(len(cand)) - first[row]
        table = np.full((len(block), counts.max()), np.inf)
        table[row, slot] = dist
        order = np.argsort(table, axis=1, kind="stable")[:, :k]
        return np.mean(self.targets[cand[first[:, None] + order]], axis=1)


def pinned_columns(batch: Dataset, names: Sequence[str], cols: list[int], pinned) -> dict:
    """The named columns of ``batch``, each of ``cols`` (indices into
    ``names``) replaced by a contiguous (points x 1) copy of its ``pinned``
    values, which broadcasts against the (rows,) columns left as they are."""
    columns = {name: batch.column(name) for name in names}
    for j, values in zip(cols, pinned.T):
        columns[names[j]] = values.reshape(-1, 1).copy()
    return columns


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
    unit-free; constant columns keep scale 1. Continuous features only; a
    column whose standard deviation overflows (values beyond about 1e154)
    is rejected rather than silently dropped from every distance.
    """
    features, y = dataset.split_target(target_name)
    for feat in features.schema:
        if not feat.is_continuous:
            raise ParameterError(
                f"k-NN supports continuous features only; {feat.name!r} is categorical"
            )
    train = np.column_stack([features.column(f.name) for f in features.schema])
    if features.n_rows > 1:
        with np.errstate(over="ignore", invalid="ignore"):
            scales = np.std(train, axis=0, ddof=1)
    else:
        scales = np.ones(train.shape[1])
    for feat, scale in zip(features.schema, scales):
        if not np.isfinite(scale):
            raise ParameterError(
                f"feature {feat.name!r} has a standard deviation that overflows; "
                "k-NN cannot scale it"
            )
    scales = np.where(scales > 0, scales, 1.0)
    return KnnModel(k, features.schema, train, y, scales)

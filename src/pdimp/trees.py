"""Bagged binary regression trees with exhaustive least-squares splits.

Splits on continuous features compare against midpoint thresholds between
consecutive sorted unique values; splits on categorical features send a
subset of levels left, found by ordering levels by mean response (optimal
for squared error). Everything is deterministic given the seed: each tree
draws its bootstrap from a Philox stream keyed by (seed, tree index), so
results do not depend on fitting order or worker scheduling.

Prediction descends every tree with all rows at once and averages the
leaf values tree by tree in a fixed order. ``predict_grid`` scores the
rows with one or two features pinned to each of many grid points: within
one tree, grid points that take the same branch at every split on the
pinned features (one "split cell") reach the same leaves, so each cell of
the whole grid is descended once instead of each point (the exact form
of Friedman's 2001 weighted traversal). The result equals ``predict``
point by point, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import Dataset, FeatureSchema
from .errors import ParameterError
from .models import PredictionModel

# elements in each temporary of ``predict_grid`` (a block of cells x rows
# being descended, a slab of one tree's leaf values being added to the
# output); a memory cap only, results do not depend on it
_GRID_CHUNK_ELEMENTS = 8192


@dataclass
class _Node:
    feature: int = -1
    threshold: float = 0.0
    left_levels: np.ndarray | None = None  # bool mask over levels, categorical splits
    left: "_Node | None" = None
    right: "_Node | None" = None
    value: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def _best_split(columns, schema, rows, y, min_leaf):
    """Return (gain, feature_index, threshold_or_prefix, left_mask) or None.

    Gain is the reduction in summed squared error. Ties resolve to the
    lower feature index, then the lower threshold.
    """
    n = rows.size
    total = float(y.sum())
    base = total * total / n
    best = None
    for j, feat in enumerate(schema):
        vals = columns[j][rows]
        if feat.is_continuous:
            order = np.argsort(vals, kind="stable")
            sv = vals[order]
            sy = y[order]
            left_sum = np.cumsum(sy)[:-1]
            left_cnt = np.arange(1, n)
            right_cnt = n - left_cnt
            boundary = sv[1:] != sv[:-1]
            valid = boundary & (left_cnt >= min_leaf) & (right_cnt >= min_leaf)
            if not valid.any():
                continue
            gain = np.where(
                valid,
                left_sum**2 / left_cnt + (total - left_sum) ** 2 / right_cnt - base,
                -np.inf,
            )
            t = int(np.argmax(gain))  # first max: lowest threshold wins ties
            if gain[t] > 0 and (best is None or gain[t] > best[0]):
                threshold = (sv[t] + sv[t + 1]) / 2.0
                best = (float(gain[t]), j, threshold, None)
        else:
            n_levels = len(feat.levels)
            if n_levels < 2:
                continue
            sums = np.bincount(vals, weights=y, minlength=n_levels)
            counts = np.bincount(vals, minlength=n_levels)
            present = np.flatnonzero(counts)
            if present.size < 2:
                continue
            means = sums[present] / counts[present]
            order = present[np.argsort(means, kind="stable")]
            left_sum = np.cumsum(sums[order])[:-1]
            left_cnt = np.cumsum(counts[order])[:-1]
            right_cnt = n - left_cnt
            valid = (left_cnt >= min_leaf) & (right_cnt >= min_leaf)
            if not valid.any():
                continue
            gain = np.where(
                valid,
                left_sum**2 / left_cnt + (total - left_sum) ** 2 / right_cnt - base,
                -np.inf,
            )
            t = int(np.argmax(gain))  # first max: shortest level prefix wins ties
            if gain[t] > 0 and (best is None or gain[t] > best[0]):
                mask = np.zeros(n_levels, dtype=bool)
                mask[order[: t + 1]] = True
                best = (float(gain[t]), j, float(t), mask)
    return best


def _grow(columns, schema, rows, targets, depth, max_depth, min_leaf):
    node = _Node(value=float(np.mean(targets[rows])))
    if depth >= max_depth or rows.size < 2 * min_leaf:
        return node
    found = _best_split(columns, schema, rows, targets[rows], min_leaf)
    if found is None:
        return node
    _, j, threshold, mask = found
    vals = columns[j][rows]
    if mask is None:
        go_left = vals <= threshold
    else:
        go_left = mask[vals]
    node.feature = j
    node.threshold = threshold
    node.left_levels = mask
    node.left = _grow(columns, schema, rows[go_left], targets, depth + 1, max_depth, min_leaf)
    node.right = _grow(columns, schema, rows[~go_left], targets, depth + 1, max_depth, min_leaf)
    return node


class _FlatForest:
    """All trees flattened into shared node arrays for vectorized descent.

    An internal node's children sit at adjacent slots (left, left + 1), so
    one gather plus the comparison bit replaces separate left/right
    lookups. Leaves point at themselves with a +inf threshold, making
    extra traversal steps a no-op.
    """

    def __init__(self, roots: Sequence[_Node], n_levels_max: int):
        sizes = [_count(r) for r in roots]
        total = sum(sizes)
        self.tree = np.repeat(np.arange(len(roots)), sizes)
        self.depth = np.array([_depth_of(r) for r in roots])
        self.feature = np.zeros(total, dtype=np.int32)
        self.threshold = np.full(total, np.inf)
        self.child = np.zeros(total, dtype=np.int32)
        self.value = np.zeros(total)
        self.cat_row = np.full(total, -1, dtype=np.int32)
        self.root = np.zeros(len(roots), dtype=np.int32)
        cat_masks = []
        cursor = 0
        for t, tree_root in enumerate(roots):
            self.root[t] = cursor
            queue = [(tree_root, cursor)]
            cursor += 1
            while queue:
                node, slot = queue.pop(0)
                self.value[slot] = node.value
                if node.is_leaf:
                    self.child[slot] = slot
                    continue
                self.feature[slot] = node.feature
                self.child[slot] = cursor
                if node.left_levels is None:
                    self.threshold[slot] = node.threshold
                else:
                    self.threshold[slot] = np.nan
                    self.cat_row[slot] = len(cat_masks)
                    padded = np.zeros(n_levels_max, dtype=bool)
                    padded[: node.left_levels.size] = node.left_levels
                    cat_masks.append(padded)
                queue.append((node.left, cursor))
                queue.append((node.right, cursor + 1))
                cursor += 2
        self.cat_masks = (
            np.vstack(cat_masks) if cat_masks else np.zeros((1, max(n_levels_max, 1)), dtype=bool)
        )
        self.has_categorical = bool(cat_masks)
        self.internal = self.child != np.arange(total)

    def step(self, node: np.ndarray, vals: np.ndarray) -> np.ndarray:
        """Children of ``node`` for the compared feature values ``vals``."""
        go_right = vals > self.threshold[node]
        if self.has_categorical:
            crow = self.cat_row[node]
            is_cat = crow >= 0
            if is_cat.any():
                # only categorical splits read a code; others may compare NaN
                codes = np.where(is_cat, vals, 0.0).astype(np.int64)
                codes = np.clip(codes, 0, self.cat_masks.shape[1] - 1)
                cat_left = self.cat_masks[np.maximum(crow, 0), codes]
                go_right = np.where(is_cat, ~cat_left, go_right)
        return self.child[node] + go_right


def _count(node: _Node) -> int:
    return 1 if node.is_leaf else 1 + _count(node.left) + _count(node.right)


def _tree_rng(seed: int, index: int) -> np.random.Generator:
    key = (int(seed) & 0xFFFFFFFFFFFFFFFF) * (1 << 64) + index
    return np.random.Generator(np.random.Philox(key=key))


class BaggedTreesModel(PredictionModel):
    """Mean over an ensemble of bootstrap-fitted regression trees."""

    def __init__(self, schema: Sequence[FeatureSchema], roots: Sequence[_Node],
                 n_trees: int, max_depth: int, min_leaf: int, seed: int):
        self._feature_schema = tuple(schema)
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.seed = seed
        self._roots = list(roots)
        n_levels_max = max(
            (len(f.levels) for f in self._feature_schema if not f.is_continuous), default=1
        )
        self._flat = _FlatForest(self._roots, n_levels_max)

    def _matrix(self, batch: Dataset) -> np.ndarray:
        return np.ascontiguousarray(
            np.vstack([batch.column(f.name).astype(np.float64) for f in self._feature_schema])
        )

    def _predict_checked(self, batch: Dataset) -> np.ndarray:
        out = np.empty((1, batch.n_rows))
        self._fold_cells(self._matrix(batch), [], np.empty((1, 0)), out)
        return out[0]

    def predict_grid(self, batch: Dataset, features: Sequence[str],
                     points: Sequence[tuple]) -> np.ndarray:
        """Predictions with ``features`` pinned to each point: one row per point.

        Row ``g`` equals, bit for bit, ``predict`` on ``batch`` with each
        named column overwritten by the constant ``points[g]`` value.
        Split cells are shared across the whole grid; besides the returned
        block and per-tree labels of the points, no temporary holds more
        than ``max(_GRID_CHUNK_ELEMENTS, rows)`` elements.
        """
        self._validate_batch(batch)
        cols = [self.feature_names.index(batch.schema_for(name).name) for name in features]
        pinned = np.empty((len(points), len(cols)))
        for s, j in enumerate(cols):
            cast = float if self._feature_schema[j].is_continuous else int
            pinned[:, s] = [cast(p[s]) for p in points]
        out = np.empty((len(points), batch.n_rows))
        self._fold_cells(self._matrix(batch), cols, pinned, out)
        return out

    def _tree_cells(self, cols: list[int], pinned: np.ndarray):
        """Per tree, in order: (cell of each point, one point of each cell).

        Two points share a cell when every split of the tree on a pinned
        feature sends them the same way: for a threshold feature, when the
        same number of the tree's thresholds lie below both values (NaN
        goes left everywhere, like -inf); for a categorical feature split
        by the tree, when their level codes are equal.
        """
        flat = self._flat
        n_points = len(pinned)
        per_col = []
        for s, col in enumerate(cols):
            on = np.flatnonzero(flat.internal & (flat.feature == col))
            bounds = np.searchsorted(flat.tree[on], np.arange(len(flat.root) + 1))
            if self._feature_schema[col].is_continuous:
                values = np.where(np.isnan(pinned[:, s]), -np.inf, pinned[:, s])
            else:
                values = np.clip(pinned[:, s].astype(np.int64), 0, flat.cat_masks.shape[1] - 1)
            per_col.append((self._feature_schema[col].is_continuous,
                            flat.threshold[on], bounds, values))
        every = np.arange(n_points)
        for t in range(len(flat.root)):
            code = np.zeros(n_points, dtype=np.int64)
            radix = 1
            for continuous, thresholds, bounds, values in per_col:
                lo, hi = bounds[t], bounds[t + 1]
                if lo == hi:
                    continue
                if continuous:
                    side = np.searchsorted(np.sort(thresholds[lo:hi]), values)
                    width = hi - lo + 1
                else:
                    side, width = values, flat.cat_masks.shape[1]
                code = code * width + side
                radix *= width
            present = np.bincount(code, minlength=radix) > 0
            cell = np.cumsum(present) - 1
            member = np.empty(radix, dtype=np.intp)
            member[code] = every  # any member will do: a cell's points share every leaf
            yield cell[code], member[present]

    def _fold_cells(self, matrix: np.ndarray, cols: list[int], pinned: np.ndarray,
                    out: np.ndarray) -> None:
        """Write into ``out`` the mean over trees for each row of ``pinned``.

        Cells of consecutive trees are queued until they fill a descent
        block; each cell is descended once over all rows, pinned to one of
        its points. Leaf values are summed tree by tree from +0.0, then
        divided by the tree count: the order of ``np.mean(values, axis=0)``
        over a (trees x rows) block.
        """
        n_trees = len(self._flat.root)
        cap = max(1, _GRID_CHUNK_ELEMENTS // matrix.shape[1])
        queued, n_cells = [], 0
        for t, (cell, member) in enumerate(self._tree_cells(cols, pinned)):
            queued.append((t, cell, member))
            n_cells += len(member)
            if n_cells >= cap or t == n_trees - 1:
                self._descend_queued(matrix, cols, pinned, queued, out)
                queued, n_cells = [], 0
        out /= n_trees

    def _descend_queued(self, matrix, cols, pinned, queued, out) -> None:
        """Descend the queued trees' cells, a block at a time, and fold
        each block's leaf values into ``out``."""
        flat = self._flat
        n = matrix.shape[1]
        sizes = [len(member) for _, _, member in queued]
        starts = np.cumsum([0] + sizes)
        roots = np.repeat(flat.root[[t for t, _, _ in queued]], sizes)
        depths = np.repeat(flat.depth[[t for t, _, _ in queued]], sizes)
        pins = pinned[np.concatenate([member for _, _, member in queued])]
        values = matrix.ravel()
        offset = flat.feature.astype(np.int64) * n
        rows = np.arange(n)
        cap = max(1, _GRID_CHUNK_ELEMENTS // n)
        for lo in range(0, len(roots), cap):
            hi = min(lo + cap, len(roots))
            node = np.repeat(roots[lo:hi, None], n, axis=1)
            for _ in range(int(depths[lo:hi].max())):
                vals = values[offset[node] + rows]
                if cols:
                    feat = flat.feature[node]
                    for s, col in enumerate(cols):
                        vals = np.where(feat == col, pins[lo:hi, s: s + 1], vals)
                node = flat.step(node, vals)
            leaf = flat.value[node]
            for (t, cell, _), start, end in zip(queued, starts, starts[1:]):
                if end <= lo or start >= hi:
                    continue
                cell = cell + (start - lo)
                points = None
                if start < lo or end > hi:  # the tree's cells span blocks
                    points = np.flatnonzero((cell >= 0) & (cell < hi - lo))
                    cell = cell[points]
                for a in range(0, len(cell), cap):
                    target = slice(a, a + cap) if points is None else points[a: a + cap]
                    part = leaf[cell[a: a + cap]]
                    if t:
                        out[target] += part
                    else:
                        out[target] = part + 0.0


def _depth_of(node: _Node) -> int:
    return 0 if node.is_leaf else 1 + max(_depth_of(node.left), _depth_of(node.right))


def fit_bagged_trees(dataset: Dataset, target_name: str, n_trees: int = 100,
                     max_depth: int = 6, min_leaf: int = 5, seed: int = 0,
                     bootstrap: bool = True) -> BaggedTreesModel:
    """Fit ``n_trees`` regression trees, each on a seeded bootstrap resample.

    ``bootstrap=False`` fits every tree on the full sample (useful when a
    single deterministic tree is wanted).
    """
    if n_trees < 1:
        raise ParameterError("n_trees must be at least 1")
    if max_depth < 0:
        raise ParameterError("max_depth must be nonnegative")
    if min_leaf < 1:
        raise ParameterError("min_leaf must be at least 1")
    features, y = dataset.split_target(target_name)
    n = features.n_rows
    if n < 2 * min_leaf:
        raise ParameterError(f"need at least {2 * min_leaf} rows, got {n}")
    columns = [features.column(f.name) for f in features.schema]
    roots = []
    for t in range(n_trees):
        if bootstrap:
            rows = np.sort(_tree_rng(seed, t).integers(0, n, size=n))
        else:
            rows = np.arange(n)
        boot_cols = [c[rows] for c in columns]
        boot_y = y[rows]
        roots.append(
            _grow(boot_cols, features.schema, np.arange(n), boot_y, 0, max_depth, min_leaf)
        )
    return BaggedTreesModel(features.schema, roots, n_trees, max_depth, min_leaf, seed)

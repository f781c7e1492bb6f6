"""Reference implementations that the fast kernels are checked against.

``reference_forest`` fits bagged trees the plain way: one node at a time,
each node sorting every feature's values afresh with a stable argsort and
scanning every cut. ``pdimp.trees.fit_bagged_trees`` grows the same trees a
level at a time and must give the same node arrays bit for bit.

``tree_cells_by_tree`` labels the split cells of grid points one tree at a
time, a dozen numpy calls per tree; ``BaggedTreesModel._tree_cells``, which
labels many trees in one set of array calls, must number the cells the
same way.

``pin`` builds the batch that one grid point stands for: every row with
the point's features overwritten. A model's ``predict_grid`` row for that
point must equal its ``predict`` on this batch bit for bit.

``load_csv_by_rows`` is ``pdimp.data.load_csv`` as it was before bodies of
numbers were parsed a chunk at a time: every source is read row by row, each
cell held as text until its column is parsed. ``load_csv`` must give the
same dataset, warning or error for every input.
"""

from __future__ import annotations

import csv
import io
import warnings
from pathlib import Path

import numpy as np

from pdimp.data import _KINDS, Dataset, _column
from pdimp.errors import CsvError, UnknownFeatureError, ValidationError
from pdimp.trees import _FlatForest, _tree_rng


def pin(batch, features, point):
    """``batch`` with each named column overwritten by the matching ``point``
    value: a finite float, or a level code for a categorical feature. It is
    built by the checked ``Dataset`` constructor, which refuses any other."""
    columns = {name: batch.column(name) for name in batch.feature_names}
    for name, value in zip(features, point):
        columns[name] = np.full(batch.n_rows, value)
    return Dataset(batch.schema, columns)


def tree_cells_by_tree(model, cols, pinned):
    """Per tree, in order: (cell of each point, one point of each cell).

    A point's code in a tree packs, pinned feature by pinned feature, its
    side of the tree's splits on that feature: the count of the tree's
    thresholds below it, or its level code if the tree splits the
    categorical feature at all. Cells are the distinct codes, numbered in
    code order.
    """
    flat = model._flat
    n_points = len(pinned)
    per_col = []
    for s, col in enumerate(cols):
        on = np.flatnonzero(flat.internal & (flat.feature == col))
        bounds = np.searchsorted(flat.tree[on], np.arange(len(flat.root) + 1))
        continuous = model._feature_schema[col].is_continuous
        values = pinned[:, s] if continuous else pinned[:, s].astype(np.intp)
        per_col.append((continuous, flat.threshold[on], bounds, values))
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
        member[code] = every
        yield cell[code], member[present]


def _best_split(columns, schema, rows, y, min_leaf):
    """Return (gain, feature index, split) or None, where the split is a
    threshold or, for a categorical feature, a bool mask of the levels sent left.

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
                # the midpoint, unless it rounds onto the upper value or overflows
                low, high = float(sv[t]), float(sv[t + 1])
                mid = (low + high) / 2.0
                best = (float(gain[t]), j, mid if low <= mid < high else low)
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
                best = (float(gain[t]), j, mask)
    return best


def reference_forest(dataset, target_name, n_trees=100, max_depth=6, min_leaf=5,
                     seed=0, bootstrap=True) -> _FlatForest:
    """The forest ``fit_bagged_trees`` fits, grown node by node; no argument checks."""
    features, y = dataset.split_target(target_name)
    n = features.n_rows
    schema = features.schema
    columns = [features.column(f.name) for f in schema]

    def samples():
        for t in range(n_trees):
            rows = np.sort(_tree_rng(seed, t).integers(0, n, size=n)) if bootstrap else np.arange(n)
            yield [c[rows] for c in columns], y[rows], np.arange(n)

    def grow(item, level):
        cols, targets, rows = item
        value = float(np.mean(targets[rows]))
        found = None
        if level < max_depth and rows.size >= 2 * min_leaf:
            found = _best_split(cols, schema, rows, targets[rows], min_leaf)
        if found is None:
            return value, -1, None, ()
        _, j, split = found
        go_left = split[cols[j][rows]] if isinstance(split, np.ndarray) else cols[j][rows] <= split
        return value, j, split, ((cols, targets, rows[go_left]), (cols, targets, rows[~go_left]))

    return _FlatForest(schema, samples(), grow)


def load_csv_by_rows(source, declared_schema=None):
    try:
        if isinstance(source, (str, Path)):
            with open(source, "r", encoding="utf-8-sig", newline="") as fh:
                names, rows = _read_rows(fh)
        elif isinstance(source, bytes):
            text = io.TextIOWrapper(io.BytesIO(source), encoding="utf-8-sig", newline="")
            names, rows = _read_rows(text)
        else:
            names, rows = _read_rows(source)
    except UnicodeDecodeError as exc:
        raise CsvError(f"input is not valid UTF-8: {_bad_byte(source, exc)}") from None
    except csv.Error as exc:
        raise CsvError(f"malformed CSV: {exc}") from None

    declared = declared_schema or {}
    unknown = set(declared) - set(names)
    if unknown:
        raise UnknownFeatureError(f"declared schema names absent columns: {sorted(unknown)}")
    for name in names:
        kind = declared.get(name)
        if kind is not None and kind not in _KINDS:
            raise ValidationError(f"unknown declared kind {kind!r} for column {name!r}")

    if not rows:
        warnings.warn("CSV body is empty; all columns default to categorical with no levels")

    columns = [_column(name, [row[j] for row in rows], declared.get(name))
               for j, name in enumerate(names)]
    return Dataset([feat for feat, _ in columns], {feat.name: values for feat, values in columns})


def _bad_byte(source, exc):
    if isinstance(source, (str, Path)):
        with open(source, "rb") as fh:
            source = fh.read()
    if isinstance(source, bytes):
        try:
            source.decode("utf-8")
        except UnicodeDecodeError as whole:
            line = source.count(b"\n", 0, whole.start) + 1
            return f"line {line}: {whole}"
    return str(exc)


def _read_rows(source):
    reader = csv.reader(source)
    try:
        names = [c.strip() for c in next(reader)]
    except StopIteration:
        raise CsvError("input is empty: no header or data rows") from None
    if len(set(names)) != len(names):
        raise CsvError("duplicate column names in header")
    if any(n == "" for n in names):
        raise CsvError("empty column name in header")

    width = len(names)
    rows = []
    for row in reader:
        if len(row) != width:
            raise CsvError(
                f"row {len(rows) + 1} has {len(row)} fields, expected {width}",
                row=len(rows) + 1,
            )
        rows.append(row)
    return names, rows

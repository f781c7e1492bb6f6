"""Bagged binary regression trees with exhaustive least-squares splits.

Splits on continuous features compare against midpoint thresholds between
consecutive sorted unique values (the lower value where the midpoint would
not separate them); splits on categorical features send a subset of levels
left, found by ordering levels by mean response (optimal for squared
error). Everything is deterministic given the seed: each tree
draws its bootstrap from a Philox stream keyed by (seed, tree index), so
results do not depend on fitting order or worker scheduling.

Fitting grows a block of trees together, a level at a time, over presorted
attribute lists (Mehta, Agrawal and Rissanen 1996, SLIQ; Shafer, Agrawal
and Mehta 1996, SPRINT). Each continuous column of a tree's sample is
sorted once, stably, so its order is (value, row). At each level one
stable argsort of the live rows' node ids regroups every list by node, and
each node keeps the (value, row) order a stable sort of its own rows
gives, so tied values split as they would node by node. The cuts of all
nodes of a level are scored together in padded (features x nodes x longest
node) blocks: left sums by a cumsum along the last axis, equal to each
node's own cumsum; gains elementwise by the formula and in the operation
order of a one-node scan; the first maximum in feature-major order, so the
lower feature wins a tie, then the lower threshold. A categorical feature's
level sums are one weighted bincount over (node, level) codes, which adds
in row order within a node. A node's total stays one contiguous ``sum()``
of its targets in row order, the sum ``np.mean`` takes: ``np.add.reduceat``
or a sum over a zero-padded block would group the pairwise additions
differently and move the last bits. The trees are therefore those of the
one-node-at-a-time scan in ``tests/reference.py``, bit for bit.

Prediction averages the leaf values tree by tree in a fixed order.
``_grid``, under ``predict_grid``, scores the rows with one or two features
pinned to each point of a slab of grid points, by the exact form of Friedman's 2001
weighted traversal. Within one tree, points that take the same branch at
every split on the pinned features (one "split cell") reach the same
leaves. Each row descends each tree once, following both children at a
pinned split; each cell descends through the pinned splits only, following
both children elsewhere. A (cell, row) pair meets at one leaf, and its
value is that leaf's. The result equals ``predict`` point by point, bit for
bit; ``predict`` is the case of no pinned feature, one cell per tree, and so
is a lone point, written into the rows. Each block of trees is folded over
all rows at once, holding per row the leaves it reaches via the pinned splits.

A forest has one form, ``_FlatForest``: every node of every tree in shared
arrays, each tree's nodes in level order. Fitting lays its levels straight
into it, and ``serialize`` reads and writes it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .data import Dataset, FeatureSchema
from .errors import ParameterError, is_integer
from .models import PredictionModel

# fitting grows trees together while their sample positions times (features
# + 1) stay within this many elements, and scores each level's cuts in
# blocks of at most this many (one tree, one node at least); a memory cap
# only, the trees do not depend on it
_FIT_BLOCK_ELEMENTS = 1 << 18

# the grid kernel folds consecutive trees together, over all rows, while
# their cells x max(rows, leaves) stay within this many elements (one tree
# at least); a memory cap only, results do not depend on it
_GRID_CHUNK_ELEMENTS = 16384


class _FlatForest:
    """All trees in shared node arrays, for vectorized descent.

    Each tree's nodes are laid out level by level, so a tree is one slot
    range and the k-th split of a tree, in slot order, has its children at
    the tree's slots 2k + 1 (left) and 2k + 2: one gather plus the
    comparison bit replaces separate left/right lookups. Leaves point at
    themselves with a +inf threshold, making extra traversal steps a no-op;
    a categorical split has a NaN threshold and a row of ``cat_masks``.
    """

    def __init__(self, schema: Sequence[FeatureSchema], starts, visit):
        """Lay out, a level at a time, the trees ``visit`` grows from ``starts``.

        ``visit(item, level)`` returns the node of ``item`` as (value,
        feature, split, children): a leaf has feature -1, split None and no
        children; a split is a threshold or a bool mask of the levels sent
        left, with the left child's item first in children.
        """
        value, feature, threshold, child, cat, root, depth = [], [], [], [], [], [], []
        for start in starts:
            root.append(len(value))
            level, depth_t = [start], -1
            while level:
                depth_t += 1
                following, next_level = [], len(value) + len(level)
                for item in level:
                    node_value, j, split, children = visit(item, depth_t)
                    if isinstance(split, np.ndarray):
                        cat.append((len(value), split))
                        split = np.nan
                    child.append(next_level + len(following) if children else len(value))
                    value.append(node_value)
                    feature.append(j)
                    threshold.append(np.inf if split is None else split)
                    following += children
                level = following
            depth.append(depth_t)
        total = len(value)
        self.root = np.array(root, dtype=np.int32)
        self.end = np.array(root[1:] + [total], dtype=np.int32)
        self.leaves = (self.end - self.root + 1) // 2  # every split has two children
        self.tree = np.repeat(np.arange(len(root)), self.end - self.root)
        self.depth = np.array(depth)
        feature = np.array(feature)
        self.internal = feature >= 0
        self.child = np.array(child, dtype=np.int32)
        self.value = np.array(value, dtype=np.float64)
        self.feature = np.maximum(feature, 0).astype(np.int32)
        self.threshold = np.array(threshold, dtype=np.float64)
        n_levels = max((len(f.levels) for f in schema if not f.is_continuous), default=1)
        self.cat_row = np.full(total, -1, dtype=np.int32)
        self.cat_row[[i for i, _ in cat]] = np.arange(len(cat))
        self.cat_masks = np.zeros((max(len(cat), 1), max(n_levels, 1)), dtype=bool)
        for r, (_, mask) in enumerate(cat):
            self.cat_masks[r, : mask.size] = mask
        self.has_categorical = bool(cat)

    def step(self, node: np.ndarray, vals: np.ndarray) -> np.ndarray:
        """Children of ``node`` for the compared feature values ``vals``."""
        go_right = vals > self.threshold[node]
        if self.has_categorical:
            # each code is valid: a row's own, a pinned one, or an unforked cell's 0.0
            crow = self.cat_row[node]
            cat = np.flatnonzero(crow >= 0)
            go_right[cat] = ~self.cat_masks[crow[cat], vals[cat].astype(np.intp)]
        return self.child[node] + go_right


def _tree_rng(seed: int, index: int) -> np.random.Generator:
    key = int(seed) * (1 << 64) + index
    return np.random.Generator(np.random.Philox(key=key))


class BaggedTreesModel(PredictionModel):
    """Mean over an ensemble of bootstrap-fitted regression trees."""

    def __init__(self, schema: Sequence[FeatureSchema], forest: _FlatForest,
                 n_trees: int, max_depth: int, min_leaf: int, seed: int):
        self._feature_schema = tuple(schema)
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.seed = seed
        self._flat = forest

    def _tree_cells(self, cols: list[int], pinned: np.ndarray):
        """Per tree, in order: (cell of each point, one point of each cell).

        Two points share a cell when every split of the tree on a pinned
        feature sends them the same way: for a threshold feature, when the
        same number of the tree's thresholds lie below both values; for a
        categorical feature split by the tree, when their level codes are
        equal.
        """
        flat = self._flat
        n_points = len(pinned)
        per_col = []
        for s, col in enumerate(cols):
            on = np.flatnonzero(flat.internal & (flat.feature == col))
            bounds = np.searchsorted(flat.tree[on], np.arange(len(flat.root) + 1))
            continuous = self._feature_schema[col].is_continuous
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
            member[code] = every  # any member will do: a cell's points share every leaf
            yield cell[code], member[present]

    def _grid(self, batch: Dataset, cols: list[int], pinned: np.ndarray) -> np.ndarray:
        """Predictions with the columns ``cols`` set to each row of ``pinned``:
        the mean over trees.

        Each row descends each tree once, each split cell of the points
        once, and the two meet at the leaves. Each block of trees is folded
        over all rows at once, holding per row and tree the leaves the row
        reaches through the pinned splits (it forks at each). A lone point
        is written into the kernel's copy of the rows, so each row reaches
        one leaf, as in ``predict``. Leaf values are summed tree by tree
        from +0.0, then divided by the tree count: the order of
        ``np.mean(values, axis=0)`` over a (trees x rows) block. Besides the
        returned block, the copy of the rows, one gather of the block's size
        and the points' per-tree labels, temporaries stay within a small
        multiple of a fold's entries and of its trees' cells x max(rows, leaves).
        """
        matrix = np.vstack([batch.column(f.name) for f in self._feature_schema], dtype=np.float64)
        if len(pinned) == 1:  # a lone point is written into the rows: nothing forks
            matrix[cols] = pinned.T
            cols = []
        flat, n = self._flat, batch.n_rows
        out = np.zeros((len(pinned), n))
        # per node: 0 a split the rows follow by value, 1 a pinned split, 2 a leaf
        kind = np.where(flat.internal, 0, 2)
        for col in cols:
            kind[flat.internal & (flat.feature == col)] = 1
        for block in self._tree_blocks(cols, pinned, n):
            self._fold_block(matrix, cols, pinned, kind, block, out)
        out /= len(flat.root)
        return out

    def _tree_blocks(self, cols: list[int], pinned: np.ndarray, n: int):
        """Consecutive trees' cells, grouped while the sum of cells times
        max(rows, leaves) stays within the cap (one tree at least)."""
        block, weight = [], 0
        for t, (cell, member) in enumerate(self._tree_cells(cols, pinned)):
            size = len(member) * max(n, int(self._flat.leaves[t]))
            if block and weight + size > _GRID_CHUNK_ELEMENTS:
                yield block
                block, weight = [], 0
            block.append((t, cell, member))
            weight += size
        yield block

    def _fold_block(self, matrix, cols, pinned, kind, block, out) -> None:
        """Add a block of consecutive trees' leaf values to ``out``, for the
        rows of ``matrix`` at once.

        Rows and cells descend the block's trees together, one level a
        step. A row follows its own value, except at a pinned split, where
        it follows both children; a cell follows its point's value at a
        pinned split and both children elsewhere. A (cell, row) pair meets
        at exactly one leaf, the one its path reaches, and that leaf's value
        goes to the pair's entry of the block's table; each tree's table
        rows are then gathered to its points in one ``take``.
        """
        flat, n = self._flat, matrix.shape[1]
        trees = [t for t, _, _ in block]
        sizes = [len(member) for _, _, member in block]
        first = np.cumsum([0] + sizes)
        roots = flat.root[trees]
        # owners 0..n-1 are the rows, n and up the cells that descend. With no
        # pinned feature nothing forks, and a tree's one cell, which does not
        # descend, meets each row at the row's own leaf: the rows are read in place.
        descending = sizes if cols else [0] * len(block)
        columns = matrix
        if cols:
            columns = np.zeros((matrix.shape[0], n + sum(descending)))
            columns[:, :n] = matrix
            columns[cols, n:] = pinned[np.concatenate([member for _, _, member in block])].T
        values = columns.ravel()
        offset = flat.feature.astype(np.intp) * columns.shape[1]
        node = np.concatenate([np.repeat(roots, n), np.repeat(roots, descending)])
        owner = np.concatenate([np.tile(np.arange(n, dtype=np.int32), len(trees)),
                                np.arange(n, columns.shape[1], dtype=np.int32)])
        ended = []
        for level in range(int(flat.depth[trees].max())):
            if level % 8 == 7:  # in a deep tree, stop stepping the entries at a leaf
                done = ~flat.internal[node]
                ended.append((node[done], owner[done]))
                node, owner = node[~done], owner[~done]
            nxt = flat.step(node, values[offset[node] + owner])
            both = np.flatnonzero(kind[node] == (owner < n)) if cols else ()
            if len(both):
                left = flat.child[node[both]]
                nxt[both] = left
                nxt = np.concatenate([nxt, left + 1])
                owner = np.concatenate([owner, owner[both]])
            node = nxt
        node = np.concatenate([node] + [leaf for leaf, _ in ended])
        owner = np.concatenate([owner] + [whose for _, whose in ended])
        table = np.empty((first[-1], n))
        if not cols:
            table[flat.tree[node] - trees[0], owner] = flat.value[node]
        else:
            self._join(node, owner, n, roots[0], flat.end[trees[-1]], table)
        for (_, point_cell, _), base in zip(block, first):
            out += np.take(table, point_cell + base, axis=0)

    def _join(self, node, owner, n, lo, hi, table) -> None:
        """Write each (cell, row) pair's leaf value into ``table``.

        A row at a leaf meets every cell at that leaf. The cells' table
        offsets are listed leaf by leaf in ``cell_base``; the run of table
        entries of a row at a leaf takes that leaf's cells in turn. ``lo``
        and ``hi`` bound the block's node slots.
        """
        is_cell = owner >= n
        cell_leaf, row_leaf = node[is_cell] - lo, node[~is_cell] - lo
        count = np.bincount(cell_leaf, minlength=hi - lo)
        cell_base = (owner[is_cell][np.argsort(cell_leaf)] - n) * np.intp(n)
        meets = count[row_leaf]
        dest = np.repeat((np.cumsum(count) - count)[row_leaf] - np.cumsum(meets) + meets, meets)
        dest += np.arange(dest.size)
        np.take(cell_base, dest, out=dest, mode="clip")  # in place: each index is read first
        dest += np.repeat(owner[~is_cell], meets)
        table.ravel()[dest] = np.repeat(self._flat.value[node[~is_cell]], meets)


def _grow_levels(schema, columns, y, sample, max_depth, min_leaf) -> list[list[tuple]]:
    """Grow one tree per row of ``sample`` (trees x n row indices), all of
    them a level at a time.

    Returns, per level, the nodes of every tree in tree order as
    ``_FlatForest`` visits them, each child as the item (levels, index in
    its level).
    """
    n_trees, n = sample.shape
    rows = sample.ravel()
    targets = y[rows]
    values = np.stack([column[rows] for column in columns], dtype=np.float64)
    cont = [j for j, f in enumerate(schema) if f.is_continuous]
    cats = [j for j, f in enumerate(schema) if not f.is_continuous and len(f.levels) > 1]
    n_levels = max((len(schema[j].levels) for j in cats), default=1)
    row_of = {j: 1 + i for i, j in enumerate(cont)}
    cont_values = values[cont]
    # the live nodes' sample positions, node after node: row 0 in position
    # order, row 1 + i in (value, position) order of continuous feature cont[i]
    order = np.empty((1 + len(cont), n_trees * n), dtype=np.intp)
    order[0] = np.arange(n_trees * n)
    by_value = np.argsort(cont_values.reshape(len(cont), n_trees, n), axis=-1, kind="stable")
    order[1:] = (by_value + np.arange(0, n_trees * n, n)[:, None]).reshape(len(cont), n_trees * n)
    count = np.full(n_trees, n)
    levels = []
    while True:
        k_nodes = len(count)
        start = np.cumsum(count) - count
        node = np.repeat(np.arange(k_nodes), count)
        grouped = targets[order[0]]
        # one contiguous sum per node: the sum np.mean takes, not a regrouped one
        total = np.array([grouped[s: s + c].sum() for s, c in zip(start.tolist(), count.tolist())])
        gain = np.full((len(schema), k_nodes), -np.inf)
        cut = np.zeros((len(schema), k_nodes), dtype=np.intp)
        ranks = {}
        live = (count >= 2 * min_leaf) & (len(levels) < max_depth)
        if live.any():
            base = total * total / count
            if cont:
                gain[cont], cut[cont] = _continuous_gains(cont_values, targets, order[1:], start,
                                                          count, total, base, live, min_leaf)
            for j in cats:
                gain[j], cut[j], ranks[j] = _categorical_gains(
                    values[j, order[0]], grouped, node, count, total, base, live, min_leaf,
                    len(schema[j].levels))
        feature = np.argmax(gain, axis=0)  # first max: the lower feature wins ties
        split = gain[feature, np.arange(k_nodes)] > 0
        threshold = np.full(k_nodes, np.inf)
        left_levels = np.zeros((k_nodes, n_levels), dtype=bool)
        nodes, left = [], 0  # the next level's nodes so far
        for k, (value, j, t, is_split) in enumerate(zip(
                (total / count).tolist(), feature.tolist(),
                cut[feature, np.arange(k_nodes)].tolist(), split.tolist())):
            if not is_split:
                nodes.append((value, -1, None, ()))
                continue
            if j in ranks:
                left_levels[k, ranks[j][k, : t + 1]] = True
                rule = left_levels[k, : len(schema[j].levels)].copy()
            else:
                low, high = values[j, order[row_of[j], start[k] + t: start[k] + t + 2]].tolist()
                # the midpoint, unless it rounds onto the upper value or overflows
                mid = (low + high) / 2.0
                threshold[k] = rule = mid if low <= mid < high else low
            nodes.append((value, j, rule, ((levels, left), (levels, left + 1))))
            left += 2
        levels.append(nodes)
        if not left:
            return levels
        # each position's child, gathering every live position's split value at once
        splitting = split[node]
        node, here = node[splitting], order[0][splitting]
        vals = values[feature[node], here]
        go_right = vals > threshold[node]
        categorical = np.flatnonzero(left_levels.any(axis=1)[node])
        go_right[categorical] = ~left_levels[node[categorical], vals[categorical].astype(np.intp)]
        child = np.full(n_trees * n, -1)
        child[here] = 2 * (np.cumsum(split) - 1)[node] + go_right
        count = np.bincount(child[here], minlength=left)
        if len(levels) == max_depth or not (count >= 2 * min_leaf).any():
            order = order[:1]  # the next level splits no node: it needs only its sums
        # regroup by child: a stable sort keeps each node's orders (a radix
        # sort for keys of 16 bits or less)
        keys = child[order]
        kept = keys >= 0
        keys = keys[kept].reshape(len(order), -1).astype(np.min_scalar_type(left))
        order = np.take_along_axis(order[kept].reshape(len(order), -1),
                                   np.argsort(keys, axis=1, kind="stable"), axis=1)


def _continuous_gains(values, targets, order, start, count, total, base, live, min_leaf):
    """Best cut of each continuous feature for each node: (gain, index of
    the cut in the node's sorted values), each (features x nodes), gain
    -inf where no cut is valid or the node is not ``live``.

    The nodes are scored longest first in padded (features x nodes x
    longest node) blocks of at most ``_FIT_BLOCK_ELEMENTS`` elements; a
    node's padding repeats its last position and lies past its last cut.
    """
    n_features = len(order)
    gain = np.full((n_features, len(count)), -np.inf)
    cut = np.zeros((n_features, len(count)), dtype=np.intp)
    live = np.flatnonzero(live)
    live = live[np.argsort(-count[live], kind="stable")]
    longest_first = -count[live]
    flat = values.ravel()
    row = (np.arange(n_features) * values.shape[1])[:, None, None]
    i = 0
    while i < len(live):
        width = int(count[live[i]])
        # down to 3/4 of the longest node: padding stays below a third
        end = np.searchsorted(longest_first, -(3 * width // 4), side="right")
        nodes = live[i: min(end, i + max(1, _FIT_BLOCK_ELEMENTS // (n_features * width)))]
        i += len(nodes)
        at = np.minimum(start[nodes, None] + np.arange(width), (start + count - 1)[nodes, None])
        positions = order[:, at]
        sv = np.take(flat, positions + row)
        left_sum = np.cumsum(np.take(targets, positions), axis=-1)[..., :-1]
        left_cnt = np.arange(1, width)
        right_cnt = count[nodes, None] - left_cnt
        valid = (sv[..., 1:] != sv[..., :-1]) & (left_cnt >= min_leaf) & (right_cnt >= min_leaf)
        block = _gain(left_sum, left_cnt, right_cnt, total[nodes, None], base[nodes, None], valid)
        best = np.argmax(block, axis=-1)  # first max: the lowest threshold wins ties
        gain[:, nodes] = np.take_along_axis(block, best[..., None], axis=-1)[..., 0]
        cut[:, nodes] = best
    return gain, cut


def _categorical_gains(codes, grouped, node, count, total, base, live, min_leaf, n_levels):
    """Best level subset of one categorical feature for each node: (gain,
    index of the last level sent left, levels in order of mean response),
    gain -inf where no subset is valid or the node is not ``live``.

    ``codes`` and ``grouped`` are the feature and the target at each
    position, node after node in position order, as ``node`` labels them.
    """
    k_nodes = len(count)
    key = node * n_levels + codes.astype(np.intp)
    sums = np.bincount(key, weights=grouped, minlength=k_nodes * n_levels).reshape(k_nodes, -1)
    counts = np.bincount(key, minlength=k_nodes * n_levels).reshape(k_nodes, -1)
    present = counts > 0
    means = np.full(sums.shape, np.inf)  # absent levels rank last
    means[present] = sums[present] / counts[present]
    rank = np.argsort(means, axis=1, kind="stable")
    left_sum = np.cumsum(np.take_along_axis(sums, rank, axis=1), axis=1)[:, :-1]
    left_cnt = np.cumsum(np.take_along_axis(counts, rank, axis=1), axis=1)[:, :-1]
    right_cnt = count[:, None] - left_cnt
    valid = live[:, None] & (left_cnt >= min_leaf) & (right_cnt >= min_leaf)
    block = _gain(left_sum, left_cnt, right_cnt, total[:, None], base[:, None], valid)
    best = np.argmax(block, axis=1)  # first max: the shortest level prefix wins ties
    return block[np.arange(k_nodes), best], best, rank


def _gain(left_sum, left_cnt, right_cnt, total, base, valid):
    """Reduction in summed squared error at each ``valid`` cut, -inf at the others.

    Like the node-by-node scan, this evaluates every cut, broadcast. An
    invalid cut's right count, 0 or less past a node's end, is masked to 1
    first, so no cut divides by zero; ``fit_bagged_trees``'s bound on the
    target keeps every sum, padded or not, far from overflow.
    """
    right_cnt = np.where(valid, right_cnt, 1)
    return np.where(valid, left_sum**2 / left_cnt + (total - left_sum) ** 2 / right_cnt - base,
                    -np.inf)


def _check_parameters(n_trees: int, max_depth: int, min_leaf: int, seed: int) -> None:
    """Refuse what no fit takes: fitting and loading a model both check here."""
    for name, value in (("n_trees", n_trees), ("max_depth", max_depth),
                        ("min_leaf", min_leaf), ("seed", seed)):
        if not is_integer(value):
            raise ParameterError(f"{name} must be an integer, got {value!r}")
    for name, value, low in (("n_trees", n_trees, 1), ("max_depth", max_depth, 0),
                             ("min_leaf", min_leaf, 1)):
        if value < low:
            raise ParameterError(f"{name} must be at least {low}, got {value}")
    if not 0 <= seed < 2**64:
        raise ParameterError(f"seed must be in [0, 2**64), got {seed}")


def fit_bagged_trees(dataset: Dataset, target_name: str, n_trees: int = 100,
                     max_depth: int = 6, min_leaf: int = 5, seed: int = 0,
                     bootstrap: bool = True) -> BaggedTreesModel:
    """Fit ``n_trees`` regression trees, each on a seeded bootstrap resample.

    ``bootstrap=False`` fits every tree on the full sample (useful when a
    single deterministic tree is wanted).
    """
    _check_parameters(n_trees, max_depth, min_leaf, seed)
    features, y = dataset.split_target(target_name)
    n = features.n_rows
    if n < 2 * min_leaf:
        raise ParameterError(f"need at least {2 * min_leaf} rows, got {n}")
    # n max|y| bounds every sample's sum |y|, and each gain term is at most
    # 2 (sum |y|)**2: below this bound no squared sum overflows
    if n * np.abs(y).max() > 2.0**510:
        raise ParameterError(f"target {target_name!r} is too large for least-squares splits: "
                             f"{n} rows times its largest magnitude exceed 2**510")
    schema = features.schema
    columns = [features.column(f.name) for f in schema]
    per_block = max(1, _FIT_BLOCK_ELEMENTS // (n * (len(schema) + 1)))

    def roots():
        for first in range(0, n_trees, per_block):
            sample = np.array([
                np.sort(_tree_rng(seed, t).integers(0, n, size=n)) if bootstrap else np.arange(n)
                for t in range(first, min(first + per_block, n_trees))
            ])
            levels = _grow_levels(schema, columns, y, sample, max_depth, min_leaf)
            for t in range(len(sample)):
                yield levels, t

    forest = _FlatForest(schema, roots(), lambda item, depth: item[0][depth][item[1]])
    return BaggedTreesModel(schema, forest, n_trees, max_depth, min_leaf, seed)

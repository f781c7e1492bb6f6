"""Bagged regression trees against brute-force oracles."""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pdimp.trees as trees_module
from pdimp import (
    Dataset,
    FeatureSchema,
    GridStrategy,
    ParameterError,
    SimulationSpec,
    build_grid,
    fit_bagged_trees,
    generate,
    load_model,
    model_from_json,
    model_to_json,
    save_model,
)


# --- independent oracle: exhaustive split enumeration ------------------

def _sse(y):
    return float(np.sum((y - np.mean(y)) ** 2)) if len(y) else 0.0


def _oracle_tree(X, y, depth, max_depth, min_leaf):
    """Brute-force CART: try every (feature, midpoint threshold) split."""
    node = {"value": float(np.mean(y))}
    if depth >= max_depth or len(y) < 2 * min_leaf:
        return node
    best = None
    for j in range(X.shape[1]):
        uniq = np.unique(X[:, j])
        for a, b in zip(uniq[:-1], uniq[1:]):
            threshold = (a + b) / 2.0
            mask = X[:, j] <= threshold
            if mask.sum() < min_leaf or (~mask).sum() < min_leaf:
                continue
            gain = _sse(y) - _sse(y[mask]) - _sse(y[~mask])
            if gain > 0 and (best is None or gain > best[0] + 1e-9):
                best = (gain, j, threshold, mask)
    if best is None:
        return node
    _, j, threshold, mask = best
    node.update(feature=j, threshold=threshold)
    node["left"] = _oracle_tree(X[mask], y[mask], depth + 1, max_depth, min_leaf)
    node["right"] = _oracle_tree(X[~mask], y[~mask], depth + 1, max_depth, min_leaf)
    return node


def _oracle_predict(node, row):
    while "feature" in node:
        node = node["left"] if row[node["feature"]] <= node["threshold"] else node["right"]
    return node["value"]


class TestFitting:
    def test_depth_zero_single_tree_predicts_a_constant(self):
        ds = Dataset.from_dict({"a": [0.0, 1.0, 2.0, 3.0], "y": [1.0, 2.0, 3.0, 10.0]})
        model = fit_bagged_trees(ds, "y", n_trees=1, max_depth=0, min_leaf=1, seed=5)
        preds = model.predict(Dataset.from_dict({"a": [-5.0, 0.5, 7.0]}))
        assert preds[0] == preds[1] == preds[2]

    def test_depth_zero_without_bootstrap_predicts_the_sample_mean(self):
        ds = Dataset.from_dict({"a": [0.0, 1.0, 2.0, 3.0], "y": [1.0, 2.0, 3.0, 10.0]})
        model = fit_bagged_trees(ds, "y", n_trees=1, max_depth=0, min_leaf=1,
                                 seed=5, bootstrap=False)
        assert model.predict(Dataset.from_dict({"a": [99.0]}))[0] == 4.0

    def test_two_cluster_data_splits_in_the_gap(self):
        ds = Dataset.from_dict({
            "a": [-3.0, -2.0, -1.0, 1.0, 2.0, 3.0],
            "y": [0.0, 0.0, 0.0, 1.0, 1.0, 1.0],
        })
        model = fit_bagged_trees(ds, "y", n_trees=1, max_depth=1, min_leaf=1,
                                 seed=0, bootstrap=False)
        root = model_to_json(model)["trees"][0]
        assert -1.0 < root["threshold"] < 1.0
        preds = model.predict(Dataset.from_dict({"a": [-10.0, 10.0]}))
        np.testing.assert_array_equal(preds, [0.0, 1.0])

    @pytest.mark.parametrize("low,high", [
        (np.nextafter(1.0, 2.0), np.nextafter(np.nextafter(1.0, 2.0), 2.0)),  # mid rounds up
        (1e308, 1.7e308),  # the sum overflows
    ], ids=["adjacent-floats", "overflow"])
    def test_threshold_separates_its_two_values(self, tmp_path, low, high):
        ds = Dataset.from_dict({"a": [low] * 3 + [high] * 3, "y": [0.0] * 3 + [1.0] * 3})
        model = fit_bagged_trees(ds, "y", n_trees=1, max_depth=1, min_leaf=1,
                                 seed=0, bootstrap=False)
        root = model_to_json(model)["trees"][0]
        assert low <= root["threshold"] < high
        assert (root["left"]["value"], root["right"]["value"]) == (0.0, 1.0)
        save_model(model, tmp_path / "model.json")
        back = load_model(tmp_path / "model.json")
        assert back.predict(ds.drop("y")).tolist() == [0.0] * 3 + [1.0] * 3

    def test_depth2_tree_matches_exhaustive_search_oracle(self):
        rng = np.random.default_rng(13)
        X = rng.uniform(size=(8, 2))
        y = rng.uniform(size=8) * 10
        ds = Dataset.from_dict({"f0": X[:, 0], "f1": X[:, 1], "y": y})
        model = fit_bagged_trees(ds, "y", n_trees=1, max_depth=2, min_leaf=1,
                                 seed=0, bootstrap=False)
        oracle = _oracle_tree(X, y, 0, 2, 1)
        queries = rng.uniform(-0.2, 1.2, size=(60, 2))
        got = model.predict(Dataset.from_dict({"f0": queries[:, 0], "f1": queries[:, 1]}))
        want = [_oracle_predict(oracle, row) for row in queries]
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_min_leaf_is_respected(self):
        rng = np.random.default_rng(3)
        ds = Dataset.from_dict({"a": rng.uniform(size=30), "y": rng.uniform(size=30)})
        model = fit_bagged_trees(ds, "y", n_trees=5, max_depth=8, min_leaf=7, seed=1)

        def leaf_counts(node, rows, column):
            if "feature" not in node:
                yield rows.size
                return
            mask = column[rows] <= node["threshold"]
            yield from leaf_counts(node["left"], rows[mask], column)
            yield from leaf_counts(node["right"], rows[~mask], column)

        # re-derive each tree's bootstrap rows through its seeded stream
        from pdimp.trees import _tree_rng
        for t, root in enumerate(model_to_json(model)["trees"]):
            rows = np.sort(_tree_rng(1, t).integers(0, 30, size=30))
            col = ds.column("a")[rows]
            assert all(c >= 7 for c in leaf_counts(root, np.arange(30), col))

    def test_insufficient_rows(self):
        ds = Dataset.from_dict({"a": [1.0, 2.0, 3.0], "y": [1.0, 2.0, 3.0]})
        with pytest.raises(ParameterError, match="at least"):
            fit_bagged_trees(ds, "y", n_trees=1, max_depth=2, min_leaf=2, seed=0)

    def test_bad_params(self):
        ds = Dataset.from_dict({"a": [1.0, 2.0], "y": [1.0, 2.0]})
        for kwargs in ({"n_trees": 0}, {"max_depth": -1}, {"min_leaf": 0}):
            with pytest.raises(ParameterError):
                fit_bagged_trees(ds, "y", seed=0, **{"n_trees": 1, "max_depth": 1,
                                                     "min_leaf": 1, **kwargs})


class TestPrediction:
    def test_mean_over_trees_matches_by_hand_traversal(self):
        rng = np.random.default_rng(21)
        ds = Dataset.from_dict({
            "a": rng.uniform(size=25), "b": rng.uniform(size=25),
            "y": rng.uniform(size=25),
        })
        model = fit_bagged_trees(ds, "y", n_trees=3, max_depth=3, min_leaf=2, seed=9)
        queries = Dataset.from_dict({"a": rng.uniform(size=10), "b": rng.uniform(size=10)})

        def walk(node, row):
            while "feature" in node:
                v = row[node["feature"]]
                node = node["left"] if v <= node["threshold"] else node["right"]
            return node["value"]

        rows = np.column_stack([queries.column("a"), queries.column("b")])
        per_tree = np.array([[walk(r, row) for row in rows]
                             for r in model_to_json(model)["trees"]])
        want = [(c[0] + c[1] + c[2]) / 3.0 for c in per_tree.T]
        np.testing.assert_allclose(model.predict(queries), want, atol=0)

    def test_categorical_subset_split(self):
        # y is determined by which group of levels a row falls in
        labels = ["a", "b", "c", "d"] * 5
        y = [{"a": 0.0, "b": 10.0, "c": 0.0, "d": 10.0}[u] for u in labels]
        ds = Dataset.from_dict({"g": labels, "y": y})
        model = fit_bagged_trees(ds, "y", n_trees=1, max_depth=1, min_leaf=1,
                                 seed=0, bootstrap=False)
        preds = model.predict(Dataset.from_dict({"g": ["a", "b", "c", "d"]}))
        np.testing.assert_array_equal(preds, [0.0, 10.0, 0.0, 10.0])

    def test_same_seed_is_bit_reproducible(self):
        rng = np.random.default_rng(2)
        ds = Dataset.from_dict({"a": rng.uniform(size=40), "y": rng.uniform(size=40)})
        q = Dataset.from_dict({"a": rng.uniform(size=15)})
        m1 = fit_bagged_trees(ds, "y", n_trees=20, max_depth=4, min_leaf=2, seed=77)
        m2 = fit_bagged_trees(ds, "y", n_trees=20, max_depth=4, min_leaf=2, seed=77)
        assert np.array_equal(m1.predict(q), m2.predict(q))

    def test_different_seeds_differ(self):
        rng = np.random.default_rng(2)
        ds = Dataset.from_dict({"a": rng.uniform(size=40), "y": rng.uniform(size=40)})
        q = Dataset.from_dict({"a": rng.uniform(size=15)})
        m1 = fit_bagged_trees(ds, "y", n_trees=10, max_depth=4, min_leaf=2, seed=1)
        m2 = fit_bagged_trees(ds, "y", n_trees=10, max_depth=4, min_leaf=2, seed=2)
        assert not np.array_equal(m1.predict(q), m2.predict(q))

    def test_batch_invariance(self):
        rng = np.random.default_rng(6)
        ds = Dataset.from_dict({"a": rng.uniform(size=30), "y": rng.uniform(size=30)})
        model = fit_bagged_trees(ds, "y", n_trees=7, max_depth=3, min_leaf=2, seed=3)
        qs = rng.uniform(size=9)
        whole = model.predict(Dataset.from_dict({"a": qs}))
        singles = [model.predict(Dataset.from_dict({"a": [v]}))[0] for v in qs]
        assert np.array_equal(whole, np.array(singles))


# --- the split-cell grid kernel -----------------------------------------


def _walk_mean(model, batch):
    """Reference predict: walk each saved tree document row by row, add leaf
    values in tree order starting from 0.0, divide by the tree count."""
    names = [f.name for f in model._feature_schema]
    roots = model_to_json(model)["trees"]
    out = []
    for i in range(batch.n_rows):
        row = [batch.column(name)[i] for name in names]
        total = 0.0
        for node in roots:
            while "feature" in node:
                v = row[node["feature"]]
                if "threshold" in node:
                    go_left = not v > node["threshold"]  # NaN goes left
                else:
                    go_left = int(v) in node["left_levels"]
                node = node["left"] if go_left else node["right"]
            total += node["value"]
        out.append(total / len(roots))
    return np.array(out)


def _pinned(batch, features, point):
    for name, value in zip(features, point):
        kind = batch.schema_for(name)
        column = (np.full(batch.n_rows, float(value)) if kind.is_continuous
                  else np.full(batch.n_rows, int(value), dtype=np.int64))
        batch = batch.replace_column(name, column)
    return batch


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_grid_block_equals_per_point_predict_bit_for_bit(data):
    n = data.draw(st.integers(2, 12), label="rows")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    ds = Dataset(
        (FeatureSchema("a", "continuous"), FeatureSchema("b", "continuous"),
         FeatureSchema("c", "continuous"), FeatureSchema("g", "categorical", ("u", "v", "w")),
         FeatureSchema("y", "continuous")),
        {
            "a": rng.uniform(-1, 1, size=n),
            "b": rng.integers(0, 3, size=n) * 0.5,  # ties on the grid
            "c": np.full(n, 2.0),  # never split: a pinned feature no tree uses
            "g": rng.integers(0, 3, size=n),
            "y": rng.normal(size=n),
        },
    )
    model = fit_bagged_trees(
        ds, "y", n_trees=data.draw(st.integers(1, 12), label="trees"),
        max_depth=data.draw(st.integers(0, 4), label="depth"), min_leaf=1,
        seed=data.draw(st.integers(0, 1000), label="fit seed"),
    )
    features = ds.drop("y")
    batch = features.take([0]) if data.draw(st.booleans(), label="one row") else features
    pinned = data.draw(st.lists(st.sampled_from("abcg"), min_size=1, max_size=2, unique=True),
                       label="pinned")
    if data.draw(st.booleans(), label="unique grid"):
        points = build_grid(features, pinned, GridStrategy.unique()).points()
    else:
        draw_value = {"a": st.floats(-1.5, 1.5) | st.just(np.nan),
                      "b": st.sampled_from([0.0, 0.25, 0.5, 1.0]),
                      "c": st.floats(0, 3), "g": st.integers(0, 2)}
        points = data.draw(st.lists(st.tuples(*(draw_value[f] for f in pinned)),
                                    min_size=1, max_size=20), label="points")

    saved = trees_module._GRID_CHUNK_ELEMENTS
    trees_module._GRID_CHUNK_ELEMENTS = data.draw(st.sampled_from([1, 7, 64, saved]),
                                                  label="chunk elements")
    try:
        block = model.predict_grid(batch, pinned, points)
    finally:
        trees_module._GRID_CHUNK_ELEMENTS = saved
    for row, point in zip(block, points):
        perturbed = _pinned(batch, pinned, point)
        assert np.array_equal(row, model.predict(perturbed))
        assert np.array_equal(row, _walk_mean(model, perturbed))


def test_predict_is_batch_invariant_with_many_trees():
    # a 1-row batch used to sum trees pairwise; every batch now sums in tree order
    rng = np.random.default_rng(31)
    ds = Dataset.from_dict({"a": rng.uniform(size=60), "y": rng.normal(size=60) * 1e3})
    model = fit_bagged_trees(ds, "y", n_trees=64, max_depth=5, min_leaf=1, seed=4)
    q = Dataset.from_dict({"a": rng.uniform(size=25)})
    whole = model.predict(q)
    singles = [model.predict(q.take([i]))[0] for i in range(q.n_rows)]
    assert np.array_equal(whole, np.array(singles))
    assert np.array_equal(whole, _walk_mean(model, q))


def _cell_signature(root, col, value):
    """Branch taken at every split on feature ``col``, in node order."""
    sides, stack = [], [root]
    while stack:
        node = stack.pop()
        if "feature" not in node:
            continue
        if node["feature"] == col:
            sides.append(bool(value > node["threshold"]))
        stack += [node["left"], node["right"]]
    return tuple(sides)


@pytest.mark.parametrize("rows", [3, 400])
def test_each_split_cell_is_descended_once_over_the_whole_grid(rows):
    rng = np.random.default_rng(37)
    ds = Dataset.from_dict({"a": rng.uniform(size=80), "b": rng.uniform(size=80),
                            "y": rng.normal(size=80)})
    model = fit_bagged_trees(ds, "y", n_trees=5, max_depth=4, min_leaf=2, seed=3)
    points = [(v,) for v in np.linspace(-0.1, 1.1, 3000)]
    pinned = np.array(points)
    cells = list(model._tree_cells([0], pinned))
    for root, (cell, member) in zip(model_to_json(model)["trees"], cells):
        signatures = [_cell_signature(root, 0, p[0]) for p in points]
        assert len(member) == len(set(signatures))  # one descent per distinct cell
        for g, sig in enumerate(signatures):
            assert sig == signatures[member[cell[g]]]
    batch = Dataset.from_dict({"a": rng.uniform(size=rows), "b": rng.uniform(size=rows)})
    block = model.predict_grid(batch, ["a"], points[::50])
    for row, point in zip(block, points[::50]):
        assert np.array_equal(row, _walk_mean(model, _pinned(batch, ["a"], point)))


def test_deep_forest_mixed_pairs_match_predict_and_the_walk(monkeypatch):
    # depth-6 trees that split on both kinds of feature, pinned in mixed pairs
    rng = np.random.default_rng(53)
    n = 100
    g = rng.integers(0, 4, size=n)
    a = rng.uniform(-1, 1, size=n)
    b = rng.normal(size=n)
    ds = Dataset(
        (FeatureSchema("a", "continuous"), FeatureSchema("b", "continuous"),
         FeatureSchema("g", "categorical", ("p", "q", "r", "s")),
         FeatureSchema("y", "continuous")),
        {"a": a, "b": b, "g": g,
         "y": np.sin(3 * a) * (g - 1.5) + b * (g % 2) + rng.normal(scale=0.1, size=n)},
    )
    model = fit_bagged_trees(ds, "y", n_trees=8, max_depth=6, min_leaf=2, seed=11)
    flat = model._flat
    assert flat.depth.max() == 6 and flat.has_categorical
    features = ds.drop("y")
    for pair in (("a", "g"), ("g", "b")):
        col = model.feature_names.index(pair[0] if pair[1] == "g" else pair[1])
        thresholds = np.unique(flat.threshold[flat.internal & (flat.feature == col)])
        values = [np.nan, -5.0, 7.0, *thresholds[::8]]  # NaN, outside the data, on splits
        points = [(v, code) if pair[1] == "g" else (code, v) for v in values for code in range(4)]
        blocks = []
        for cap in (64, trees_module._GRID_CHUNK_ELEMENTS):  # a row slice at a time, then not
            monkeypatch.setattr(trees_module, "_GRID_CHUNK_ELEMENTS", cap)
            blocks.append(model.predict_grid(features, list(pair), points))
        assert np.array_equal(blocks[0], blocks[1])
        for row, point in zip(blocks[1], points):
            perturbed = _pinned(features, pair, point)
            assert np.array_equal(row, model.predict(perturbed))
            assert np.array_equal(row, _walk_mean(model, perturbed))


def test_grid_kernel_memory_stays_within_the_chunk_cap():
    # a pair grid's (cell, row) table over all trees would be several MB here
    ds = generate(SimulationSpec(kind="friedman", n=400, sigma=1.0, seed=3))
    model = fit_bagged_trees(ds, "y", n_trees=20, max_depth=6, min_leaf=5, seed=2)
    features = ds.drop("y")
    points = build_grid(features, ["x1", "x2"], GridStrategy.quantile(10)).points()
    assert len(points) == 121
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        block = model.predict_grid(features, ["x1", "x2"], points)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= block.nbytes + 8 * trees_module._GRID_CHUNK_ELEMENTS * 8


def test_a_tree_over_the_cap_folds_all_rows_at_once_within_a_few_blocks_of_memory():
    # every tree's (cell, row) table is over the cap, so each block is one
    # tree folded over all 1000 rows; its temporaries grow with its cells x rows
    ds = generate(SimulationSpec(kind="friedman", n=1000, sigma=1.0, seed=7))
    model = fit_bagged_trees(ds, "y", n_trees=6, max_depth=6, min_leaf=5, seed=3)
    features = ds.drop("y")
    points = build_grid(features, ["x1", "x2"], GridStrategy.quantile(10)).points()
    cells = [len(member) for _, member in model._tree_cells([0, 1], points)]
    assert min(cells) * features.n_rows > trees_module._GRID_CHUNK_ELEMENTS
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        block = model.predict_grid(features, ["x1", "x2"], points)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 4 * block.nbytes
    for row, point in zip(block, points):
        assert np.array_equal(row, model.predict(_pinned(features, ["x1", "x2"], point)))


def test_a_large_batch_is_folded_a_capped_slice_of_rows_at_a_time():
    # an engine slab of one point over many rows: each row forks at every
    # split on x1, so a fold over all rows would hold rows x leaves entries
    model = fit_bagged_trees(generate(SimulationSpec(kind="friedman", n=2000, sigma=1.0, seed=5)),
                             "y", n_trees=4, max_depth=6, min_leaf=5, seed=9)
    cap = trees_module._GRID_CHUNK_ELEMENTS
    features = generate(SimulationSpec(kind="friedman", n=8 * cap + 3, sigma=1.0,
                                       seed=6)).drop("y")
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        block = model.predict_grid(features, ["x1"], [(0.5,)])
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    matrix = len(features.feature_names) * block.nbytes  # the kernel's copy of the rows
    assert peak - matrix - block.nbytes <= 64 * cap * 8
    assert np.array_equal(block[0], model.predict(_pinned(features, ["x1"], (0.5,))))


def test_tree_deeper_than_eight_levels_matches_the_walk():
    # entries resting at a leaf are set aside every eighth level of the descent
    schema = [{"name": "a", "kind": "continuous"}, {"name": "b", "kind": "continuous"}]
    tree = {"value": -1.0}
    for i in reversed(range(20)):
        tree = {"feature": i % 2, "threshold": 1.0 - i / 20, "value": 0.0,
                "left": tree, "right": {"value": 100.0 + i}}
    model = model_from_json({"format": 1, "kind": "bagged_trees", "schema": schema,
                             "n_trees": 2, "max_depth": 20, "min_leaf": 1, "seed": 0,
                             "trees": [tree, tree["left"]]})
    rng = np.random.default_rng(59)
    batch = Dataset.from_dict({"a": rng.uniform(-0.2, 1.2, size=40),
                               "b": rng.uniform(-0.2, 1.2, size=40)})
    points = [(v,) for v in np.linspace(-0.1, 1.1, 25)]
    block = model.predict_grid(batch, ["a"], points)
    for row, point in zip(block, points):
        assert np.array_equal(row, _walk_mean(model, _pinned(batch, ["a"], point)))


def test_saved_forest_bytes_are_pinned_and_loading_rebuilds_every_node_array(tmp_path):
    # threshold and level-mask splits; the digest was recorded when trees were
    # still fitted as linked nodes and flattened afterwards
    rng = np.random.default_rng(61)
    n = 60
    g = rng.integers(0, 3, size=n)
    a = rng.uniform(size=n)
    ds = Dataset(
        (FeatureSchema("a", "continuous"), FeatureSchema("g", "categorical", ("p", "q", "r")),
         FeatureSchema("y", "continuous")),
        {"a": a, "g": g, "y": np.sin(4 * a) + g * (a > 0.5) + rng.normal(scale=0.1, size=n)},
    )
    model = fit_bagged_trees(ds, "y", n_trees=4, max_depth=4, min_leaf=3, seed=5)
    flat = model._flat
    assert flat.has_categorical and np.isfinite(flat.threshold).any()
    path = tmp_path / "model.json"
    save_model(model, path)
    assert (hashlib.sha256(path.read_bytes()).hexdigest()
            == "85c64b3a412c69e3e24d84cc6d61d5fdb6a67eab5d62234e02e9dc43ff96b6ae")
    loaded = model_from_json(model_to_json(model))._flat
    assert vars(loaded).keys() == vars(flat).keys()
    for name, array in vars(flat).items():
        again = getattr(loaded, name)
        if isinstance(array, np.ndarray):
            assert again.dtype == array.dtype, name
            assert np.array_equal(again, array, equal_nan=True), name
        else:
            assert again == array, name

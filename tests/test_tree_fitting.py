"""The level-at-a-time tree fitter against the node-by-node reference."""

import hashlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import reference_forest

import pdimp.trees as trees_module
from pdimp import Dataset, FeatureSchema, SimulationSpec, fit_bagged_trees, generate, save_model


def _assert_same_forest(forest, reference):
    """Every node array equal, dtype included; the forest flag too."""
    assert vars(forest).keys() == vars(reference).keys()
    arrays = 0
    for name, want in vars(reference).items():
        got = getattr(forest, name)
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype, name
            assert np.array_equal(got, want, equal_nan=True), name
            arrays += 1
        else:
            assert got == want, name
    assert arrays == 12


def _column(kind, n, rng, previous):
    """One drawn feature: its schema and its values."""
    if kind == "float":
        return "continuous", None, rng.normal(size=n) * 10.0 ** rng.integers(-3, 4)
    if kind == "ties":
        return "continuous", None, rng.integers(0, 3, size=n) * 0.5
    if kind == "constant":
        return "continuous", None, np.full(n, 1.5)
    if kind == "copy":  # equal gains on two features: the lower one must win
        return previous
    levels = {"one-level": 1, "categorical": 3, "absent-levels": 5}[kind]
    used = levels if kind != "absent-levels" else 2
    return "categorical", tuple("pqrst"[:levels]), rng.integers(0, used, size=n)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_level_fitter_matches_the_node_by_node_reference(data):
    min_leaf = data.draw(st.integers(1, 4), label="min_leaf")
    n = data.draw(st.integers(2 * min_leaf, 2 * min_leaf + 30), label="rows")  # from the edge
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    kinds = data.draw(st.lists(st.sampled_from(
        ["float", "ties", "constant", "copy", "one-level", "categorical", "absent-levels"]),
        min_size=1, max_size=4), label="features")
    schema, columns, previous = [], {}, ("continuous", None, rng.uniform(size=n))
    for i, kind in enumerate(kinds):
        previous = _column(kind, n, rng, previous)
        feature_kind, levels, values = previous
        schema.append(FeatureSchema(f"x{i}", feature_kind, levels))
        columns[f"x{i}"] = values
    # integer targets tie gains within and across features
    columns["y"] = (rng.integers(0, 3, size=n).astype(float)
                    if data.draw(st.booleans(), label="integer target") else rng.normal(size=n))
    ds = Dataset((*schema, FeatureSchema("y", "continuous")), columns)
    params = dict(n_trees=data.draw(st.integers(1, 5), label="trees"),
                  max_depth=data.draw(st.integers(0, 5), label="max_depth"), min_leaf=min_leaf,
                  seed=data.draw(st.integers(0, 1000), label="fit seed"),
                  bootstrap=data.draw(st.booleans(), label="bootstrap"))
    model = fit_bagged_trees(ds, "y", **params)
    _assert_same_forest(model._flat, reference_forest(ds, "y", **params))


def test_a_tiny_block_cap_grows_the_same_forest(monkeypatch):
    # one tree per block and one node per gain block, against the default cap
    rng = np.random.default_rng(71)
    n = 150
    g = rng.integers(0, 4, size=n)
    a = rng.uniform(size=n)
    ds = Dataset(
        (FeatureSchema("a", "continuous"), FeatureSchema("b", "continuous"),
         FeatureSchema("g", "categorical", ("p", "q", "r", "s")),
         FeatureSchema("y", "continuous")),
        {"a": a, "b": rng.integers(0, 6, size=n) * 0.25, "g": g,
         "y": np.sin(5 * a) + g * (a > 0.4) + rng.normal(scale=0.2, size=n)},
    )
    params = dict(n_trees=6, max_depth=5, min_leaf=2, seed=9)
    reference = reference_forest(ds, "y", **params)
    _assert_same_forest(fit_bagged_trees(ds, "y", **params)._flat, reference)
    monkeypatch.setattr(trees_module, "_FIT_BLOCK_ELEMENTS", 1)
    _assert_same_forest(fit_bagged_trees(ds, "y", **params)._flat, reference)


def test_friedman_n500_forest_bytes_are_pinned(tmp_path):
    # the forest criterion 10 fits; the digest predates fitting a level at a time
    ds = generate(SimulationSpec(kind="friedman", n=500, sigma=1.0, seed=7))
    model = fit_bagged_trees(ds, "y", n_trees=100, max_depth=6, min_leaf=5, seed=1)
    path = tmp_path / "model.json"
    save_model(model, path)
    assert (hashlib.sha256(path.read_bytes()).hexdigest()
            == "b28825065a017ea74823b144f1593eaf9b7afc5ccb0706028d1a45cd3f16e291")

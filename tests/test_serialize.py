"""JSON round trips for every model kind."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdimp import (
    Dataset,
    GridStrategy,
    ParameterError,
    build_grid,
    fit_bagged_trees,
    fit_knn,
    fit_linear,
    load_model,
    model_from_json,
    model_to_json,
    parse_expression,
    save_model,
)


def _dataset(seed=0, n=30):
    rng = np.random.default_rng(seed)
    return Dataset.from_dict({
        "a": rng.uniform(size=n),
        "b": rng.uniform(size=n),
        "g": [("u", "v", "w")[i] for i in rng.integers(0, 3, size=n)],
        "y": rng.uniform(size=n),
    })


def _continuous_only(seed=0, n=30):
    rng = np.random.default_rng(seed)
    return Dataset.from_dict({
        "a": rng.uniform(size=n), "b": rng.uniform(size=n), "y": rng.uniform(size=n),
    })


class TestRoundTrips:
    def _check(self, model, batch, tmp_path):
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        assert back.feature_names == model.feature_names
        np.testing.assert_array_equal(back.predict(batch), model.predict(batch))

    def test_linear(self, tmp_path):
        ds = _dataset()
        self._check(fit_linear(ds, "y"), ds.drop("y"), tmp_path)

    def test_knn(self, tmp_path):
        ds = _continuous_only()
        self._check(fit_knn(ds, "y", k=4), ds.drop("y"), tmp_path)

    def test_bagged_trees_with_categorical_splits(self, tmp_path):
        ds = _dataset(n=40)
        model = fit_bagged_trees(ds, "y", n_trees=5, max_depth=4, min_leaf=2, seed=8)
        self._check(model, ds.drop("y"), tmp_path)

    def test_expression_serializes_as_source(self, tmp_path):
        ds = _continuous_only()
        model = parse_expression("1 + a*b - sin(a)", ds.drop("y").schema)
        doc = model_to_json(model)
        assert doc["source"] == "1 + a*b - sin(a)"
        self._check(model, ds.drop("y"), tmp_path)


class TestDocumentValidation:
    def test_kind_tag_and_format_are_required(self):
        ds = _continuous_only()
        doc = model_to_json(fit_knn(ds, "y", k=2))
        assert doc["format"] == 1 and doc["kind"] == "knn"
        with pytest.raises(ParameterError, match="format"):
            model_from_json({**doc, "format": 99})
        with pytest.raises(ParameterError, match="kind"):
            model_from_json({**doc, "kind": "mystery"})

    def test_external_model_does_not_serialize(self, tmp_path):
        import sys
        from pdimp import spawn_external
        stub = tmp_path / "c.py"
        stub.write_text(
            'import json\nprint(json.dumps({"protocol": 1, "features": ["a"]}), flush=True)\n'
            "import sys\nsys.stdin.read()\n"
        )
        model = spawn_external([sys.executable, str(stub)])
        try:
            with pytest.raises(ParameterError, match="serialize"):
                model_to_json(model)
        finally:
            model.close()


def _tree_doc():
    ds = _dataset(n=40)
    return model_to_json(fit_bagged_trees(ds, "y", n_trees=3, max_depth=3, min_leaf=2, seed=8))


def _first_split(doc, categorical):
    """First node (depth first) splitting on a categorical / continuous feature."""
    stack = list(doc["trees"])
    while stack:
        node = stack.pop()
        if "feature" in node:
            if ("left_levels" in node) == categorical:
                return node
            stack += [node["left"], node["right"]]
    raise AssertionError("no such split in the fixture forest")


class TestMalformedDocuments:
    @pytest.mark.parametrize("key", ["schema", "trees", "n_trees", "max_depth",
                                     "min_leaf", "seed"])
    def test_missing_tree_model_keys(self, key):
        doc = _tree_doc()
        del doc[key]
        with pytest.raises(ParameterError, match=key):
            model_from_json(doc)

    @pytest.mark.parametrize("kind,key", [("linear", "intercept"), ("linear", "coefficients"),
                                          ("knn", "k"), ("knn", "train"), ("knn", "scales")])
    def test_missing_keys_of_other_kinds(self, kind, key):
        ds = _continuous_only()
        model = fit_linear(ds, "y") if kind == "linear" else fit_knn(ds, "y", k=2)
        doc = model_to_json(model)
        del doc[key]
        with pytest.raises(ParameterError, match=key):
            model_from_json(doc)

    def test_missing_node_keys(self):
        doc = _tree_doc()
        split = _first_split(doc, categorical=False)
        del split["left"]
        with pytest.raises(ParameterError, match="left"):
            model_from_json(doc)

    @pytest.mark.parametrize("feature", [42, -1])
    def test_split_feature_outside_the_schema(self, feature):
        doc = _tree_doc()
        _first_split(doc, categorical=False)["feature"] = feature
        with pytest.raises(ParameterError, match="schema"):
            model_from_json(doc)

    def test_level_count_must_match_the_feature(self):
        doc = _tree_doc()
        _first_split(doc, categorical=True)["n_levels"] = 5
        with pytest.raises(ParameterError, match="levels"):
            model_from_json(doc)

    def test_threshold_on_a_categorical_feature(self):
        doc = _tree_doc()
        split = _first_split(doc, categorical=True)
        del split["left_levels"], split["n_levels"]
        split["threshold"] = 0.5
        with pytest.raises(ParameterError, match="threshold"):
            model_from_json(doc)

    def test_level_mask_on_a_continuous_feature(self):
        doc = _tree_doc()
        split = _first_split(doc, categorical=False)
        del split["threshold"]
        split["left_levels"], split["n_levels"] = [0], 3
        with pytest.raises(ParameterError, match="mask"):
            model_from_json(doc)

    @pytest.mark.parametrize("edit", [
        lambda d: d.update(n_trees=7),
        lambda d: d.update(trees=[]),
        lambda d: d.update(max_depth="6"),
        lambda d: d["trees"].__setitem__(0, [1, 2]),
        lambda d: d["schema"][0].pop("kind"),
        lambda d: d["schema"][2].update(levels="uvw"),
        lambda d: d["schema"][2].update(levels=["u", "v", 3]),
        lambda d: _first_split(d, categorical=True).update(left_levels=[0, 3]),
        lambda d: _first_split(d, categorical=True).update(left_levels=[True]),
    ])
    def test_other_malformed_tree_documents(self, edit):
        doc = _tree_doc()
        edit(doc)
        with pytest.raises(ParameterError):
            model_from_json(doc)

    @pytest.mark.parametrize("key,value", [("seed", -5), ("seed", 2**64), ("max_depth", -1),
                                           ("min_leaf", 0), ("n_trees", 0)])
    def test_tree_parameters_no_fit_takes_are_refused_as_fitting_refuses_them(self, key, value):
        doc = _tree_doc()
        doc[key] = value
        with pytest.raises(ParameterError, match=key) as loading:
            model_from_json(doc)
        params = {"n_trees": 3, "max_depth": 3, "min_leaf": 2, "seed": 8, key: value}
        with pytest.raises(ParameterError) as fitting:
            fit_bagged_trees(_dataset(n=40), "y", **params)
        assert str(loading.value) == str(fitting.value)

    @pytest.mark.parametrize("key,value", [("max_depth", 2.5), ("min_leaf", 2.5), ("seed", 1.5),
                                           ("n_trees", True), ("n_trees", 2.5)])
    def test_fitting_refuses_the_tree_parameters_loading_refuses(self, key, value):
        doc = _tree_doc()
        doc[key] = value
        with pytest.raises(ParameterError, match=key):
            model_from_json(doc)
        params = {"n_trees": 3, "max_depth": 3, "min_leaf": 2, "seed": 8, key: value}
        with pytest.raises(ParameterError, match=f"{key} must be an integer, got {value}"):
            fit_bagged_trees(_dataset(n=40), "y", **params)

    def test_knn_train_must_be_a_matrix(self):
        doc = model_to_json(fit_knn(_continuous_only(), "y", k=2))
        doc["train"] = doc["train"][0]
        with pytest.raises(ParameterError, match="'train' must be 2-dimensional"):
            model_from_json(doc)

    @pytest.mark.parametrize("doc", [[], "model", None])
    def test_a_document_that_is_not_an_object(self, doc):
        with pytest.raises(ParameterError, match="must be a JSON object"):
            model_from_json(doc)

    def test_knn_arrays_must_agree_with_the_schema(self):
        doc = model_to_json(fit_knn(_continuous_only(), "y", k=2))
        doc["scales"] = doc["scales"][:1]
        with pytest.raises(ParameterError, match="k-NN arrays"):
            model_from_json(doc)

    def test_not_json_at_all(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{not json")
        with pytest.raises(ParameterError, match="not a JSON model"):
            load_model(path)


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("models")


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_round_trip_keeps_every_prediction_and_saves_the_same_bytes(model_dir, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    n = data.draw(st.integers(12, 30), label="rows")
    kind = data.draw(st.sampled_from(["linear", "knn", "bagged", "expression"]), label="kind")
    columns = {"a": rng.uniform(-1, 1, size=n), "b": rng.normal(size=n) * 1e3,
               "g": [("u", "v", "w")[i] for i in rng.integers(0, 3, size=n)],
               "y": rng.normal(size=n)}
    if kind == "knn":
        del columns["g"]  # continuous features only
    ds = Dataset.from_dict(columns)
    if kind == "linear":
        model = fit_linear(ds, "y")
    elif kind == "knn":
        model = fit_knn(ds, "y", k=data.draw(st.integers(1, n), label="k"))
    elif kind == "bagged":
        model = fit_bagged_trees(ds, "y", n_trees=data.draw(st.integers(1, 6), label="trees"),
                                 max_depth=data.draw(st.integers(0, 5), label="depth"),
                                 min_leaf=1, seed=data.draw(st.integers(0, 99), label="fit seed"))
    else:
        model = parse_expression("a*b - 3*sin(a) + b^2/7", ds.drop("y").schema)
    first, second = model_dir / "first.json", model_dir / "second.json"
    save_model(model, first)
    back = load_model(first)
    save_model(back, second)
    assert second.read_bytes() == first.read_bytes()
    batch = ds.drop("y")
    assert np.array_equal(back.predict(batch), model.predict(batch))
    pinned = data.draw(st.lists(st.sampled_from(batch.feature_names), min_size=1, max_size=2,
                                unique=True), label="pinned")
    points = build_grid(batch, pinned, GridStrategy.unique()).points()[::5]
    assert np.array_equal(back.predict_grid(batch, pinned, points),
                          model.predict_grid(batch, pinned, points))

"""Linear and k-NN learners plus the shared prediction contract."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pdimp.models as models_module
from pdimp import (
    ContractError,
    Dataset,
    FeatureSchema,
    LinearModel,
    ParameterError,
    SingularDesignError,
    UnknownFeatureError,
    fit_bagged_trees,
    fit_knn,
    fit_linear,
    parse_expression,
)
from pdimp.models import pin
from pdimp.simulate import SimulationSpec, generate


def _linear_dataset(n, seed, sigma=0.0):
    return generate(SimulationSpec("linear", n, seed, sigma))


class TestFitLinear:
    def test_noiseless_surface_is_interpolated(self):
        ds = _linear_dataset(50, seed=1)
        model = fit_linear(ds, "y")
        assert model.intercept == pytest.approx(1.0, abs=1e-10)
        assert model.coefficients["x1"] == pytest.approx(3.0, abs=1e-10)
        assert model.coefficients["x2"] == pytest.approx(-5.0, abs=1e-10)

    def test_constant_feature_is_reported_collinear(self):
        ds = Dataset.from_dict({
            "a": [1.0, 2.0, 3.0, 4.0],
            "flat": [7.0, 7.0, 7.0, 7.0],
            "y": [1.0, 2.0, 3.0, 4.0],
        })
        with pytest.raises(SingularDesignError) as err:
            fit_linear(ds, "y")
        assert "flat" in err.value.columns

    def test_duplicated_feature_is_reported_collinear(self):
        x = [1.0, 2.0, 3.0, 5.0]
        ds = Dataset.from_dict({"a": x, "b": x, "y": [2.0, 3.0, 1.0, 4.0]})
        with pytest.raises(SingularDesignError) as err:
            fit_linear(ds, "y")
        assert err.value.columns == ("b",)

    def test_noisy_fit_matches_normal_equations_oracle(self):
        # sigma = 0.01 keeps the least-squares solution within 0.01 of truth
        ds = _linear_dataset(1000, seed=42, sigma=0.01)
        model = fit_linear(ds, "y")
        assert model.coefficients["x1"] == pytest.approx(3.0, abs=0.01)
        assert model.coefficients["x2"] == pytest.approx(-5.0, abs=0.01)

        # independent oracle: solve X'X beta = X'y directly
        X = np.column_stack([np.ones(1000), ds.column("x1"), ds.column("x2")])
        beta = np.linalg.solve(X.T @ X, X.T @ ds.column("y"))
        assert model.intercept == pytest.approx(beta[0], abs=1e-8)
        assert model.coefficients["x1"] == pytest.approx(beta[1], abs=1e-8)
        assert model.coefficients["x2"] == pytest.approx(beta[2], abs=1e-8)

    def test_missing_target_is_a_lookup_error(self):
        with pytest.raises(UnknownFeatureError):
            fit_linear(Dataset.from_dict({"a": [1.0, 2.0]}), "nope")

    def test_categorical_reference_coding(self):
        # y depends on group mean only; coefficients recover group offsets
        ds = Dataset.from_dict({
            "g": ["u", "v", "w", "u", "v", "w"],
            "y": [1.0, 4.0, 9.0, 1.0, 4.0, 9.0],
        })
        model = fit_linear(ds, "y")
        assert model.intercept == pytest.approx(1.0, abs=1e-9)
        assert model.coefficients["g=v"] == pytest.approx(3.0, abs=1e-9)
        assert model.coefficients["g=w"] == pytest.approx(8.0, abs=1e-9)
        preds = model.predict(ds.drop("y"))
        np.testing.assert_allclose(preds, ds.column("y"), atol=1e-9)

    def test_reproduces_any_noiseless_linear_surface(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            coef = rng.uniform(-10, 10, size=4)
            cols = {f"f{j}": rng.uniform(-5, 5, size=40) for j in range(3)}
            y = coef[0] + sum(coef[j + 1] * cols[f"f{j}"] for j in range(3))
            ds = Dataset.from_dict({**cols, "y": y})
            model = fit_linear(ds, "y")
            preds = model.predict(ds.drop("y"))
            np.testing.assert_allclose(preds, y, rtol=1e-8)

    def test_too_few_rows(self):
        with pytest.raises(ParameterError, match="rows"):
            fit_linear(Dataset.from_dict({"a": [1.0, 2.0], "y": [1.0, 2.0]}), "y")


class TestLinearPredict:
    def _model(self):
        schema = (FeatureSchema("x1", "continuous"), FeatureSchema("x2", "continuous"))
        return LinearModel(1.0, {"x1": 3.0, "x2": -5.0}, schema)

    def test_hand_value(self):
        model = self._model()
        batch = Dataset.from_dict({"x1": [0.5], "x2": [0.5]})
        assert model.predict(batch)[0] == pytest.approx(0.0, abs=0)

    def test_contract_error_lists_missing_and_extra(self):
        model = self._model()
        batch = Dataset.from_dict({"x1": [0.5], "zzz": [0.5]})
        with pytest.raises(ContractError, match=r"missing \['x2'\], extra \['zzz'\]"):
            model.predict(batch)

    def test_kind_mismatch_is_a_contract_error(self):
        model = self._model()
        batch = Dataset.from_dict({"x1": [0.5], "x2": ["u"]})
        with pytest.raises(ContractError, match="continuous"):
            model.predict(batch)

    def test_column_order_does_not_matter(self):
        model = self._model()
        a = Dataset.from_dict({"x1": [1.0, 2.0], "x2": [3.0, 4.0]})
        b = a.select(["x2", "x1"])
        np.testing.assert_array_equal(model.predict(a), model.predict(b))

    def test_batch_invariance_is_bit_exact(self):
        model = self._model()
        rng = np.random.default_rng(0)
        x1, x2 = rng.uniform(size=(2, 16))
        whole = Dataset.from_dict({"x1": x1, "x2": x2})
        singles = [
            model.predict(Dataset.from_dict({"x1": [a], "x2": [b]}))[0]
            for a, b in zip(x1, x2)
        ]
        assert np.array_equal(model.predict(whole), np.array(singles))

    def test_non_finite_coefficients_rejected(self):
        schema = (FeatureSchema("x1", "continuous"),)
        with pytest.raises(ParameterError):
            LinearModel(np.inf, {"x1": 1.0}, schema)


class TestKnn:
    def test_k_equals_n_predicts_the_global_mean(self):
        ds = Dataset.from_dict({"a": [0.0, 1.0, 2.0, 3.0], "y": [1.0, 2.0, 3.0, 6.0]})
        model = fit_knn(ds, "y", k=4)
        preds = model.predict(Dataset.from_dict({"a": [-10.0, 0.5, 99.0]}))
        np.testing.assert_allclose(preds, 3.0)

    def test_k1_on_a_training_row_returns_its_own_target(self):
        ds = Dataset.from_dict({"a": [0.0, 1.0, 2.0], "y": [5.0, 7.0, 9.0]})
        model = fit_knn(ds, "y", k=1)
        preds = model.predict(ds.drop("y"))
        np.testing.assert_array_equal(preds, [5.0, 7.0, 9.0])

    def test_five_row_hand_enumeration(self):
        # one feature, so standardization cancels out of the ranking;
        # distances from 2.1: [2.1, 1.1, 0.1, 0.9, 1.9] -> rows 2 and 3
        ds = Dataset.from_dict({
            "a": [0.0, 1.0, 2.0, 3.0, 4.0],
            "y": [10.0, 20.0, 30.0, 40.0, 50.0],
        })
        model = fit_knn(ds, "y", k=2)
        pred = model.predict(Dataset.from_dict({"a": [2.1]}))[0]
        assert pred == pytest.approx((30.0 + 40.0) / 2.0, abs=0)

    def test_distance_ties_break_to_the_lower_row(self):
        # rows 0 and 2 are equidistant from the query; row 0 wins the tie
        ds = Dataset.from_dict({"a": [0.0, 10.0, 2.0], "y": [100.0, 0.0, 200.0]})
        model = fit_knn(ds, "y", k=1)
        assert model.predict(Dataset.from_dict({"a": [1.0]}))[0] == 100.0

    def test_standardization_makes_distance_scale_free(self):
        rng = np.random.default_rng(8)
        a = rng.uniform(size=30)
        b = rng.uniform(size=30)
        y = a + b
        ds1 = Dataset.from_dict({"a": a, "b": b, "y": y})
        ds2 = Dataset.from_dict({"a": a * 1000.0, "b": b, "y": y})
        m1 = fit_knn(ds1, "y", k=3)
        m2 = fit_knn(ds2, "y", k=3)
        q1 = Dataset.from_dict({"a": a[:5], "b": b[:5]})
        q2 = Dataset.from_dict({"a": a[:5] * 1000.0, "b": b[:5]})
        np.testing.assert_allclose(m1.predict(q1), m2.predict(q2), atol=1e-12)

    def test_categorical_feature_is_unsupported(self):
        ds = Dataset.from_dict({"c": ["u", "v"], "y": [1.0, 2.0]})
        with pytest.raises(ParameterError, match="continuous"):
            fit_knn(ds, "y", k=1)

    def test_k_out_of_range(self):
        ds = Dataset.from_dict({"a": [1.0, 2.0], "y": [1.0, 2.0]})
        with pytest.raises(ParameterError):
            fit_knn(ds, "y", k=0)
        with pytest.raises(ParameterError):
            fit_knn(ds, "y", k=3)

    def test_constant_column_gets_unit_scale(self):
        ds = Dataset.from_dict({"a": [1.0, 1.0, 1.0], "b": [0.0, 1.0, 2.0], "y": [1.0, 2.0, 3.0]})
        model = fit_knn(ds, "y", k=1)
        assert model.scales[0] == 1.0

    def test_overflowing_scale_is_rejected(self):
        # np.std of values near 1e200 overflows to inf, which would zero the column
        ds = Dataset.from_dict({"a": [1e200, -1e200, 3e200, 5.0], "b": [1.0, 2.0, 3.0, 4.0],
                                "y": [1.0, 2.0, 3.0, 4.0]})
        with pytest.raises(ParameterError, match="'a'"):
            fit_knn(ds, "y", k=2)
        schema = (FeatureSchema("a", "continuous"),)
        for bad in (np.inf, np.nan, 0.0):
            with pytest.raises(ParameterError, match="scale"):
                models_module.KnnModel(1, schema, [[1.0], [2.0]], [1.0, 2.0], [bad])

    def test_batch_invariance(self):
        rng = np.random.default_rng(1)
        ds = Dataset.from_dict({
            "a": rng.uniform(size=12), "b": rng.uniform(size=12),
            "y": rng.uniform(size=12),
        })
        model = fit_knn(ds, "y", k=3)
        qa, qb = rng.uniform(size=(2, 7))
        whole = model.predict(Dataset.from_dict({"a": qa, "b": qb}))
        singles = [
            model.predict(Dataset.from_dict({"a": [u], "b": [v]}))[0]
            for u, v in zip(qa, qb)
        ]
        assert np.array_equal(whole, np.array(singles))


def _knn_row_loop(model, batch):
    """Reference k-NN scoring: one query row at a time, full stable argsort."""
    query = np.column_stack([batch.column(f.name) for f in model._feature_schema])
    out = np.empty(batch.n_rows, dtype=np.float64)
    for i in range(batch.n_rows):
        diff = model._scaled_train - query[i] / model.scales
        dist = np.sqrt(np.sum(diff * diff, axis=1))
        nearest = np.argsort(dist, kind="stable")[: model.k]
        out[i] = np.mean(model.targets[nearest])
    return out


def _knn_values(draw, shape, label):
    """Tie-heavy small integers, or normals at a drawn magnitude up to 1e200."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label=f"{label} seed"))
    if draw(st.booleans(), label=f"{label} integer-valued"):
        return rng.integers(0, 3, size=shape).astype(np.float64)
    return rng.normal(size=shape) * 10.0 ** draw(st.sampled_from([-3, 0, 3, 200]),
                                                  label=f"{label} magnitude")


@settings(max_examples=150, deadline=None)
@given(st.data())
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_knn_blocks_equal_the_row_loop_bit_for_bit(data):
    p = data.draw(st.integers(1, 17), label="features")
    n = data.draw(st.integers(1, 40), label="training rows")
    k = data.draw(st.one_of(st.just(1), st.just(n), st.integers(1, n)), label="k")
    names = [f"x{j}" for j in range(p)]
    train = _knn_values(data.draw, (n, p), "train")
    if n > 1 and data.draw(st.booleans(), label="duplicate rows"):
        train[n // 2:] = train[: n - n // 2]
    columns = {name: train[:, j] for j, name in enumerate(names)}
    columns["y"] = np.random.default_rng(n).normal(size=n) * 1e3
    try:
        model = fit_knn(Dataset.from_dict(columns), "y", k)
    except ParameterError:
        # only a training column whose sd overflows is rejected
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite(np.std(train, axis=0, ddof=1)).all()
        return
    rows = data.draw(st.integers(1, 30), label="query rows")
    query = _knn_values(data.draw, (rows, p), "query")
    batch = Dataset.from_dict({name: query[:, j] for j, name in enumerate(names)})
    expected = _knn_row_loop(model, batch)
    saved = models_module._KNN_BLOCK_ELEMENTS
    models_module._KNN_BLOCK_ELEMENTS = data.draw(st.sampled_from([1, 7, saved]), label="budget")
    try:
        assert model.predict(batch).tobytes() == expected.tobytes()
        assert model.predict(batch.take([0])).tobytes() == expected[:1].tobytes()
    finally:
        models_module._KNN_BLOCK_ELEMENTS = saved


def _grid_values(draw, column, label):
    """A grid value: a training value (ties), a float, 1e200 (inf distances) or NaN."""
    return draw(st.one_of(st.sampled_from(column.tolist()),
                          st.floats(-3, 3),
                          st.sampled_from([1e200, -1e200, np.nan])), label=label)


def _knn_grid_values(draw, shape, label):
    """As ``_knn_values``, or tenths, whose squared differences round
    differently when summed in another order."""
    if draw(st.booleans(), label=f"{label} in tenths"):
        seed = draw(st.integers(0, 2**32 - 1), label=f"{label} seed")
        return np.random.default_rng(seed).integers(0, 10, size=shape) / 10
    return _knn_values(draw, shape, label)


@settings(max_examples=150, deadline=None)
@given(st.data())
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_knn_grid_equals_the_row_loop_bit_for_bit(data):
    p = data.draw(st.integers(1, 12), label="features")
    n = data.draw(st.integers(1, 40), label="training rows")
    k = data.draw(st.one_of(st.just(1), st.just(n), st.integers(1, n)), label="k")
    names = [f"x{j}" for j in range(p)]
    train = _knn_grid_values(data.draw, (n, p), "train")
    if n > 1 and data.draw(st.booleans(), label="duplicate rows"):
        train[n // 2:] = train[: n - n // 2]
    targets = np.random.default_rng(n).normal(size=n) * 1e3
    if data.draw(st.booleans(), label="unit scales"):
        schema = [FeatureSchema(name, "continuous") for name in names]
        model = models_module.KnnModel(k, schema, train, targets, np.ones(p))
    else:
        columns = {name: train[:, j] for j, name in enumerate(names)}
        try:
            model = fit_knn(Dataset.from_dict({**columns, "y": targets}), "y", k)
        except ParameterError:
            return  # a training column whose sd overflows, as above
    rows = data.draw(st.one_of(st.just(1), st.integers(1, 30)), label="query rows")
    query = _knn_grid_values(data.draw, (rows, p), "query")
    batch = Dataset.from_dict({name: query[:, j] for j, name in enumerate(names)})
    pinned = data.draw(st.lists(st.sampled_from(names), min_size=1, max_size=min(2, p),
                                unique=True), label="pinned")
    points = [tuple(_grid_values(data.draw, train[:, names.index(name)], f"{name} at {g}")
                    for name in pinned)
              for g in range(data.draw(st.integers(1, 6), label="points"))]
    saved = models_module._KNN_BLOCK_ELEMENTS
    models_module._KNN_BLOCK_ELEMENTS = data.draw(st.sampled_from([1, 7, saved]), label="budget")
    try:
        block = model.predict_grid(batch, pinned, points)
    finally:
        models_module._KNN_BLOCK_ELEMENTS = saved
    assert block.shape == (len(points), rows)
    for row, point in zip(block, points):
        assert row.tobytes() == _knn_row_loop(model, pin(batch, pinned, point)).tobytes()


def test_knn_grid_keeps_rows_that_rounding_moves_past_the_kth():
    # distances summed in another order round differently: at unit scale,
    # tenths in 2-5 features put about one draw in six on such a k-th boundary
    rng = np.random.default_rng(41)
    for _ in range(300):
        p, n = int(rng.integers(2, 6)), int(rng.integers(2, 25))
        schema = [FeatureSchema(f"x{j}", "continuous") for j in range(p)]
        train = rng.integers(0, 10, size=(n, p)) / 10
        model = models_module.KnnModel(int(rng.integers(1, n + 1)), schema, train,
                                       rng.normal(size=n), np.ones(p))
        query = rng.integers(0, 10, size=(4, p)) / 10
        batch = Dataset(schema, {f"x{j}": query[:, j] for j in range(p)})
        pinned = [f"x{int(rng.integers(0, p - 1))}"]  # not the last feature
        points = [(v,) for v in np.unique(batch.column(pinned[0])).tolist()]
        block = model.predict_grid(batch, pinned, points)
        for row, point in zip(block, points):
            assert row.tobytes() == model.predict(pin(batch, pinned, point)).tobytes()


def test_knn_grid_equals_predict_on_friedman_data():
    ds = generate(SimulationSpec("friedman", 180, 7, 1.0))
    model = fit_knn(ds, "y", k=10)
    batch = ds.drop("y")
    for pinned in (["x4"], ["x1", "x2"], ["x10", "x3"]):
        points = [tuple(batch.column(name)[g] for name in pinned) for g in range(0, 180, 9)]
        block = model.predict_grid(batch, pinned, points)
        for row, point in zip(block, points):
            assert row.tobytes() == model.predict(pin(batch, pinned, point)).tobytes()


def test_knn_blocks_equal_the_row_loop_on_friedman_data():
    ds = generate(SimulationSpec("friedman", 180, 7, 1.0))
    model = fit_knn(ds, "y", k=10)
    batch = generate(SimulationSpec("friedman", 500, 8, 1.0)).drop("y")
    assert model.predict(batch).tobytes() == _knn_row_loop(model, batch).tobytes()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_knn_rows_without_a_margin_keep_every_training_row():
    # at unit scale the query row at a=1e200 is at a finite distance from the
    # three training rows at 1e200 and at inf from the rest, so its k-th
    # distance is inf and no margin holds; the other rows of the same block
    # have margins. Distinct targets make every choice of neighbours show.
    schema = [FeatureSchema("a", "continuous"), FeatureSchema("b", "continuous")]
    train = np.array([[0.0, 0.1], [1e200, 0.4], [0.5, 0.2], [1e200, 0.9],
                      [1.0, 0.3], [0.2, 0.7], [1e200, 0.5], [0.7, 0.6]])
    model = models_module.KnnModel(4, schema, train, np.arange(8.0) ** 2, np.ones(2))
    query = np.array([[0.3, 0.1], [1e200, 0.4], [0.6, 0.9], [0.1, 0.5]])
    batch = Dataset(schema, {"a": query[:, 0], "b": query[:, 1]})
    assert model.predict(batch).tobytes() == _knn_row_loop(model, batch).tobytes()
    points = [(0.4,), (1e200,), (np.nan,)]  # inf or NaN distances in every row at the last two
    block = model.predict_grid(batch, ["b"], points)
    for row, point in zip(block, points):
        assert row.tobytes() == _knn_row_loop(model, pin(batch, ["b"], point)).tobytes()


# --- predict_grid: one entry point for every model kind ----------------------

_KINDS = ("linear", "knn", "bagged", "expression")
_POINT_VALUES = {"a": st.floats(-1.0, 2.0), "b": st.sampled_from([0.0, 0.5, 1.5, 3.0]),
                 "g": st.integers(0, 2)}


def _model_and_batch(kind, n, seed):
    """A model of ``kind`` fitted on ``n`` rows with a categorical ``g`` (dropped
    for k-NN, which takes continuous features only), and its feature batch."""
    rng = np.random.default_rng(seed)
    ds = Dataset(
        (FeatureSchema("a", "continuous"), FeatureSchema("b", "continuous"),
         FeatureSchema("g", "categorical", ("p", "q", "r")), FeatureSchema("y", "continuous")),
        {"a": rng.uniform(size=n), "b": rng.uniform(size=n) * 3,
         "g": rng.permutation(np.arange(n) % 3), "y": rng.normal(size=n)},
    )
    if kind == "knn":
        ds = ds.drop("g")
    if kind == "linear":
        model = fit_linear(ds, "y")
    elif kind == "knn":
        model = fit_knn(ds, "y", k=3)
    elif kind == "bagged":
        model = fit_bagged_trees(ds, "y", n_trees=4, max_depth=3, min_leaf=1, seed=seed)
    else:
        model = parse_expression("a*b - 3*sin(a) + b^2/7", ds.drop("y").schema)
    return model, ds.drop("y")


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_predict_grid_takes_tuples_or_an_array_and_equals_predict(data):
    kind = data.draw(st.sampled_from(_KINDS), label="model")
    model, batch = _model_and_batch(kind, data.draw(st.integers(8, 16), label="rows"),
                                    data.draw(st.integers(0, 99), label="seed"))
    pinned = data.draw(st.lists(st.sampled_from(batch.feature_names), min_size=1, max_size=2,
                                unique=True), label="pinned")
    points = data.draw(st.lists(st.tuples(*(_POINT_VALUES[name] for name in pinned)),
                                min_size=1, max_size=6), label="points")
    array = np.array(points, dtype=np.float64)
    block = model.predict_grid(batch, pinned, array)
    assert array.tobytes() == np.array(points, dtype=np.float64).tobytes()  # left unchanged
    assert block.tobytes() == model.predict_grid(batch, pinned, points).tobytes()
    for row, point in zip(block, points):
        assert row.tobytes() == model.predict(pin(batch, pinned, point)).tobytes()


@pytest.mark.parametrize("kind", _KINDS)
def test_predict_grid_raises_typed_errors(kind):
    model, batch = _model_and_batch(kind, 9, seed=4)
    with pytest.raises(UnknownFeatureError):
        model.predict_grid(batch, ["zz"], [(1.0,)])
    for points in ([(1.0, 2.0)], [(1.0,), (1.0, 2.0)], np.zeros((2, 3)), [()]):
        with pytest.raises(ParameterError, match="one number per pinned feature"):
            model.predict_grid(batch, ["a"], points)


@pytest.mark.parametrize("kind", [kind for kind in _KINDS if kind != "knn"])  # k-NN: no "g"
@pytest.mark.parametrize("code", [7.0, 3.0, -1.0, 1.5, np.nan, np.inf])
def test_predict_grid_rejects_a_value_that_is_no_level_code(kind, code):
    model, batch = _model_and_batch(kind, 9, seed=4)
    with pytest.raises(ParameterError, match="level codes 0 to 2"):
        model.predict_grid(batch, ["g"], [(0.0,), (code,)])
    with pytest.raises(ParameterError, match="level codes 0 to 2"):
        model.predict_grid(batch, ["a", "g"], [(0.5, code)])

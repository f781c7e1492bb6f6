"""Grid construction and the partial dependence estimator."""

import concurrent.futures
import io
import math
import os
import struct
import subprocess
import sys
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import pdimp
import pdimp.engine as engine_module
from pdimp import (
    Dataset,
    DegenerateGridError,
    FeatureSchema,
    Grid,
    GridAxis,
    GridStrategy,
    GridStrategyError,
    ICEResult,
    ImportanceEntry,
    ImportanceReport,
    InteractionReport,
    NonFiniteError,
    PairStatistics,
    ParameterError,
    PDResult,
    build_grid,
    fit_bagged_trees,
    fit_knn,
    fit_linear,
    ice_curves,
    load_csv,
    parse_expression,
    partial_dependence,
)
from pdimp.cli import emit_plot_data
from pdimp.data import write_csv
from pdimp.engine import (MAX_GRID_COUNT, _distinct, _quantiles, ordered_mean, pd_values_at,
                          reducer)
from pdimp.models import PredictionModel, pinned_columns
from pdimp.simulate import SimulationSpec, generate


def _expr(text, dataset):
    return parse_expression(text, dataset.schema)


# --- independent oracle: nested loops, one row at a time ----------------

def _brute_force_pd(model, dataset, features, points):
    """For each grid point, predict each training row alone, then mean."""
    values = []
    for point in points:
        total = 0.0
        for i in range(dataset.n_rows):
            row = {}
            for feat in dataset.schema:
                if feat.name in features:
                    value = point[features.index(feat.name)]
                else:
                    value = dataset.column(feat.name)[i]
                row[feat.name] = np.array([value])
            single = Dataset(dataset.schema, row)
            total += model.predict(single)[0]
        values.append(total / dataset.n_rows)
    return np.array(values)


class TestBuildGrid:
    def test_unique_sorts_distinct_training_values(self):
        ds = Dataset.from_dict({"a": [1.0, 3.0, 2.0, 3.0]})
        grid = build_grid(ds, ["a"], GridStrategy.unique())
        np.testing.assert_array_equal(grid.axes[0].values, [1.0, 2.0, 3.0])

    def test_decile_points_of_distinct_values(self):
        # hand rule: position p*(m-1) between order statistics of the
        # m distinct values; for 1..100 the deciles interpolate as below
        ds = Dataset.from_dict({"a": np.arange(1.0, 101.0)})
        grid = build_grid(ds, ["a"], GridStrategy.quantile(10))
        want = [1.0, 10.9, 20.8, 30.7, 40.6, 50.5, 60.4, 70.3, 80.2, 90.1, 100.0]
        np.testing.assert_allclose(grid.axes[0].values, want, atol=1e-12)
        assert grid.axes[0].values[0] == 1.0 and grid.axes[0].values[-1] == 100.0

    def test_quantile_ignores_training_frequency(self):
        # 1 appears 99 times but the distinct values are just {1, 2, 3}
        ds = Dataset.from_dict({"a": [1.0] * 99 + [2.0, 3.0]})
        grid = build_grid(ds, ["a"], GridStrategy.quantile(2))
        np.testing.assert_array_equal(grid.axes[0].values, [1.0, 2.0, 3.0])

    def test_equidistant_spans_min_max(self):
        ds = Dataset.from_dict({"a": [0.0, 10.0, 5.0]})
        grid = build_grid(ds, ["a"], GridStrategy.equidistant(5))
        np.testing.assert_allclose(grid.axes[0].values, [0.0, 2.5, 5.0, 7.5, 10.0])

    def test_constant_column_collapses_to_one_point(self):
        ds = Dataset.from_dict({"a": [4.0, 4.0]})
        for strategy in (GridStrategy.unique(), GridStrategy.quantile(10),
                         GridStrategy.equidistant(7)):
            grid = build_grid(ds, ["a"], strategy)
            np.testing.assert_array_equal(grid.axes[0].values, [4.0])

    def test_categorical_grid_is_the_level_table(self):
        ds = Dataset.from_dict({"g": ["a", "b", "c", "a"]})
        grid = build_grid(ds, ["g"], GridStrategy.unique())
        np.testing.assert_array_equal(grid.axes[0].values, [0, 1, 2])
        assert grid.axes[0].labels == ("a", "b", "c")

    @pytest.mark.parametrize("strategy", [GridStrategy.unique(), GridStrategy.quantile(10),
                                          GridStrategy.equidistant(3)], ids=str)
    def test_categorical_axis_is_the_level_table_under_every_strategy(self, strategy):
        ds = Dataset.from_dict({"x": [0.5, 1.5, 2.5, 3.5], "g": ["b", "a", "b", "c"]})
        grid = build_grid(ds, ["x", "g"], strategy)
        np.testing.assert_array_equal(grid.axes[1].values, [0, 1, 2])
        assert grid.axes[1].labels == ("b", "a", "c")  # first-appearance order
        assert grid.strategy == strategy

    @pytest.mark.parametrize("strategy", [GridStrategy.quantile(1), GridStrategy.quantile(2),
                                          GridStrategy.equidistant(2)])
    def test_a_grid_past_float64s_range_is_refused_naming_the_feature(self, strategy):
        # RuntimeWarnings are errors here, so the overflow must not warn either
        ds = Dataset.from_dict({"x1": [-1e308, 1e308]})
        with pytest.raises(GridStrategyError, match=f"'x1' spans .* its {strategy} grid"):
            build_grid(ds, ["x1"], strategy)

    def test_quantiles_of_a_span_past_float64s_maximum_in_finite_steps(self):
        values = [-1e308, -5e307, 0.0, 5e307, 1e308]
        grid = build_grid(Dataset.from_dict({"x1": values}), ["x1"], GridStrategy.quantile(3))
        assert grid.axes[0].values.tolist() == np.quantile(values, [0, 1 / 3, 2 / 3, 1]).tolist()

    def test_identical_pair_features_rejected(self):
        ds = Dataset.from_dict({"a": [1.0, 2.0]})
        with pytest.raises(ParameterError, match="distinct"):
            build_grid(ds, ["a", "a"], GridStrategy.unique())

    def test_strategy_parse_round_trip(self):
        for text in ("unique", "quantile:10", "equidistant:101"):
            assert str(GridStrategy.parse(text)) == text
        for bad in ("quantile", "unique:3", "nope", "quantile:x"):
            with pytest.raises(ParameterError):
                GridStrategy.parse(bad)

    @pytest.mark.parametrize("kind,count,message", [
        ("bogus", None, "unknown grid strategy kind 'bogus'"),
        ("quantile", 0, "quantile grid needs 1 <= count"),
        ("equidistant", 1, "equidistant grid needs 2 <= count"),
        ("equidistant", MAX_GRID_COUNT + 1, f"count <= {MAX_GRID_COUNT}"),
        ("quantile", None, "quantile grid needs 1 <= count"),
        ("equidistant", 2.5, "equidistant grid needs 2 <= count"),
        ("unique", 3, "the unique grid takes no count"),
        ("quantile", True, "quantile grid needs 1 <= count"),
        ("equidistant", False, "equidistant grid needs 2 <= count"),
    ], ids=["unknown-kind", "quantile-0", "equidistant-1", "past-the-maximum",
            "missing-count", "fractional-count", "count-for-unique", "bool-true", "bool-false"])
    def test_direct_construction_checks_kind_and_count(self, kind, count, message):
        with pytest.raises(ParameterError, match=message):
            GridStrategy(kind, count)

    def test_a_numpy_integer_count_is_taken(self):
        assert str(GridStrategy.quantile(np.int64(4))) == "quantile:4"

    @pytest.mark.parametrize("columns,features,error,message", [
        ({"a": [1.0]}, [], ParameterError, "grids cover one or two features"),
        ({"a": [1.0], "b": [1.0], "c": [1.0]}, ["a", "b", "c"], ParameterError,
         "grids cover one or two features"),
        ({"a": []}, ["a"], DegenerateGridError, "feature 'a' has no training values"),
    ])
    def test_a_grid_needs_one_or_two_features_with_values(self, columns, features, error,
                                                          message):
        ds = Dataset([FeatureSchema(name, "continuous") for name in columns],
                     {name: np.array(values) for name, values in columns.items()})
        with pytest.raises(error, match=message):
            build_grid(ds, features, GridStrategy.unique())

    def test_a_categorical_feature_without_levels_has_no_grid(self):
        with pytest.warns(UserWarning, match="CSV body is empty"):
            ds = load_csv(io.StringIO("g\n"))
        with pytest.raises(DegenerateGridError, match="categorical feature 'g' has no levels"):
            build_grid(ds, ["g"], GridStrategy.quantile(3))

    def test_counts_past_the_maximum_are_refused_before_any_allocation(self):
        assert GridStrategy.parse(f"quantile:{MAX_GRID_COUNT}").count == MAX_GRID_COUNT
        assert GridStrategy.equidistant(MAX_GRID_COUNT).count == MAX_GRID_COUNT
        for bad in (f"quantile:{MAX_GRID_COUNT + 1}", "quantile:99999999999999999999",
                    f"equidistant:{MAX_GRID_COUNT + 1}", "equidistant:99999999999999999999"):
            with pytest.raises(ParameterError, match=f"count <= {MAX_GRID_COUNT}"):
                GridStrategy.parse(bad)

    def test_grid_points_ascending_and_distinct(self):
        rng = np.random.default_rng(0)
        ds = Dataset.from_dict({"a": rng.integers(0, 20, 100).astype(float)})
        for strategy in (GridStrategy.unique(), GridStrategy.quantile(7),
                         GridStrategy.equidistant(13)):
            values = build_grid(ds, ["a"], strategy).axes[0].values
            assert np.all(np.diff(values) > 0)


class TestPartialDependence:
    def test_constant_model_is_flat(self):
        ds = Dataset.from_dict({"a": [1.0, 2.0, 3.0], "b": [4.0, 5.0, 6.0]})
        model = _expr("7", ds)
        pd = partial_dependence(model, ds, build_grid(ds, ["a"], GridStrategy.unique()))
        np.testing.assert_array_equal(pd.values, [7.0, 7.0, 7.0])
        assert pd.baseline == 7.0

    def test_three_row_hand_table(self):
        # rows (x1,x2) = (1,10),(2,20),(3,30) under f = x1 + 0.1*x2:
        # at each grid value v the mean is v + 0.1*mean(x2) = v + 2
        ds = Dataset.from_dict({"x1": [1.0, 2.0, 3.0], "x2": [10.0, 20.0, 30.0]})
        model = _expr("x1 + 0.1*x2", ds)
        pd = partial_dependence(model, ds, build_grid(ds, ["x1"], GridStrategy.unique()))
        np.testing.assert_allclose(pd.values, [3.0, 4.0, 5.0], atol=1e-12)
        assert pd.n_train == 3

    def test_linear_oracle_pd_is_affine_with_the_original_slope(self):
        rng = np.random.default_rng(10)
        ds = Dataset.from_dict({"x1": rng.uniform(size=200), "x2": rng.uniform(size=200)})
        model = _expr("1 + 3*x1 - 5*x2", ds)
        grid = build_grid(ds, ["x1"], GridStrategy.equidistant(11))
        pd = partial_dependence(model, ds, grid)
        intercept = 1.0 - 5.0 * np.mean(ds.column("x2"))
        want = intercept + 3.0 * grid.axes[0].values
        np.testing.assert_allclose(pd.values, want, atol=1e-9)

    def test_matches_brute_force_loop_bit_exactly(self):
        rng = np.random.default_rng(99)
        ds = Dataset.from_dict({
            "a": rng.uniform(size=15),
            "b": rng.uniform(size=15),
            "y": rng.uniform(size=15),
        })
        model = fit_knn(ds, "y", k=4)
        features = ds.drop("y")
        grid = build_grid(features, ["a"], GridStrategy.quantile(6))
        pd = partial_dependence(model, features, grid)
        oracle = _brute_force_pd(model, features, ["a"], [(v,) for v in grid.axes[0].values])
        assert np.array_equal(pd.values, oracle)

    def test_parallel_determinism(self):
        rng = np.random.default_rng(5)
        ds = Dataset.from_dict({
            "a": rng.uniform(size=60), "b": rng.uniform(size=60),
            "y": rng.uniform(size=60),
        })
        model = fit_bagged_trees(ds, "y", n_trees=10, max_depth=3, min_leaf=2, seed=4)
        features = ds.drop("y")
        grid = build_grid(features, ["a"], GridStrategy.quantile(12))
        results = [
            partial_dependence(model, features, grid, workers=w).values
            for w in (1, 2, 8)
        ]
        assert np.array_equal(results[0], results[1])
        assert np.array_equal(results[0], results[2])

    def test_weighted_grid_mean_recovers_baseline_for_additive_models(self):
        # holds whenever the model is additive in the grid feature
        rng = np.random.default_rng(17)
        ds = Dataset.from_dict({
            "x1": rng.integers(0, 8, 50).astype(float),
            "x2": rng.uniform(size=50),
        })
        model = _expr("3*x1 + exp(x2)", ds)
        grid = build_grid(ds, ["x1"], GridStrategy.unique())
        pd = partial_dependence(model, ds, grid)
        col = ds.column("x1")
        weights = np.array([(col == v).sum() for v in grid.axes[0].values]) / len(col)
        assert float(weights @ pd.values) == pytest.approx(pd.baseline, abs=1e-9)

    def test_non_finite_prediction_names_the_grid_point(self):
        ds = Dataset.from_dict({"x1": [0.0, 1.0], "x2": [1.0, 1.0]})
        model = _expr("log(x1)", ds)
        grid = build_grid(ds, ["x1"], GridStrategy.unique())
        with pytest.raises(NonFiniteError, match="x1=0"):
            partial_dependence(model, ds, grid)

    @pytest.mark.parametrize("fit", [
        lambda ds: fit_bagged_trees(ds, "y", n_trees=5, seed=1),
        lambda ds: fit_knn(ds, "y", k=5),
        lambda ds: fit_linear(ds, "y"),
    ], ids=["trees", "knn", "linear"])
    def test_a_grid_value_that_is_not_finite_is_refused(self, fit):
        # no kernel may give NaN a meaning of its own and score it
        ds = generate(SimulationSpec("friedman", 200, 7, 1.0))
        model, features = fit(ds), ds.drop("y")
        grid = Grid((GridAxis("x1", "continuous", np.array([0.5, np.nan])),),
                    GridStrategy.unique())
        for estimate in (partial_dependence, ice_curves):
            with pytest.raises(ParameterError, match="'x1' must be finite, got nan"):
                estimate(model, features, grid)
        with pytest.raises(ParameterError, match="'x2' must be finite, got -inf"):
            pd_values_at(model, features, ["x1", "x2"], np.array([[0.5, 0.5], [0.5, -np.inf]]))

    @pytest.mark.parametrize("estimate", [partial_dependence, ice_curves])
    def test_overflowing_mean_names_the_grid_point(self, estimate):
        ds = Dataset.from_dict({"x1": [0.5, 1.0], "x2": [1.0, 1.0]})
        grid = build_grid(ds, ["x1"], GridStrategy.unique())
        with pytest.raises(NonFiniteError, match=r"at grid point \(x1=0.5\) overflows float64"):
            estimate(_expr("1e308*x1 + 5e307", ds), ds, grid)  # finite predictions

    @pytest.mark.parametrize("estimate", [partial_dependence, ice_curves])
    def test_overflowing_baseline_is_refused(self, estimate):
        # at every grid point the alternating terms cancel as they are summed,
        # while on the training rows every term is +1e308
        ds = Dataset.from_dict({"x1": [1.0, -1.0, 1.0, -1.0], "x2": [1.0, -1.0, 1.0, -1.0]})
        grid = build_grid(ds, ["x1"], GridStrategy.unique())
        model = _expr("1e308*x1*x2", ds)
        assert np.array_equal(pd_values_at(model, ds, ["x1"], grid.points()), [0.0, 0.0])
        with pytest.raises(NonFiniteError, match="baseline .* overflows float64"):
            estimate(model, ds, grid)

    @pytest.mark.parametrize("estimate", [partial_dependence, ice_curves])
    def test_non_finite_baseline_prediction_names_the_baseline(self, estimate):
        # the grid 0, 5, 10 misses the pole at 3.3; the training row at 3.3 does not
        ds = Dataset.from_dict({"x1": [0.0, 1.0, 2.0, 3.3, 10.0]})
        grid = build_grid(ds, ["x1"], GridStrategy.equidistant(3))
        model = _expr("1/(x1 - 3.3)", ds)
        assert np.isfinite(pd_values_at(model, ds, ["x1"], grid.points())).all()
        with pytest.raises(NonFiniteError, match=r"prediction at grid point \(the baseline "):
            estimate(model, ds, grid)

    def test_median_aggregator(self):
        ds = Dataset.from_dict({"a": [0.0, 0.0, 0.0], "b": [1.0, 2.0, 10.0]})
        model = _expr("a + b", ds)
        grid = build_grid(ds, ["a"], GridStrategy.unique())
        pd = partial_dependence(model, ds, grid, aggregator="median")
        np.testing.assert_array_equal(pd.values, [2.0])

    def test_the_aggregator_is_parsed_once_per_table(self, monkeypatch):
        ds = Dataset.from_dict({"a": [0.0, 1.0, 2.0, 3.0], "b": [1.0, 2.0, 3.0, 7.0]})
        model = _expr("a * b", ds)
        parsed = []

        def counted(aggregator):
            parsed.append(aggregator)
            return reducer(aggregator)

        monkeypatch.setattr(engine_module, "reducer", counted)
        values = pd_values_at(model, ds, ["a"], np.arange(4.0)[:, None],
                              aggregator="trimmed:0.25")
        assert parsed == ["trimmed:0.25"]
        np.testing.assert_array_equal(values, [0.0, 2.5, 5.0, 7.5])

    def test_trimmed_aggregator(self):
        ds = Dataset.from_dict({"a": [0.0] * 5, "b": [1.0, 2.0, 3.0, 4.0, 100.0]})
        model = _expr("a + b", ds)
        grid = build_grid(ds, ["a"], GridStrategy.unique())
        pd = partial_dependence(model, ds, grid, aggregator="trimmed:0.2")
        np.testing.assert_array_equal(pd.values, [3.0])
        with pytest.raises(ParameterError):
            partial_dependence(model, ds, grid, aggregator="trimmed:0.6")
        with pytest.raises(ParameterError):
            partial_dependence(model, ds, grid, aggregator="bogus")


class TestIceCurves:
    def test_three_row_hand_table(self):
        ds = Dataset.from_dict({"x1": [1.0, 2.0, 3.0], "x2": [10.0, 20.0, 30.0]})
        model = _expr("x1 + 0.1*x2", ds)
        grid = build_grid(ds, ["x1"], GridStrategy.unique())
        ice = ice_curves(model, ds, grid)
        want = np.array([[2.0, 3.0, 4.0], [3.0, 4.0, 5.0], [4.0, 5.0, 6.0]])
        np.testing.assert_allclose(ice.curves, want, atol=1e-12)
        np.testing.assert_allclose(ice.pd_values, [3.0, 4.0, 5.0], atol=1e-12)

    def test_additive_model_curves_are_vertical_shifts(self):
        rng = np.random.default_rng(12)
        ds = Dataset.from_dict({"a": rng.uniform(size=20), "b": rng.uniform(size=20)})
        model = _expr("sin(3*a) + exp(b)", ds)
        ice = ice_curves(model, ds, build_grid(ds, ["a"], GridStrategy.equidistant(9)))
        diffs = ice.curves - ice.curves[0]
        # each row differs from row 0 by a constant across the grid
        np.testing.assert_allclose(diffs, np.broadcast_to(diffs[:, :1], diffs.shape), atol=1e-12)

    def test_interaction_cancels_in_the_pdp_but_not_in_ice(self):
        ds = Dataset.from_dict({"x1": [1.0, 2.0], "x2": [-1.0, 1.0]})
        model = _expr("x1*x2", ds)
        grid = build_grid(ds, ["x1"], GridStrategy.unique())
        ice = ice_curves(model, ds, grid)
        np.testing.assert_allclose(ice.pd_values, [0.0, 0.0], atol=1e-15)
        slopes = ice.curves[:, 1] - ice.curves[:, 0]
        assert slopes[0] == -1.0 and slopes[1] == 1.0

    def test_column_means_equal_pd_values_exactly(self):
        rng = np.random.default_rng(14)
        ds = Dataset.from_dict({
            "a": rng.uniform(size=33), "b": rng.uniform(size=33),
            "y": rng.uniform(size=33),
        })
        model = fit_knn(ds, "y", k=5)
        features = ds.drop("y")
        grid = build_grid(features, ["b"], GridStrategy.quantile(8))
        ice = ice_curves(model, features, grid)
        pd = partial_dependence(model, features, grid)
        assert np.array_equal(ice.pd_values, pd.values)
        manual = np.array([ordered_mean(ice.curves[:, j]) for j in range(ice.curves.shape[1])])
        assert np.array_equal(manual, pd.values)

    def test_pair_grid_is_rejected(self):
        ds = Dataset.from_dict({"a": [1.0, 2.0], "b": [3.0, 4.0]})
        grid = build_grid(ds, ["a", "b"], GridStrategy.unique())
        with pytest.raises(ParameterError, match="single"):
            ice_curves(_expr("a + b", ds), ds, grid)

    def test_zero_rows_are_refused_like_the_pd(self):
        ds = Dataset.from_dict({"x": [1.0, 2.0], "g": ["u", "v"]})
        grid = build_grid(ds, ["g"], GridStrategy.unique())
        model = _expr("x", ds)
        for analysis in (partial_dependence, ice_curves):
            with pytest.raises(ParameterError, match="empty dataset"):
                analysis(model, ds.take([]), grid)


class TestJointPartialDependence:
    def test_two_by_two_product_table(self):
        # both features are overwritten at once, so every row predicts a*b
        ds = Dataset.from_dict({"x1": [0.0, 1.0], "x2": [0.0, 1.0]})
        model = _expr("x1*x2", ds)
        grid = build_grid(ds, ["x1", "x2"], GridStrategy.unique())
        joint = partial_dependence(model, ds, grid)
        np.testing.assert_allclose(joint.value_matrix(), [[0.0, 0.0], [0.0, 1.0]], atol=1e-15)

    def test_single_row_product_table(self):
        ds = Dataset.from_dict({"x1": [0.0], "x2": [0.0], "x3": [9.0]})
        model = _expr("x1*x2", ds)
        from pdimp.engine import Grid, GridAxis
        axes = (
            GridAxis("x1", "continuous", np.array([0.0, 1.0])),
            GridAxis("x2", "continuous", np.array([0.0, 1.0])),
        )
        joint = partial_dependence(model, ds, Grid(axes, GridStrategy.unique()))
        np.testing.assert_array_equal(joint.value_matrix(), [[0.0, 0.0], [0.0, 1.0]])

    def test_additive_identity(self):
        rng = np.random.default_rng(3)
        ds = Dataset.from_dict({
            "a": rng.uniform(size=40), "b": rng.uniform(size=40),
            "c": rng.uniform(size=40),
        })
        model = _expr("sin(3*a) + b^2 + exp(c)", ds)
        grid = build_grid(ds, ["a", "b"], GridStrategy.quantile(5))
        joint = partial_dependence(model, ds, grid)
        pd_a = partial_dependence(model, ds, build_grid(ds, ["a"], GridStrategy.quantile(5)))
        pd_b = partial_dependence(model, ds, build_grid(ds, ["b"], GridStrategy.quantile(5)))
        want = pd_a.values[:, None] + pd_b.values[None, :] - joint.baseline
        np.testing.assert_allclose(joint.value_matrix(), want, atol=1e-9)

    def test_matches_brute_force_loop_bit_exactly(self):
        rng = np.random.default_rng(44)
        ds = Dataset.from_dict({
            "a": rng.uniform(size=9), "b": rng.uniform(size=9), "y": rng.uniform(size=9),
        })
        model = fit_bagged_trees(ds, "y", n_trees=3, max_depth=2, min_leaf=1, seed=2)
        features = ds.drop("y")
        grid = build_grid(features, ["a", "b"], GridStrategy.quantile(3))
        joint = partial_dependence(model, features, grid)
        points = [(u, v) for u in grid.axes[0].values for v in grid.axes[1].values]
        oracle = _brute_force_pd(model, features, ["a", "b"], points)
        assert np.array_equal(joint.values, oracle)


class TestSerialization:
    def test_pd_csv_and_json(self, tmp_path):
        ds = Dataset.from_dict({"x1": [1.0, 2.0], "g": ["u", "v"]})
        model = _expr("x1", ds)
        grid = build_grid(ds, ["g"], GridStrategy.unique())
        pd = partial_dependence(model, ds, grid)
        emit_plot_data(pd, tmp_path, "pd")
        lines = (tmp_path / "pd.csv").read_text().splitlines()
        assert lines[0] == "g,pd"
        assert lines[1].startswith("u,")
        import json
        doc = json.loads((tmp_path / "pd.json").read_text())
        assert doc["points"]["g"] == ["u", "v"]
        assert doc["n_train"] == 2

    def test_an_unknown_format_is_refused(self, tmp_path):
        ds = Dataset.from_dict({"a": [1.0, 2.0]})
        pd = partial_dependence(_expr("a", ds), ds, build_grid(ds, ["a"], GridStrategy.unique()))
        with pytest.raises(ParameterError, match="unsupported output format 'xml'"):
            emit_plot_data(pd, tmp_path, "pd", formats=("xml",))

    def test_ice_long_format(self, tmp_path):
        ds = Dataset.from_dict({"a": [1.0, 2.0], "b": [0.0, 1.0]})
        ice = ice_curves(_expr("a + b", ds), ds, build_grid(ds, ["a"], GridStrategy.unique()))
        emit_plot_data(ice, tmp_path, "ice", formats=("csv",))
        lines = (tmp_path / "ice.csv").read_text().splitlines()
        assert lines[0] == "row_id,grid_value,prediction"
        assert len(lines) == 1 + 2 * 2

    def test_a_failed_write_leaves_the_earlier_file_whole_and_nothing_else(self, tmp_path):
        ds = Dataset.from_dict({"a": [1.0, 2.0, 3.0], "b": [0.0, 1.0, 0.5]})
        pd = partial_dependence(_expr("a + b", ds), ds,
                                build_grid(ds, ["a"], GridStrategy.unique()))
        earlier = b"a,pd\nan earlier run's rows\n"
        (tmp_path / "pd.csv").write_bytes(earlier)

        class Interrupted(PDResult):
            def rows(self):
                yield next(super().rows())
                raise KeyboardInterrupt  # as if stopped while writing

        with pytest.raises(KeyboardInterrupt):
            emit_plot_data(Interrupted(**vars(pd)), tmp_path, "pd")
        assert [p.name for p in tmp_path.iterdir()] == ["pd.csv"]
        assert (tmp_path / "pd.csv").read_bytes() == earlier

        emit_plot_data(pd, tmp_path, "pd")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["pd.csv", "pd.json",
                                                              "pd.schema.json"]
        umask = os.umask(0)
        os.umask(umask)
        assert (tmp_path / "pd.csv").stat().st_mode & 0o777 == 0o666 & ~umask


# --- the one float format: csv.writer writes each result float as its repr ---

_FLOATS = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                                     1e308, -1e308, 0.1, 1 / 3]),
                    st.integers(-10**17, 10**17).map(float), st.floats())
# labels that need quoting, and any other text
_LABELS = st.one_of(st.sampled_from(["a,b", 'say "hi"', "two\nlines", "cr\r", ""]),
                    st.text(max_size=5))


def _csv(header, rows):
    buf = io.StringIO()
    write_csv(buf, header, rows)
    return buf.getvalue()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.one_of(_FLOATS, st.integers(), _LABELS), min_size=1, max_size=5),
                max_size=8))
def test_write_csv_writes_a_float_as_its_repr(rows):
    as_text = [[repr(c) if isinstance(c, float) else c for c in row] for row in rows]
    assert _csv(["x"], rows) == _csv(["x"], as_text)


@st.composite
def _axis(draw, name):
    if draw(st.booleans()):
        labels = tuple(draw(st.lists(_LABELS, min_size=1, max_size=3, unique=True)))
        return GridAxis(name, "categorical", np.arange(len(labels)), labels)
    return GridAxis(name, "continuous", np.array(draw(st.lists(_FLOATS, min_size=1, max_size=3))))


@st.composite
def _results(draw):
    kind = draw(st.sampled_from(["pd", "ice", "importance", "interaction"]))
    if kind == "pd":
        grid = Grid(tuple(draw(_axis(name)) for name in ["a", "b"][:draw(st.integers(1, 2))]),
                    GridStrategy.unique())
        values = draw(arrays(np.float64, grid.size, elements=_FLOATS))
        return PDResult(grid, values, 3, draw(_FLOATS))
    if kind == "ice":
        grid = Grid((draw(_axis("a")),), GridStrategy.unique())
        curves = draw(arrays(np.float64, (draw(st.integers(0, 3)), grid.size), elements=_FLOATS))
        return ICEResult(grid, curves, draw(_FLOATS), np.zeros(grid.size))
    if kind == "importance":
        entry = st.builds(ImportanceEntry, _LABELS, _FLOATS, st.just("sd"), st.integers(1, 9))
        return ImportanceReport(tuple(draw(st.lists(entry, max_size=4))), "unique", "mean")
    h = st.one_of(st.none(), st.just(math.nan), _FLOATS)
    pair = st.builds(PairStatistics, st.tuples(_LABELS, _LABELS), _FLOATS, _FLOATS, _FLOATS, h)
    return InteractionReport(tuple(draw(st.lists(pair, max_size=4))), "unique")


def _text(value):
    return repr(value) if isinstance(value, float) else value


def _rows_as_text(result):
    """A result's CSV rows as text, each float as its repr and an absent or
    NaN H as an empty cell: the form results once wrote themselves."""
    if isinstance(result, PDResult):
        points = product(*(axis.shown() for axis in result.grid.axes))
        return [[_text(v) for v in point + (value,)]
                for point, value in zip(points, result.values.tolist())]
    if isinstance(result, ICEResult):
        shown = [_text(v) for v in result.grid.axes[0].shown()]
        n, k = result.curves.shape
        return [[i, shown[j], repr(float(result.curves[i, j]))] for i in range(n) for j in range(k)]
    if isinstance(result, ImportanceReport):
        return [[e.name, repr(e.score)] for e in result.entries]
    return [[*p.features, repr(p.stat_pd),
             "" if p.stat_h is None or math.isnan(p.stat_h) else repr(p.stat_h)]
            for p in result.pairs]


@settings(max_examples=200, deadline=None)
@given(_results())
def test_result_rows_write_the_text_each_result_once_formatted_itself(result):
    header = [column["name"] for column in result.sidecar()["columns"]]
    assert _csv(header, result.rows()) == _csv(header, _rows_as_text(result))


_SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
            2.2250738585072014e-308, 1.7976931348623157e308]


@given(st.lists(st.one_of(st.floats(), st.sampled_from(_SPECIAL)), min_size=1, max_size=60))
def test_ordered_mean_equals_the_left_to_right_loop_bit_for_bit(values):
    total = 0.0
    for v in values:
        total += v
    want = total / len(values)
    got = ordered_mean(np.array(values, dtype=np.float64))
    if math.isnan(want):
        assert math.isnan(got)  # NaN payloads are not part of the contract
    else:
        assert struct.pack("<d", got) == struct.pack("<d", want)


def _row_at_a_time(aggregator):
    """The reducers as they once took one grid point's predictions at a time."""
    def mean(values):
        with np.errstate(over="ignore", invalid="ignore"):
            total = np.add.accumulate(values)[-1]
        return (float(total) + 0.0) / len(values)

    if aggregator == "mean":
        return mean
    if aggregator == "median":
        return lambda values: float(np.median(values))
    alpha = float(aggregator.partition(":")[2])

    def trimmed_mean(values):
        cut = int(alpha * len(values))
        kept = np.sort(values)[cut: len(values) - cut]
        assert kept.size > 0  # floor(alpha * n) < n / 2 keeps one value at least
        return mean(kept)
    return trimmed_mean


# ties, signed zeros, and values whose sums overflow to inf
_BLOCK_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.1, 1e308, -1e308,
                                           1.7976931348623157e308, 5e-324]),
                          st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=300, deadline=None)
@given(arrays(np.float64, array_shapes(min_dims=2, max_dims=2, max_side=9), elements=_BLOCK_VALUES),
       st.sampled_from(["mean", "median", "trimmed"]), st.floats(0.0, 0.5, exclude_max=True))
def test_block_reducers_equal_the_row_at_a_time_reducers_bit_for_bit(block, name, alpha):
    aggregator = f"trimmed:{alpha!r}" if name == "trimmed" else name
    row = _row_at_a_time(aggregator)
    with np.errstate(over="ignore"):  # a median of two values near the float64 limit
        want = np.array([row(values) for values in block])
        got = reducer(aggregator)(block)
    assert got.shape == (len(block),) and got.tobytes() == want.tobytes()


# --- slabs: the one grid path --------------------------------------------


class _SlabRecorder(PredictionModel):
    """A linear stub that records every slab of points it is handed."""

    def __init__(self, schema):
        self._feature_schema = tuple(schema)
        self.slabs = []

    def predict_grid(self, batch, features, points):
        self.slabs.append(list(points))  # one append: atomic across threads
        return super().predict_grid(batch, features, points)

    def _grid(self, batch, cols, pinned):
        columns = pinned_columns(batch, self.feature_names, cols, pinned)
        values = 2.0 * columns["a"] - columns["b"]
        return np.broadcast_to(values, (len(pinned), batch.n_rows)).copy()


@pytest.mark.parametrize("cap,rows,per_slab", [(1, 3, 1), (7, 3, 2), (9, 3, 3), (8, 1, 8)])
@pytest.mark.parametrize("workers", [1, 3])
def test_slabs_are_consecutive_points_within_the_cap(monkeypatch, cap, rows, per_slab, workers):
    ds = Dataset.from_dict({"a": np.arange(rows, dtype=float), "b": np.ones(rows)})
    points = [(float(v), 0.5 * v) for v in range(11)]
    monkeypatch.setattr(engine_module, "_SLAB_ELEMENTS", cap)
    model = _SlabRecorder(ds.schema)
    values = pd_values_at(model, ds, ["a", "b"], points, workers=workers)
    slabs = model.slabs if workers == 1 else sorted(model.slabs, key=lambda s: points.index(s[0]))
    assert [len(s) for s in slabs] == [per_slab] * (11 // per_slab) + (
        [11 % per_slab] if 11 % per_slab else [])
    assert [p for s in slabs for p in s] == points
    monkeypatch.undo()
    expected = pd_values_at(_SlabRecorder(ds.schema), ds, ["a", "b"], points)
    assert values.tobytes() == expected.tobytes()


def test_slab_size_does_not_change_any_model(monkeypatch):
    rng = np.random.default_rng(23)
    ds = Dataset.from_dict({"a": rng.uniform(size=40), "b": rng.integers(0, 3, 40) * 1.0,
                            "y": rng.normal(size=40)})
    features = ds.drop("y")
    grid = build_grid(features, ["a", "b"], GridStrategy.quantile(4))
    for model in (fit_knn(ds, "y", k=3), fit_bagged_trees(ds, "y", n_trees=6, seed=2),
                  _expr("a * b + a", features)):
        for aggregator in ("mean", "median", "trimmed:0.2"):
            runs = []
            for cap in (1, 100, 1 << 16):
                monkeypatch.setattr(engine_module, "_SLAB_ELEMENTS", cap)
                runs.append(partial_dependence(model, features, grid, workers=2,
                                               aggregator=aggregator).values)
            assert runs[0].tobytes() == runs[1].tobytes() == runs[2].tobytes()


class _PoolRecorder:
    """A thread pool stand-in that records its ``max_workers`` and maps on
    the calling thread, starting no thread."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("cpus,threads", [(1, None), (4, 4), (64, 7)])
def test_the_pool_starts_at_most_one_thread_per_slab_and_per_cpu(monkeypatch, cpus, threads):
    ds = Dataset.from_dict({"a": np.arange(3.0), "b": np.ones(3)})
    points = [(float(v), 0.5) for v in range(7)]
    monkeypatch.setattr(engine_module, "_SLAB_ELEMENTS", 3)  # a slab per point
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", _PoolRecorder)
    monkeypatch.setattr(_PoolRecorder, "sizes", [])
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    values = pd_values_at(_SlabRecorder(ds.schema), ds, ["a", "b"], points, workers=10**6)
    assert _PoolRecorder.sizes == ([] if threads is None else [threads])
    monkeypatch.undo()
    expected = pd_values_at(_SlabRecorder(ds.schema), ds, ["a", "b"], points)
    assert values.tobytes() == expected.tobytes()


# --- no numpy.ma ------------------------------------------------------------


_GRID_VALUES = st.one_of(st.floats(-1e6, 1e6), st.sampled_from([0.0, -0.0, 5e-324, 1.0]))


@settings(max_examples=200, deadline=None)
@given(st.lists(_GRID_VALUES, min_size=1, max_size=40), st.integers(1, 40))
def test_distinct_and_quantiles_equal_numpy_bit_for_bit(values, count):
    values = np.array(values)
    distinct = _distinct(values)
    assert distinct.tobytes() == np.unique(values).tobytes()
    probs = np.linspace(0.0, 1.0, count + 1)
    assert _quantiles(distinct, probs).tobytes() == np.quantile(distinct, probs).tobytes()


def test_importance_does_not_import_numpy_ma():
    # np.unique and np.quantile import numpy.ma on first use, ~10 ms per command
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from pdimp import Dataset, GridStrategy, fit_knn, importance_all, interaction_matrix\n"
        "rng = np.random.default_rng(0)\n"
        "ds = Dataset.from_dict({'a': rng.uniform(size=30), 'b': rng.uniform(size=30),\n"
        "                        'y': rng.uniform(size=30)})\n"
        "model = fit_knn(ds, 'y', k=3)\n"
        "for grid in (GridStrategy.unique(), GridStrategy.quantile(4),\n"
        "             GridStrategy.equidistant(5)):\n"
        "    importance_all(model, ds.drop('y'), grid)\n"
        "    interaction_matrix(model, ds.drop('y'), grid_strategy=grid, include_h=True)\n"
        "assert 'numpy.ma' not in sys.modules\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(pdimp.__file__).resolve().parents[1]), env.get("PYTHONPATH", "")])
    subprocess.run([sys.executable, "-c", script], env=env, check=True, timeout=60)

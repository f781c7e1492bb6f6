"""Results do not depend on the number of grid-point threads, for every model kind."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdimp import (
    Dataset,
    GridStrategy,
    LinearModel,
    ParameterError,
    build_grid,
    fit_bagged_trees,
    fit_knn,
    ice_curves,
    importance_all,
    interaction_matrix,
    parse_expression,
    partial_dependence,
)
from pdimp.engine import ordered_mean, pd_values_at

_VALUES = [-1.5, -0.25, 0.0, 0.5, 1.0, 2.75, 3.0]
KINDS = ("linear", "expression", "knn", "trees")


def _column(draw, n, elements):
    """n draws from ``elements`` with at least two distinct values."""
    return draw(st.lists(st.sampled_from(elements), min_size=n, max_size=n)
                .filter(lambda v: len(set(v)) >= 2))


@st.composite
def _cases(draw):
    """(model, feature dataset, grid strategy) over small tie-heavy data."""
    kind = draw(st.sampled_from(KINDS))
    n = draw(st.integers(4, 12))
    data = {"a": _column(draw, n, _VALUES), "b": _column(draw, n, _VALUES)}
    if kind != "knn":
        data["c"] = _column(draw, n, ["u", "v", "w"])
    data["y"] = draw(st.lists(st.integers(-20, 20).map(float), min_size=n, max_size=n))
    full = Dataset.from_dict(data)
    features = full.drop("y")
    if kind == "linear":
        names = ["a", "b"] + [f"c={level}" for level in features.schema_for("c").levels[1:]]
        coefs = draw(st.lists(st.floats(-5, 5), min_size=len(names), max_size=len(names)))
        model = LinearModel(draw(st.floats(-5, 5)), dict(zip(names, coefs)), features.schema)
    elif kind == "expression":
        model = parse_expression("a*b - 2*a + sin(3*b)", features.schema)
    elif kind == "knn":
        model = fit_knn(full, "y", draw(st.integers(1, n)))
    else:
        model = fit_bagged_trees(full, "y", n_trees=draw(st.integers(1, 9)), max_depth=3,
                                 min_leaf=1, seed=draw(st.integers(0, 99)))
    strategy = draw(st.sampled_from([GridStrategy.unique(), GridStrategy.quantile(3)]))
    return model, features, strategy


def _results(model, features, strategy, workers):
    grid = build_grid(features, ["a"], strategy)
    return (
        json.dumps(importance_all(model, features, strategy, workers=workers).to_json_dict()),
        json.dumps(interaction_matrix(model, features, None, strategy, include_h=True,
                                      workers=workers).to_json_dict()),
        partial_dependence(model, features, grid, workers=workers).values.tobytes(),
        ice_curves(model, features, grid, workers=workers).curves.tobytes(),
    )


@settings(max_examples=40, deadline=None)
@given(_cases())
def test_results_are_bit_identical_at_1_2_and_3_workers(case):
    model, features, strategy = case
    serial = _results(model, features, strategy, 1)
    for workers in (2, 3):
        assert _results(model, features, strategy, workers) == serial


@settings(max_examples=40, deadline=None)
@given(_cases(), st.sampled_from(["a", "b"]), st.sampled_from([1, 2, 3]))
def test_ice_column_means_are_the_pd_bit_for_bit(case, feature, workers):
    model, features, strategy = case
    grid = build_grid(features, [feature], strategy)
    ice = ice_curves(model, features, grid, workers=workers)
    pd = partial_dependence(model, features, grid, workers=workers)
    means = np.array([ordered_mean(ice.curves[:, j]) for j in range(len(grid.axes[0]))])
    assert means.tobytes() == pd.values.tobytes() == ice.pd_values.tobytes()


@pytest.mark.parametrize("workers", [0, -5, 2.5, True, None])
def test_a_worker_count_that_is_no_integer_of_at_least_1_is_refused(workers):
    ds = Dataset.from_dict({"a": [1.0, 2.0]})
    model = parse_expression("a", ds.schema)
    with pytest.raises(ParameterError, match=f"workers must be an integer of at least 1, "
                                             f"got {workers}"):
        pd_values_at(model, ds, ["a"], np.array([[1.0]]), workers=workers)
    grid = build_grid(ds, ["a"], GridStrategy.unique())
    for analysis in (partial_dependence, ice_curves):
        with pytest.raises(ParameterError, match="workers must be"):
            analysis(model, ds, grid, workers=workers)

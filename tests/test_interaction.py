"""Interaction statistics: conditional-importance spread and Friedman's H."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdimp import (
    Dataset,
    DegenerateGridError,
    GridStrategy,
    ParameterError,
    build_grid,
    fit_bagged_trees,
    fit_linear,
    h_statistic,
    interaction_matrix,
    parse_expression,
    pd_interaction,
)
from pdimp.engine import Grid, ordered_mean
from pdimp.expressions import FUNCTIONS


def _expr(text, ds):
    return parse_expression(text, ds.schema)


class TestPdInteraction:
    def test_hand_enumeration_on_a_2x2_grid(self):
        # joint PD of f = x1*x2 on {0,1}^2 is [[0,0],[0,1]]:
        #   i(x1|x2=0) = sd{0,0} = 0, i(x1|x2=1) = sd{0,1} = sqrt(1/2)
        #   sd of those two importances = 0.5; symmetric the other way
        ds = Dataset.from_dict({"x1": [0.0, 1.0], "x2": [0.0, 1.0]})
        stat = pd_interaction(_expr("x1*x2", ds), ds, ("x1", "x2"), GridStrategy.unique())
        assert stat == pytest.approx(0.5, abs=1e-12)

    def test_additive_model_scores_zero(self):
        rng = np.random.default_rng(1)
        ds = Dataset.from_dict({
            "a": rng.uniform(size=30), "b": rng.uniform(size=30),
            "c": rng.uniform(size=30),
        })
        model = _expr("sin(4*a) + exp(b) + c^3", ds)
        for pair in (("a", "b"), ("a", "c"), ("b", "c")):
            assert pd_interaction(model, ds, pair, GridStrategy.quantile(6)) <= 1e-9

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        ds = Dataset.from_dict({"a": rng.uniform(size=25), "b": rng.uniform(size=25)})
        model = _expr("sin(3*a*b) + a", ds)
        s1 = pd_interaction(model, ds, ("a", "b"), GridStrategy.quantile(5))
        s2 = pd_interaction(model, ds, ("b", "a"), GridStrategy.quantile(5))
        assert s1 == pytest.approx(s2, rel=1e-12)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(3)
        ds = Dataset.from_dict({"a": rng.uniform(size=25), "b": rng.uniform(size=25)})
        base = pd_interaction(_expr("a*b + a", ds), ds, ("a", "b"), GridStrategy.quantile(5))
        scaled = pd_interaction(_expr("4*(a*b + a)", ds), ds, ("a", "b"), GridStrategy.quantile(5))
        assert scaled == pytest.approx(4.0 * base, rel=1e-9)

    def test_identical_features_rejected(self):
        ds = Dataset.from_dict({"a": [1.0, 2.0]})
        with pytest.raises(ParameterError, match="distinct"):
            pd_interaction(_expr("a", ds), ds, ("a", "a"))

    def test_single_point_grid_is_degenerate(self):
        ds = Dataset.from_dict({"a": [1.0, 2.0], "flat": [3.0, 3.0]})
        with pytest.raises(DegenerateGridError):
            pd_interaction(_expr("a", ds), ds, ("a", "flat"), GridStrategy.unique())

    def test_brute_force_slice_enumeration_on_small_grids(self):
        # oracle: recompute conditional importances from the joint PD table
        rng = np.random.default_rng(4)
        ds = Dataset.from_dict({
            "a": rng.integers(0, 4, 20).astype(float),
            "b": rng.integers(0, 3, 20).astype(float),
        })
        model = _expr("a*b + sin(a) + b^2", ds)
        from pdimp.engine import build_grid, joint_partial_dependence
        grid = build_grid(ds, ["a", "b"], GridStrategy.unique())
        table = joint_partial_dependence(model, ds, grid).value_matrix()

        def sd(vals):
            m = sum(vals) / len(vals)
            return math.sqrt(sum((v - m) ** 2 for v in vals) / (len(vals) - 1))

        cond_a = [sd(table[:, j]) for j in range(table.shape[1])]
        cond_b = [sd(table[i, :]) for i in range(table.shape[0])]
        want = (sd(cond_a) + sd(cond_b)) / 2.0
        got = pd_interaction(model, ds, ("a", "b"), GridStrategy.unique())
        assert got == pytest.approx(want, rel=1e-12)

    def test_categorical_slices_use_range_over_4(self):
        ds = Dataset.from_dict({
            "g": ["u", "v", "u", "v"],
            "x": [0.0, 0.0, 1.0, 1.0],
        })
        # prediction depends on the level through the interaction only
        model_ds = Dataset.from_dict({
            "g": ["u", "v", "u", "v"],
            "x": [0.0, 0.0, 1.0, 1.0],
            "y": [0.0, 0.0, 1.0, -1.0],
        })
        model = fit_linear(model_ds, "y")
        stat = pd_interaction(model, ds, ("g", "x"), GridStrategy.unique())
        assert stat >= 0.0  # smoke: mixed-kind pair works end to end


class TestInteractionMatrix:
    def test_pair_counts(self):
        rng = np.random.default_rng(5)
        ds2 = Dataset.from_dict({f"f{i}": rng.uniform(size=10) for i in range(2)})
        ds10 = Dataset.from_dict({f"f{i}": rng.uniform(size=10) for i in range(10)})
        model2 = _expr("f0 + f1", ds2)
        model10 = _expr("f0 + f1", ds10)
        assert len(interaction_matrix(model2, ds2, grid_strategy=GridStrategy.quantile(3)).pairs) == 1
        assert len(interaction_matrix(model10, ds10, grid_strategy=GridStrategy.quantile(3)).pairs) == 45

    def test_additive_oracle_scores_all_zero(self):
        rng = np.random.default_rng(6)
        ds = Dataset.from_dict({
            "a": rng.uniform(size=20), "b": rng.uniform(size=20),
            "c": rng.uniform(size=20),
        })
        report = interaction_matrix(_expr("a + 2*b + c^2", ds), ds,
                                    grid_strategy=GridStrategy.quantile(4))
        assert all(p.stat_pd <= 1e-9 for p in report.pairs)

    def test_interacting_pair_ranks_first(self):
        rng = np.random.default_rng(7)
        ds = Dataset.from_dict({
            "a": rng.uniform(size=40), "b": rng.uniform(size=40),
            "c": rng.uniform(size=40),
        })
        report = interaction_matrix(_expr("sin(3*a*b) + c", ds), ds,
                                    grid_strategy=GridStrategy.quantile(8))
        assert set(report.ranked_pairs()[0]) == {"a", "b"}

    def test_explicit_pairs_and_worker_determinism(self):
        rng = np.random.default_rng(8)
        ds = Dataset.from_dict({
            "a": rng.uniform(size=30), "b": rng.uniform(size=30),
            "c": rng.uniform(size=30),
        })
        model = _expr("a*b + b*c", ds)
        pairs = [("a", "b"), ("b", "c")]
        reports = [
            interaction_matrix(model, ds, pairs, GridStrategy.quantile(5), workers=w)
            for w in (1, 2, 8)
        ]
        for other in reports[1:]:
            assert [p.stat_pd for p in other.pairs] == [p.stat_pd for p in reports[0].pairs]

    def test_stat_pd_is_mean_of_directional_components(self):
        rng = np.random.default_rng(9)
        ds = Dataset.from_dict({"a": rng.uniform(size=25), "b": rng.uniform(size=25)})
        report = interaction_matrix(_expr("a*b", ds), ds, grid_strategy=GridStrategy.quantile(5))
        pair = report.pairs[0]
        assert pair.stat_pd == pytest.approx(
            (pair.spread_first_given_second + pair.spread_second_given_first) / 2.0, rel=1e-15
        )

    def test_csv_and_json_output(self, tmp_path):
        rng = np.random.default_rng(10)
        ds = Dataset.from_dict({"a": rng.uniform(size=15), "b": rng.uniform(size=15)})
        report = interaction_matrix(_expr("a*b", ds), ds,
                                    grid_strategy=GridStrategy.quantile(4), include_h=True)
        report.to_csv(tmp_path / "i.csv")
        lines = (tmp_path / "i.csv").read_text().splitlines()
        assert lines[0] == "feature_i,feature_j,stat_pd,stat_h"
        assert len(lines) == 2
        import json
        report.to_json(tmp_path / "i.json")
        doc = json.loads((tmp_path / "i.json").read_text())
        assert doc["pairs"][0]["features"] == ["a", "b"]
        assert doc["pairs"][0]["stat_h"] is not None


class TestHStatistic:
    def test_additive_model_is_near_zero(self):
        rng = np.random.default_rng(11)
        ds = Dataset.from_dict({"a": rng.uniform(size=25), "b": rng.uniform(size=25)})
        model = _expr("sin(4*a) + b^2", ds)
        assert h_statistic(model, ds, ("a", "b")) <= 1e-6

    def test_pure_interaction_with_zero_mean_features_approaches_one(self):
        rng = np.random.default_rng(12)
        ds = Dataset.from_dict({
            "a": rng.uniform(-1, 1, size=40), "b": rng.uniform(-1, 1, size=40),
        })
        h = h_statistic(_expr("a*b", ds), ds, ("a", "b"))
        assert h > 0.9

    def test_brute_force_oracle_on_ten_rows(self):
        # oracle: rebuild the three centered PD functions with plain loops
        rng = np.random.default_rng(13)
        a = rng.uniform(-1, 1, size=10)
        b = rng.uniform(-1, 1, size=10)
        ds = Dataset.from_dict({"a": a, "b": b})
        model = _expr("a*b + a", ds)

        def f(u, v):
            return u * v + u

        # joint PD at row r: mean over training rows of f(a_r, b_r) = f itself
        joint = np.array([f(a[r], b[r]) for r in range(10)])
        marg_a = np.array([np.mean([f(a[r], b[i]) for i in range(10)]) for r in range(10)])
        marg_b = np.array([np.mean([f(a[i], b[r]) for i in range(10)]) for r in range(10)])
        joint_c = joint - joint.mean()
        a_c = marg_a - marg_a.mean()
        b_c = marg_b - marg_b.mean()
        want = math.sqrt(np.sum((joint_c - a_c - b_c) ** 2) / np.sum(joint_c**2))
        got = h_statistic(model, ds, ("a", "b"), GridStrategy.unique())
        assert got == pytest.approx(want, rel=1e-9)

    def test_h_is_scale_invariant(self):
        rng = np.random.default_rng(14)
        ds = Dataset.from_dict({"a": rng.uniform(size=20), "b": rng.uniform(size=20)})
        h1 = h_statistic(_expr("a*b + a + b", ds), ds, ("a", "b"))
        h2 = h_statistic(_expr("25*(a*b + a + b)", ds), ds, ("a", "b"))
        assert h1 == pytest.approx(h2, rel=1e-9)

    def test_symmetry(self):
        rng = np.random.default_rng(15)
        ds = Dataset.from_dict({"a": rng.uniform(size=20), "b": rng.uniform(size=20)})
        model = _expr("a*b + b", ds)
        assert h_statistic(model, ds, ("a", "b")) == pytest.approx(
            h_statistic(model, ds, ("b", "a")), rel=1e-12
        )

    def test_zero_denominator_flags_undefined(self):
        ds = Dataset.from_dict({"a": [0.0, 1.0], "b": [0.0, 1.0]})
        h = h_statistic(_expr("5", ds), ds, ("a", "b"))
        assert math.isnan(h)

    def test_quantile_snapping_stays_close_to_exact(self):
        rng = np.random.default_rng(16)
        ds = Dataset.from_dict({"a": rng.uniform(size=60), "b": rng.uniform(size=60)})
        model = _expr("a*b + a + 2*b", ds)
        exact = h_statistic(model, ds, ("a", "b"), GridStrategy.unique())
        snapped = h_statistic(model, ds, ("a", "b"), GridStrategy.quantile(10))
        assert snapped == pytest.approx(exact, abs=0.05)


# --- H read from the joint PD table --------------------------------------

def _tree_dataset(seed=17, n=24):
    rng = np.random.default_rng(seed)
    a = rng.uniform(size=n)
    g = rng.integers(0, 3, size=n)
    b = rng.uniform(size=n)
    return Dataset.from_dict({
        "a": a, "b": b, "g": [("u", "v", "w")[i] for i in g],
        "y": 4 * a * b + np.where(g == 1, 2 * a, 0.0) + rng.normal(size=n) * 0.1,
    })


def _nested_loop_h(model, ds, pair, strategy):
    """H by plain loops: each row snaps to its nearest grid value (ties low;
    its own level for a categorical feature) and every PD value is a loop
    over single-row predictions."""
    def snapped(name):
        col = ds.column(name)
        if not ds.schema_for(name).is_continuous:
            return col.tolist()
        grid = build_grid(ds, [name], strategy).axes[0].values.tolist()
        return [min(grid, key=lambda g: (abs(v - g), g)) for v in col.tolist()]

    memo = {}

    def pd(names, point):
        if (names, point) not in memo:
            total = 0.0
            for i in range(ds.n_rows):
                row = {f.name: ds.column(f.name)[i: i + 1] for f in ds.schema}
                for name, value in zip(names, point):
                    row[name] = np.array([value])
                total += model.predict(Dataset(ds.schema, row))[0]
            memo[names, point] = total / ds.n_rows
        return memo[names, point]

    def centered(values):
        total = 0.0
        for v in values:
            total += v
        return np.array(values) - total / len(values)

    a, b = pair
    sa, sb = snapped(a), snapped(b)
    joint = centered([pd((a, b), (u, v)) for u, v in zip(sa, sb)])
    marg_a = centered([pd((a,), (u,)) for u in sa])
    marg_b = centered([pd((b,), (v,)) for v in sb])
    return math.sqrt(np.sum((joint - marg_a - marg_b) ** 2) / np.sum(joint**2))


class TestHFromJointTable:
    @pytest.mark.parametrize("strategy", [GridStrategy.quantile(4), GridStrategy.unique()])
    def test_h_equals_a_nested_loop_at_the_snapped_training_points(self, strategy):
        ds = _tree_dataset()
        model = fit_bagged_trees(ds, "y", n_trees=9, max_depth=3, min_leaf=2, seed=5)
        features = ds.drop("y")
        report = interaction_matrix(model, features, [("a", "b"), ("a", "g")], strategy,
                                    include_h=True)
        for pair in (("a", "b"), ("a", "g")):
            want = _nested_loop_h(model, features, pair, strategy)
            assert report.stat_for(*pair).stat_h == want
            assert h_statistic(model, features, pair, strategy) == want

    def test_constant_feature_adds_nothing_to_h(self):
        rng = np.random.default_rng(19)
        ds = Dataset.from_dict({"a": rng.uniform(size=20), "c": np.full(20, 0.5)})
        model = _expr("a*a + c*a", ds)
        for strategy in (GridStrategy.unique(), GridStrategy.quantile(4)):
            for pair in (("a", "c"), ("c", "a")):
                assert h_statistic(model, ds, pair, strategy) <= 1e-12

    def test_reports_with_h_do_not_depend_on_workers(self, tmp_path):
        ds = _tree_dataset(seed=18, n=40)
        model = fit_bagged_trees(ds, "y", n_trees=12, max_depth=4, min_leaf=2, seed=6)
        features = ds.drop("y")
        texts = []
        for workers in (1, 2):
            report = interaction_matrix(model, features, None, GridStrategy.quantile(5),
                                        include_h=True, workers=workers)
            report.to_json(tmp_path / f"w{workers}.json")
            texts.append((tmp_path / f"w{workers}.json").read_bytes())
        assert texts[0] == texts[1]

    def test_h_statistic_evaluates_only_the_rows_cells(self, monkeypatch):
        # a `unique` pair grid has ~n^2 points; h_statistic must not list them
        ds = _tree_dataset(seed=21, n=60)
        model = fit_bagged_trees(ds, "y", n_trees=6, max_depth=3, min_leaf=2, seed=8)
        features = ds.drop("y")
        want = _nested_loop_h(model, features, ("a", "b"), GridStrategy.unique())

        def refuse(self):
            raise AssertionError("the full pair grid was built")

        monkeypatch.setattr(Grid, "points", refuse)
        assert h_statistic(model, features, ("a", "b"), GridStrategy.unique()) == want


def _one_feature_term(name):
    """A text term in ``name`` alone: a coefficient times a function or a power."""
    coefficient = st.floats(-5, 5, allow_subnormal=False).map(lambda c: f"({c!r})")
    shape = st.one_of(
        st.sampled_from(sorted(FUNCTIONS)).map(lambda fn: f"{fn}(abs({name}) + 1)"),
        st.integers(1, 4).map(lambda p: f"{name}^{p}"),
    )
    return st.tuples(coefficient, shape).map("*".join)


@st.composite
def _additive_surfaces(draw):
    n = draw(st.integers(4, 15), label="rows")
    seed = draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    ds = Dataset.from_dict({name: rng.uniform(-2, 2, size=n) for name in ("a", "b", "c")})
    terms = draw(st.lists(st.sampled_from(["a", "b", "c"]).flatmap(_one_feature_term),
                          min_size=1, max_size=8), label="terms")
    return ds, terms


@settings(max_examples=40, deadline=None)
@given(_additive_surfaces())
def test_an_additive_surface_scores_no_interaction(case):
    """Exact arithmetic gives 0 for every pair; in floating point each PD
    value carries rounding of about eps times the terms' magnitude, so the
    statistic must stay within 1e-13 times the largest row sum of |term|."""
    ds, terms = case
    model = _expr(" + ".join(terms), ds)
    scale = sum(np.abs(_expr(t, ds).predict(ds)) for t in terms).max()
    report = interaction_matrix(model, ds, grid_strategy=GridStrategy.quantile(4))
    assert len(report.pairs) == 3
    for pair in report.pairs:
        assert not pair.degenerate
        assert pair.stat_pd <= 1e-13 * (1.0 + scale), pair

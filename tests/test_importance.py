"""Importance scoring: spread measures, reports, and invariances."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pdimp import (
    Dataset,
    DegenerateGridError,
    GridStrategy,
    NonFiniteError,
    ParameterError,
    build_grid,
    importance_all,
    importance_from_pd,
    parse_expression,
    partial_dependence,
    theoretical_uniform_sd,
)
from pdimp.cli import emit_plot_data
from pdimp.engine import Grid, GridAxis, PDResult
from pdimp.importance import MAD, RANGE_OVER_4, SAMPLE_SD, spread  # noqa: F401


def _pd_of(values, kind="continuous"):
    values = np.asarray(values, dtype=float)
    if kind == "continuous":
        axis = GridAxis("f", kind, np.arange(len(values), dtype=float))
    else:
        levels = tuple(f"l{i}" for i in range(len(values)))
        axis = GridAxis("f", kind, np.arange(len(values)), levels)
    grid = Grid((axis,), GridStrategy.unique())
    return PDResult(grid, values, n_train=10, baseline=float(np.mean(values)))


class TestSpreadMeasures:
    def test_flat_pd_scores_zero_under_every_measure(self):
        flat = _pd_of([1.0, 1.0, 1.0, 1.0])
        for measure in (SAMPLE_SD, MAD, RANGE_OVER_4):
            assert importance_from_pd(flat, measure) == 0.0

    def test_sample_sd_uses_k_minus_1(self):
        # variance (1 + 0 + 1)/2 = 1
        assert importance_from_pd(_pd_of([3.0, 4.0, 5.0]), SAMPLE_SD) == 1.0

    def test_categorical_uses_range_over_four(self):
        pd = _pd_of([2.0, 6.0, 4.0], kind="categorical")
        assert importance_from_pd(pd, SAMPLE_SD) == 1.0
        assert importance_from_pd(pd, RANGE_OVER_4) == 1.0

    def test_mad_hand_value(self):
        # median 4, |v - 4| = [3, 1, 0, 1, 3] -> median 1
        assert importance_from_pd(_pd_of([1.0, 3.0, 4.0, 5.0, 7.0]), MAD) == 1.0

    def test_single_point_grid_rejected_for_sd_and_mad(self):
        with pytest.raises(DegenerateGridError):
            importance_from_pd(_pd_of([1.0]), SAMPLE_SD)
        with pytest.raises(DegenerateGridError):
            importance_from_pd(_pd_of([1.0]), MAD)
        assert importance_from_pd(_pd_of([1.0]), RANGE_OVER_4) == 0.0

    def test_unknown_measure(self):
        with pytest.raises(ParameterError):
            importance_from_pd(_pd_of([1.0, 2.0]), "variance")

    @pytest.mark.parametrize("measure", [SAMPLE_SD, MAD, RANGE_OVER_4])
    def test_a_value_that_is_not_finite_is_refused(self, measure):
        with pytest.raises(NonFiniteError, match="a partial dependence value overflows"):
            spread(np.array([1.0, np.inf, 2.0]), measure)

    def test_a_pair_pd_has_no_importance(self):
        ds = Dataset.from_dict({"a": [1.0, 2.0], "b": [3.0, 4.0]})
        pd = partial_dependence(parse_expression("a + b", ds.schema), ds,
                                build_grid(ds, ["a", "b"], GridStrategy.unique()))
        with pytest.raises(ParameterError, match="single-feature PD results"):
            importance_from_pd(pd, SAMPLE_SD)

    def test_mad_is_robust_where_sd_is_not(self):
        base = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        corrupted = base.copy()
        corrupted[0] = 1e9
        sd_ratio = spread(corrupted, SAMPLE_SD) / spread(base, SAMPLE_SD)
        mad_ratio = spread(corrupted, MAD) / spread(base, MAD)
        assert sd_ratio > 1e6
        assert mad_ratio <= 2.0


class TestImportanceAll:
    def test_exact_linear_oracle_ratio_on_a_common_grid(self):
        # over one shared grid the PDs are affine with slopes 3 and -5, so
        # the sd ratio is exactly 5/3
        rng = np.random.default_rng(100)
        ds = Dataset.from_dict({"x1": rng.uniform(size=500), "x2": rng.uniform(size=500)})
        model = parse_expression("1 + 3*x1 - 5*x2", ds.schema)
        points = np.linspace(0.0, 1.0, 101)
        scores = {}
        for name in ("x1", "x2"):
            axis = GridAxis(name, "continuous", points)
            pd = partial_dependence(model, ds, Grid((axis,), GridStrategy.equidistant(101)))
            scores[name] = importance_from_pd(pd, SAMPLE_SD)
        assert scores["x2"] / scores["x1"] == pytest.approx(5.0 / 3.0, abs=1e-6)

    def test_data_spanning_grids_give_a_nearby_ratio(self):
        rng = np.random.default_rng(100)
        ds = Dataset.from_dict({"x1": rng.uniform(size=500), "x2": rng.uniform(size=500)})
        model = parse_expression("1 + 3*x1 - 5*x2", ds.schema)
        report = importance_all(model, ds, GridStrategy.equidistant(101))
        ratio = report.score_of("x2") / report.score_of("x1")
        assert ratio == pytest.approx(5.0 / 3.0, abs=0.05)
        assert report.ranked_names() == ["x2", "x1"]

    def test_constant_model_scores_all_zero(self):
        ds = Dataset.from_dict({"a": [1.0, 2.0], "b": [3.0, 4.0]})
        report = importance_all(parse_expression("42", ds.schema), ds)
        assert all(e.score == 0.0 for e in report.entries)

    def test_ignored_feature_scores_exactly_zero(self):
        rng = np.random.default_rng(2)
        ds = Dataset.from_dict({"a": rng.uniform(size=30), "b": rng.uniform(size=30)})
        report = importance_all(parse_expression("sin(5*a)", ds.schema), ds)
        assert report.score_of("b") == 0.0
        assert report.score_of("a") > 0.0

    def test_constant_feature_is_flagged_degenerate(self):
        ds = Dataset.from_dict({"a": [1.0, 2.0, 3.0], "flat": [5.0, 5.0, 5.0]})
        report = importance_all(parse_expression("a + flat", ds.schema), ds)
        entry = next(e for e in report.entries if e.name == "flat")
        assert entry.score == 0.0
        assert entry.degenerate
        assert entry.grid_size == 1

    def test_categorical_feature_uses_its_level_grid(self):
        ds = Dataset.from_dict({
            "a": [0.0, 1.0, 2.0, 3.0],
            "g": ["u", "v", "u", "v"],
            "y": [0.0, 2.0, 2.0, 4.0],
        })
        from pdimp import fit_linear
        model = fit_linear(ds, "y")
        report = importance_all(model, ds.drop("y"), GridStrategy.quantile(5))
        entry = next(e for e in report.entries if e.name == "g")
        assert entry.measure == RANGE_OVER_4
        assert entry.grid_size == 2

    def test_too_few_rows(self):
        ds = Dataset.from_dict({"a": [1.0]})
        with pytest.raises(ParameterError):
            importance_all(parse_expression("a", ds.schema), ds)

    @pytest.mark.parametrize("aggregator", ["bogus", "trimmed:0.5", "trimmed:x"])
    def test_bad_aggregator_is_refused_when_no_point_is_scored(self, aggregator):
        ds = Dataset.from_dict({"a": [5.0, 5.0, 5.0], "b": [1.0, 1.0, 1.0]})
        model = parse_expression("a + b", ds.schema)
        assert all(e.degenerate for e in importance_all(model, ds).entries)
        with pytest.raises(ParameterError):
            importance_all(model, ds, aggregator=aggregator)


class TestInvariances:
    def _scores(self, text, ds, measure=SAMPLE_SD):
        model = parse_expression(text, ds.schema)
        report = importance_all(model, ds, GridStrategy.equidistant(21), measure)
        return {e.name: e.score for e in report.entries}

    def test_prediction_scaling_scales_scores(self):
        rng = np.random.default_rng(4)
        ds = Dataset.from_dict({"a": rng.uniform(size=40), "b": rng.uniform(size=40)})
        for measure in (SAMPLE_SD, MAD, RANGE_OVER_4):
            base = self._scores("sin(4*a) + b^2", ds, measure)
            scaled = self._scores("3*(sin(4*a) + b^2)", ds, measure)
            for name in base:
                assert scaled[name] == pytest.approx(3.0 * base[name], rel=1e-9)

    def test_prediction_shift_leaves_scores_unchanged(self):
        rng = np.random.default_rng(5)
        ds = Dataset.from_dict({"a": rng.uniform(size=40), "b": rng.uniform(size=40)})
        for measure in (SAMPLE_SD, MAD, RANGE_OVER_4):
            base = self._scores("sin(4*a) + b^2", ds, measure)
            shifted = self._scores("sin(4*a) + b^2 + 250", ds, measure)
            for name in base:
                assert shifted[name] == pytest.approx(base[name], abs=1e-9)

    def test_rank_invariance_under_affine_transforms(self):
        rng = np.random.default_rng(6)
        ds = Dataset.from_dict({
            "a": rng.uniform(size=50), "b": rng.uniform(size=50),
            "c": rng.uniform(size=50),
        })
        model = parse_expression("2*a + sin(6*b) + 0.3*c^2", ds.schema)
        affine = parse_expression("7*(2*a + sin(6*b) + 0.3*c^2) - 11", ds.schema)
        r1 = importance_all(model, ds, GridStrategy.equidistant(31))
        r2 = importance_all(affine, ds, GridStrategy.equidistant(31))
        assert r1.ranked_names() == r2.ranked_names()

    def test_scores_are_nonnegative_and_zero_iff_flat(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            values = rng.uniform(-5, 5, size=rng.integers(2, 12))
            for measure in (SAMPLE_SD, MAD, RANGE_OVER_4):
                score = spread(values, measure)
                assert score >= 0.0
                if np.all(values == values[0]):
                    assert score == 0.0
        for measure in (SAMPLE_SD, MAD, RANGE_OVER_4):
            assert spread(np.full(6, 3.25), measure) == 0.0


class TestTheoreticalSd:
    def test_known_values(self):
        assert theoretical_uniform_sd(3.0) == pytest.approx(0.8660, abs=5e-5)
        assert theoretical_uniform_sd(-5.0) == pytest.approx(1.4434, abs=5e-5)
        assert theoretical_uniform_sd(0.0) == 0.0

    def test_even_function(self):
        assert theoretical_uniform_sd(-2.5) == theoretical_uniform_sd(2.5)


class TestReportOutput:
    def test_sorted_descending_with_stable_ties(self, tmp_path):
        ds = Dataset.from_dict({
            "a": [0.0, 1.0, 2.0], "b": [0.0, 1.0, 2.0], "c": [0.0, 1.0, 2.0],
        })
        model = parse_expression("a + b + 2*c", ds.schema)
        report = importance_all(model, ds)
        assert report.ranked_names() == ["c", "a", "b"]

        emit_plot_data(report, tmp_path, "imp")
        lines = (tmp_path / "imp.csv").read_text().splitlines()
        assert lines[0] == "feature,score"
        assert len(lines) == 4
        assert lines[1].startswith("c,")

        import json
        doc = json.loads((tmp_path / "imp.json").read_text())
        assert [e["name"] for e in doc["features"]] == ["c", "a", "b"]

    def test_score_of_an_unknown_name(self):
        ds = Dataset.from_dict({"a": [0.0, 1.0, 2.0]})
        report = importance_all(parse_expression("a", ds.schema), ds)
        assert report.score_of("a") > 0
        with pytest.raises(KeyError):
            report.score_of("zzz")

    def test_pd_and_score_agree_with_manual_computation(self):
        rng = np.random.default_rng(9)
        ds = Dataset.from_dict({"a": rng.uniform(size=25), "b": rng.uniform(size=25)})
        model = parse_expression("a^2 + b", ds.schema)
        report = importance_all(model, ds, GridStrategy.quantile(6))
        pd = partial_dependence(model, ds, build_grid(ds, ["a"], GridStrategy.quantile(6)))
        assert report.score_of("a") == importance_from_pd(pd, SAMPLE_SD)


@settings(max_examples=200, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False), st.integers(2, 40), st.sampled_from([SAMPLE_SD, MAD, RANGE_OVER_4]))
def test_a_flat_pd_scores_exactly_zero(value, k, measure):
    values = np.full(k, value)
    if value == 0:
        values[::2] = -0.0  # signed zeros are still flat
    assert spread(values, measure) == 0.0


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.lists(st.floats(-1e150, 1e150), min_size=2, max_size=40),
                 st.lists(st.floats(-1e-140, 1e-140), min_size=2, max_size=40)),
       st.sampled_from([SAMPLE_SD, RANGE_OVER_4]))
def test_a_pd_whose_values_differ_by_1e_150_scores_above_zero(values, measure):
    """Not every non-flat PD: below this gap the sd's squares can underflow
    (the sd of [1e-200, 2e-200] is 0.0), and MAD is 0 whenever more than
    half the values tie."""
    values = np.array(values)
    assume(values.max() - values.min() >= 1e-150)
    assert spread(values, measure) > 0.0

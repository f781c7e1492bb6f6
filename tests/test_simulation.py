"""Synthetic benchmark generators and their closed-form PD truths."""

import math

import numpy as np
import pytest
from scipy import integrate

from pdimp import (
    Dataset,
    GridStrategy,
    ParameterError,
    SimulationSpec,
    build_grid,
    generate,
    importance_all,
    parse_expression,
    partial_dependence,
    true_pd_friedman_pair,
    true_pd_linear,
)
from pdimp.simulate import FRIEDMAN_EXPRESSION, MAX_SIMULATION_ROWS


class TestGenerate:
    def test_row_count_is_refused_past_the_maximum(self):
        # specs only: nothing is drawn, so nothing large is allocated
        assert SimulationSpec("friedman", MAX_SIMULATION_ROWS, 0, 1.0).n == MAX_SIMULATION_ROWS
        for n in (0, MAX_SIMULATION_ROWS + 1, 10**15):
            with pytest.raises(ParameterError, match=r"n must be in \[1, "):
                SimulationSpec("friedman", n, 0, 1.0)

    def test_linear_zero_noise_targets_follow_the_formula(self):
        ds = generate(SimulationSpec("linear", 50, seed=3, sigma=0.0))
        want = 1.0 + 3.0 * ds.column("x1") - 5.0 * ds.column("x2")
        assert np.array_equal(ds.column("y"), want)

    def test_custom_betas(self):
        spec = SimulationSpec("linear", 20, seed=4, sigma=0.0,
                              beta0=2.0, beta1=-1.0, beta2=0.5)
        ds = generate(spec)
        want = 2.0 - ds.column("x1") + 0.5 * ds.column("x2")
        assert np.array_equal(ds.column("y"), want)

    def test_friedman_zero_noise_matches_the_oracle_expression(self):
        ds = generate(SimulationSpec("friedman", 40, seed=5, sigma=0.0))
        model = parse_expression(FRIEDMAN_EXPRESSION, ds.drop("y").schema)
        np.testing.assert_allclose(model.predict(ds.drop("y")), ds.column("y"), atol=1e-12)

    def test_friedman_surface_vanishes_at_the_null_point(self):
        schema = generate(SimulationSpec("friedman", 1, 0, 0.0)).drop("y").schema
        model = parse_expression(FRIEDMAN_EXPRESSION, schema)
        point = {f"x{i}": [0.0] for i in range(1, 11)}
        point["x2"] = [0.5]
        point["x3"] = [0.5]
        assert model.predict(Dataset.from_dict(point))[0] == pytest.approx(0.0, abs=1e-15)

    def test_identical_specs_are_bit_identical(self):
        a = generate(SimulationSpec("friedman", 100, seed=42, sigma=1.0))
        b = generate(SimulationSpec("friedman", 100, seed=42, sigma=1.0))
        assert a == b

    def test_different_seeds_differ(self):
        a = generate(SimulationSpec("friedman", 100, seed=1, sigma=1.0))
        b = generate(SimulationSpec("friedman", 100, seed=2, sigma=1.0))
        assert not np.array_equal(a.column("x1"), b.column("x1"))

    def test_features_are_in_the_unit_interval(self):
        ds = generate(SimulationSpec("friedman", 200, seed=6, sigma=1.0))
        for i in range(1, 11):
            col = ds.column(f"x{i}")
            assert col.min() >= 0.0 and col.max() < 1.0

    def test_friedman_sample_mean_matches_quadrature_oracle(self):
        # oracle: E[y] = 10 E[sin(pi x1 x2)] + 20/12 + 5 + 2.5, with the
        # sin moment from numerical quadrature (frozen value 0.5246630676)
        moment, err = integrate.dblquad(
            lambda u, v: math.sin(math.pi * u * v), 0, 1, 0, 1
        )
        assert err < 1e-9
        assert moment == pytest.approx(0.524663067575319, abs=1e-12)
        theoretical_mean = 10.0 * moment + 20.0 / 12.0 + 5.0 + 2.5

        ds = generate(SimulationSpec("friedman", 500, seed=20, sigma=1.0))
        y = ds.column("y")
        bound = 3.0 * np.std(y, ddof=1) / math.sqrt(500)
        assert abs(float(np.mean(y)) - theoretical_mean) < bound

    def test_gaussian_noise_moments(self):
        ds = generate(SimulationSpec("linear", 20000, seed=9, sigma=2.0))
        noise = ds.column("y") - (1.0 + 3.0 * ds.column("x1") - 5.0 * ds.column("x2"))
        assert abs(np.mean(noise)) < 3.0 * 2.0 / math.sqrt(20000)
        assert np.std(noise) == pytest.approx(2.0, rel=0.03)

    def test_bad_specs(self):
        with pytest.raises(ParameterError):
            SimulationSpec("cubic", 10, 0, 1.0)
        with pytest.raises(ParameterError):
            SimulationSpec("linear", 0, 0, 1.0)
        with pytest.raises(ParameterError):
            SimulationSpec("linear", 10, 0, -1.0)


class TestTruePdLinear:
    def test_midpoint_values(self):
        assert true_pd_linear("x1", 1.0, 3.0, -5.0, 0.5) == pytest.approx(0.0, abs=1e-15)
        assert true_pd_linear("x2", 1.0, 3.0, -5.0, 0.5) == pytest.approx(0.0, abs=1e-15)

    def test_stated_closed_forms(self):
        # f1(v) = -3/2 + 3v and f2(v) = 5/2 - 5v for betas (1, 3, -5)
        for v in (0.0, 0.25, 1.0):
            assert true_pd_linear("x1", 1.0, 3.0, -5.0, v) == pytest.approx(-1.5 + 3.0 * v)
            assert true_pd_linear("x2", 1.0, 3.0, -5.0, v) == pytest.approx(2.5 - 5.0 * v)

    def test_degenerate_coefficients(self):
        assert true_pd_linear("x1", 0.0, 0.0, 0.0, 0.77) == 0.0

    def test_unknown_feature(self):
        with pytest.raises(ParameterError):
            true_pd_linear("x3", 1.0, 2.0, 3.0, 0.5)


class TestTruePdFriedmanPair:
    def test_x1_x2_values(self):
        assert true_pd_friedman_pair(("x1", "x2"), 0.5, 1.0) == pytest.approx(
            10.0 + 55.0 / 6.0, abs=1e-12
        )
        for other in (0.0, 0.3, 0.9):
            assert true_pd_friedman_pair(("x1", "x2"), 0.0, other) == pytest.approx(55.0 / 6.0)

    def test_x1_x2_against_quadrature_oracle(self):
        # integrate the remaining three features out of the full surface
        def pd(x1, x2):
            inner, _ = integrate.quad(lambda t: 20.0 * (t - 0.5) ** 2, 0, 1)
            return 10.0 * math.sin(math.pi * x1 * x2) + inner + 5.0 + 2.5

        for x1, x2 in ((0.2, 0.7), (0.5, 0.5), (1.0, 1.0)):
            assert true_pd_friedman_pair(("x1", "x2"), x1, x2) == pytest.approx(
                pd(x1, x2), abs=1e-9
            )

    def test_x1_x4_against_quadrature_oracle(self):
        # oracle: integrate sin(pi x1 t) over t plus the closed-form extras
        def pd(x1, x4):
            sin_part, _ = integrate.quad(lambda t: math.sin(math.pi * x1 * t), 0, 1)
            return 10.0 * sin_part + 20.0 / 12.0 + 10.0 * x4 + 2.5

        for x1, x4 in ((1.0, 0.5), (0.3, 0.2), (0.8, 0.0), (0.05, 1.0)):
            assert true_pd_friedman_pair(("x1", "x4"), x1, x4) == pytest.approx(
                pd(x1, x4), abs=1e-9
            )

    def test_x1_zero_is_limit_evaluated_with_a_warning(self):
        with pytest.warns(UserWarning, match="limit"):
            value = true_pd_friedman_pair(("x1", "x4"), 0.0, 0.5)
        assert value == pytest.approx(10.0 * 0.5 + 25.0 / 6.0, abs=1e-12)

    def test_continuity_at_the_removable_singularity(self):
        with pytest.warns(UserWarning):
            at_zero = true_pd_friedman_pair(("x1", "x4"), 0.0, 0.3)
        near_zero = true_pd_friedman_pair(("x1", "x4"), 1e-9, 0.3)
        assert near_zero == pytest.approx(at_zero, abs=1e-7)

    def test_unsupported_pair(self):
        with pytest.raises(ParameterError):
            true_pd_friedman_pair(("x2", "x3"), 0.5, 0.5)


class TestOracleProperties:
    def test_inert_features_have_exactly_zero_importance(self):
        ds = generate(SimulationSpec("friedman", 60, seed=11, sigma=1.0)).drop("y")
        model = parse_expression(FRIEDMAN_EXPRESSION, ds.schema)
        report = importance_all(model, ds, GridStrategy.quantile(8))
        for name in ("x6", "x7", "x8", "x9", "x10"):
            assert report.score_of(name) == 0.0

    def test_joint_pd_converges_to_the_closed_form(self):
        errors = []
        for n in (100, 1000, 10000):
            ds = generate(SimulationSpec("friedman", n, seed=23, sigma=1.0)).drop("y")
            model = parse_expression(FRIEDMAN_EXPRESSION, ds.schema)
            from pdimp.engine import Grid, GridAxis
            points = np.linspace(0.0, 1.0, 11)
            grid = Grid(
                (GridAxis("x1", "continuous", points), GridAxis("x2", "continuous", points)),
                GridStrategy.equidistant(11),
            )
            joint = partial_dependence(model, ds, grid)
            truth = np.array([
                [true_pd_friedman_pair(("x1", "x2"), u, v) for v in points] for u in points
            ])
            errors.append(float(np.max(np.abs(joint.value_matrix() - truth))))
        # max-abs error shrinks with n, allowing Monte Carlo slack
        assert errors[2] < errors[0]
        assert errors[2] < 0.15

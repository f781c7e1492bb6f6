"""Expression parsing and evaluation, including a differential oracle."""

import math

import numpy as np
import pytest

from pdimp import Dataset, ExpressionError, parse_expression
from pdimp.data import CONTINUOUS, FeatureSchema

SCHEMA = tuple(FeatureSchema(f"x{i}", CONTINUOUS) for i in range(1, 6))


def _eval_at(text, **values):
    n = len(next(iter(values.values()))) if values else 1
    data = {f.name: values.get(f.name, [0.0] * n) for f in SCHEMA}
    model = parse_expression(text, SCHEMA)
    return model.predict(Dataset.from_dict(data))


class TestEvaluation:
    def test_linear_at_origin(self):
        assert _eval_at("1 + 3*x1 - 5*x2", x1=[0.0], x2=[0.0])[0] == 1.0

    def test_exact_trig_value(self):
        got = _eval_at("10*sin(pi*x1*x2)", x1=[0.5], x2=[1.0])[0]
        assert got == pytest.approx(10.0, abs=1e-12)

    def test_power_is_right_associative(self):
        assert _eval_at("2^3^2")[0] == 512.0

    def test_power_binds_tighter_than_unary_minus(self):
        assert _eval_at("-2^2")[0] == -4.0
        assert _eval_at("2^-3")[0] == 0.125

    def test_precedence_and_parentheses(self):
        assert _eval_at("2 + 3 * 4")[0] == 14.0
        assert _eval_at("(2 + 3) * 4")[0] == 20.0
        assert _eval_at("1 - 2 - 3")[0] == -4.0
        assert _eval_at("12 / 2 / 3")[0] == 2.0

    def test_functions_and_constant(self):
        assert _eval_at("exp(0) + cos(0) + sqrt(4) + abs(-3) + log(1)")[0] == 7.0
        assert _eval_at("pi")[0] == math.pi

    def test_benchmark_surface_vanishes_at_constructed_point(self):
        text = "10*sin(pi*x1*x2) + 20*(x3 - 0.5)^2 + 10*x4 + 5*x5"
        got = _eval_at(text, x1=[0.0], x2=[0.5], x3=[0.5], x4=[0.0], x5=[0.0])[0]
        assert got == pytest.approx(0.0, abs=1e-12)

    def test_vectorized_over_rows(self):
        got = _eval_at("x1^2 + x2", x1=[1.0, 2.0, 3.0], x2=[1.0, 1.0, 1.0])
        np.testing.assert_array_equal(got, [2.0, 5.0, 10.0])

    def test_constant_expression_broadcasts(self):
        got = _eval_at("2 + 3", x1=[1.0, 2.0, 3.0])
        np.testing.assert_array_equal(got, [5.0, 5.0, 5.0])

    def test_unreferenced_features_are_still_part_of_the_contract(self):
        model = parse_expression("x1", SCHEMA)
        assert model.feature_names == tuple(f.name for f in SCHEMA)
        assert model.program == ("x1",)


class TestErrors:
    def test_syntax_error_carries_offset(self):
        with pytest.raises(ExpressionError) as err:
            parse_expression("1 + * 2", SCHEMA)
        assert err.value.position == 4

    def test_unbalanced_parenthesis(self):
        with pytest.raises(ExpressionError, match="expected"):
            parse_expression("(1 + 2", SCHEMA)

    def test_trailing_garbage(self):
        with pytest.raises(ExpressionError, match="unexpected"):
            parse_expression("1 + 2 )", SCHEMA)

    def test_unknown_variable(self):
        with pytest.raises(ExpressionError, match="unknown variable 'zz'"):
            parse_expression("1 + zz", SCHEMA)

    def test_categorical_feature_is_not_a_variable(self):
        schema = SCHEMA + (FeatureSchema("g", "categorical", ("u", "v")),)
        with pytest.raises(ExpressionError, match="unknown variable"):
            parse_expression("g + 1", schema)

    @pytest.mark.parametrize("kind, levels", [(CONTINUOUS, None), ("categorical", ("u", "v"))])
    def test_pi_is_refused_when_a_feature_is_named_pi(self, kind, levels):
        schema = (FeatureSchema("pi", kind, levels), FeatureSchema("x2", CONTINUOUS))
        with pytest.raises(ExpressionError, match="'pi' at position 3 names both") as err:
            parse_expression("x2*pi", schema)
        assert err.value.position == 3
        model = parse_expression("x2*2", schema)  # a formula without pi still parses
        assert model.program[0] == "x2"

    def test_unknown_function(self):
        with pytest.raises(ExpressionError, match="unknown function 'tan'"):
            parse_expression("tan(x1)", SCHEMA)

    def test_arity_error(self):
        with pytest.raises(ExpressionError, match="takes 1 argument, got 2"):
            parse_expression("sin(x1, x2)", SCHEMA)

    def test_empty_expression(self):
        with pytest.raises(ExpressionError, match="empty"):
            parse_expression("   ", SCHEMA)

    def test_a_number_past_float64_is_refused_at_its_position(self):
        with pytest.raises(ExpressionError, match="1e400") as err:
            parse_expression("x + 1e400", (FeatureSchema("x", CONTINUOUS),))
        assert err.value.position == 4
        assert _eval_at("1e-400")[0] == 0.0

    def test_trailing_and_leading_spaces_are_skipped(self):
        assert _eval_at("  x1 + 2  \t ", x1=[1.0])[0] == 3.0

    def test_stray_character(self):
        with pytest.raises(ExpressionError) as err:
            parse_expression("1 + $2", SCHEMA)
        assert err.value.position == 4


def _random_expression(rng, depth=0):
    """Grammar-driven random expression; sub-terms kept inside safe domains."""
    if depth >= 3 or rng.random() < 0.25:
        leaf = rng.integers(0, 3)
        if leaf == 0:
            return f"{rng.uniform(0.1, 5):.4f}"
        if leaf == 1:
            return f"x{rng.integers(1, 6)}"
        return "pi"
    kind = rng.integers(0, 4)
    if kind == 0:
        op = rng.choice(["+", "-", "*"])
        return f"({_random_expression(rng, depth + 1)} {op} {_random_expression(rng, depth + 1)})"
    if kind == 1:
        return f"({_random_expression(rng, depth + 1)} / ({_random_expression(rng, depth + 1)} + 6))"
    if kind == 2:
        fn = rng.choice(["sin", "cos", "exp"])
        inner = _random_expression(rng, depth + 1)
        if fn == "exp":
            return f"{fn}(sin({inner}))"
        return f"{fn}({inner})"
    fn = rng.choice(["sqrt", "log", "abs"])
    return f"{fn}(abs({_random_expression(rng, depth + 1)}) + 1)"


class TestDifferentialOracle:
    def test_matches_python_eval_on_random_expressions(self):
        """Independent tree-walker: Python's own parser after ^ -> **.

        Python's ** shares our precedence rules exactly (right-associative,
        tighter than unary minus on the left, looser on the right).
        """
        rng = np.random.default_rng(2024)
        namespace = {
            "sin": math.sin, "cos": math.cos, "exp": math.exp,
            "log": math.log, "sqrt": math.sqrt, "abs": abs, "pi": math.pi,
        }
        for case in range(100):
            text = _random_expression(rng)
            point = {f"x{i}": rng.uniform(0.1, 2.0) for i in range(1, 6)}
            want = eval(text.replace("^", "**"), {"__builtins__": {}}, {**namespace, **point})
            got = _eval_at(text, **{k: [v] for k, v in point.items()})[0]
            assert got == pytest.approx(want, rel=1e-12), f"case {case}: {text}"

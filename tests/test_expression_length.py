"""Formulas of any length compile to one flat program; deep nesting is a typed error."""

import numpy as np
import pytest

from pdimp import Dataset, ExpressionError, parse_expression
from pdimp.data import CONTINUOUS, FeatureSchema

SCHEMA = tuple(FeatureSchema(f"x{i}", CONTINUOUS) for i in range(1, 4))


def _batch(rng, n=7):
    return Dataset.from_dict({f.name: rng.uniform(0.5, 1.5, size=n) for f in SCHEMA})


def test_long_sum_equals_a_left_to_right_loop():
    rng = np.random.default_rng(11)
    batch = _batch(rng)
    terms = [(float(c), f"x{j}") for c, j in zip(rng.uniform(0.1, 3, 5000),
                                                 rng.integers(1, 4, 5000))]
    text = " + ".join(f"{c!r}*{name}" for c, name in terms)
    want = terms[0][0] * batch.column(terms[0][1])
    for c, name in terms[1:]:
        want = want + c * batch.column(name)
    assert parse_expression(text, SCHEMA).predict(batch).tobytes() == want.tobytes()


def test_long_product_equals_a_left_to_right_loop():
    rng = np.random.default_rng(12)
    batch = _batch(rng)
    factors = [float(f) for f in rng.uniform(0.999, 1.001, 2000)]
    text = "x2*" + "*".join(repr(f) for f in factors)
    want = batch.column("x2")
    for f in factors:
        want = want * f
    assert parse_expression(text, SCHEMA).predict(batch).tobytes() == want.tobytes()


@pytest.mark.parametrize("text", [
    "(" * 300 + "x1" + ")" * 300,
    "-" * 3000 + "x1",
    "^".join(["x1"] * 1000),
], ids=["300 parentheses", "3000 unary minuses", "1000-term power chain"])
def test_nesting_too_deep_raises_expression_error(text):
    with pytest.raises(ExpressionError, match="nests too deeply") as err:
        parse_expression(text, SCHEMA)
    assert 0 <= err.value.position <= len(text)

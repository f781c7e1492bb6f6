"""Formula-defined prediction surfaces, e.g. ``10*sin(pi*x1*x2) + 5*x5``.

A small recursive-descent parser compiles the text to a flat postfix
program over feature names as it reads: a number or a feature name pushes
a value, and each operator or function replaces its operands on the value
stack with its result. Evaluation runs the program in one loop,
vectorized over dataset columns, so sums and products of any length
compile and score; a step writes into a block an earlier step made, by the
rule for work arrays in the ``models`` module docstring. Only nesting
(parentheses, unary minus, ``^`` chains) recurses in the parser; an
expression nested too deeply for Python's stack raises ExpressionError.
These oracle models make it possible to test the estimators against
surfaces whose partial dependence is known exactly.

Precedence, loosest to tightest: ``+ -``, ``* /``, unary ``-``, ``^``
(right-associative, so ``2^3^2 == 512`` and ``-2^2 == -4``).
"""

from __future__ import annotations

import math
import re
from typing import Sequence

import numpy as np

from .data import Dataset, FeatureSchema
from .errors import ExpressionError
from .models import PredictionModel, pinned_columns

FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
}

_BINARY = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "/": np.divide,
    "^": np.power,
}
_BINARY_STEPS = frozenset(_BINARY.values())

_TOKEN = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None or match.lastgroup is None:
            at = pos + len(text[pos:]) - len(text[pos:].lstrip())
            if at >= len(text):
                break
            raise ExpressionError(f"unexpected character {text[at]!r} at position {at}", position=at)
        kind = match.lastgroup
        tokens.append((kind, match.group(kind), match.start(kind)))
        pos = match.end()
    return tokens


class _Parser:
    """Appends each step to ``program`` as soon as its operands are there:
    a float or a feature name pushes a value, a callable in ``_BINARY_STEPS``
    pops two, and any other callable maps the top value."""

    def __init__(self, text: str, schema: Sequence[FeatureSchema]):
        self.text = text
        self.tokens = _tokenize(text)
        self.variables = {f.name for f in schema if f.is_continuous}
        self.pi_is_a_feature = any(f.name == "pi" for f in schema)
        self.index = 0
        self.program = []

    def peek(self):
        return self.tokens[self.index] if self.index < len(self.tokens) else (None, None, len(self.text))

    def take(self, symbols: str):
        """Consume and return the next token if it is one of the operator ``symbols``."""
        kind, value, _ = self.peek()
        if kind == "op" and value in symbols:
            self.index += 1
            return value
        return None

    def expect_op(self, symbol: str):
        if not self.take(symbol):
            pos = self.peek()[2]
            raise ExpressionError(f"expected {symbol!r} at position {pos}", position=pos)

    def parse(self) -> tuple:
        self.expr()
        kind, value, pos = self.peek()
        if kind is not None:
            raise ExpressionError(f"unexpected {value!r} at position {pos}", position=pos)
        return tuple(self.program)

    def expr(self):
        self.term()
        while op := self.take("+-"):
            self.term()
            self.program.append(_BINARY[op])

    def term(self):
        self.factor()
        while op := self.take("*/"):
            self.factor()
            self.program.append(_BINARY[op])

    def factor(self):
        if self.take("-"):
            self.factor()
            self.program.append(np.negative)
        else:
            self.power()

    def power(self):
        self.atom()
        if self.take("^"):
            self.factor()
            self.program.append(np.power)

    def atom(self):
        kind, value, pos = self.peek()
        self.index += 1
        if kind == "num":
            if math.isinf(float(value)):
                raise ExpressionError(f"number {value} at position {pos} is beyond float64",
                                      position=pos)
            self.program.append(float(value))
        elif kind == "name" and self.take("("):
            self.call(value, pos)
        elif kind == "name" and value == "pi":
            if self.pi_is_a_feature:
                raise ExpressionError(f"'pi' at position {pos} names both the constant and a "
                                      "feature", position=pos)
            self.program.append(math.pi)
        elif kind == "name":
            if value not in self.variables:
                raise ExpressionError(f"unknown variable {value!r} at position {pos}", position=pos)
            self.program.append(value)
        elif kind == "op" and value == "(":
            self.expr()
            self.expect_op(")")
        else:
            shown = "end of input" if kind is None else repr(value)
            raise ExpressionError(f"expected a value, got {shown} at position {pos}", position=pos)

    def call(self, name: str, pos: int):
        if name not in FUNCTIONS:
            raise ExpressionError(f"unknown function {name!r} at position {pos}", position=pos)
        self.expr()
        count = 1
        while self.take(","):
            self.expr()
            count += 1
        self.expect_op(")")
        if count != 1:
            raise ExpressionError(
                f"function {name!r} takes 1 argument, got {count} at position {pos}",
                position=pos,
            )
        self.program.append(FUNCTIONS[name])


class ExpressionModel(PredictionModel):
    """A prediction function given in closed form over a feature schema.

    The model is bound to the full schema it was parsed against, so a
    formula that ignores some features still scores datasets that carry
    them (and those features get a perfectly flat partial dependence).
    """

    def __init__(self, source: str, program: tuple, schema: Sequence[FeatureSchema]):
        self._feature_schema = tuple(schema)
        self.source = source
        self.program = program

    def _grid(self, batch: Dataset, cols: list[int], pinned: np.ndarray) -> np.ndarray:
        """The program run once over the slab: a pinned variable is a (points x
        1) column, so every value takes the steps it takes at one point alone.
        A step writes into an operand that is a (points x rows) block an
        earlier step made: no other step reads it, while a column or pin may
        be read again."""
        columns = pinned_columns(batch, self.feature_names, cols, pinned)
        inputs = {id(column) for column in columns.values()}
        shape = (len(pinned), batch.n_rows)

        def owned(value):
            # numpy loops over a one-element array written in place with
            # stride 0, which its power loop reads as a repeated exponent
            return (np.shape(value) == shape and id(value) not in inputs
                    and math.prod(shape) > 1)

        stack = []
        with np.errstate(all="ignore"):
            for step in self.program:
                if isinstance(step, float):
                    stack.append(step)
                elif isinstance(step, str):
                    stack.append(columns[step])
                elif step in _BINARY_STEPS:
                    lhs, rhs = stack[-2], stack.pop()
                    if step is np.power and isinstance(rhs, np.ndarray):
                        # numpy's power takes another loop (sqrt for 0.5) for an
                        # exponent it sees repeat, as a pin or a one-row column;
                        # at one point every column is full, so both are spread
                        full = np.broadcast_shapes(np.shape(lhs), rhs.shape)
                        lhs, rhs = [np.broadcast_to(x, full).copy()
                                    if isinstance(x, np.ndarray) and x.shape != full else x
                                    for x in (lhs, rhs)]
                    out = lhs if owned(lhs) else rhs if owned(rhs) else None
                    stack[-1] = step(lhs, rhs, out=out)
                else:
                    stack[-1] = step(stack[-1], out=stack[-1] if owned(stack[-1]) else None)
        if owned(stack[-1]):
            return stack[-1]
        return np.broadcast_to(stack[-1], shape).copy()


def parse_expression(text: str, schema: Sequence[FeatureSchema]) -> ExpressionModel:
    """Compile formula text against a schema. Variables must name continuous features."""
    if not text.strip():
        raise ExpressionError("empty expression", position=0)
    parser = _Parser(text, schema)
    try:
        program = parser.parse()
    except RecursionError:
        pos = parser.peek()[2]
        raise ExpressionError(
            f"expression nests too deeply at position {pos}", position=pos
        ) from None
    return ExpressionModel(text, program, schema)

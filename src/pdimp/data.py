"""Columnar datasets: CSV ingestion with per-column kind inference, and the
CSV and JSON writers every result uses.

A :class:`Dataset` is an immutable column store. Continuous columns hold
float64 values, categorical columns hold int64 indices into a per-feature
level table. Categorical level order is first appearance in the input.
"""

from __future__ import annotations

import csv
import io
import json
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import CsvError, UnknownFeatureError, ValidationError

CONTINUOUS = "continuous"
CATEGORICAL = "categorical"
_KINDS = (CONTINUOUS, CATEGORICAL)


@dataclass(frozen=True)
class FeatureSchema:
    """Kind and metadata of one column."""

    name: str
    kind: str
    levels: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValidationError(f"unknown feature kind {self.kind!r}")
        if self.kind == CATEGORICAL:
            if self.levels is None:
                raise ValidationError(f"categorical feature {self.name!r} needs a level table")
            if len(set(self.levels)) != len(self.levels):
                raise ValidationError(f"duplicate levels for feature {self.name!r}")
        elif self.levels is not None:
            raise ValidationError(f"continuous feature {self.name!r} must not carry levels")

    @property
    def is_continuous(self) -> bool:
        return self.kind == CONTINUOUS

    def to_json(self) -> dict:
        doc = {"name": self.name, "kind": self.kind}
        if self.kind == CATEGORICAL:
            doc["levels"] = list(self.levels)
        return doc


class Dataset:
    """Immutable columnar table of typed features.

    ``columns`` maps feature name to a 1-D array: float64 for continuous
    features, int64 level indices for categorical ones. All columns share
    the same length and arrays are marked read-only.
    """

    def __init__(self, schema: Sequence[FeatureSchema], columns: Mapping[str, np.ndarray]):
        schema = tuple(schema)
        names = [f.name for f in schema]
        if len(set(names)) != len(names):
            raise ValidationError("duplicate feature names in schema")
        if set(columns) != set(names):
            raise ValidationError("schema and columns name different features")

        converted: dict[str, np.ndarray] = {}
        n_rows = None
        for feat in schema:
            raw = columns[feat.name]
            if feat.is_continuous:
                col = np.asarray(raw, dtype=np.float64)
                if col.ndim != 1:
                    raise ValidationError(f"column {feat.name!r} is not one-dimensional")
                if not np.all(np.isfinite(col)):
                    raise ValidationError(f"continuous column {feat.name!r} contains NaN/Inf")
            else:
                col = np.asarray(raw, dtype=np.int64)
                if col.ndim != 1:
                    raise ValidationError(f"column {feat.name!r} is not one-dimensional")
                if col.size and (col.min() < 0 or col.max() >= len(feat.levels)):
                    raise ValidationError(f"categorical column {feat.name!r} has out-of-range level index")
            if n_rows is None:
                n_rows = col.size
            elif col.size != n_rows:
                raise ValidationError(
                    f"column {feat.name!r} has {col.size} rows, expected {n_rows}"
                )
            col = col.copy()
            col.setflags(write=False)
            converted[feat.name] = col

        self._schema = schema
        self._columns = converted
        self._n_rows = 0 if n_rows is None else int(n_rows)

    @classmethod
    def _unchecked(cls, schema: tuple[FeatureSchema, ...], columns: dict[str, np.ndarray]) -> "Dataset":
        """Construct without validation or copying; callers guarantee invariants."""
        ds = cls.__new__(cls)
        ds._schema = schema
        ds._columns = columns
        first = next(iter(columns.values()), None)
        ds._n_rows = 0 if first is None else int(first.size)
        return ds

    @classmethod
    def from_dict(cls, data: Mapping[str, Sequence]) -> "Dataset":
        """Build a dataset from name -> values, inferring kinds from content.

        Numeric sequences become continuous columns; anything else becomes
        categorical with levels in first-appearance order.
        """
        schema = []
        columns = {}
        for name, values in data.items():
            arr = np.asarray(values)
            if arr.dtype.kind in "fiu":
                schema.append(FeatureSchema(name, CONTINUOUS))
                columns[name] = arr.astype(np.float64)
            else:
                levels, columns[name] = _level_codes(str(v) for v in values)
                schema.append(FeatureSchema(name, CATEGORICAL, levels))
        return cls(schema, columns)

    # -- introspection -------------------------------------------------

    @property
    def schema(self) -> tuple[FeatureSchema, ...]:
        return self._schema

    @property
    def n_rows(self) -> int:
        return self._n_rows

    @property
    def feature_names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self._schema)

    def schema_for(self, name: str) -> FeatureSchema:
        for feat in self._schema:
            if feat.name == name:
                return feat
        raise UnknownFeatureError(f"no feature named {name!r}")

    def column(self, name: str) -> np.ndarray:
        if name not in self._columns:
            raise UnknownFeatureError(f"no feature named {name!r}")
        return self._columns[name]

    # -- derivation ----------------------------------------------------

    def select(self, names: Iterable[str]) -> "Dataset":
        names = list(names)
        schema = tuple(self.schema_for(n) for n in names)
        return Dataset._unchecked(schema, {n: self._columns[n] for n in names})

    def drop(self, name: str) -> "Dataset":
        self.schema_for(name)
        return self.select(n for n in self.feature_names if n != name)

    def split_target(self, target: str) -> tuple["Dataset", np.ndarray]:
        """Extract a named numeric column as the target, returning the rest."""
        feat = self.schema_for(target)
        if not feat.is_continuous:
            raise ValidationError(f"target column {target!r} must be numeric")
        return self.drop(target), self._columns[target]

    def take(self, indices: np.ndarray) -> "Dataset":
        """The rows at ``indices`` (positions, or a boolean mask), same schema."""
        index = np.asarray(indices)
        if index.dtype != bool:
            index = index.astype(np.intp)  # an empty list is float64
        cols = {}
        for name, col in self._columns.items():
            sub = col[index]
            sub.setflags(write=False)
            cols[name] = sub
        return Dataset._unchecked(self._schema, cols)

    def replace_column(self, name: str, values: np.ndarray) -> "Dataset":
        """New dataset with one column overwritten (same schema, no re-validation)."""
        self.schema_for(name)
        cols = dict(self._columns)
        values = np.asarray(values)
        values.setflags(write=False)
        cols[name] = values
        return Dataset._unchecked(self._schema, cols)

    # -- CSV -----------------------------------------------------------

    def _text_cells(self, name: str) -> list[str]:
        """A column as CSV cells: each float in shortest round-trip form, each
        level index as its label."""
        feat = self.schema_for(name)
        if feat.is_continuous:
            return [repr(float(v)) for v in self._columns[name]]
        return [feat.levels[i] for i in self._columns[name]]

    def to_csv(self, target) -> None:
        """Write RFC-4180 CSV with header; floats use shortest round-trip form."""
        decoded = [self._text_cells(name) for name in self.feature_names]
        write_csv(target, self.feature_names, zip(*decoded) if decoded else ())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return self._schema == other._schema and all(
            np.array_equal(self._columns[n], other._columns[n]) for n in self.feature_names
        )

    def __repr__(self) -> str:
        kinds = ", ".join(f"{f.name}:{f.kind[:4]}" for f in self._schema)
        return f"Dataset({self._n_rows} rows; {kinds})"


@contextmanager
def _text_sink(target, newline: str | None):
    """A path opened for UTF-8 text writing, or an already open text file as is."""
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
    else:
        yield target


def write_csv(target, header: Sequence, rows: Iterable[Sequence]) -> None:
    """Write a header and rows as CSV with LF line ends to a path or text file."""
    with _text_sink(target, newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_json(target, doc: dict) -> None:
    """Write ``doc`` as 2-space indented JSON and a newline to a path or text file."""
    with _text_sink(target, newline=None) as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _finite_floats(cells: Sequence[str]) -> np.ndarray | None:
    """The cells parsed as float64, or None unless every one is a finite real."""
    try:
        values = np.array([float(c) for c in cells], dtype=np.float64)
    except ValueError:
        return None
    return values if np.isfinite(values).all() else None


def _level_codes(cells: Iterable[str]) -> tuple[tuple[str, ...], np.ndarray]:
    """Levels in first-appearance order, and each cell's index into them."""
    index: dict[str, int] = {}
    codes = np.array([index.setdefault(c, len(index)) for c in cells], dtype=np.int64)
    return tuple(index), codes


def infer_schema(names: Sequence[str], raw_columns: Sequence[Sequence[str]]) -> list[FeatureSchema]:
    """Decide each column's kind from its text cells.

    A column is continuous iff every non-empty cell parses as a finite real;
    otherwise it is categorical with levels in first-appearance order. A
    column with no non-empty cells is categorical with an empty level table.
    """
    return [_column(name, [c for c in cells if c != ""], None)[0]
            for name, cells in zip(names, raw_columns)]


def _column(name: str, cells: list[str],
            declared: str | None) -> tuple[FeatureSchema, np.ndarray]:
    """Schema and values of one column.

    The kind is ``declared``, or inferred by the rule of :func:`infer_schema`;
    the cells are parsed as numbers once, for the kind and the values alike.
    The first empty cell in row order, or in a continuous column the first
    cell that is not a finite real, raises :class:`CsvError` naming it.
    """
    values = _finite_floats(cells)
    if declared is None:
        declared = CONTINUOUS if cells and values is not None else CATEGORICAL
    if declared == CONTINUOUS and values is not None:
        return FeatureSchema(name, CONTINUOUS), values
    for i, cell in enumerate(cells):  # report the first bad cell in row order
        if cell == "":
            raise CsvError(f"missing value in column {name!r} at row {i + 1}",
                           row=i + 1, column=name)
        if declared == CONTINUOUS and _finite_floats([cell]) is None:
            raise CsvError(f"cell {cell!r} in continuous column {name!r} at row {i + 1} "
                           "is not a finite number", row=i + 1, column=name)
    levels, codes = _level_codes(cells)
    return FeatureSchema(name, CATEGORICAL, levels), codes


def load_csv(source, declared_schema: Mapping[str, str] | None = None) -> Dataset:
    """Load a comma-delimited UTF-8 table, its first row naming the columns,
    into a :class:`Dataset`.

    ``source`` is a path, bytes, or an open text file; a UTF-8 byte-order
    mark is dropped. ``declared_schema`` maps column names to kinds
    ("continuous" or "categorical") for any subset of columns; the rest are
    inferred by cell content. Missing (empty) cells are rejected: the
    estimator this feeds assumes complete rows.
    """
    try:
        if isinstance(source, (str, Path)):
            with open(source, "r", encoding="utf-8-sig", newline="") as fh:
                names, rows = _read_rows(fh)
        elif isinstance(source, bytes):
            text = io.TextIOWrapper(io.BytesIO(source), encoding="utf-8-sig", newline="")
            names, rows = _read_rows(text)
        else:
            names, rows = _read_rows(source)
    except UnicodeDecodeError as exc:
        raise CsvError(f"input is not valid UTF-8: {_bad_byte(source, exc)}") from None
    except csv.Error as exc:
        raise CsvError(f"malformed CSV: {exc}") from None

    declared = declared_schema or {}
    unknown = set(declared) - set(names)
    if unknown:
        raise UnknownFeatureError(f"declared schema names absent columns: {sorted(unknown)}")
    for name in names:
        kind = declared.get(name)
        if kind is not None and kind not in _KINDS:
            raise ValidationError(f"unknown declared kind {kind!r} for column {name!r}")

    if not rows:
        warnings.warn("CSV body is empty; all columns default to categorical with no levels")

    columns = [_column(name, [row[j] for row in rows], declared.get(name))
               for j, name in enumerate(names)]
    return Dataset([feat for feat, _ in columns], {feat.name: values for feat, values in columns})


def _bad_byte(source, exc: UnicodeDecodeError) -> str:
    """The decode error, placed by line and file offset for a path or bytes.

    A stream decoder reports offsets within its current chunk; only on this
    failure path is the whole input read again and decoded at once.
    """
    if isinstance(source, (str, Path)):
        with open(source, "rb") as fh:
            source = fh.read()
    if isinstance(source, bytes):
        try:
            source.decode("utf-8")
        except UnicodeDecodeError as whole:
            line = source.count(b"\n", 0, whole.start) + 1
            return f"line {line}: {whole}"
    return str(exc)


def _read_rows(source) -> tuple[list[str], list[list[str]]]:
    """Column names and data rows of a CSV text stream, checked for shape."""
    reader = csv.reader(source)
    try:
        names = [c.strip() for c in next(reader)]
    except StopIteration:
        raise CsvError("input is empty: no header or data rows") from None
    if len(set(names)) != len(names):
        raise CsvError("duplicate column names in header")
    if any(n == "" for n in names):
        raise CsvError("empty column name in header")

    width = len(names)
    rows = []
    for row in reader:
        if len(row) != width:
            raise CsvError(
                f"row {len(rows) + 1} has {len(row)} fields, expected {width}",
                row=len(rows) + 1,
            )
        rows.append(row)
    return names, rows

"""Columnar datasets: CSV ingestion with per-column kind inference, and the
CSV and JSON writers every result uses.

A :class:`Dataset` is an immutable column store. Continuous columns hold
float64 values, categorical columns hold int64 indices into a per-feature
level table. Categorical level order is first appearance in the input.
Results hand :func:`write_csv` Python floats, ints and labels, and
``csv.writer`` writes each float as its ``repr``, the shortest round trip.

:func:`load_csv` parses a body of finite numbers in plain lines a bounded
chunk of text at a time, so its memory is proportional to the numbers, and
reads any other input row by row; both reads give the same dataset, warning
or error.
"""

from __future__ import annotations

import csv
import io
import json
import os
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

#: Characters of CSV text parsed at a time on the numeric path of
#: :func:`load_csv`. Beside the parsed columns, a chunk's text, cells and
#: separators take under 16 bytes a character. It changes no result.
_CHUNK_CHARS = 1 << 16
# what the csv module reads apart from commas and line feeds: quotes, carriage
# returns, and NUL, which it refuses before Python 3.11
_NOT_PLAIN = '"\r\0'
_COMMA, _LINE_FEED = ord(","), ord("\n")


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
                raw = np.asarray(raw)
                if raw.dtype.kind == "f" and not np.all(np.isfinite(raw) & (np.floor(raw) == raw)):
                    raise ValidationError(f"categorical column {feat.name!r} has a level index "
                                          "that is not a whole number")
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

    # -- CSV -----------------------------------------------------------

    def _text_cells(self, name: str, values=None) -> list[str]:
        """A column, or ``values`` cast to its dtype, as CSV cells: each float
        in shortest round-trip form, each level index as its label."""
        feat = self.schema_for(name)
        column = self._columns[name]
        if values is not None:
            column = np.asarray(values, dtype=column.dtype)
        if feat.is_continuous:
            return [repr(float(v)) for v in column]
        return [feat.levels[i] for i in column]

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
    """An open text file as is, or a path written whole or not at all: via a
    temporary file beside it, renamed onto it once closed, removed on failure."""
    if not isinstance(target, (str, Path)):
        yield target
        return
    temporary = Path(f"{target}.{os.getpid()}.tmp")
    try:
        with open(temporary, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(temporary, target)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


def write_csv(target, header: Sequence, rows: Iterable[Sequence]) -> None:
    """Write a header and rows as CSV with LF line ends to a path or text file.

    ``csv.writer`` writes a Python float as its ``repr``, the shortest round
    trip, and None as an empty cell. Hand it Python floats (``tolist()``,
    ``float()``): a numpy scalar's text is numpy's to choose."""
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

    The input picks one of two reads, which give the same dataset, warning
    or error. A body of plain lines of finite numbers (no quote, carriage
    return, NUL, empty cell or line of another width; see
    :func:`_numeric_columns`), with no column declared categorical, is
    parsed ``_CHUNK_CHARS`` characters at a time into float64 columns
    allocated once its lines are counted: the load holds the columns, and
    the text and cells of one chunk. Any other input is read row by row,
    holding every cell's text until its column is parsed; one whose body
    stops being numeric after some chunks is read again from its start.
    """
    declared = declared_schema or {}
    numeric = None if CATEGORICAL in declared.values() else _numeric_columns(source)
    names, rows = numeric or _read_source(source)
    unknown = set(declared) - set(names)
    if unknown:
        raise UnknownFeatureError(f"declared schema names absent columns: {sorted(unknown)}")
    for name in names:
        kind = declared.get(name)
        if kind is not None and kind not in _KINDS:
            raise ValidationError(f"unknown declared kind {kind!r} for column {name!r}")

    if numeric is not None:  # rows: finite float64 columns, read-only, as Dataset checks
        return Dataset._unchecked(tuple(FeatureSchema(name, CONTINUOUS) for name in names),
                                  dict(zip(names, rows)))
    if not rows:
        warnings.warn("CSV body is empty; all columns default to categorical with no levels")

    columns = [_column(name, [row[j] for row in rows], declared.get(name))
               for j, name in enumerate(names)]
    return Dataset([feat for feat, _ in columns], {feat.name: values for feat, values in columns})


@contextmanager
def _text_source(source):
    """``source`` as a text stream: a path opened and bytes wrapped, each
    decoded as UTF-8 with a byte-order mark dropped, or an open text file."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8-sig", newline="") as fh:
            yield fh
    elif isinstance(source, bytes):
        yield io.TextIOWrapper(io.BytesIO(source), encoding="utf-8-sig", newline="")
    else:
        yield source


def _read_source(source) -> tuple[list[str], list[list[str]]]:
    """Column names and data rows of ``source``, read row by row."""
    try:
        with _text_source(source) as fh:
            return _read_rows(fh)
    except UnicodeDecodeError as exc:
        raise CsvError(f"input is not valid UTF-8: {_bad_byte(source, exc)}") from None
    except csv.Error as exc:
        raise CsvError(f"malformed CSV: {exc}") from None


def _numeric_columns(source) -> tuple[list[str], np.ndarray] | None:
    """Column names and a read-only (columns x rows) float64 array of a CSV
    whose body is all finite numbers; None, with an open text file rewound,
    for any other input.

    The header must end in a line feed and no text may hold a quote,
    carriage return or NUL, so that commas and line feeds alone separate
    the cells. The body's lines and characters are counted, then it is
    read ``_CHUNK_CHARS`` characters at a time, and a chunk's complete
    lines must each hold as many cells as the header, every one a finite
    number by ``float()`` and no longer than the ``csv`` module's field
    limit. A source that is no text stream, or a stream that cannot seek
    back, gets None.
    """
    with _text_source(source) as fh:
        if not isinstance(fh, io.TextIOBase):  # an iterable of lines, or a binary file
            return None
        try:
            start = fh.tell()
        except OSError:  # a pipe, say
            return None
        try:
            numeric = _numeric_body(fh)
        except UnicodeDecodeError:
            numeric = None
        if numeric is None:
            fh.seek(start)
        return numeric


def _numeric_body(fh) -> tuple[list[str], np.ndarray] | None:
    """What :func:`_numeric_columns` returns, read from ``fh``."""
    header = fh.readline()
    if not header.endswith("\n") or any(c in header for c in _NOT_PLAIN):
        return None
    cells = header[:-1].split(",")
    names = [c.strip() for c in cells]
    if "" in names or len(set(names)) != len(names) or \
            max(map(len, cells)) > csv.field_size_limit():
        return None
    # the lines are counted first, so that each chunk's numbers go straight
    # into the one array that holds them all. Each cell takes a character and
    # a separator at least, so a body too short for its lines and the
    # header's width is no numeric body, and nothing is allocated for it.
    lines, chars = _body_size(fh)
    if not lines or 2 * len(names) * lines > chars + 1:
        return None
    matrix = np.empty((len(names), lines))
    done, tail = 0, ""
    while True:
        chunk = fh.read(_CHUNK_CHARS)
        if not chunk and not tail:
            break
        text = tail + (chunk or "\n")  # the last line may lack its line feed
        cut = text.rfind("\n") + 1
        text, tail = text[:cut], text[cut:]
        if text:
            done = _numeric_block(text, matrix, done)
            if done is None:
                return None
    if done != lines:  # the stream changed between the two reads
        return None
    matrix.setflags(write=False)
    return names, matrix


def _body_size(fh) -> tuple[int, int]:
    """The count of lines in the rest of ``fh``, a last one without a line
    feed included, and of their characters; ``fh`` is left where it was."""
    body, feeds, chars, last = fh.tell(), 0, 0, "\n"
    while chunk := fh.read(_CHUNK_CHARS):
        feeds += chunk.count("\n")
        chars += len(chunk)
        last = chunk[-1]
    fh.seek(body)
    return feeds + (last != "\n"), chars


def _numeric_block(text: str, matrix: np.ndarray, done: int) -> int | None:
    """Write the lines of ``text``, each ending in a line feed, into the
    columns of ``matrix`` (width x lines) from ``done`` on; the count of
    lines written so far, or None unless each line holds ``width`` finite
    numbers and fits."""
    width = matrix.shape[0]
    if any(c in text for c in _NOT_PLAIN):
        return None
    cells = text[:-1].replace("\n", ",").split(",")
    try:  # before the separator checks: a column of words fails here, at its first cell
        values = np.fromiter(map(float, cells), dtype=np.float64, count=len(cells))
    except ValueError:
        return None
    raw = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)  # both separators are one byte
    ends = np.flatnonzero((raw == _COMMA) | (raw == _LINE_FEED))
    if ends.size % width or np.diff(ends, prepend=-1).max() > csv.field_size_limit() + 1:
        return None
    separators = raw[ends].reshape(-1, width)
    if not ((separators[:, :-1] == _COMMA).all() and (separators[:, -1] == _LINE_FEED).all()):
        return None
    values = values.reshape(-1, width)
    if not np.isfinite(values).all() or done + len(values) > matrix.shape[1]:
        return None
    matrix[:, done:done + len(values)] = values.T
    return done + len(values)


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

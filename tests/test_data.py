"""Dataset construction, CSV ingestion, schema inference."""

import csv
import io
import math
import os
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import load_csv_by_rows

import pdimp.data as data_module

from pdimp import (
    CATEGORICAL,
    CONTINUOUS,
    CsvError,
    Dataset,
    FeatureSchema,
    UnknownFeatureError,
    ValidationError,
    infer_schema,
    load_csv,
)
from pdimp.data import write_csv, write_json


def _load(text, **kwargs):
    return load_csv(io.StringIO(text), **kwargs)


def _labels(dataset, name):
    """A categorical column decoded through its schema's level table."""
    levels = dataset.schema_for(name).levels
    return [levels[code] for code in dataset.column(name)]


class TestInferSchema:
    def test_all_numeric_cells_make_continuous(self):
        (feat,) = infer_schema(["a"], [["1.5", "2", "3e1"]])
        assert feat.kind == CONTINUOUS

    def test_any_non_numeric_cell_makes_categorical(self):
        (feat,) = infer_schema(["a"], [["1", "two", "3"]])
        assert feat.kind == CATEGORICAL
        assert feat.levels == ("1", "two", "3")

    def test_nan_text_is_not_a_finite_real(self):
        (feat,) = infer_schema(["a"], [["NaN", "1"]])
        assert feat.kind == CATEGORICAL
        (feat,) = infer_schema(["a"], [["inf", "1"]])
        assert feat.kind == CATEGORICAL

    def test_no_cells_defaults_to_categorical_with_no_levels(self):
        (feat,) = infer_schema(["a"], [[]])
        assert feat.kind == CATEGORICAL
        assert feat.levels == ()

    def test_kind_is_order_independent_level_order_is_not(self):
        rng = np.random.default_rng(7)
        cells = ["b", "1", "a", "b", "c"]
        for _ in range(10):
            shuffled = list(rng.permutation(cells))
            (feat,) = infer_schema(["f"], [shuffled])
            assert feat.kind == CATEGORICAL
            # level order tracks first appearance of the permutation itself
            seen = dict.fromkeys(shuffled)
            assert feat.levels == tuple(seen)


class TestLoadCsv:
    def test_mixed_columns_infer_by_content(self):
        ds = _load("a,b\n1,x\n2,y\n")
        assert ds.schema_for("a").kind == CONTINUOUS
        assert ds.schema_for("b").kind == CATEGORICAL
        assert ds.schema_for("b").levels == ("x", "y")
        np.testing.assert_array_equal(ds.column("a"), [1.0, 2.0])
        np.testing.assert_array_equal(ds.column("b"), [0, 1])

    def test_empty_body_warns_and_yields_zero_rows(self):
        with pytest.warns(UserWarning, match="empty"):
            ds = _load("a,b\n")
        assert ds.n_rows == 0
        assert all(f.kind == CATEGORICAL and f.levels == () for f in ds.schema)

    def test_ragged_row_cites_the_row_number(self):
        with pytest.raises(CsvError, match="row 1") as err:
            _load("a,b\n1,2,3\n")
        assert err.value.row == 1

    def test_later_ragged_row(self):
        with pytest.raises(CsvError, match="row 3"):
            _load("a,b\n1,2\n3,4\n5,6,7\n")

    def test_bad_cell_in_declared_continuous_column_names_column_and_row(self):
        with pytest.raises(CsvError, match="'b'") as err:
            _load("a,b\n1,x\n", declared_schema={"b": CONTINUOUS})
        assert err.value.column == "b"
        assert err.value.row == 1

    def test_missing_values_are_rejected(self):
        with pytest.raises(CsvError, match="missing value"):
            _load("a,b\n1,x\n,y\n")
        with pytest.raises(CsvError, match="missing value"):
            _load("a,b\n1,x\n2,\n")

    def test_declared_schema_overrides_inference(self):
        ds = _load("a\n1\n2\n", declared_schema={"a": CATEGORICAL})
        assert ds.schema_for("a").kind == CATEGORICAL
        assert ds.schema_for("a").levels == ("1", "2")

    def test_declared_schema_naming_unknown_column_fails(self):
        with pytest.raises(UnknownFeatureError):
            _load("a\n1\n", declared_schema={"zzz": CONTINUOUS})

    def test_declared_schema_of_an_unknown_kind_fails(self):
        with pytest.raises(ValidationError, match="unknown declared kind 'bogus' for column 'a'"):
            _load("a\n1\n", declared_schema={"a": "bogus"})

    def test_row_order_is_preserved(self):
        ds = _load("a\n3\n1\n2\n")
        np.testing.assert_array_equal(ds.column("a"), [3.0, 1.0, 2.0])

    def test_quoted_fields_round_trip(self):
        ds = _load('a,b\n1,"x, with comma"\n2,"say ""hi"""\n')
        assert _labels(ds, "b") == ["x, with comma", 'say "hi"']

    def test_a_bad_byte_is_placed_by_line_and_file_offset(self, tmp_path):
        # the stream decoder reads in chunks, so its own offset is within one
        head = b"a,b\n" + b"".join(b"%d,%d\n" % (i, i) for i in range(3000))
        data = head + b"\xff,1\n"
        path = tmp_path / "bad.csv"
        path.write_bytes(data)
        for source in (path, str(path), data):
            with pytest.raises(CsvError, match="not valid UTF-8") as info:
                load_csv(source)
            assert f"line 3002: 'utf-8' codec can't decode byte 0xff in position {len(head)}:" \
                in str(info.value)
        with pytest.raises(CsvError, match="line 1: .* byte 0xff in position 3:"):
            load_csv(b"\xef\xbb\xbf\xff\n")  # after a byte-order mark: the file offset


def _per_cell_kind(cells):
    """The per-cell inference rule: continuous iff every non-empty cell is a finite real."""
    def finite(cell):
        try:
            return math.isfinite(float(cell))
        except ValueError:
            return False

    non_empty = [c for c in cells if c != ""]
    return CONTINUOUS if non_empty and all(map(finite, non_empty)) else CATEGORICAL


def _per_cell_continuous(cells):
    """Per-cell conversion: the values, or the row and message of the first bad cell."""
    values = []
    for i, cell in enumerate(cells):
        if cell == "":
            return i + 1, f"missing value in column 'a' at row {i + 1}"
        try:
            value = float(cell)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            return i + 1, (f"cell {cell!r} in continuous column 'a' at row {i + 1} "
                           "is not a finite number")
        values.append(value)
    return np.array(values, dtype=np.float64)


_CELLS = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e999", " 2", "1_0", "", "abc", "-0", "7"]),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_CELLS, min_size=1, max_size=25))
def test_parsing_each_cell_once_keeps_the_per_cell_rule(cells):
    (feat,) = infer_schema(["a"], [cells])
    assert feat.kind == _per_cell_kind(cells)

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["i", "a"])
    writer.writerows([i, c] for i, c in enumerate(cells))
    text = buf.getvalue()
    expected = _per_cell_continuous(cells)
    for declared in (None, {"a": CONTINUOUS}):
        if declared is None and feat.kind == CATEGORICAL:
            if "" in cells:
                with pytest.raises(CsvError, match="missing value"):
                    _load(text)
            else:
                assert _labels(_load(text), "a") == cells
        elif isinstance(expected, tuple):
            with pytest.raises(CsvError) as info:
                _load(text, declared_schema=declared)
            assert (info.value.row, str(info.value)) == expected
        else:
            assert _load(text, declared_schema=declared).column("a").tobytes() == expected.tobytes()


def _outcome(load, source, declared=None):
    """What a load gives: the schema, each column's dtype, bytes and write
    flag, and the warnings; or the error's type, message, row and column."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            ds = load(source, declared)
        except Exception as exc:
            return type(exc), str(exc), getattr(exc, "row", None), getattr(exc, "column", None)
    columns = [ds.column(n) for n in ds.feature_names]
    return (ds.schema, [(c.dtype, c.tobytes(), c.flags.writeable) for c in columns],
            [(w.category, str(w.message)) for w in caught])


def _same_as_by_rows(tmp_path, data: bytes, declared=None):
    """The outcome of ``load_csv`` on ``data``, checked equal to the row
    reader's on ``data`` as a path, as bytes and as an open text file."""
    path = tmp_path / "input.csv"
    path.write_bytes(data)
    expected = _outcome(load_csv_by_rows, data, declared)
    assert _outcome(load_csv, data, declared) == expected
    assert _outcome(load_csv, path, declared) == _outcome(load_csv_by_rows, path, declared)
    with open(path, encoding="utf-8-sig", newline="") as fh, \
            open(path, encoding="utf-8-sig", newline="") as by_rows:
        assert _outcome(load_csv, fh, declared) == _outcome(load_csv_by_rows, by_rows, declared)
    return expected


class TestChunkedNumericRead:
    """A body of numbers is parsed a chunk at a time; chunks of 16 characters
    split rows and cells, and every input gives what the row reader gives."""

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(data_module, "_CHUNK_CHARS", 16)

    def test_a_numeric_body_never_reaches_the_row_reader(self, tmp_path, monkeypatch):
        data = b"a,b\n" + b"".join(b"%d.25,-%de-3\n" % (i, i) for i in range(40))
        expected = _same_as_by_rows(tmp_path, data)
        monkeypatch.setattr(data_module, "_read_rows", None)
        ds = load_csv(data)
        assert all(f.kind == CONTINUOUS for f in ds.schema)
        assert ds.column("b").tolist() == [float(f"-{i}e-3") for i in range(40)]
        assert _outcome(load_csv, data) == expected

    def test_a_word_after_the_first_chunk_makes_its_column_categorical(self, tmp_path):
        rows = [b"%d,%d" % (i, i) for i in range(40)]
        rows[30] = b"30,x"
        (schema, *_) = _same_as_by_rows(tmp_path, b"a,b\n" + b"\n".join(rows) + b"\n")
        assert [f.kind for f in schema] == [CONTINUOUS, CATEGORICAL]
        assert schema[1].levels[29:32] == ("29", "x", "31")

    def test_a_bad_byte_after_the_first_chunk_is_placed_as_before(self, tmp_path):
        head = b"a,b\n" + b"".join(b"%d,%d\n" % (i, i) for i in range(30))
        (kind, message, *_) = _same_as_by_rows(tmp_path, head + b"1,\xff\n")
        assert kind is CsvError
        assert f"line 32: 'utf-8' codec can't decode byte 0xff in position {len(head) + 2}:" \
            in message

    @pytest.mark.parametrize("data", [
        b"a,b\r\n1,2\r\n3,4\r\n",
        b"a,b\n1,2\n3,4",
        b"\xef\xbb\xbfa,b\n1,2\n3,4\n",
    ], ids=["crlf", "no-final-newline", "bom"])
    def test_line_ends_and_a_byte_order_mark(self, tmp_path, data):
        (schema, columns, caught) = _same_as_by_rows(tmp_path, data)
        assert [f.name for f in schema] == ["a", "b"] and caught == []
        assert columns[1][1] == np.array([2.0, 4.0]).tobytes()

    def test_rows_whose_widths_add_up_are_still_ragged(self, tmp_path):
        outcome = _same_as_by_rows(tmp_path, b"a,b\n1\n2,3,4\n")
        assert outcome == (CsvError, "row 1 has 1 fields, expected 2", 1, None)

    @pytest.mark.parametrize("data", [b"abcdef,b\n1,2\n", b"a,b\n1,2\n123456,2\n"])
    def test_a_cell_over_the_csv_field_limit_is_malformed(self, tmp_path, data):
        limit = csv.field_size_limit(5)
        try:
            outcome = _same_as_by_rows(tmp_path, data)
        finally:
            csv.field_size_limit(limit)
        assert outcome[:2] == (CsvError, "malformed CSV: field larger than field limit (5)")

    def test_a_binary_file_a_pipe_and_a_list_of_lines_are_read_as_before(self, tmp_path):
        path = tmp_path / "input.csv"
        path.write_bytes(b"a,b\n1,2\n")
        with open(path, "rb") as fh, open(path, "rb") as by_rows:
            assert _outcome(load_csv, fh)[:2] == _outcome(load_csv_by_rows, by_rows)[:2] == (
                CsvError, "malformed CSV: iterator should return strings, not bytes "
                "(the file should be opened in text mode)")
        outcomes = []
        for load in (load_csv, load_csv_by_rows):
            read, write = os.pipe()
            os.write(write, b"a,b\n1,2\n")
            os.close(write)
            with open(read, encoding="utf-8") as pipe:
                outcomes.append(_outcome(load, pipe))
        assert outcomes[0] == outcomes[1]
        lines = ["a,b\n", "1,2\n"]
        assert _outcome(load_csv, lines) == _outcome(load_csv_by_rows, lines)

    def test_a_blank_line_in_a_single_column_file(self, tmp_path):
        outcome = _same_as_by_rows(tmp_path, b"a\n1\n\n2\n")
        assert outcome == (CsvError, "row 2 has 0 fields, expected 1", 2, None)

    @pytest.mark.parametrize("data", [b'a,b\n"1.5",2\n3,"4"\n', b'"a",b\n1.5,2\n3,4\n'])
    def test_quoted_numbers_and_names(self, tmp_path, data):
        (schema, columns, _) = _same_as_by_rows(tmp_path, data)
        assert [(f.name, f.kind) for f in schema] == [("a", CONTINUOUS), ("b", CONTINUOUS)]
        assert columns[0][1] == np.array([1.5, 3.0]).tobytes()

    def test_a_carriage_return_ends_a_row(self, tmp_path):
        outcome = _same_as_by_rows(tmp_path, b"a,b\n1\r,2\n")
        assert outcome == (CsvError, "row 1 has 1 fields, expected 2", 1, None)


_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from(["1_0", " 2", "\u0661\u0662", "-0", "1e-400", "+.5", "5."]),
)


@st.composite
def _csv_bytes(draw):
    """CSV bytes, mostly of finite numbers, each with at most a few of the
    quirks the row reader handles apart: a word, an empty or non-finite cell,
    quotes, CRLF, blank and ragged lines, a header with no body, a bad header,
    a byte-order mark and bad UTF-8."""
    def rarely():
        return draw(st.integers(0, 9)) == 5  # not 0 or 9, which hypothesis favours

    names = draw(st.lists(st.sampled_from(["a", "b", " c", "\u00e9"]), min_size=1,
                          max_size=3, unique=True))
    if rarely():
        names.append(draw(st.sampled_from(["", names[0]])))
    cells = [st.one_of(_NUMBERS, _CELLS) if rarely() else _NUMBERS for _ in names]
    rows = [list(row) for row in draw(st.lists(st.tuples(*cells), max_size=12))]
    if rows and rarely():
        i = draw(st.integers(0, len(rows) - 1))
        rows[i][0] = f'"{rows[i][0]}"'
    if rows and rarely():
        i = draw(st.integers(0, len(rows) - 1))
        rows[i] = rows[i][:draw(st.integers(0, len(names)))] + draw(st.lists(_NUMBERS,
                                                                             max_size=1))
    newline = "\r\n" if rarely() else "\n"
    lines = [",".join(row) for row in [names] + rows]
    text = newline.join(lines) + (newline * 2 if rarely() else draw(st.sampled_from([newline, ""])))
    data = text.encode("utf-8")
    if rarely():
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return (b"\xef\xbb\xbf" if draw(st.booleans()) else b"") + data


@settings(max_examples=300, deadline=None)
@given(data=_csv_bytes(), chunk=st.integers(1, 40),
       declared=st.sampled_from([None, {"a": CONTINUOUS}, {"a": CATEGORICAL}]))
def test_a_chunked_load_gives_what_the_row_reader_gives(tmp_path_factory, data, chunk,
                                                         declared):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(data_module, "_CHUNK_CHARS", chunk)
        _same_as_by_rows(tmp_path_factory.getbasetemp(), data, declared)


def test_a_numeric_load_holds_its_columns_twice_and_one_chunk_of_text():
    rows = 20_000
    data = b"x,y,z\n" + b"".join(b"%r,%r,%r\n" % (i / 7, -i / 3, i * 1e-9) for i in range(rows))
    columns = 3 * rows * 8
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        ds = load_csv(data)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert ds.n_rows == rows
    # a chunk's text, cells and separators take under 16 bytes per character;
    # the row reader holds every cell's text at once, 7 MB here
    assert peak <= 2 * columns + 16 * data_module._CHUNK_CHARS


class TestCsvRoundTrip:
    def test_full_precision_round_trip(self):
        rng = np.random.default_rng(42)
        ds = Dataset.from_dict({
            "x": rng.standard_normal(50) * 1e-7,
            "y": rng.standard_normal(50) * 1e9,
            "c": [str(v) for v in rng.integers(0, 4, size=50)],
        })
        buf = io.StringIO()
        ds.to_csv(buf)
        declared = {f.name: f.kind for f in ds.schema}
        back = load_csv(io.StringIO(buf.getvalue()), declared_schema=declared)
        assert back == ds
        # bit-exact, not just close
        assert np.array_equal(back.column("x"), ds.column("x"))

    def test_written_header_matches_feature_names(self):
        ds = Dataset.from_dict({"alpha": [1.0], "beta": [2.0]})
        buf = io.StringIO()
        ds.to_csv(buf)
        assert buf.getvalue().splitlines()[0] == "alpha,beta"


def test_writers_give_a_path_the_bytes_they_give_an_open_file(tmp_path):
    rows = [["a,b", 1.5], ["line\nbreak", -0.0]]
    doc = {"x": [1.0, "é"], "y": None}
    for write, arg in ((write_csv, (["k", "v"], rows)), (write_json, (doc,))):
        buf = io.StringIO()
        write(buf, *arg)
        path = tmp_path / write.__name__
        write(path, *arg)
        assert path.read_bytes() == buf.getvalue().encode("utf-8")
        assert buf.getvalue().endswith("\n")


class TestDatasetValidation:
    def test_nan_in_continuous_column_is_rejected(self):
        with pytest.raises(ValidationError, match="NaN"):
            Dataset([FeatureSchema("a", CONTINUOUS)], {"a": np.array([1.0, np.nan])})

    def test_column_length_mismatch(self):
        with pytest.raises(ValidationError, match="rows"):
            Dataset(
                [FeatureSchema("a", CONTINUOUS), FeatureSchema("b", CONTINUOUS)],
                {"a": np.array([1.0]), "b": np.array([1.0, 2.0])},
            )

    @pytest.mark.parametrize("code", [1.5, np.nan, np.inf])
    def test_a_level_index_that_is_not_a_whole_number_is_refused(self, code):
        with pytest.raises(ValidationError, match="'c' has a level index that is not a whole"):
            Dataset([FeatureSchema("c", CATEGORICAL, ("u", "v", "w"))],
                    {"c": np.array([code, 0.0])})

    def test_a_whole_float_level_index_is_taken(self):
        ds = Dataset([FeatureSchema("c", CATEGORICAL, ("u", "v", "w"))],
                     {"c": np.array([2.0, 0.0])})
        assert ds.column("c").dtype == np.int64 and ds.column("c").tolist() == [2, 0]

    def test_out_of_range_level_index(self):
        with pytest.raises(ValidationError, match="out-of-range"):
            Dataset(
                [FeatureSchema("c", CATEGORICAL, ("u", "v"))],
                {"c": np.array([0, 2])},
            )

    def test_categorical_schema_requires_levels(self):
        with pytest.raises(ValidationError):
            FeatureSchema("c", CATEGORICAL)
        with pytest.raises(ValidationError):
            FeatureSchema("c", CATEGORICAL, ("u", "u"))
        with pytest.raises(ValidationError):
            FeatureSchema("a", CONTINUOUS, ("u",))

    def test_an_unknown_feature_kind_is_refused(self):
        with pytest.raises(ValidationError, match="unknown feature kind 'ordinal'"):
            FeatureSchema("a", "ordinal")

    @pytest.mark.parametrize("schema,columns,message", [
        ([FeatureSchema("a", CONTINUOUS)] * 2, {"a": [1.0]}, "duplicate feature names"),
        ([FeatureSchema("a", CONTINUOUS)], {"b": [1.0]}, "name different features"),
        ([FeatureSchema("a", CONTINUOUS)], {"a": [[1.0], [2.0]]}, "'a' is not one-dimensional"),
        ([FeatureSchema("c", CATEGORICAL, ("u",))], {"c": [[0], [0]]},
         "'c' is not one-dimensional"),
    ], ids=["name-twice", "other-names", "2-d-continuous", "2-d-categorical"])
    def test_a_schema_must_name_each_one_dimensional_column_once(self, schema, columns,
                                                                 message):
        with pytest.raises(ValidationError, match=message):
            Dataset(schema, {name: np.array(values) for name, values in columns.items()})

    def test_a_column_of_an_unknown_name(self):
        with pytest.raises(UnknownFeatureError, match="no feature named 'zzz'"):
            Dataset.from_dict({"a": [1.0]}).column("zzz")

    def test_columns_are_read_only(self):
        ds = Dataset.from_dict({"a": [1.0, 2.0]})
        with pytest.raises(ValueError):
            ds.column("a")[0] = 9.0

    def test_split_target(self):
        ds = Dataset.from_dict({"a": [1.0, 2.0], "y": [3.0, 4.0]})
        features, y = ds.split_target("y")
        assert features.feature_names == ("a",)
        np.testing.assert_array_equal(y, [3.0, 4.0])
        with pytest.raises(UnknownFeatureError):
            ds.split_target("zzz")

    def test_split_target_rejects_categorical(self):
        ds = Dataset.from_dict({"a": [1.0], "y": ["u"]})
        with pytest.raises(ValidationError):
            ds.split_target("y")

    def test_take_of_no_rows_keeps_the_schema_and_a_mask_still_selects(self):
        ds = Dataset.from_dict({"a": [1.0, 2.0], "g": ["u", "v"]})
        empty = ds.take([])
        assert empty.n_rows == 0 and empty.schema == ds.schema
        picked = ds.take(np.array([False, True]))
        assert picked.column("a").tolist() == [2.0] and _labels(picked, "g") == ["v"]

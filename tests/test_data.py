"""Dataset construction, CSV ingestion, schema inference."""

import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

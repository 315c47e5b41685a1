"""Focused unit tests for the engine primitives: type system, columns,
tables, statistics, CSV I/O."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine import DataType, Table, write_csv
from repro.engine import operators as ops
from repro.engine.column import Column
from repro.engine.csv_io import (
    infer_field_type,
    parse_field,
    read_csv,
    read_header,
    scan_lines,
    split_line,
)
from repro.engine.expressions import ColumnRef, IsNull, Literal
from repro.engine.sql.ast import AggregateCall
from repro.engine.statistics import ColumnStatistics, TableStatistics
from repro.engine.types import coerce_array, common_type, infer_type
from repro.errors import CatalogError, LoadingError, TypeMismatchError
from repro.storage import layouts


class TestTypes:
    def test_infer_basic(self):
        assert infer_type([1, 2, 3]) is DataType.INT64
        assert infer_type([1.5]) is DataType.FLOAT64
        assert infer_type([True, False]) is DataType.BOOL
        assert infer_type(["a", "b"]) is DataType.STRING
        assert infer_type(np.asarray([1, 2], dtype=np.int32)) is DataType.INT64

    def test_infer_mixed_numeric(self):
        assert infer_type([1, 2.5]) is DataType.FLOAT64

    def test_infer_rejects_mixed_kinds(self):
        with pytest.raises(TypeMismatchError):
            infer_type([1, "a"])

    def test_common_type(self):
        assert common_type(DataType.INT64, DataType.FLOAT64) is DataType.FLOAT64
        assert common_type(DataType.STRING, DataType.STRING) is DataType.STRING
        with pytest.raises(TypeMismatchError):
            common_type(DataType.STRING, DataType.INT64)

    def test_coerce_array(self):
        arr = coerce_array([1, 2], DataType.FLOAT64)
        assert arr.dtype == np.float64
        strings = coerce_array([1, None, "x"], DataType.STRING)
        assert strings.tolist() == ["1", None, "x"]
        with pytest.raises(TypeMismatchError):
            coerce_array(["abc"], DataType.INT64)


class TestColumn:
    def test_nulls_inferred_from_none(self):
        column = Column([1, None, 3])
        assert column.has_nulls
        assert column.null_count() == 1
        assert column[1] is None
        assert column.to_list() == [1, None, 3]

    def test_min_max_skip_nulls(self):
        column = Column([5.0, None, 1.0])
        assert column.min() == 1.0
        assert column.max() == 5.0

    def test_all_null_min_is_none(self):
        column = Column([None, None], dtype=DataType.FLOAT64)
        assert column.min() is None and column.max() is None

    def test_take_filter_slice_preserve_nulls(self):
        column = Column([1, None, 3, None, 5])
        taken = column.take(np.asarray([1, 4]))
        assert taken.to_list() == [None, 5]
        filtered = column.filter(np.asarray([True, True, False, False, True]))
        assert filtered.to_list() == [1, None, 5]
        sliced = column.slice(1, 3)
        assert sliced.to_list() == [None, 3]

    def test_concat_types_must_match(self):
        with pytest.raises(TypeMismatchError):
            Column([1]).concat(Column(["x"]))

    def test_concat_merges_validity(self):
        merged = Column([1, None]).concat(Column([3]))
        assert merged.to_list() == [1, None, 3]

    def test_distinct_count(self):
        assert Column([1, 1, 2, None]).distinct_count() == 2
        assert Column(["a", "a", "b"]).distinct_count() == 2

    @settings(max_examples=150, deadline=None)
    @given(
        st.one_of(
            st.tuples(st.just("FLOAT64"), st.lists(st.one_of(
                st.floats(), st.sampled_from([0.0, -0.0, math.nan]), st.none()))),
            st.tuples(st.just("INT64"), st.lists(st.one_of(
                st.integers(-(2**63), 2**63 - 1), st.integers(-3, 3), st.none()))),
            st.tuples(st.just("BOOL"), st.lists(st.one_of(st.booleans(), st.none()))),
            st.tuples(st.sampled_from(["STRING", "ENCODED"]), st.lists(st.one_of(
                st.text("abc", max_size=2), st.none()))),
        )
    )
    @example(("FLOAT64", [math.nan, math.nan]))
    @example(("FLOAT64", [0.0, -0.0]))
    @example(("FLOAT64", [math.nan, math.nan, 1.0]))
    @example(("FLOAT64", []))
    def test_distinct_count_matches_unique(self, case):
        kind, values = case
        column = Column(values, dtype=DataType.STRING if kind == "ENCODED" else DataType[kind])
        assert column.distinct_count() == len(np.unique(column.valid_data()))

    @settings(max_examples=150, deadline=None)
    @given(
        st.one_of(
            st.tuples(st.just(DataType.FLOAT64), st.lists(st.one_of(
                st.floats(), st.sampled_from([0.0, -0.0, math.nan]), st.none()))),
            st.tuples(st.just(DataType.INT64), st.lists(st.one_of(
                st.integers(-(2**63), 2**63 - 1), st.integers(2**53 - 2, 2**53 + 2),
                st.none()))),
        ),
        st.data(),
    )
    @example((DataType.FLOAT64, [-0.0, 0.0, None]), None)
    @example((DataType.FLOAT64, [0.0, -0.0, math.nan, math.nan]), None)
    @example((DataType.INT64, [2**53, 2**53 + 1, None, 2**53]), None)
    def test_distinct_aggregates_match_unique(self, case, data):
        """A DISTINCT aggregate is the group kernel over the distinct values,
        slicing no column: the same values as an ``np.unique`` reference,
        bit for bit — NULL skipped, NaN one value, a ±0.0 run kept as
        ``np.unique`` keeps it, INT64 past 2**53 never rounded through
        float64."""
        dtype, values = case
        column = Column(values, dtype=dtype)
        if data is not None:  # a slice: a view that starts anywhere
            start = data.draw(st.integers(0, len(values)))
            column = column.slice(start, data.draw(st.integers(start, len(values))))
        unique = np.unique(column.valid_data())
        want = [len(unique), None, None]
        if len(unique):
            want[1] = float(unique.sum()) if dtype is DataType.FLOAT64 else int(unique.sum())
            want[2] = float(np.mean(unique.astype(np.float64)))
        calls = [(f, AggregateCall(f, ColumnRef("x"), True)) for f in ("COUNT", "SUM", "AVG")]
        with mock.patch.object(Column, "slice", side_effect=AssertionError("sliced")):
            got = ops.hash_aggregate(Table([("x", column)]), [], calls).row(0)
        assert [repr(v) for v in got] == [repr(v) for v in want]

    def test_equality(self):
        assert Column([1, None]) == Column([1, None])
        assert not (Column([1]) == Column([2]))

    def test_not_hashable(self):
        with pytest.raises(TypeError):
            hash(Column([1]))

    def test_empty_column(self):
        column = Column.empty(DataType.STRING)
        assert len(column) == 0
        assert column.to_list() == []

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.one_of(st.integers(-50, 50), st.none()), max_size=60))
    def test_property_roundtrip(self, values):
        if all(v is None for v in values) and values:
            column = Column(values, dtype=DataType.INT64)
        else:
            column = Column(values)
        assert column.to_list() == values


class TestLiteralColumn:
    """``Literal.evaluate`` fills its column with ``np.full``; the column
    must equal the one the list constructor builds from the repeated value."""

    @pytest.mark.parametrize(
        "value, dtype",
        [
            (5, None), (2**62, None), (-0.0, None), (2.5, None), ("it's", None), ("", None),
            (True, None), (False, None), (None, None),
            (None, DataType.INT64), (None, DataType.STRING), (None, DataType.BOOL),
        ],
    )
    @pytest.mark.parametrize("rows", [0, 1, 4])
    def test_equals_list_construction(self, value, dtype, rows):
        literal = Literal(value, dtype)
        got = literal.evaluate(Table.from_dict({"a": list(range(rows))}))
        want = Column(
            [value] * rows,
            dtype=DataType.FLOAT64 if literal.dtype is DataType.UNKNOWN else literal.dtype,
        )
        assert got.dtype is want.dtype and got.data.dtype == want.data.dtype
        assert len(got) == rows
        assert got.data.tolist() == want.data.tolist()
        if got.dtype is DataType.FLOAT64:
            assert np.signbit(got.data).tolist() == np.signbit(want.data).tolist()
        if want.validity is None:
            assert got.validity is None
        else:
            assert got.validity.tolist() == want.validity.tolist()
        assert got.to_list() == [value] * rows

    def test_out_of_range_int_raises_like_the_list(self):
        """A list refuses an int INT64 cannot hold, and so does a literal,
        as a type error that names the value."""
        table = Table.from_dict({"a": [1, 2]})
        for value in (2**64, -(2**64)):
            with pytest.raises(OverflowError):
                Column([value] * 2, dtype=DataType.INT64)
            with pytest.raises(TypeMismatchError, match=f"literal {value} is outside"):
                Literal(value).evaluate(table)
        with pytest.raises(TypeMismatchError):  # a uint64 list wraps this one to -2**63
            Literal(2**63).evaluate(table)

    def test_key_is_built_on_first_read(self):
        literal = Literal(1.0)
        assert literal._key is None
        assert literal.key() == ("Literal", "FLOAT64", "1.0")
        assert literal.key() != Literal(1).key() and literal.same_as(Literal(1.0))
        null = Literal(None)
        IsNull(null, negated=False).key()  # a parent's key builds its child's first
        assert null.key() == ("Literal", "UNKNOWN", "None") and null.same_as(Literal(None))


FILTER_ROWS = 24


@pytest.fixture(scope="module")
def filter_table(tmp_path_factory):
    """NULL, NaN and ±0.0 floats, INT64 past 2**53, a STRING column and a
    memory-mapped one (mapped codes)."""
    n = FILTER_ROWS
    floats = [(0.0, -0.0, math.nan, None, 2.5)[i % 5] for i in range(n)]
    encoded = Column([None if i % 7 == 0 else f"s{i % 4}" for i in range(n)])
    directory = tmp_path_factory.mktemp("mapped")
    plain = Column([None if i % 6 == 0 else "ab"[: i % 3] for i in range(n)])
    files = layouts.save_column_files(directory, "m", plain)
    mapped = layouts.open_column_files(directory, files, DataType.STRING, "mmap")
    assert mapped.is_mapped and isinstance(mapped.dictionary()[0], np.memmap)
    return Table([
        ("f", Column(floats, dtype=DataType.FLOAT64)),
        ("i", Column([None if i % 4 == 1 else 2**53 + i for i in range(n)], dtype=DataType.INT64)),
        ("b", Column([None if i % 5 == 2 else i % 2 == 0 for i in range(n)], dtype=DataType.BOOL)),
        ("s", encoded),
        ("m", mapped),
    ])


class TestTable:
    @pytest.fixture()
    def table(self):
        return Table.from_dict({"a": [1, 2, 3], "s": ["x", "y", "z"]})

    def test_mismatched_lengths_raise(self):
        with pytest.raises(CatalogError):
            Table({"a": Column([1]), "b": Column([1, 2])})

    def test_duplicate_names_raise(self):
        with pytest.raises(CatalogError):
            Table([("a", Column([1])), ("a", Column([2]))])

    def test_from_rows(self):
        table = Table.from_rows([(1, "u"), (2, "v")], ["n", "s"])
        assert table.column("n").to_list() == [1, 2]
        with pytest.raises(CatalogError):
            Table.from_rows([(1,)], ["a", "b"])

    def test_rename_drop_with_column(self, table):
        renamed = table.rename({"a": "b"})
        assert "b" in renamed and "a" not in renamed
        dropped = table.drop(["s"])
        assert dropped.column_names == ("a",)
        with pytest.raises(CatalogError):
            table.drop(["a", "s"])
        extended = table.with_column("d", Column([7, 8, 9]))
        assert extended.column("d").to_list() == [7, 8, 9]
        with pytest.raises(CatalogError):
            table.with_column("d", Column([1]))

    def test_concat_schema_checked(self, table):
        stacked = table.concat(table)
        assert stacked.num_rows == 6
        other = Table.from_dict({"a": [1], "t": ["q"]})
        with pytest.raises(CatalogError):
            table.concat(other)

    def test_rows_and_dicts(self, table):
        assert list(table.rows()) == [(1, "x"), (2, "y"), (3, "z")]
        assert table.to_dicts()[0] == {"a": 1, "s": "x"}

    def test_pretty_handles_nulls_and_truncation(self):
        table = Table.from_dict({"a": list(range(30)), "b": [None] * 30})
        text = table.pretty(limit=5)
        assert "NULL" in text
        assert "30 rows total" in text

    def test_head(self, table):
        assert table.head(2).num_rows == 2
        assert table.head(100).num_rows == 3

    def test_equality(self, table):
        assert table == Table.from_dict({"a": [1, 2, 3], "s": ["x", "y", "z"]})
        assert not (table == table.rename({"a": "q"}))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.booleans(), min_size=FILTER_ROWS, max_size=FILTER_ROWS))
    @example([False] * FILTER_ROWS)
    @example([True] * FILTER_ROWS)
    def test_filter_equals_boolean_index(self, filter_table, mask):
        """``Table.filter`` takes the mask's positions once: every column
        equals numpy's boolean index of each part, bit for bit, and an
        encoded column keeps its dictionary object."""
        mask = np.asarray(mask, dtype=bool)
        for table, rows in ((filter_table, mask), (filter_table.slice(0, 0), mask[:0])):
            filtered = table.filter(rows)
            assert filtered.schema == table.schema and filtered.num_rows == int(rows.sum())
            for name in table.column_names:
                got, base = filtered.column(name), table.column(name)
                want = ops.key_array(base)[rows]  # a STRING column's codes
                got_data = ops.key_array(got)
                assert got_data.dtype == want.dtype and got_data.tobytes() == want.tobytes()
                validity = None if base.validity is None else base.validity[rows]
                if validity is not None and validity.all():
                    validity = None
                assert (got.validity is None) == (validity is None)
                assert validity is None or np.array_equal(got.validity, validity)
                if base.dictionary() is not None:
                    assert got.dictionary()[1] is base.dictionary()[1]
                assert not got.is_mapped


class TestStatistics:
    def test_column_statistics(self):
        rng = np.random.default_rng(0)
        column = Column(rng.uniform(0, 100, size=5_000))
        stats = ColumnStatistics.from_column(column)
        assert stats.row_count == 5_000
        assert 0 <= stats.min_value < stats.max_value <= 100
        assert stats.estimate_range_selectivity(0, 50) == pytest.approx(0.5, abs=0.05)
        assert stats.estimate_range_selectivity(200, 300) == 0.0
        assert stats.estimate_range_selectivity(50, 10) == 0.0

    def test_equality_selectivity(self):
        column = Column([1, 1, 2, 3])
        stats = ColumnStatistics.from_column(column)
        assert stats.estimate_equality_selectivity(2) == pytest.approx(1 / 3)
        assert stats.estimate_equality_selectivity(99) == 0.0

    def test_string_column_defaults(self):
        stats = ColumnStatistics.from_column(Column(["a", "b"]))
        assert stats.estimate_range_selectivity(None, None) == pytest.approx(1 / 3)

    def test_table_statistics(self):
        table = Table.from_dict({"a": [1, 2], "s": ["x", "y"]})
        stats = TableStatistics(table)
        assert stats.row_count == 2 and stats.columns == {}  # nothing built yet
        assert stats.column("a") is stats.column("a") is not None
        assert stats.column("zzz") is None
        assert set(stats.columns) == {"a"}

    def test_constant_column(self):
        stats = ColumnStatistics.from_column(Column([7, 7, 7]))
        assert stats.estimate_range_selectivity(7, 7) == 1.0
        assert stats.estimate_range_selectivity(8, 9) == 0.0


def test_nan_bounds_estimate_as_unknown():
    """A NaN in a FLOAT64 column makes its min/max NaN; the estimators
    then take the no-bounds defaults, and the stored bounds stay NaN."""
    stats = ColumnStatistics.from_column(Column([1.0, float("nan"), 3.0, 2.0]))
    assert math.isnan(stats.min_value) and math.isnan(stats.max_value)
    assert stats.estimate_range_selectivity(0, 2) == pytest.approx(1 / 3)
    assert stats.estimate_range_selectivity(None, None) == pytest.approx(1 / 3)
    assert stats.estimate_equality_selectivity(2.0) == pytest.approx(1 / stats.distinct_count)
    assert stats.estimate_equality_selectivity(99.0) == pytest.approx(1 / stats.distinct_count)


class TestCsvIO:
    def test_parse_field_types(self):
        assert parse_field("42", DataType.INT64) == 42
        assert parse_field("4.5", DataType.FLOAT64) == 4.5
        assert parse_field("true", DataType.BOOL) is True
        assert parse_field("No", DataType.BOOL) is False
        assert parse_field("", DataType.INT64) is None
        with pytest.raises(LoadingError):
            parse_field("abc", DataType.INT64)
        with pytest.raises(LoadingError):
            parse_field("maybe", DataType.BOOL)

    def test_infer_field_type(self):
        assert infer_field_type(["1", "2"]) is DataType.INT64
        assert infer_field_type(["1", "2.5"]) is DataType.FLOAT64
        assert infer_field_type(["true", "false"]) is DataType.BOOL
        assert infer_field_type(["x"]) is DataType.STRING
        assert infer_field_type(["", ""]) is DataType.STRING

    def test_roundtrip_with_nulls(self, tmp_path):
        table = Table.from_dict({"a": [1, None, 3], "s": ["x", "y", None]})
        path = tmp_path / "t.csv"
        write_csv(table, path)
        back = read_csv(path)
        assert back.column("a").to_list() == [1, None, 3]
        assert back.column("s").to_list() == ["x", "y", None]

    def test_read_header_and_scan_lines(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1,x\n2,y\n")
        assert read_header(path) == ["a", "b"]
        lines = list(scan_lines(path))
        assert len(lines) == 2
        assert lines[0][1] == "1,x"
        # byte offsets point at line starts
        assert lines[0][0] == 4

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(LoadingError):
            read_header(path)
        with pytest.raises(LoadingError):
            read_csv(path)

    def test_quoted_fields(self, tmp_path):
        path = tmp_path / "q.csv"
        path.write_text('a,s\n1,"hello, world"\n')
        table = read_csv(path)
        assert table.column("s").to_list() == ["hello, world"]
        assert split_line('1,"hello, world"') == ["1", "hello, world"]

    def test_explicit_dtypes(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a\n1\n2\n")
        table = read_csv(path, dtypes=[DataType.FLOAT64])
        assert table.column("a").dtype is DataType.FLOAT64
        with pytest.raises(LoadingError):
            read_csv(path, dtypes=[DataType.INT64, DataType.INT64])

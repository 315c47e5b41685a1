"""Tests for how STRING columns are encoded.

``column.factorize_sorted`` builds every dictionary: one hash factorize
of the payload, then a sort of the distinct values only.  Its result must
equal ``np.unique(..., return_inverse=True)`` bit for bit, because code
order is value order for every kernel on codes.  A STRING column is its
dictionary: int32 codes over a sorted object array of values, built from
its valid rows when the column is, whichever way the column was built,
and no row payload beside them.  ``Column`` encodes an object array of
plain ``str`` without per-value passes; that must build what the general
path builds.  Kernels compare strings as
Python does, so a value ending in NUL stays distinct from the value
without it: in WHERE, in a join, after a delta merge and after a
checkpoint (a NumPy unicode array would drop the NUL).
"""

from __future__ import annotations

import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings as hsettings, strategies as st

from repro import settings
from repro.engine import Database, Table, column as column_module
from repro.engine.column import Column, column_from_parts, concat_columns, factorize_sorted
from repro.engine.delta import assign_column
from repro.engine.expressions import Case, col, lit
from repro.engine.operators import hash_join
from repro.engine.types import DataType
from repro.errors import TypeMismatchError
from repro.storage import layouts
from tests.conftest import pin_defaults

#: short strings over a small alphabet (collisions), non-ASCII and NUL
_TEXT = st.text(alphabet="ab\x00é€\U0001f600", max_size=3)


def _objects(values: list) -> np.ndarray:
    array = np.empty(len(values), dtype=object)
    array[:] = values
    return array


@st.composite
def _payloads(draw) -> list[str]:
    """Rows drawn from a pool of 1 to 600 distinct values, or free text."""
    if draw(st.booleans()):
        return draw(st.lists(_TEXT, max_size=40))
    distinct = draw(st.integers(1, 600))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    pool = [f"{chr(0x61 + i % 26)}\x00ü{i}"[: 1 + i % 5] + str(i) for i in range(distinct)]
    return [pool[i] for i in rng.integers(0, distinct, draw(st.integers(1, 2000)))]


def _unique_encoding(column: Column) -> tuple[np.ndarray, np.ndarray]:
    """The sort-based encoding: ``np.unique`` over the valid values, its
    inverse at valid rows and −1 at NULLs."""
    valid = np.ones(len(column), bool) if column.validity is None else column.validity
    values, inverse = np.unique(_objects(column.data[valid].tolist()), return_inverse=True)
    codes = np.full(len(column), -1, dtype=np.int32)
    codes[valid] = inverse
    return codes, values


def _assert_encoding(got: tuple[np.ndarray, np.ndarray], want: tuple[np.ndarray, np.ndarray]):
    (codes, values), (want_codes, want_values) = got, want
    assert codes.dtype == want_codes.dtype == np.int32
    assert values.dtype == want_values.dtype
    assert np.array_equal(codes, want_codes)
    assert values.shape == want_values.shape and values.tolist() == want_values.tolist()


# -- the helper -------------------------------------------------------------------------


@hsettings(max_examples=200, deadline=None)
@given(_payloads())
@example([])
@example(["only"])
@example(["a\x00", "a", "\x00", "", "a\x00\x00"])
@example(["ü", "u", "€", "\U0001f600", "z"])
def test_factorize_sorted_equals_unique(values):
    data = _objects(values)
    want_values, want_inverse = np.unique(data, return_inverse=True)
    got_values, got_codes = factorize_sorted(data)
    assert got_values.dtype == object and got_codes.dtype == np.int32
    assert got_values.shape == want_values.shape and got_codes.shape == want_inverse.shape
    assert got_values.tolist() == want_values.tolist()
    assert np.array_equal(got_codes, want_inverse)


def test_factorize_sorted_keeps_unique_for_a_typed_payload():
    data = np.array(["b", "a", "b"])
    values, codes = factorize_sorted(data)
    assert values.dtype == data.dtype and values.tolist() == ["a", "b"]
    assert codes.dtype == np.int32 and codes.tolist() == [1, 0, 1]


@hsettings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(st.none(), _TEXT), max_size=40))
@example([None, None, None])
@example([None])
@example(["b", None])
@example([None, ""])
def test_encode_dictionary_equals_the_sort_based_encoding(values):
    """NULLs included, all-NULL included: codes −1, and no dictionary
    entry that no valid row holds (``[None]`` has none, ``['b', None]``
    only ``'b'``)."""
    column = Column(values, dtype=DataType.STRING)
    _assert_encoding(column.dictionary(), _unique_encoding(column))
    assert column.dictionary()[1].tolist() == sorted({v for v in values if v is not None})


@hsettings(max_examples=150, deadline=None)
@given(
    st.lists(st.one_of(st.none(), _TEXT), max_size=30),
    st.lists(st.one_of(st.none(), _TEXT), max_size=30),
)
@example(["a"], ["a\x00", None])
@example([None], [None])
@example([], ["b", None])
@example([f"v{i:03d}" for i in range(0, 120, 2)], [f"v{i:03d}" for i in range(1, 60, 3)] + [None])
def test_extended_dictionary_equals_a_fresh_encoding(head, tail):
    """A merge's dictionary (a head's + a tail's) is the encoding of every
    valid value of both, built afresh: only the tail's values are placed
    in the head's, by ``searchsorted``."""
    first = Column(head, dtype=DataType.STRING)
    head_values = first.dictionary()[1].tolist()
    rest = Column(tail, dtype=DataType.STRING)
    merged = concat_columns([first, rest])
    codes, values = merged.dictionary()
    _assert_encoding((codes, values), _unique_encoding(merged))
    decoded = [None if c < 0 else values[c] for c in codes]
    assert decoded == head + tail  # Python equality: 'a\x00' is not 'a'
    if set(values.tolist()) == set(head_values):
        assert values is first.dictionary()[1]


def _dense(pair: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """A dictionary cut down to the values its codes use: a passed-on
    dictionary may hold values no row of the column holds."""
    codes, values = pair
    used = np.unique(codes[codes >= 0])
    remap = np.full(len(values) + 1, -1, dtype=np.int32)  # a NULL's −1 reads the last
    remap[used] = np.arange(len(used), dtype=np.int32)
    return remap[codes], values[used]


def _by_every_route(values: list, cut: int, directory: str) -> dict[str, tuple[Column, list, bool]]:
    """A STRING column built by each route there is: the column, the
    list of values it must hold, and whether its dictionary is one built
    afresh from its own rows, or cut to them (else passed on from the
    column it was derived from, or a union a concat kept)."""
    built = Column(values, dtype=DataType.STRING)
    n = len(values)
    positions = np.arange(n)[::-1]
    mask = np.arange(n) % 2 == 0
    written = ["w\x00" if i % 3 else None for i in range(n - cut)]
    routes = {
        "list": (Column(values, dtype=DataType.STRING), values, True),
        "object array": (Column(_objects(values), dtype=DataType.STRING), values, True),
        "column_from_parts": (column_from_parts(
            built.dictionary()[0], DataType.STRING, built.validity, built.dictionary()[1]
        ), values, True),
        "take": (built.take(positions), [values[i] for i in positions], False),
        "filter": (built.filter(mask), [v for v, kept in zip(values, mask) if kept], False),
        "slice": (built.slice(cut, n), values[cut:], False),
        "concat": (concat_columns([
            built.slice(0, cut), Column(values[cut:], dtype=DataType.STRING)
        ]), values, False),
        "assign_column": (
            assign_column(built, Column(written, dtype=DataType.STRING), np.arange(cut, n)),
            values[:cut] + written, True,
        ),
    }
    table = Table([("s", Column(values, dtype=DataType.STRING)),
                   ("k", Column(list(range(n)), dtype=DataType.INT64))])
    case = Case([(col("k") < lit(cut), col("s"))], lit("zz"))
    routes["CASE output"] = (case.evaluate(table), values[:cut] + ["zz"] * (n - cut), False)
    pin_defaults("delta_rows")
    settings.configure(delta_rows=100_000)
    db = Database()
    db.create_table("t", Table([("s", Column.empty(DataType.STRING))]))
    if values:
        db.execute("INSERT INTO t VALUES " + ", ".join(
            "(NULL)" if v is None else f"('{v}')" for v in values
        ))
    routes["delta tail"] = (db.delta_tail("t").column("s"), values, True)
    files = layouts.save_column_files(directory, "c", built)
    for mode in layouts.STORAGE_MODES:
        routes[f"reopened, {mode}"] = (
            layouts.open_column_files(directory, files, DataType.STRING, mode), values, True
        )
    return routes


@hsettings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(st.none(), _TEXT), max_size=30), st.data())
@example([None], None)
@example(["b", None], None)
@example(["a\x00", "a", None, "é"], None)
@example([None, "", "a\x00", "x\n", "é", "", None], None)
def test_every_route_has_the_unique_dictionary(values, data):
    """Every STRING column, whichever route built it, holds the values of
    a list model, and its ``dictionary()`` is ``np.unique`` over its
    valid values and its inverse, −1 at NULLs — exactly, where the route
    builds one afresh; after cutting a passed-on dictionary down to the
    values the codes use, where the column keeps another's."""
    cut = data.draw(st.integers(0, len(values))) if data is not None else len(values) // 2
    with tempfile.TemporaryDirectory() as directory:
        for route, (column, model, fresh) in _by_every_route(values, cut, directory).items():
            assert column.to_list() == model, route
            pair = column.dictionary()
            assert pair is not None and pair[1].dtype == object, route
            _assert_encoding(pair if fresh else _dense(pair), _unique_encoding(column))
            decoded = [None if c < 0 else pair[1][c] for c in pair[0]]
            assert decoded == model, route


def test_every_route_holds_codes_not_rows():
    """No route leaves a row-length payload in a STRING column: its data
    slot is the int32 codes, and no slot holds an object or unicode array
    as long as the column."""
    values = [None, "", "a\x00", "x\n", "é"] * 12
    with tempfile.TemporaryDirectory() as directory:
        for route, (column, _, _) in _by_every_route(values, 25, directory).items():
            assert column._data.dtype == np.int32, route
            for slot in Column.__slots__:
                held = getattr(column, slot)
                assert not (
                    isinstance(held, np.ndarray) and held.dtype.kind in "OU"
                    and len(held) == len(column)
                ), (route, slot)


def test_left_join_padding_is_null_codes_under_the_right_dictionary():
    """An unmatched left row reads code −1 in every right STRING column,
    which keeps the right column's dictionary object; an empty right side
    pads with all-NULL codes."""
    right = Table([("k", Column([0, 1, 2, 3], dtype=DataType.INT64)),
                   ("s", Column(["b", None, "a", "b"], dtype=DataType.STRING))])
    left = Table([("j", Column([3, 9, 0, 1, 7], dtype=DataType.INT64))])
    out = hash_join(left, right, "j", "k", "left")
    s = out.column("s")
    model = {3: "b", 0: "b", 1: None, 9: None, 7: None}
    assert s.to_list() == [model[j] for j in out.column("j").to_list()]
    codes, values = s.dictionary()
    assert values is right.column("s").dictionary()[1]
    assert np.array_equal(codes < 0, ~s.validity)
    empty = hash_join(left, Table([("k", Column.empty(DataType.INT64)),
                                   ("s", Column.empty(DataType.STRING))]), "j", "k", "left")
    assert empty.column("s").to_list() == [None] * 5
    assert empty.column("s").dictionary()[0].tolist() == [-1] * 5


@pytest.mark.parametrize("storage", layouts.STORAGE_MODES)
def test_no_dictionary_value_outlives_its_last_row(tmp_path, storage):
    """A value no row holds any more leaves the dictionary: after each of
    200 UPDATEs to a new value, after a DELETE and the merge that applies
    it, and across a checkpoint and a reopen."""
    pin_defaults("delta_rows", "storage", "faults")
    settings.configure(storage=storage, delta_rows=100_000)

    def assert_tight(db: Database) -> None:
        column = db.get_table("t").column("s")
        _assert_encoding(column.dictionary(), _unique_encoding(column))

    table = Table([("k", Column(list(range(1000)), dtype=DataType.INT64)),
                   ("s", Column([f"s{i % 7}" for i in range(1000)], dtype=DataType.STRING))])
    with Database(path=tmp_path) as db:
        db.create_table("t", table)
        for i in range(200):
            db.execute(f"UPDATE t SET s = 'v{i}' WHERE k < {500 + i}")
            assert_tight(db)
        assert len(db.get_table("t").column("s").dictionary()[1]) == 1 + 7
        db.execute("DELETE FROM t WHERE k >= 699")
        db.flush_deltas("t")
        assert_tight(db)
        assert db.main_table("t").column("s").dictionary()[1].tolist() == ["v199"]
        db.checkpoint()
    with Database(path=tmp_path) as db:
        assert_tight(db)
        assert db.main_table("t").column("s").dictionary()[1].tolist() == ["v199"]


# -- the constructor's fast path ----------------------------------------------------------


_ITEMS = st.one_of(st.none(), _TEXT, st.sampled_from([1, "1", np.str_("np")]))


@hsettings(max_examples=200, deadline=None)
@given(st.lists(_ITEMS, max_size=30), st.data())
@example([1, "1"], None)
@example(["x", None], None)
@example(["x", "y"], None)
def test_object_array_builds_what_the_general_path_builds(values, data):
    explicit = None
    if data is not None and data.draw(st.booleans()):
        explicit = np.array(data.draw(st.lists(st.booleans(), min_size=len(values),
                                               max_size=len(values))), dtype=bool)
    array = _objects(values)
    fast = Column(array, dtype=DataType.STRING, validity=explicit)
    general = Column(list(values), dtype=DataType.STRING, validity=explicit)
    array[:] = "mutated"  # the column must not alias its input
    assert fast.data.dtype == general.data.dtype == object
    assert fast.data.tolist() == general.data.tolist()
    assert [type(v) for v in fast.data.tolist()] == [type(v) for v in general.data.tolist()]
    if general.validity is None:
        assert fast.validity is None
    else:
        assert np.array_equal(fast.validity, general.validity)
    _assert_encoding(fast.dictionary(), general.dictionary())


def test_plain_strings_skip_the_per_value_coercion(monkeypatch):
    calls = []
    coerce = column_module.coerce_array
    monkeypatch.setattr(column_module, "coerce_array",
                        lambda *args: calls.append(args) or coerce(*args))
    array = _objects(["b", "a", "b"])
    column = Column(array, dtype=DataType.STRING)
    assert calls == [] and column.data is not array and column.data.tolist() == ["b", "a", "b"]
    Column(_objects(["b", None]), dtype=DataType.STRING)
    assert len(calls) == 1  # a None takes the general path


def test_explicit_validity_is_still_checked():
    array = _objects(["a", "b"])
    with pytest.raises(TypeMismatchError, match="validity mask"):
        Column(array, dtype=DataType.STRING, validity=np.ones(3, dtype=bool))
    with pytest.raises(TypeMismatchError, match="validity mask"):
        Column(array, dtype=DataType.STRING, validity=np.ones(2, dtype=np.int8))
    assert Column(array, dtype=DataType.STRING, validity=np.array([True, True])).validity is None


# -- a trailing NUL is part of the value --------------------------------------------------


def _nul_tables(value: str) -> tuple[dict, dict]:
    left = {"s": [value, "b", "a"], "x": [1, 2, 3]}
    right = {"s": [value.rstrip("\x00"), "b", value], "y": [10, 20, 30]}
    return left, right


def _expected_join(left: dict, right: dict) -> list[tuple[int, int]]:
    return sorted(
        (x, y)
        for ls, x in zip(left["s"], left["x"])
        for rs, y in zip(right["s"], right["y"])
        if ls == rs
    )


@hsettings(max_examples=40, deadline=None)
@given(st.text(alphabet="a\x00", max_size=3))
@example("\x00")
@example("a\x00")
@example("")
def test_string_join_compares_like_python(value):
    """A join matches exactly the rows WHERE would: ``'a\\x00' <> 'a'``."""
    left, right = _nul_tables(value)
    db = Database()
    db.create_table("l", left)
    db.create_table("r", right)
    joined = db.sql("SELECT l.x, r.y FROM l JOIN r ON l.s = r.s")
    assert sorted(joined.rows()) == _expected_join(left, right)
    matched = db.sql("SELECT x FROM l WHERE s = 'b'")
    assert matched.column("x").to_list() == [2]


@pytest.mark.parametrize("value", ["a\x00", "\x00", ""])
def test_unencoded_tail_compares_like_python(value):
    """Rows pending in a delta tail are encoded when the tail is built:
    WHERE, GROUP BY and a join over them, on those codes, compare as
    Python compares the strings."""
    pin_defaults("delta_rows")
    settings.configure(delta_rows=100_000)
    left, right = _nul_tables(value)
    db = Database()
    db.create_table("l", Table([
        ("s", Column.empty(DataType.STRING)), ("x", Column.empty(DataType.INT64)),
    ]))
    db.create_table("r", right)
    rows = ", ".join(f"('{s}', {x})" for s, x in zip(left["s"], left["x"]))
    db.execute(f"INSERT INTO l VALUES {rows}")
    assert db.delta_tail("l").column("s").dictionary()[0].dtype == np.int32
    joined = db.sql("SELECT l.x, r.y FROM l JOIN r ON l.s = r.s")
    assert sorted(joined.rows()) == _expected_join(left, right)
    where = db.sql(f"SELECT x FROM l WHERE s = '{value.rstrip(chr(0))}' ORDER BY x")
    assert where.column("x").to_list() == [
        x for s, x in zip(left["s"], left["x"]) if s == value.rstrip("\x00")
    ]
    grouped = db.sql("SELECT s, COUNT(*) AS n FROM l GROUP BY s ORDER BY s")
    assert grouped.column("s").to_list() == sorted(set(left["s"]))


@pytest.mark.parametrize("storage", ["memory", "mmap"])
@pytest.mark.parametrize("durable", ["checkpoint", "wal"])
def test_trailing_nul_survives_a_reopen(tmp_path, storage, durable):
    db = Database(path=tmp_path)
    db.create_table("t", {"s": ["a", "a\x00", "b", None, "\x00"]})
    if durable == "checkpoint":
        db.checkpoint()
    db.close()
    pin_defaults("storage")
    settings.configure(storage=storage)
    db = Database(path=tmp_path)
    try:
        grouped = db.sql("SELECT s, COUNT(*) AS n FROM t GROUP BY s ORDER BY s")
        assert grouped.to_dicts() == [
            {"s": None, "n": 1}, {"s": "\x00", "n": 1}, {"s": "a", "n": 1},
            {"s": "a\x00", "n": 1}, {"s": "b", "n": 1},
        ]
        column = db.get_table("t").column("s")
        codes, values = column.dictionary()
        assert values.tolist() == ["\x00", "a", "a\x00", "b"]
        assert column.to_list() == ["a", "a\x00", "b", None, "\x00"]
        assert db.sql("SELECT COUNT(*) AS n FROM t WHERE s = 'a'").to_dicts() == [{"n": 1}]
    finally:
        db.close()


def test_only_a_nul_ended_column_writes_lengths(tmp_path):
    plain = Column(["a", "b", None], dtype=DataType.STRING)
    assert set(layouts.save_column_files(tmp_path, "p", plain)) == {
        "validity", "codes", "dictionary"
    }
    nul = Column(["a", "b\x00", None], dtype=DataType.STRING)
    files = layouts.save_column_files(tmp_path, "n", nul)
    assert set(files) == {"validity", "codes", "dictionary", "dictionary_lengths"}
    reopened = layouts.open_column_files(tmp_path, files, DataType.STRING, "mmap")
    assert reopened.is_mapped and reopened.to_list() == ["a", "b\x00", None]
    assert reopened.dictionary()[1].tolist() == ["a", "b\x00"]


def test_delta_tail_encodes_only_the_rows_appended_since(monkeypatch):
    """A new delta version's STRING tail extends the previous version's
    codes when only appends and deletes came between, and is encoded
    afresh after an UPDATE of pending rows; at every version its codes,
    dictionary and validity are a fresh encoding's of the pending values."""
    from repro.engine.delta import DeltaStore

    pin_defaults("delta_rows")
    db = Database()
    db.create_table("t", Table.from_dict({"i": [0], "s": ["m"]}))
    encoded, inside = [], []
    real_encode, real_column = column_module._encode_strings, DeltaStore.column

    def encode_spy(values, validity):
        if inside:
            encoded.append(len(values))
        return real_encode(values, validity)

    def column_spy(self, index, length):
        inside.append(1)
        try:
            return real_column(self, index, length)
        finally:
            inside.pop()

    monkeypatch.setattr(column_module, "_encode_strings", encode_spy)
    monkeypatch.setattr(DeltaStore, "column", column_spy)
    steps = [  # statement, the pending values after it, tail rows it encodes
        ("INSERT INTO t VALUES (1, 'k'), (2, NULL), (3, 'b')", ["k", None, "b"], 3),
        ("INSERT INTO t VALUES (4, 'a')", ["k", None, "b", "a"], 1),
        ("DELETE FROM t WHERE i = 3", ["k", None, "b", "a"], 0),
        ("UPDATE t SET s = 'z' WHERE i = 1", ["z", None, "b", "a"], 4),
        ("INSERT INTO t VALUES (5, 'c'), (6, NULL)", ["z", None, "b", "a", "c", None], 2),
        ("UPDATE t SET s = NULL WHERE i >= 4", ["z", None, "b", None, None, None], 6),
        ("INSERT INTO t VALUES (7, 'z')", ["z", None, "b", None, None, None, "z"], 1),
    ]
    for sql, pending, rows in steps:
        encoded.clear()
        db.execute(sql)
        got = db.delta_tail("t").column("s")
        want = Column(pending, dtype=DataType.STRING)
        assert sum(encoded) == rows, sql
        assert np.array_equal(got.dictionary()[0], want.dictionary()[0]), sql
        assert list(got.dictionary()[1]) == list(want.dictionary()[1]), sql
        assert (got.validity is None) == (want.validity is None), sql
        assert np.array_equal(got.is_null_mask(), want.is_null_mask()), sql
    assert db.main_table("t").num_rows == 1

"""Tests for how STRING columns are encoded.

``column.factorize_sorted`` builds every dictionary: one hash factorize
of the payload, then a sort of the distinct values only.  Its result must
equal ``np.unique(..., return_inverse=True)`` bit for bit, because code
order is value order for every kernel on codes.  Every STRING column has
a dictionary, built from its valid rows on first use, whichever way the
column was built.  ``Column`` takes an
object array of plain ``str`` as its payload without per-value passes;
that must build what the general path builds.  Kernels compare strings as
Python does, so a value ending in NUL stays distinct from the value
without it: in WHERE, in a join, after a delta merge and after a
checkpoint (a NumPy unicode array would drop the NUL).
"""

from __future__ import annotations

import sys
import tempfile
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings as hsettings, strategies as st

from repro import settings
from repro.engine import Database, Table, column as column_module
from repro.engine.column import Column, column_from_parts, concat_columns, factorize_sorted
from repro.engine.expressions import Case, col, lit
from repro.engine.types import DataType
from repro.errors import TypeMismatchError
from repro.storage import layouts
from tests.conftest import built_dictionary, pin_defaults

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
def test_extended_dictionary_equals_a_fresh_encoding(head, tail):
    """A merge's dictionary (a head with its dictionary built + a tail
    without one) is the encoding of every valid value of both, built
    afresh: the tail is encoded once and its values placed in the head's."""
    first = Column(head, dtype=DataType.STRING)
    head_values = first.dictionary()[1].tolist()
    rest = Column(tail, dtype=DataType.STRING)
    assert built_dictionary(rest) is None
    merged = concat_columns([first, rest])
    assert built_dictionary(merged) is not None and built_dictionary(rest) is not None
    codes, values = merged.dictionary()
    _assert_encoding((codes, values), _unique_encoding(merged))
    decoded = [None if c < 0 else values[c] for c in codes]
    assert decoded == head + tail  # Python equality: 'a\x00' is not 'a'
    if set(values.tolist()) == set(head_values):
        assert values is first.dictionary()[1]
    # pieces none of which has a dictionary give a result without one
    unbuilt = concat_columns([Column(head, dtype=DataType.STRING), Column(tail, dtype=DataType.STRING)])
    assert built_dictionary(unbuilt) is None
    _assert_encoding(unbuilt.dictionary(), (codes, values))


def _dense(pair: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """A dictionary cut down to the values its codes use: a passed-on
    dictionary may hold values no row of the column holds."""
    codes, values = pair
    used = np.unique(codes[codes >= 0])
    remap = np.full(len(values) + 1, -1, dtype=np.int32)  # a NULL's −1 reads the last
    remap[used] = np.arange(len(used), dtype=np.int32)
    return remap[codes], values[used]


def _by_every_route(values: list, cut: int) -> dict[str, tuple[Column, bool]]:
    """A STRING column holding ``values`` (or a part of them) built by each
    route there is, and whether its dictionary is one built afresh from
    its own rows (else passed on from the column it was derived from)."""
    built = Column(values, dtype=DataType.STRING)
    built.dictionary()
    n = len(values)
    positions = np.arange(n)[::-1]
    mask = np.arange(n) % 2 == 0
    valid = np.array([v is not None for v in values], dtype=bool)
    routes = {
        "list": (Column(values, dtype=DataType.STRING), True),
        "object array": (Column(_objects(values), dtype=DataType.STRING), True),
        "column_from_parts": (column_from_parts(_objects(values), DataType.STRING, valid), True),
        "take": (built.take(positions), False),
        "filter": (built.filter(mask), False),
        "slice": (built.slice(cut, n), False),
        "take, nothing built": (Column(values, dtype=DataType.STRING).take(positions), True),
        # the head passes all of ``built``'s dictionary on, and the rows hold all of it
        "concat": (concat_columns([built.slice(0, cut), Column(values[cut:], dtype=DataType.STRING)]),
                   True),
        "concat, nothing built": (concat_columns([
            Column(values[:cut], dtype=DataType.STRING), Column(values[cut:], dtype=DataType.STRING)
        ]), True),
    }
    table = Table([("s", Column(values, dtype=DataType.STRING)),
                   ("k", Column(list(range(n)), dtype=DataType.INT64))])
    case = Case([(col("k") < lit(cut), col("s"))], lit("zz"))
    routes["CASE output"] = (case.evaluate(table), True)
    return routes


@hsettings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(st.none(), _TEXT), max_size=30), st.data())
@example([None], None)
@example(["b", None], None)
@example(["a\x00", "a", None, "é"], None)
def test_every_route_has_the_unique_dictionary(values, data):
    """Every STRING column answers ``dictionary()``: ``np.unique`` over its
    valid values and its inverse, −1 at NULLs — exactly, where the route
    builds one afresh; after cutting a passed-on dictionary down to the
    values the codes use, where it derives the column from a built one."""
    cut = data.draw(st.integers(0, len(values))) if data is not None else len(values) // 2
    routes = _by_every_route(values, cut)
    pin_defaults("delta_rows")
    settings.configure(delta_rows=100_000)
    db = Database()
    db.create_table("t", Table([("s", Column.empty(DataType.STRING))]))
    if values:
        db.execute("INSERT INTO t VALUES " + ", ".join(
            "(NULL)" if v is None else f"('{v}')" for v in values
        ))
    tail = db.delta_tail("t").column("s")
    assert built_dictionary(tail) is None
    routes["delta tail"] = (tail, True)
    with tempfile.TemporaryDirectory() as directory:
        files = layouts.save_column_files(directory, "c", Column(values, dtype=DataType.STRING))
        for mode in layouts.STORAGE_MODES:
            routes[f"reopened, {mode}"] = (
                layouts.open_column_files(directory, files, DataType.STRING, mode), True
            )
        for route, (column, fresh) in routes.items():
            pair = column.dictionary()
            assert pair is not None and pair[1].dtype == object, route
            want = _unique_encoding(column)
            _assert_encoding(pair if fresh else _dense(pair), want)
            decoded = [None if c < 0 else pair[1][c] for c in pair[0]]
            assert decoded == column.to_list(), route


def test_a_dictionary_built_by_racing_threads_is_whole():
    """Pool threads may build one column's dictionary at once: each gets a
    whole ``(codes, values)`` pair that decodes to the column, and the
    column keeps one of them."""
    values = [None if i % 7 == 0 else f"v{i % 13}" for i in range(2_000)]
    columns = [Column(values, dtype=DataType.STRING) for _ in range(40)]
    seen: list[tuple] = []
    errors: list[BaseException] = []

    def build() -> None:
        try:
            for column in columns:
                seen.append((column, column.dictionary()))
        except BaseException as exc:  # handed to the asserting thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads) and not errors
    assert len(seen) == 6 * len(columns)
    for column, (codes, dictionary) in seen:
        assert [None if c < 0 else dictionary[c] for c in codes] == values
        kept = built_dictionary(column)
        assert kept[1].tolist() == dictionary.tolist() and np.array_equal(kept[0], codes)


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
    monkeypatch.setattr(column_module, "coerce_array",
                        lambda *args: calls.append(args) or np.empty(0, object))
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
    """Rows pending in a delta tail carry no codes until a query reads
    them: WHERE, GROUP BY and a join over them, on the codes built then,
    compare as Python compares the strings."""
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
    assert built_dictionary(db.delta_tail("l").column("s")) is None
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
        "data", "validity", "codes", "dictionary"
    }
    nul = Column(["a", "b\x00", None], dtype=DataType.STRING)
    files = layouts.save_column_files(tmp_path, "n", nul)
    assert set(files) == {
        "data", "data_lengths", "validity", "codes", "dictionary", "dictionary_lengths"
    }
    reopened = layouts.open_column_files(tmp_path, files, DataType.STRING, "mmap")
    assert not reopened.is_mapped and reopened.to_list() == ["a", "b\x00", None]
    assert reopened.dictionary()[1].tolist() == ["a", "b\x00"]

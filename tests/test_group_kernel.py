"""The group kernel: one answer per key kind, aggregate kind and route.

``operators.group_rows`` / ``aggregate_groups`` / ``grouped_output`` sit
under ``hash_aggregate``, which groups every GROUP BY once on the calling
thread whatever route its scan took.  The per-group formulation they
replaced — a dict of key tuple → ascending row indices, one
``Column.take`` and one Python evaluation per group × aggregate,
``Table.from_rows`` over the result tuples — is kept here as
:func:`spec_hash_aggregate`, the executable spec: every lattice point
must match it bit for bit (values, group order, dtypes, validity), and
the row-at-a-time reference interpreter in values and order.
"""

from __future__ import annotations

import importlib
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings as hypothesis_settings, strategies as st

from repro import settings
from repro.engine import Database, Table
from repro.engine import expressions as ex
from repro.engine import operators as ops
from repro.engine import parallel
from repro.engine.column import Column
from repro.engine.sql.ast import AggregateCall
from repro.engine.sql.parser import parse
from repro.engine.types import DataType, aggregate_type
from repro.obs.metrics import get_registry
from tests.conftest import pin_defaults
from tests.reference_interpreter import run_reference
from tests.test_parallel import tables_bit_identical
from tests.test_scan_routes import _same_rows

NAN = float("nan")
BIG = 2**53  # beyond it float64 folds neighbouring INT64 keys together


# -- the executable spec: the per-group formulation --------------------------------------


def _spec_key(value):
    if value is None:
        return (0, None)
    if isinstance(value, float) and math.isnan(value):
        return (1, None)
    return (2, value)


def _spec_aggregate(call: AggregateCall, column: Column | None, group_size: int):
    if call.argument is None:
        return group_size
    if call.function == "COUNT":
        if call.distinct:  # one NaN, like SELECT DISTINCT and GROUP BY
            return len({_spec_key(v) for v in column.to_list() if v is not None})
        return group_size - column.null_count()
    valid = column.valid_data()
    if call.distinct:
        if column.dtype is DataType.STRING:
            valid = np.asarray(sorted(set(valid)), dtype=object)
        else:
            valid = np.unique(valid)
    if len(valid) == 0:
        return None
    if call.function == "SUM":
        return float(valid.sum()) if column.dtype is DataType.FLOAT64 else int(valid.sum())
    if call.function == "AVG":
        return float(np.mean(valid.astype(np.float64)))
    if column.dtype is DataType.STRING:
        return min(valid) if call.function == "MIN" else max(valid)
    extreme = valid.min() if call.function == "MIN" else valid.max()
    if column.dtype is DataType.FLOAT64:
        extreme = extreme + 0.0  # a zero extreme is +0.0 (DESIGN.md "Grouped aggregation kernel")
    return extreme.item()


def spec_hash_aggregate(table, group_exprs, aggregates, group_names=None) -> Table:
    """``hash_aggregate`` as it was — per-group gathers, result rows as
    tuples — typed from the schema: the keys' types and the aggregates'
    result types, whatever the rows hold."""
    names = ops.group_output_names(group_exprs, group_names) + [n for n, _ in aggregates]
    key_columns = [expr.evaluate(table) for expr in group_exprs]
    arguments = [
        None if call.argument is None else call.argument.evaluate(table)
        for _, call in aggregates
    ]
    groups: dict[tuple, list[int]] = {}
    if not group_exprs:
        groups[()] = list(range(table.num_rows))
    for row in range(table.num_rows if group_exprs else 0):
        key = tuple(_spec_key(column[row]) for column in key_columns)
        groups.setdefault(key, []).append(row)
    out_rows = []
    for rows in groups.values():
        idx = np.asarray(rows, dtype=np.int64)
        out_rows.append(
            tuple(column[rows[0]] for column in key_columns)
            + tuple(
                _spec_aggregate(call, None if arg is None else arg.take(idx), len(idx))
                for (_, call), arg in zip(aggregates, arguments)
            )
        )
    types = [column.dtype for column in key_columns] + [
        DataType.INT64 if arg is None else aggregate_type(call.function, arg.dtype)
        for (_, call), arg in zip(aggregates, arguments)
    ]
    return Table([
        (name, Column([row[j] for row in out_rows], dtype=dtype))
        for j, (name, dtype) in enumerate(zip(names, types))
    ])


# -- the lattice -------------------------------------------------------------------------

ROWS = 600


def _nullable(values, every: int):
    return [None if i % every == 0 else v for i, v in enumerate(values)]


def _lattice_table() -> Table:
    n = ROWS
    strings = ["delta", "alpha", "echo", "bravo", "charlie"]
    floats = [(0.0, -0.0, NAN, 2.5, -0.0, NAN, 0.0, 7.25)[(i * 3) % 8] for i in range(n)]
    columns = {
        "i": list(range(n)),
        # keys
        "ds": [strings[(i * 7) % 5] for i in range(n)],
        "si": [(i * 5) % 7 - 3 for i in range(n)],
        "wi": [BIG + ((i * 11) % 6) * 10**12 + (i % 2) for i in range(n)],  # epoch-ns wide
        "fk": floats,
        "bk": [(i * 3) % 4 < 2 for i in range(n)],
        "qty": [(i * 13) % 10 + 1 for i in range(n)],
        # arguments: halves sum exactly in any order, so the interpreter's
        # sequential float sums equal numpy's pairwise ones
        "fv": _nullable([((i * 37) % 41) * 0.5 - 5.0 for i in range(n)], 6),
        "fz": floats[3:] + floats[:3],
        "iv": [None if (i * 5) % 7 == 0 or i % 9 == 0 else (i * 17) % 23 - 11 for i in range(n)],
        "sv": _nullable([strings[(i * 3) % 5] + str(i % 3) for i in range(n)], 4),
        "bv": _nullable([i % 3 == 0 for i in range(n)], 5),
    }
    for name in ("ds", "si", "wi", "fk", "bk"):
        columns[name + "_n"] = _nullable(columns[name], 5)
    table = Table.from_dict(columns)
    return table.with_column("nul", Column([None] * n, dtype=DataType.INT64))


KEYS = {
    "dict_string": "ds",
    "small_int": "si",
    "wide_int": "wi",
    "float": "fk",
    "bool": "bk",
    "dict_string_null": "ds_n",
    "small_int_null": "si_n",
    "wide_int_null": "wi_n",
    "float_null": "fk_n",
    "bool_null": "bk_n",
    "two_keys": "ds, si_n",
    "two_keys_float": "fk_n, bk",
    "three_keys": "ds_n, wi, bk_n",
    "expression": "qty % 3 AS m",
    "global": "",
}
AGGREGATES = {
    "counts": "COUNT(*) AS n, COUNT(fv) AS nf, COUNT(sv) AS ns, COUNT(nul) AS nn",
    "sums": "SUM(iv) AS si_, AVG(iv) AS ai, SUM(fv) AS sf, AVG(fv) AS af, SUM(bv) AS sb, "
            "SUM(nul) AS sn, AVG(nul) AS an",
    "minmax": "MIN(fz) AS lf, MAX(fz) AS hf, MIN(iv) AS li, MAX(iv) AS hi, MIN(sv) AS ls, "
              "MAX(sv) AS hs, MIN(bv) AS lb, MAX(nul) AS hn",
    "distinct": "COUNT(DISTINCT fz) AS cf, COUNT(DISTINCT sv) AS cs, SUM(DISTINCT iv) AS si_, "
                "SUM(DISTINCT fz) AS sf, AVG(DISTINCT fv) AS af, MIN(DISTINCT sv) AS ls, "
                "MAX(DISTINCT iv) AS hi",
}
#: no WHERE is Aggregate over an unfiltered scan, a WHERE is Aggregate over the
#: span kernels' filtered scan; the last one keeps no row
WHERES = ("", "WHERE i >= 40 AND i < 555", "WHERE i < 0")
ROUTES = {
    "serial": dict(threads=0),
    "threads": dict(threads=4),
    "sharded_serial": dict(threads=0, shards=2),
    "sharded": dict(threads=4, shards=2),
    "dirty": dict(threads=0, dirty=True),
    "dirty_threads": dict(threads=4, dirty=True),
    # every row pending over an empty main: a delta tail is built without
    # codes, so the STRING keys reach the kernels, which build them
    "strings_unencoded": dict(threads=4, tail_only=True),
}
WRITES = (
    "INSERT INTO t (i, ds, si, wi, fk, bk, qty, fv, fz, iv, sv, bv) VALUES "
    "(600, 'alpha', 2, 5, 0.0, TRUE, 4, 1.5, -0.0, 3, 'zulu', FALSE), "
    "(601, 'foxtrot', 99, 6, 2.5, FALSE, 5, NULL, 2.5, NULL, NULL, NULL)",
    "DELETE FROM t WHERE i >= 60 AND i < 70",
)


def _statements(key: str):
    for where in WHERES:
        for aggregates in AGGREGATES.values():
            select = f"{key}, {aggregates}" if key else aggregates
            group_by = f" GROUP BY {key.removesuffix(' AS m')}" if key else ""
            yield f"SELECT {select} FROM t {where}{group_by}"


def _database(route: dict) -> Database:
    pin_defaults("delta_rows")  # the dirty routes keep their writes pending
    settings.configure(threads=route["threads"], zone_rows=64, shards=0, optimizer=True)
    db = Database()
    if route.get("tail_only"):
        table = _lattice_table()
        db.create_table("t", table.slice(0, 0))
        with np.errstate(invalid="ignore"):
            db.execute(_insert_all(table))
        tail = db.delta_tail("t")
        assert tail.num_rows == ROWS and db.main_table("t").num_rows == 0
        assert all(  # encoded once, when the tail was built
            tail.column(name).dictionary()[0].dtype == np.int32
            for name in tail.column_names
            if tail.schema.type_of(name) is DataType.STRING
        )
        return db
    db.create_table("t", _lattice_table())
    if route.get("shards"):
        db.apply_sharding("t", route["shards"], shard_by="range(i)")
    if route.get("dirty"):
        for statement in WRITES:
            db.execute(statement)
        assert db.delta_store_if_dirty("t") is not None
    return db


def _literal(value) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, str):
        return f"'{value}'"
    if isinstance(value, float) and math.isnan(value):
        # NaN has no literal: inf - inf folds to one, negated to the sign
        # bit float("nan") has on x86
        return "-(1e999 - 1e999)"
    return repr(value)


def _insert_all(table: Table) -> str:
    """One INSERT of every row of ``table``, bit for bit (NaN, -0.0)."""
    rows = ", ".join(
        "(" + ", ".join(_literal(value) for value in row) + ")" for row in table.rows()
    )
    return f"INSERT INTO t VALUES {rows}"


@pytest.fixture(scope="module")
def pool():
    yield
    parallel.shutdown_pool()


@pytest.mark.parametrize("key", KEYS)
@pytest.mark.parametrize("route", ROUTES)
def test_lattice_point(route, key, monkeypatch, pool):
    db = _database(ROUTES[route])
    # the tail's rows read as they are: ``get_table`` would concat them
    # behind the empty main
    rows = (db.delta_tail("t") if ROUTES[route].get("tail_only") else db.get_table("t")).to_dicts()
    batches = get_registry().counter("parallel.batches")
    before = batches.value
    got = {sql: db.sql(sql) for sql in _statements(KEYS[key])}
    # a pooled point pools (its 600 rows are 10 zones); a tail over an empty main is one task
    pools = ROUTES[route]["threads"] >= 2 and not ROUTES[route].get("tail_only")
    assert (batches.value > before) == pools
    # the spec kernel under the reference configuration: serial, unoptimized,
    # unzoned — Aggregate(Filter(Scan)) through ``ops.hash_aggregate``
    settings.configure(threads=0, optimizer=False, zone_rows=0)
    monkeypatch.setattr(ops, "hash_aggregate", spec_hash_aggregate)
    for sql, table in got.items():
        tables_bit_identical(table, db.sql(sql))
        _same_rows(table, run_reference(parse(sql), rows), ordered=True)


@pytest.mark.parametrize("route", ("serial", "threads", "sharded", "dirty"))
def test_shapes_come_from_the_schema(route, pool):
    """No group, an all-NULL aggregate, the global group over no rows:
    every column keeps the type the schema gives it (``nul`` is INT64)."""
    db = _database(ROUTES[route])
    none = db.sql("SELECT ds, COUNT(*) AS n, MIN(sv) AS s FROM t WHERE i < 0 GROUP BY ds")
    assert none.num_rows == 0
    assert none.schema.types == (DataType.STRING, DataType.INT64, DataType.STRING)
    nulls = db.sql("SELECT ds, SUM(nul) AS s, MIN(nul) AS m, COUNT(nul) AS n FROM t GROUP BY ds")
    assert nulls.schema.types == (
        DataType.STRING, DataType.INT64, DataType.INT64, DataType.INT64
    )
    assert nulls.column("s").null_count() == nulls.num_rows == 5 + (route == "dirty")
    empty = db.sql("SELECT COUNT(*) AS n, SUM(iv) AS s, MAX(sv) AS m FROM t WHERE i < 0")
    assert list(empty.rows()) == [(0, None, None)]
    assert empty.schema.types == (DataType.INT64, DataType.INT64, DataType.STRING)


# -- new kernel == per-group formulation, on random inputs -------------------------------

_KEY_VALUES = {
    "small": st.integers(-3, 3),
    "wide": st.integers(BIG, BIG + 3).map(lambda v: v * 1000),
    "float": st.sampled_from([0.0, -0.0, NAN, 1.5, -2.0, float("inf")]),
    "bool": st.booleans(),
    "string": st.sampled_from(["a", "b", "", "zz"]),
}
_ARGUMENTS = {
    # one NaN bit pattern: which of two different NaNs a MIN/MAX propagates is
    # numpy's choice per loop, and the comparison below is bytewise
    "f": st.floats(allow_nan=False, allow_infinity=True, width=64) | st.just(NAN),
    "g": st.floats(-1e12, 1e12).map(lambda v: v / 3.0),
    "n": st.integers(-(2**62), 2**62),
    "s": st.sampled_from(["x", "y", "zebra", ""]),
    "b": st.booleans(),
}
_CALLS = [
    (function, name, distinct)
    for function in ("COUNT", "SUM", "AVG", "MIN", "MAX")
    for name in _ARGUMENTS
    for distinct in (False, True)
    if name != "s" or function in ("COUNT", "MIN", "MAX")
]


@st.composite
def _grouped_inputs(draw):
    n = draw(st.integers(0, 40))
    kinds = draw(st.lists(st.sampled_from(sorted(_KEY_VALUES)), min_size=0, max_size=3))

    def column(values):
        return draw(st.lists(st.one_of(st.none(), values), min_size=n, max_size=n))

    data = {f"k{j}": column(_KEY_VALUES[kind]) for j, kind in enumerate(kinds)}
    data.update({name: column(values) for name, values in _ARGUMENTS.items()})
    types = {"small": DataType.INT64, "wide": DataType.INT64, "float": DataType.FLOAT64,
             "bool": DataType.BOOL, "string": DataType.STRING, "f": DataType.FLOAT64,
             "g": DataType.FLOAT64, "n": DataType.INT64, "s": DataType.STRING,
             "b": DataType.BOOL}
    table = Table([
        (name, Column(values, dtype=types[kinds[int(name[1:])] if name[0] == "k" else name]))
        for name, values in data.items()
    ])
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=3)))
    return table, len(kinds), cuts


_ARGUMENT_TYPES = {"f": DataType.FLOAT64, "g": DataType.FLOAT64, "n": DataType.INT64,
                   "s": DataType.STRING, "b": DataType.BOOL}


def _edge_inputs(rows: int, keys=(), **arguments):
    """An input for the test below: key columns ``k0``... holding ``keys``,
    the given argument columns, every other argument all NULL."""
    return Table(
        [(f"k{j}", Column(values)) for j, values in enumerate(keys)]
        + [
            (name, Column(arguments.get(name, [None] * rows), dtype=dtype))
            for name, dtype in _ARGUMENT_TYPES.items()
        ]
    ), len(keys), []


def _zero_sign_inputs():
    """ROADMAP item 0's repro: ``SELECT MIN(g) FROM t`` was -0.0 from
    ``reduceat`` over the NULL-padded array and 0.0 from ``valid.min()``."""
    return _edge_inputs(11, g=[-0.0, 1.0, 0.0, 1.0, 0.0, 0.0, -0.0, None, None, -0.0, -0.0])


#: 12 keys, each a permutation of 0..39: an id space of 40**12 > 2**63, so
#: the group kernel re-densifies; ``n`` spans 2**61 over 40 groups, so the
#: packed (group, value) pairs of COUNT(DISTINCT n) re-densify the values
_WIDE_KEYS = [[(7 * i + 11 * j) % 40 for i in range(40)] for j in range(12)]


def _pooled_aggregate(table, spans, group_exprs, aggregates) -> Table:
    """``hash_aggregate`` over a scan at threads=2, one task per span of
    ``spans`` (PASS spans, no predicate): one pooled batch when there are
    two spans or more."""
    settings.configure(threads=2)
    batches = get_registry().counter("parallel.batches")
    before = batches.value
    scanned = parallel.streamed_filter(table, None, spans)
    result = ops.hash_aggregate(scanned, group_exprs, aggregates)
    assert batches.value - before == (len(spans) > 1)
    return result


@hypothesis_settings(max_examples=150, deadline=None)
@given(_grouped_inputs())
@example(_zero_sign_inputs())
# SUM(DISTINCT) over {inf, -inf, NaN}: ascending with NaN last, as np.unique
# orders them, or inf + -inf meets the NaN first and the sum's sign bit differs
@example(_edge_inputs(7, f=[NAN, float("inf"), -float("inf"), None, float("inf"), NAN, -1e308]))
# a group whose STRING argument is all NULL: MIN is NULL (code -1), COUNT(DISTINCT) 0
@example(_edge_inputs(5, [["a", "b", "a", "b", "b"]], s=[None, "x", None, "zebra", "x"]))
# a group of only ±0.0, past the 8 rows numpy's sort keeps in place: np.unique
# and the kernel may keep different zeros, and SUM/AVG(DISTINCT) must not show it
@example(_edge_inputs(
    14, [[0] * 11 + [1] * 3], f=[-0.0] * 3 + [0.0] * 3 + [-0.0] * 2 + [0.0] * 3 + [-0.0, 0.0, None],
    g=[-0.0] + [0.0] * 10 + [0.0, 0.0, -0.0],
))
# INT64 past 2**53: distinct sums and ids stay exact
@example(_edge_inputs(6, [[1, 1, 1, 2, 2, 2]], n=[BIG, BIG + 1, BIG, BIG + 1, None, -(2**62)]))
@example(_edge_inputs(40, _WIDE_KEYS, n=[(i % 3) * (2**60) + i % 2 for i in range(40)]))
def test_kernel_equals_the_per_group_formulation(pool, inputs):
    table, num_keys, cuts = inputs
    group_exprs = [ex.ColumnRef(f"k{j}") for j in range(num_keys)]
    aggregates = [("n", AggregateCall("COUNT", None))] + [
        (f"{function}_{name}_{distinct}", AggregateCall(function, ex.ColumnRef(name), distinct))
        for function, name, distinct in _CALLS
    ]
    want = spec_hash_aggregate(table, group_exprs, aggregates)
    tables_bit_identical(ops.hash_aggregate(table, group_exprs, aggregates), want)
    # the same rows as pool tasks over arbitrary spans, grouped once
    bounds = [0, *cuts, table.num_rows]
    spans = [(start, stop, False) for start, stop in zip(bounds, bounds[1:])]
    tables_bit_identical(_pooled_aggregate(table, spans, group_exprs, aggregates), want)


def test_float_sums_keep_the_pairwise_order_on_long_groups(pool):
    """Groups long enough for numpy's pairwise blocks (128) and unrolled
    lanes (8) to matter: a sequential ``reduceat`` differs in the last bits."""
    rng = np.random.default_rng(7)
    n = 6000
    values = rng.gamma(2.0, 20.0, n) * 10.0 ** rng.integers(-6, 7, n)
    table = Table([
        ("k", Column(rng.integers(0, 4, n))),
        ("f", Column(values, validity=rng.random(n) > 0.1)),
        ("g", Column(values[::-1].copy())),
    ])
    group_exprs = [ex.ColumnRef("k")]
    aggregates = [
        (f"{function}_{name}", AggregateCall(function, ex.ColumnRef(name)))
        for function in ("SUM", "AVG") for name in ("f", "g")
    ]
    want = spec_hash_aggregate(table, group_exprs, aggregates)
    tables_bit_identical(ops.hash_aggregate(table, group_exprs, aggregates), want)
    spans = [(s, min(s + 1000, n), False) for s in range(0, n, 1000)]
    tables_bit_identical(_pooled_aggregate(table, spans, group_exprs, aggregates), want)


# -- satellite regressions ---------------------------------------------------------------


@pytest.mark.parametrize("threads", (0, 4))
def test_mixed_radix_ids_never_wrap_int64(threads, pool):
    """Five keys whose radices multiply to 8 * 65536**4 = 2**67: the first
    key's weight used to wrap to 0 and merge (0,0,0,0,0) with (7,0,0,0,0)."""
    n = 65536
    wide = list(range(n)) + [0]
    table = Table.from_dict({"c0": [0] * n + [7], **{f"c{j}": wide for j in range(1, 5)}})
    settings.configure(threads=threads, shards=0, zone_rows=0)
    db = Database()
    db.create_table("t", table)
    sql = "SELECT c0, c1, c2, c3, c4, COUNT(*) AS n FROM t GROUP BY c0, c1, c2, c3, c4"
    got = db.sql(sql)
    assert got.num_rows == n + 1
    assert got.column("n").data.max() == 1
    _same_rows(got, run_reference(parse(sql), table.to_dicts()), ordered=True)


DISTINCT_SPELLINGS = {
    "count_distinct": "SELECT COUNT(DISTINCT x) AS n FROM d",
    "select_distinct": "SELECT DISTINCT x FROM d",
    "group_by": "SELECT x, COUNT(*) AS n FROM d GROUP BY x",
    "sum_distinct": "SELECT SUM(DISTINCT x) AS s, AVG(DISTINCT y) AS a FROM d",
    "per_group": "SELECT g, COUNT(DISTINCT x) AS n, COUNT(DISTINCT y) AS m FROM d GROUP BY g",
}


@pytest.mark.parametrize("route", ("serial", "threads", "sharded", "dirty"))
def test_distinct_spellings_agree_on_one_nan(route, pool):
    spec = ROUTES[route]
    settings.configure(threads=spec["threads"], zone_rows=0, shards=0)
    pin_defaults("delta_rows")
    xs = [NAN, NAN, 1.0, None, 1.0, 2.0, NAN, -0.0, 0.0, None, 2.0, NAN]
    db = Database()
    db.create_table("d", Table([
        ("i", Column(list(range(len(xs))))),
        ("g", Column([i % 2 for i in range(len(xs))])),
        ("x", Column(xs, dtype=DataType.FLOAT64)),
        ("y", Column([None if v is None or v != v else v for v in xs], dtype=DataType.FLOAT64)),
    ]))
    if spec.get("shards"):
        db.apply_sharding("d", 2, shard_by="range(i)")
    if spec.get("dirty"):
        db.execute("INSERT INTO d VALUES (12, 0, NULL, 5.0), (13, 1, 1.0, 5.0)")
        db.execute("DELETE FROM d WHERE i = 5")
    rows = db.get_table("d").to_dicts()
    answers = {}
    for label, sql in DISTINCT_SPELLINGS.items():
        answers[label] = db.sql(sql)
        _same_rows(answers[label], run_reference(parse(sql), rows), ordered=True)
    distinct_values = 4  # NaN, 1.0, 2.0 and ±0.0, written or not
    assert answers["count_distinct"].column("n").to_list() == [distinct_values]
    for label in ("select_distinct", "group_by"):
        assert answers[label].num_rows - 1 == distinct_values  # and the NULL row
    assert math.isnan(answers["sum_distinct"].column("s")[0])


# -- logical work: no per-group slices, no predicate-only copies ------------------------


def _ledger(module: str):
    """A module of ``benchmarks/ledger`` (they import each other by bare name)."""
    path = str(Path(__file__).resolve().parents[1] / "benchmarks" / "ledger")
    sys.path.insert(0, path)
    try:
        return importlib.import_module(module)
    finally:
        sys.path.remove(path)


def _per_group_slices(monkeypatch) -> list[int]:
    """A spy: the ``Column.slice`` calls made inside
    ``operators.aggregate_groups``, which every aggregation route reaches —
    the per-group formulation sliced the argument once per group."""
    slices, inside = [0], []
    real_slice, real_aggregate = Column.slice, ops.aggregate_groups

    def slice_spy(self, start, stop):
        slices[0] += bool(inside)
        return real_slice(self, start, stop)

    def aggregate_spy(*args):
        inside.append(1)
        try:
            return real_aggregate(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(Column, "slice", slice_spy)
    monkeypatch.setattr(ops, "aggregate_groups", aggregate_spy)
    return slices


@pytest.mark.parametrize("route", ("serial", "threads", "sharded"))
def test_dashboard_views_gather_no_group(route, pool, monkeypatch):
    datagen, sessions = _ledger("datagen"), _ledger("sessions")
    spec = ROUTES[route]
    settings.configure(threads=spec["threads"], zone_rows=1024, shards=0)
    data = datagen.sales(3, rows=20_000)
    db = Database()
    db.create_table("sales", datagen.to_table(data))
    if spec.get("shards"):
        db.apply_sharding("sales", 2, shard_by="range(ts)")
    slices = _per_group_slices(monkeypatch)
    for state in ((2_000, 15_000, None, None, None), (5_000, 9_000, 3, 1, 40.0)):
        queries = sessions.crossfilter_queries(data, state)
        assert len(queries) == 6
        for query in queries:
            assert db.sql(query.sql).num_rows > 0
    # DISTINCT aggregates and a STRING MIN/MAX run the same kernel: no
    # column is sliced per group, and the answer is the spec's
    sql = (
        "SELECT region, COUNT(DISTINCT product) AS n, SUM(DISTINCT qty) AS q, "
        "AVG(DISTINCT price) AS p, MIN(product) AS lo, MAX(channel) AS hi "
        "FROM sales GROUP BY region"
    )
    got = db.sql(sql)
    assert slices == [0]
    monkeypatch.undo()
    settings.configure(threads=0, optimizer=False, zone_rows=0)
    monkeypatch.setattr(ops, "hash_aggregate", spec_hash_aggregate)
    tables_bit_identical(got, db.sql(sql))


def test_fused_scan_copies_only_what_the_sink_reads(monkeypatch):
    """The scan under a filtered GROUP BY gathers each column the
    aggregate reads once per source — once from the main however many
    spans survive, once more from a delta tail — and never a column only
    the predicate reads."""
    settings.configure(
        threads=0, zone_rows=64, shards=0, optimizer=True,
        storage="memory", delta_rows=10_000,
    )
    db = Database()
    db.create_table("t", _lattice_table())
    sql = (
        "SELECT ds, COUNT(*) AS n, SUM(fv) AS total FROM t "
        "WHERE i >= 40 AND i < 555 AND si > -3 AND bk_n = TRUE GROUP BY ds"
    )
    taken: list[Column] = []
    gathering: list[int] = []
    real_take, real_gather = Column.take, parallel.gather

    def take_spy(self, indices):
        if gathering:
            taken.append(self)
        return real_take(self, indices)

    def gather_spy(*args, **kwargs):
        gathering.append(1)
        try:
            return real_gather(*args, **kwargs)
        finally:
            gathering.pop()

    for sources in (1, 2):
        if sources == 2:  # a pending row the brush keeps, and main tombstones
            db.execute("INSERT INTO t (i, ds, si, fv, bk_n) VALUES (100, 'zulu', 1, 2.5, TRUE)")
            db.execute(WRITES[1])
        main = db.main_table("t")
        assert "Scan(t, filter: " in db.explain(sql) and "columns: [ds, fv])" in db.explain(sql)
        # zones 0 and 8 straddle the brush, zones 1-7 evaluate ``si`` and ``bk_n``
        assert "zones: 1 pruned, 0 passed of 10" in db.explain_analyze(sql).render()
        taken.clear()
        monkeypatch.setattr(Column, "take", take_spy)
        monkeypatch.setattr(parallel, "gather", gather_spy)
        got = db.sql(sql)
        monkeypatch.undo()
        from_main = [
            name for column in taken for name in main.column_names
            if np.shares_memory(ops.key_array(column), ops.key_array(main.column(name)))
        ]
        assert sorted(from_main) == ["ds", "fv"]
        assert len(taken) == 2 * sources and all(len(c) == 1 for c in taken[2:])
        settings.configure(optimizer=False, zone_rows=0)
        tables_bit_identical(got, db.sql(sql))
        settings.configure(optimizer=True, zone_rows=64)

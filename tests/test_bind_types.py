"""Types are decided at bind, from the schema.

Every expression of a statement is typed once, when it is bound, against
the schema it is evaluated over; the rows never decide a type.  Pinned
here:

- a result's schema does not depend on which rows it matched — an empty
  GROUP BY keeps its key and aggregate types, and a HAVING over a group
  whose ``MIN(s)`` is NULL still compares STRING with STRING;
- a bare ``NULL`` takes its context's type: ``SET s = NULL``, ``CASE …
  ELSE NULL``, ``s = NULL`` (no row, never an error), ``s IN ('a',
  NULL)``, ``x + NULL`` (INT64), ``WHERE NULL``;
- SUM/AVG over STRING and non-boolean logical operands raise
  :class:`~repro.errors.TypeMismatchError` at bind;
- a type error raises before any scan: ``truth_mask`` is never called,
  on every route of the scan-routes lattice;
- the schema of every generated query is the schema of the same query
  over no rows, on the serial, pooled and sharded routes.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro import settings
from repro.engine import Database, DataType, Table
from repro.engine import expressions as ex
from repro.errors import TypeMismatchError
from tests.test_scan_routes import LATTICE, _add_dimension, _open
# the lattice's checkpointed roots; an autouse module fixture, so its
# pins (zone_rows=64, wal, shards=0, ...) hold for this whole module
from tests.test_scan_routes import checkpoints  # noqa: F401
from tests.test_sql_differential import random_query, random_table


@pytest.fixture()
def db() -> Database:
    database = Database()
    database.create_table(
        "t",
        Table.from_dict(
            {"x": [1, 2, 3], "s": ["a", "a", None], "b": [True, False, None]}
        ),
    )
    return database


def _types(table: Table) -> tuple[DataType, ...]:
    return table.schema.types


# -- the schema, not the rows, types a result -------------------------------------------


def test_empty_group_by_keeps_its_types(db):
    got = db.sql("SELECT s, COUNT(*) AS n FROM t WHERE x > 100 GROUP BY s")
    assert got.num_rows == 0
    assert _types(got) == (DataType.STRING, DataType.INT64)


@pytest.mark.parametrize("where, rows", [("x > 1", [("a", 1)]), ("x > 2", [])])
def test_having_over_an_all_null_min_compares_strings(db, where, rows):
    # WHERE x > 2 keeps only the group whose MIN(s) is NULL
    got = db.sql(f"SELECT s, COUNT(*) AS n FROM t WHERE {where} GROUP BY s HAVING MIN(s) = 'a'")
    assert list(got.rows()) == rows
    assert _types(got) == (DataType.STRING, DataType.INT64)


# -- a bare NULL takes its context's type -----------------------------------------------


@pytest.mark.parametrize("optimizer", (True, False), ids=("optimized", "unoptimized"))
@pytest.mark.parametrize(
    "where", ["s = NULL", "NULL", "s <> NULL", "NOT (s = NULL)", "x + NULL > 0", "NULL AND TRUE"]
)
def test_null_predicates_keep_no_row(db, optimizer, where):
    settings.configure(optimizer=optimizer)
    assert db.sql(f"SELECT x FROM t WHERE {where}").num_rows == 0


def test_null_in_a_list_is_never_a_match(db):
    got = db.sql("SELECT x FROM t WHERE s IN ('a', NULL)")
    assert got.column("x").to_list() == [1, 2]


def test_case_else_null_over_a_string(db):
    got = db.sql("SELECT CASE WHEN x > 1 THEN s ELSE NULL END AS c FROM t")
    assert _types(got) == (DataType.STRING,)
    assert got.column("c").to_list() == [None, "a", None]
    # every value NULL: the CASE takes the type it is compared with
    got = db.sql("SELECT x FROM t WHERE (CASE WHEN x > 1 THEN NULL END) = 'a'")
    assert got.num_rows == 0


def test_null_arithmetic_takes_its_partner_type(db):
    got = db.sql("SELECT x + NULL AS y, NULL AS z FROM t")
    assert _types(got) == (DataType.INT64, DataType.FLOAT64)  # no context: FLOAT64
    assert got.column("y").null_count() == 3


def test_delete_where_s_equals_null_deletes_nothing(db):
    assert db.execute("DELETE FROM t WHERE s = NULL") == 0
    assert db.get_table("t").num_rows == 3


def test_insert_and_update_type_values_for_their_column(db):
    with pytest.raises(TypeMismatchError, match="cannot assign INT64 values to STRING column 's'"):
        db.execute("UPDATE t SET s = 5")
    with pytest.raises(TypeMismatchError, match="cannot assign INT64 values to BOOL column 'b'"):
        db.execute("INSERT INTO t (b) VALUES (1)")
    with pytest.raises(TypeMismatchError, match="without losing precision"):
        db.execute("INSERT INTO t (x) VALUES (1.5)")  # a value-level check, on store
    assert db.execute("UPDATE t SET x = 4.0 WHERE x = 3") == 1  # integral: stored


def test_literal_key_includes_the_bound_type():
    typed = [ex.Literal(None, dtype) for dtype in (DataType.STRING, DataType.BOOL)]
    assert not typed[0].same_as(typed[1])
    assert ex.Literal(None).dtype is DataType.UNKNOWN
    assert ex.Literal(None).evaluate(Table.from_dict({"a": [1]})).dtype is DataType.FLOAT64


def _columns(table: Table) -> dict:
    return {name: table.column(name).to_list() for name in table.column_names}


@pytest.mark.parametrize("checkpoint", (True, False), ids=("checkpoint", "replay"))
def test_set_null_survives_merge_checkpoint_and_reopen(tmp_path, checkpoint):
    settings.configure(delta_rows=1000)
    with Database(path=tmp_path) as db:
        db.create_table("t", {"x": [1, 2, 3], "s": ["a", "b", "c"], "b": [True, False, True]})
        db.execute("INSERT INTO t VALUES (4, 'd', FALSE)")  # pending: a delta row
        assert db.execute("UPDATE t SET s = NULL, b = NULL WHERE x >= 2") == 3
        db.execute("PRAGMA delta_rows=0")  # merge
        assert db.delta_store_if_dirty("t") is None
        if checkpoint:
            db.checkpoint()
        want = {"x": [1, 2, 3, 4], "s": ["a", None, None, None], "b": [True, None, None, None]}
        assert _columns(db.get_table("t")) == want
        schema = db.get_table("t").schema
    with Database(path=tmp_path) as reopened:
        assert _columns(reopened.get_table("t")) == want
        assert reopened.get_table("t").schema == schema


# -- satellites: aggregate arguments and logical operands are typed at bind --------------


@pytest.mark.parametrize(
    "sql, function",
    [
        ("SELECT SUM(s) AS q FROM t", "SUM"),
        ("SELECT AVG(s) AS q FROM t", "AVG"),
        ("SELECT s, COUNT(*) AS n FROM t GROUP BY s HAVING SUM(s) > 1", "SUM"),
        ("SELECT SUM(s) AS q FROM t WHERE x > 100", "SUM"),  # no row to reach the kernel
    ],
)
def test_sum_and_avg_reject_strings(db, sql, function):
    with pytest.raises(TypeMismatchError, match=f"{function} requires a numeric argument"):
        db.sql(sql)


def test_min_max_count_take_every_type(db):
    got = db.sql(
        "SELECT MIN(s) AS a, MAX(b) AS c, COUNT(s) AS d, MIN(b) AS e, COUNT(DISTINCT b) AS f FROM t"
    )
    assert list(got.rows()) == [("a", True, 2, False, 2)]
    assert _types(got) == (
        DataType.STRING, DataType.BOOL, DataType.INT64, DataType.BOOL, DataType.INT64
    )


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT x FROM t WHERE NOT x",
        "SELECT x FROM t WHERE x",
        "SELECT x FROM t WHERE x AND b",
        "SELECT x FROM t WHERE b OR s",
        "SELECT CASE WHEN x THEN 1 ELSE 0 END AS c FROM t",
        "SELECT s, COUNT(*) AS n FROM t GROUP BY s HAVING COUNT(*)",
        "DELETE FROM t WHERE NOT x",
    ],
)
def test_logical_operands_must_be_boolean(db, sql):
    with pytest.raises(TypeMismatchError, match="predicate must be boolean, got"):
        db.execute(sql)


# -- a type error raises before any scan ------------------------------------------------

#: test_scan_routes' and test_join_routes' mistyped queries and the three
#: optimizer error tests', phrased over the lattice's ``t`` and ``d``
MISTYPED = (
    "SELECT k FROM t WHERE s > 5 AND k > 100000",
    "SELECT COUNT(*) AS n FROM t WHERE s > 5 AND k > 100000",
    "SELECT d.tag, t.k FROM d JOIN t ON d.k = t.k WHERE t.s > 5 AND t.k > 100000",
    "SELECT s FROM t WHERE s < 3 AND 1 = 2",
    "SELECT s FROM t WHERE FALSE AND s < 3",
    "SELECT COUNT(*) AS c FROM t WHERE k > 100000 AND s < 3",
)


def spy_truth_mask(monkeypatch) -> list:
    """Count ``expressions.truth_mask`` calls through every module that
    imported it by name."""
    calls = []
    original = ex.truth_mask

    def spy(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(module, "truth_mask", None) is original:
            monkeypatch.setattr(module, "truth_mask", spy)
    return calls


@pytest.mark.parametrize("storage,state,threads,shard_count", LATTICE)
def test_type_errors_raise_before_any_scan(
    checkpoints, tmp_path, monkeypatch, storage, state, threads, shard_count  # noqa: F811
):
    db = _open(checkpoints, tmp_path, storage, state, threads, shard_count)
    try:
        _add_dimension(db)
        calls = spy_truth_mask(monkeypatch)
        assert db.sql("SELECT k FROM t WHERE k >= 990").num_rows > 0 and calls  # the spy sees scans
        for optimizer in (True, False):
            settings.configure(optimizer=optimizer)
            for sql in MISTYPED:
                calls.clear()
                with pytest.raises(TypeMismatchError):
                    db.sql(sql)
                assert not calls, sql
    finally:
        db.close()


# -- property: a query's schema is the schema of its empty answer -------------------------

ROUTES = {
    "serial": dict(threads=0, shards=0),
    "threads": dict(threads=2, shards=0),
    "shards": dict(threads=0, shards=2),
}


def _route_db(table: Table, route: dict) -> Database:
    database = Database()
    database.create_table("t", table)
    if route["shards"]:
        database.apply_sharding("t", route["shards"], shard_by="range(id)")
    return database


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("seed", range(12))
def test_schema_does_not_depend_on_the_rows(route, seed):
    spec = ROUTES[route]
    settings.configure(threads=spec["threads"], zone_rows=16)
    rng = np.random.default_rng(seed)
    table, _ = random_table(rng, n=int(rng.integers(20, 80)))
    full, empty = _route_db(table, spec), _route_db(table.slice(0, 0), spec)
    for _ in range(12):
        sql = random_query(rng)
        assert full.sql(sql).schema == empty.sql(sql).schema, sql

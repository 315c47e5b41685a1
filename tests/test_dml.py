"""DML and write-path tests (delta store, tombstones, incremental merge).

Covers the PR 7 surface: constant-expression INSERT values (the old
"must be literals" bug), typed coercion across every dtype pair (the
silent 4.5→4 / 123→'123' bugs), multi-row and partial-column inserts,
tombstone deletes, vectorised updates, catalog-version / plan-cache
semantics of append vs merge, dictionary-code and zone-map maintenance
across merges, index feeding through the engine's write path, and a
randomised DML corpus replayed against a rebuild-from-scratch oracle —
bit-identical under threads and fault injection, at merge-per-write and
delta-heavy thresholds.
"""

from __future__ import annotations

import math
import tempfile

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import settings as hypothesis_settings
from hypothesis import strategies as st

from repro import settings
from repro.engine import Database, Table, parallel
from repro.engine.column import Column
from repro.engine.expressions import Arithmetic, Literal
from repro.engine.sql import TokenType, tokenize
from repro.engine.sql.parser import parse_statement
from repro.engine.types import DataType
from repro.errors import CatalogError, ReproError, TypeMismatchError
from repro.indexing import CrackerIndex
from repro.indexing.updates import UpdatableCrackerIndex
from repro.obs.metrics import MetricsRegistry, get_registry, set_registry
from tests.conftest import pin_defaults
from tests.test_parallel import tables_bit_identical
from tests.test_sql_differential import random_query, random_table


@pytest.fixture(autouse=True)
def _reset_write_path():
    """Pin a deterministic write-path/accel config."""
    pin_defaults("delta_rows", "zone_rows")


def _db(**tables) -> Database:
    db = Database()
    for name, data in tables.items():
        db.create_table(name, data)
    return db


# -- INSERT accepts constant expressions (regression) ---------------------------------


class TestInsertConstantExpressions:
    @pytest.mark.parametrize(
        "value_sql, expected",
        [
            ("-2", -2),
            ("(1+1)", 2),
            ("2 * 3 + 1", 7),
            ("-(2 + 3)", -5),
            ("NULL", None),
        ],
    )
    def test_int_expressions(self, value_sql, expected):
        db = _db(t={"x": [1]})
        assert db.execute(f"INSERT INTO t (x) VALUES ({value_sql})") == 1
        assert db.get_table("t").column("x").to_list() == [1, expected]

    @pytest.mark.parametrize(
        "value_sql, expected",
        [("-1.5", -1.5), ("(0.5 + 0.25)", 0.75), ("-0.0", 0.0)],
    )
    def test_float_expressions(self, value_sql, expected):
        db = _db(t={"y": [1.0]})
        db.execute(f"INSERT INTO t (y) VALUES ({value_sql})")
        assert expected in db.get_table("t").column("y").to_list()

    def test_column_reference_rejected(self):
        db = _db(t={"x": [1]})
        with pytest.raises(CatalogError, match="constant"):
            db.execute("INSERT INTO t (x) VALUES (x + 1)")


# -- typed coercion (regression: silent truncation / stringification) -----------------


class TestInsertCoercion:
    def test_fractional_float_into_int_raises(self):
        db = _db(t={"x": [1]})
        with pytest.raises(TypeMismatchError):
            db.execute("INSERT INTO t (x) VALUES (4.5)")
        assert db.get_table("t").column("x").to_list() == [1]

    def test_integral_float_into_int_ok(self):
        db = _db(t={"x": [1]})
        db.execute("INSERT INTO t (x) VALUES (4.0)")
        assert db.get_table("t").column("x").to_list() == [1, 4]
        assert db.get_table("t").column("x").dtype is DataType.INT64

    def test_int_into_float_widens(self):
        db = _db(t={"y": [1.5]})
        db.execute("INSERT INTO t (y) VALUES (3)")
        assert db.get_table("t").column("y").to_list() == [1.5, 3.0]
        assert db.get_table("t").column("y").dtype is DataType.FLOAT64

    def test_number_into_string_raises(self):
        db = _db(u={"s": ["a"]})
        with pytest.raises(TypeMismatchError):
            db.execute("INSERT INTO u (s) VALUES (123)")
        assert db.get_table("u").column("s").to_list() == ["a"]

    def test_string_into_numeric_raises(self):
        db = _db(t={"x": [1], "y": [1.0]})
        with pytest.raises(TypeMismatchError):
            db.execute("INSERT INTO t (x, y) VALUES ('7', 1.0)")
        with pytest.raises(TypeMismatchError):
            db.execute("INSERT INTO t (x, y) VALUES (7, '1.0')")

    def test_bool_column_accepts_only_bools(self):
        db = _db(t={"f": [True]})
        db.execute("INSERT INTO t (f) VALUES (FALSE)")
        assert db.get_table("t").column("f").to_list() == [True, False]
        with pytest.raises(TypeMismatchError):
            db.execute("INSERT INTO t (f) VALUES (1)")

    def test_bool_into_int_raises(self):
        db = _db(t={"x": [1]})
        with pytest.raises(TypeMismatchError):
            db.execute("INSERT INTO t (x) VALUES (TRUE)")

    def test_null_accepted_everywhere(self):
        db = _db(t={"x": [1], "y": [1.0], "s": ["a"], "f": [True]})
        db.execute("INSERT INTO t (x, y, s, f) VALUES (NULL, NULL, NULL, NULL)")
        assert db.get_table("t").row(1) == (None, None, None, None)


class TestUpdateCoercion:
    def test_fractional_float_into_int_raises(self):
        db = _db(t={"x": [1, 2]})
        with pytest.raises(TypeMismatchError):
            db.execute("UPDATE t SET x = 2.5")
        assert db.get_table("t").column("x").to_list() == [1, 2]

    def test_int_into_float_widens(self):
        db = _db(t={"y": [1.5, 2.5]})
        db.execute("UPDATE t SET y = 7 WHERE y > 2")
        assert db.get_table("t").column("y").to_list() == [1.5, 7.0]

    def test_cross_kind_raises(self):
        db = _db(t={"x": [1], "s": ["a"]})
        with pytest.raises(TypeMismatchError):
            db.execute("UPDATE t SET s = 5")
        with pytest.raises(TypeMismatchError):
            db.execute("UPDATE t SET x = 'seven'")

    def test_update_preserves_column_and_row_order(self):
        db = _db(t={"a": [1, 2, 3], "b": [10.0, 20.0, 30.0], "c": ["x", "y", "z"]})
        db.execute("UPDATE t SET b = b + 1 WHERE a >= 2")
        table = db.get_table("t")
        assert table.column_names == ("a", "b", "c")
        assert table.column("b").to_list() == [10.0, 21.0, 31.0]


# -- multi-row / partial-column / NULL-fill inserts -----------------------------------


class TestInsertShapes:
    def test_multi_row_values(self):
        db = _db(t={"x": [0], "s": ["z"]})
        assert db.execute(
            "INSERT INTO t (x, s) VALUES (1, 'a'), (2, 'b'), (3, NULL)"
        ) == 3
        assert db.sql("SELECT COUNT(*) AS n FROM t").to_dicts() == [{"n": 4}]
        assert db.get_table("t").column("s").to_list() == ["z", "a", "b", None]

    def test_partial_columns_fill_nulls(self):
        db = _db(t={"x": [1], "y": [1.0], "s": ["a"]})
        db.execute("INSERT INTO t (s) VALUES ('b')")
        assert db.get_table("t").row(1) == (None, None, "b")

    def test_width_mismatch_and_unknown_column(self):
        db = _db(t={"x": [1], "y": [2.0]})
        with pytest.raises(CatalogError, match="width"):
            db.execute("INSERT INTO t (x, y) VALUES (1)")
        with pytest.raises(CatalogError, match="unknown column"):
            db.execute("INSERT INTO t (x, z) VALUES (1, 2)")

    def test_insert_into_empty_created_table(self):
        db = Database()
        db.execute("CREATE TABLE t (x INT, s TEXT)")
        db.execute("INSERT INTO t VALUES (5, 'five'), (6, 'six')")
        assert db.get_table("t").to_dicts() == [
            {"x": 5, "s": "five"},
            {"x": 6, "s": "six"},
        ]


# -- delta-store mechanics ------------------------------------------------------------


class TestDeltaMechanics:
    def test_append_stays_pending_below_threshold(self):
        db = _db(t={"x": [1, 2, 3]})
        db.execute("PRAGMA delta_rows=10")
        main = db.main_table("t")
        db.execute("INSERT INTO t (x) VALUES (4), (5)")
        assert db.main_table("t") is main  # the columnar main did not move
        store = db.delta_store_if_dirty("t")
        assert store is not None and store.pending_inserts == 2
        assert db.sql("SELECT SUM(x) AS s FROM t").to_dicts() == [{"s": 15}]

    def test_threshold_triggers_merge(self):
        db = _db(t={"x": [1, 2, 3]})
        db.execute("PRAGMA delta_rows=3")
        db.execute("INSERT INTO t (x) VALUES (4), (5)")
        assert db.delta_store_if_dirty("t") is not None
        db.execute("INSERT INTO t (x) VALUES (6)")  # pressure reaches 3
        assert db.delta_store_if_dirty("t") is None
        assert db.main_table("t").column("x").to_list() == [1, 2, 3, 4, 5, 6]

    def test_pragma_zero_merges_immediately(self):
        db = _db(t={"x": [1]})
        db.execute("PRAGMA delta_rows=1000")
        db.execute("INSERT INTO t (x) VALUES (2)")
        assert db.delta_store_if_dirty("t") is not None
        db.execute("PRAGMA delta_rows=0")  # lowering the threshold flushes
        assert db.delta_store_if_dirty("t") is None
        read = db.execute("PRAGMA delta_rows")
        assert isinstance(read, Table) and read.column("value").to_list() == [0]

    def test_delete_marks_tombstones_without_copying(self):
        db = _db(t={"x": list(range(10))})
        db.execute("PRAGMA delta_rows=100")
        main = db.main_table("t")
        assert db.execute("DELETE FROM t WHERE x >= 7") == 3
        assert db.main_table("t") is main  # no filtered copy was built
        store = db.delta_store_if_dirty("t")
        assert store is not None and store.main_tombstones == 3
        assert db.sql("SELECT COUNT(*) AS n FROM t").to_dicts() == [{"n": 7}]
        # deleting already-dead rows affects nothing
        assert db.execute("DELETE FROM t WHERE x >= 7") == 0

    def test_delete_pending_delta_rows(self):
        db = _db(t={"x": [1, 2]})
        db.execute("PRAGMA delta_rows=100")
        db.execute("INSERT INTO t (x) VALUES (10), (11)")
        assert db.execute("DELETE FROM t WHERE x = 10") == 1
        assert db.sql("SELECT x FROM t ORDER BY x").column("x").to_list() == [1, 2, 11]
        db.flush_deltas("t")
        assert db.main_table("t").column("x").to_list() == [1, 2, 11]

    def test_delete_all_resets(self):
        db = _db(t={"x": [1, 2, 3]})
        db.execute("PRAGMA delta_rows=100")
        db.execute("INSERT INTO t (x) VALUES (4)")
        assert db.execute("DELETE FROM t") == 4
        assert db.get_table("t").num_rows == 0
        assert db.delta_store_if_dirty("t") is None

    def test_update_applies_to_pending_rows(self):
        db = _db(t={"x": [1, 2], "s": ["a", "b"]})
        db.execute("PRAGMA delta_rows=100")
        db.execute("INSERT INTO t (x, s) VALUES (3, 'c')")
        db.execute("UPDATE t SET x = x * 10 WHERE x >= 2")
        assert db.sql("SELECT x FROM t ORDER BY x").column("x").to_list() == [
            1, 20, 30,
        ]

    def test_catalog_version_append_vs_structural(self):
        db = _db(t={"x": [1, 2, 3]})
        db.execute("PRAGMA delta_rows=100")
        sql = "SELECT COUNT(*) AS n FROM t WHERE x > 0"
        cached = db.plan(sql)
        version = db.catalog_version
        db.execute("INSERT INTO t (x) VALUES (4)")     # append: no bump
        db.execute("DELETE FROM t WHERE x = 1")        # tombstone: no bump
        db.flush_deltas("t")                           # pure data change: no bump
        assert db.catalog_version == version
        assert db.plan(sql) is cached                  # plan cache survived it all
        assert db.sql(sql).to_dicts() == [{"n": 3}]
        db.replace_table("t", Table.from_dict({"x": [9]}))  # structural
        assert db.catalog_version > version
        assert db.plan(sql) is not cached

    def test_statistics_absorb_pending_writes(self):
        db = _db(t={"x": [1, 2, 3]})
        db.execute("PRAGMA delta_rows=100")
        assert db.statistics("t").row_count == 3
        db.execute("INSERT INTO t (x) VALUES (10), (NULL)")
        stats = db.statistics("t")
        assert stats.row_count == 5
        assert stats.column("x").max_value == 10
        assert stats.column("x").null_count == 1
        db.execute("DELETE FROM t WHERE x = 2")
        assert db.statistics("t").row_count == 4
        db.flush_deltas("t")
        exact = db.statistics("t")
        assert exact.row_count == 4 and exact.column("x").max_value == 10

    def test_zone_map_extended_across_merge(self):
        settings.configure(zone_rows=8)
        n = 64
        db = _db(t={"x": list(range(n))})
        db.execute("PRAGMA delta_rows=1000")
        before = db.zone_map("t")
        assert before.row_count == n
        db.execute("INSERT INTO t (x) VALUES " + ", ".join(
            f"({v})" for v in range(n, n + 20)
        ))
        db.flush_deltas("t")
        after = db.zone_map("t")
        assert after.row_count == n + 20
        # complete old zones were spliced through unchanged
        zones = after.column("x")
        assert zones is not None
        assert int(zones.mins[0]) == 0 and int(zones.maxs[0]) == 7
        assert int(zones.maxs[-1]) == n + 19
        assert db.sql(
            "SELECT COUNT(*) AS n FROM t WHERE x >= 60 AND x < 70"
        ).to_dicts() == [{"n": 10}]

    def test_zone_map_of_an_empty_table_extends_to_every_column(self):
        """A map with no zone to splice in is replaced by one over the
        merged rows: the empty table's map summarised no column."""
        settings.configure(zone_rows=8)
        db = _db(t=Table([("x", Column(np.array([], dtype=np.int64)))]))
        db.execute("PRAGMA delta_rows=1000")
        assert db.zone_map("t").columns == {}
        db.execute("INSERT INTO t (x) VALUES " + ", ".join(f"({v})" for v in range(20)))
        db.flush_deltas("t")
        zones = db.zone_map("t").column("x")
        assert zones is not None and int(zones.maxs[-1]) == 19

    def test_merge_metrics_and_span(self):
        fresh = MetricsRegistry()
        old = set_registry(fresh)
        try:
            db = _db(t={"x": [1]})
            db.execute("PRAGMA delta_rows=100")
            db.execute("INSERT INTO t (x) VALUES (2), (3)")
            db.flush_deltas("t")
            assert fresh.counter("write.inserts").value == 1
            assert fresh.counter("write.insert_rows").value == 2
            assert fresh.counter("write.merges").value == 1
            assert fresh.counter("write.merge_rows").value == 2
        finally:
            set_registry(old)


# -- dictionary-encoded STRING columns across DML -------------------------------------


class TestDictEncodedDML:
    def test_insert_maintains_codes_across_merge(self):
        db = _db(t={"s": ["b", "a", "b"], "x": [1, 2, 3]})
        assert db.main_table("t").column("s").dictionary() is not None
        db.execute("PRAGMA delta_rows=100")
        db.execute("INSERT INTO t (s, x) VALUES ('c', 4), ('a', 5), (NULL, 6)")
        # pre-merge: scans union the delta tail
        assert db.sql("SELECT COUNT(*) AS n FROM t WHERE s = 'a'").to_dicts() == [
            {"n": 2}
        ]
        db.flush_deltas("t")
        column = db.main_table("t").column("s")
        pair = column.dictionary()
        assert pair is not None  # the merge maintained codes incrementally
        codes, dictionary = pair
        assert list(dictionary) == ["a", "b", "c"]
        assert column.to_list() == ["b", "a", "b", "c", "a", None]
        assert codes[-1] == -1  # null slot
        assert db.sql("SELECT COUNT(*) AS n FROM t WHERE s = 'a'").to_dicts() == [
            {"n": 2}
        ]

    def test_merge_reuses_dictionary_when_no_new_values(self):
        db = _db(t={"s": ["a", "b"]})
        db.execute("PRAGMA delta_rows=100")
        db.execute("INSERT INTO t (s) VALUES ('a')")
        db.flush_deltas("t")
        pair = db.main_table("t").column("s").dictionary()
        assert pair is not None and list(pair[1]) == ["a", "b"]

    def test_delete_and_update_on_encoded_column(self):
        db = _db(t={"s": ["a", "b", "c", "a"], "x": [1, 2, 3, 4]})
        db.execute("PRAGMA delta_rows=100")
        db.execute("DELETE FROM t WHERE s = 'b'")
        assert db.sql("SELECT s FROM t ORDER BY x").column("s").to_list() == [
            "a", "c", "a",
        ]
        db.execute("UPDATE t SET s = 'z' WHERE x >= 3")
        assert db.sql("SELECT s FROM t ORDER BY x").column("s").to_list() == [
            "a", "z", "z",
        ]
        db.flush_deltas("t")
        # post-compaction the column is re-encoded by the catalog's policy
        assert db.sql("SELECT COUNT(*) AS n FROM t WHERE s = 'z'").to_dicts() == [
            {"n": 2}
        ]


# -- index maintenance through the write path -----------------------------------------


class TestIndexWritePath:
    def test_updatable_index_absorbs_engine_inserts(self):
        db = _db(t={"x": [3.0, 1.0, 2.0, 5.0]})
        db.execute("PRAGMA delta_rows=100")
        db.register_index("t", "x", UpdatableCrackerIndex(np.array([3.0, 1.0, 2.0, 5.0])))
        db.execute("INSERT INTO t (x) VALUES (4.0), (0.5)")
        assert db.index_for("t", "x") is not None  # stayed registered
        sql = "SELECT x FROM t WHERE x > 2.0"
        # the index picks main rows only; the pending tail is scanned whole
        report = db.explain_analyze(sql).render()
        assert "index: x in (2.0, +inf): 2 of 4 rows" in report
        assert db.sql(sql).column("x").to_list() == [3.0, 5.0, 4.0]

    def test_updatable_index_sees_engine_deletes(self):
        db = _db(t={"x": [1.0, 2.0, 3.0, 4.0]})
        db.execute("PRAGMA delta_rows=100")
        db.register_index("t", "x", UpdatableCrackerIndex(np.array([1.0, 2.0, 3.0, 4.0])))
        db.execute("DELETE FROM t WHERE x = 3.0")
        got = sorted(db.sql("SELECT x FROM t WHERE x >= 2.0").column("x").to_list())
        assert got == [2.0, 4.0]

    def test_plain_index_dropped_on_insert(self):
        db = _db(t={"x": [1.0, 2.0, 3.0]})
        db.execute("PRAGMA delta_rows=100")
        db.register_index("t", "x", CrackerIndex(np.array([1.0, 2.0, 3.0])))
        db.execute("INSERT INTO t (x) VALUES (4.0)")
        assert db.index_for("t", "x") is None  # cannot absorb inserts
        got = sorted(db.sql("SELECT x FROM t WHERE x > 1.5").column("x").to_list())
        assert got == [2.0, 3.0, 4.0]

    def test_register_index_flushes_pending_delta(self):
        db = _db(t={"x": [2.0, 1.0]})
        db.execute("PRAGMA delta_rows=100")
        db.execute("INSERT INTO t (x) VALUES (3.0)")
        assert db.delta_store_if_dirty("t") is not None
        values = np.asarray(db.get_table("t").column("x").data, dtype=float)
        db.register_index("t", "x", CrackerIndex(values))
        assert db.delta_store_if_dirty("t") is None  # merged before registration
        got = sorted(db.sql("SELECT x FROM t WHERE x >= 2.0").column("x").to_list())
        assert got == [2.0, 3.0]

    def test_update_drops_index_on_assigned_column_only(self):
        db = _db(t={"x": [1.0, 2.0], "y": [5.0, 6.0]})
        db.register_index("t", "x", CrackerIndex(np.array([1.0, 2.0])))
        db.register_index("t", "y", CrackerIndex(np.array([5.0, 6.0])))
        db.execute("UPDATE t SET x = x + 1")
        assert db.index_for("t", "x") is None
        assert db.index_for("t", "y") is not None
        assert sorted(db.sql("SELECT x FROM t WHERE x > 0").column("x").to_list()) == [
            2.0, 3.0,
        ]


# -- a DML WHERE is a scan ---------------------------------------------------------------


class TestDMLSelectsThroughTheScan:
    """UPDATE and DELETE select their rows as a query scan does: zones are
    classified once, the WHERE is evaluated over MAYBE zones and the
    pending tail only, and SET over the rows the WHERE matched."""

    @staticmethod
    def _spy(monkeypatch) -> tuple[list[int], list[int]]:
        """Row counts of every WHERE (``truth_mask`` in the span kernel)
        and every SET (``Arithmetic.evaluate``) evaluation."""
        where_rows, set_rows = [], []
        truth_mask, evaluate = parallel.truth_mask, Arithmetic.evaluate

        def spied_mask(predicate, table):
            where_rows.append(table.num_rows)
            return truth_mask(predicate, table)

        def spied_evaluate(self, table):
            set_rows.append(table.num_rows)
            return evaluate(self, table)

        monkeypatch.setattr(parallel, "truth_mask", spied_mask)
        monkeypatch.setattr(Arithmetic, "evaluate", spied_evaluate)
        return where_rows, set_rows

    def test_where_and_set_read_only_the_rows_they_need(self, monkeypatch):
        settings.configure(zone_rows=64, delta_rows=1_000_000, shards=0)
        n = 8 * 64
        db = _db(t={"id": list(range(n)), "f": [float(i) for i in range(n)]})
        db.execute(  # pending rows with ids inside the range, one of them deleted
            "INSERT INTO t VALUES " + ", ".join(f"({110 + i}, {1000.0 + i})" for i in range(10))
        )
        db.execute("DELETE FROM t WHERE f = 1003.0")
        db.execute("DELETE FROM t WHERE id = 105")  # a tombstone in the matched zone
        where = "WHERE id >= 100 AND id < 120"
        rows = [(i, float(i)) for i in range(n) if i != 105]
        rows += [(110 + i, 1000.0 + i) for i in range(10) if i != 3]
        pruned = get_registry().counter("scan.zones_pruned")
        where_rows, set_rows = self._spy(monkeypatch)

        before = pruned.value
        assert db.execute(f"UPDATE t SET f = f + 0.5 {where}") == 19 + 9
        assert pruned.value - before == 7  # of 8 zones, one MAYBE zone is left
        assert sorted(where_rows) == [10, 64]  # that zone and the tail, dead rows included
        assert set_rows == [19, 9]  # the live matched main rows, then the tail's
        got = db.sql("SELECT id, f FROM t ORDER BY id, f").to_dicts()
        assert [(row["id"], row["f"]) for row in got] == sorted(
            (i, f + 0.5 if 100 <= i < 120 else f) for i, f in rows
        )

        where_rows.clear()
        before = pruned.value
        assert db.execute(f"DELETE FROM t {where}") == 19 + 9
        assert pruned.value - before == 7
        assert sorted(where_rows) == [10, 64]
        remaining = db.sql("SELECT id FROM t ORDER BY id").column("id").to_list()
        assert remaining == [i for i in range(n) if not 100 <= i < 120]

    def test_set_is_not_evaluated_over_unmatched_rows(self):
        # d is NULL on the row the WHERE rules out: SET is not evaluated there
        db = _db(t={"f": [1.2345, 2.3456, 3.4567], "d": [None, 2, 2]})
        assert db.execute("UPDATE t SET f = ROUND(f, d) WHERE d = 2") == 2
        assert db.sql("SELECT f FROM t").column("f").to_list() == [1.2345, 2.35, 3.46]

    def test_an_index_picked_selection_maps_back_to_main_positions(self):
        x = [5.0, 1.0, 4.0, 2.0, 3.0]
        db = _db(t={"x": x, "y": [0, 0, 0, 0, 0]})
        db.register_index("t", "x", CrackerIndex(np.array(x)))
        assert db.execute("UPDATE t SET y = 1 WHERE x >= 2.0 AND x < 4.5") == 3
        assert db.sql("SELECT y FROM t").column("y").to_list() == [0, 0, 1, 1, 1]
        assert db.execute("DELETE FROM t WHERE x >= 4.0") == 2
        assert db.sql("SELECT x, y FROM t").to_dicts() == [
            {"x": 1.0, "y": 0}, {"x": 2.0, "y": 1}, {"x": 3.0, "y": 1},
        ]


# -- rebuild-oracle corpus: bit identity under threads + faults -----------------------


def _python_matches(row: dict, column: str, op: str, value) -> bool:
    current = row[column]
    if current is None:
        return False
    if op == "=":
        return current == value
    if op == "<":
        return current < value
    return current >= value  # ">="


def _apply_dml(db: Database, rows: list[dict], op: tuple) -> None:
    """Run one DML op on the engine and mirror it on plain Python rows."""
    kind = op[0]
    if kind == "insert":
        values = op[1]  # list of (id, a, b, s) tuples
        parts = []
        for row in values:
            rendered = []
            for v in row:
                if v is None:
                    rendered.append("NULL")
                elif isinstance(v, str):
                    rendered.append(f"'{v}'")
                else:
                    rendered.append(repr(v))
            parts.append("(" + ", ".join(rendered) + ")")
        db.execute(f"INSERT INTO t (id, a, b, s) VALUES {', '.join(parts)}")
        rows.extend(
            {"id": r[0], "a": r[1], "b": r[2], "s": r[3]} for r in values
        )
    elif kind == "delete":
        _, column, cmp_op, value = op
        literal = f"'{value}'" if isinstance(value, str) else repr(value)
        db.execute(f"DELETE FROM t WHERE {column} {cmp_op} {literal}")
        rows[:] = [r for r in rows if not _python_matches(r, column, cmp_op, value)]
    else:  # update: SET a = a + k WHERE <col> <op> <val>
        _, k, column, cmp_op, value = op
        literal = f"'{value}'" if isinstance(value, str) else repr(value)
        db.execute(f"UPDATE t SET a = a + {k} WHERE {column} {cmp_op} {literal}")
        for row in rows:
            if _python_matches(row, column, cmp_op, value) and row["a"] is not None:
                row["a"] = row["a"] + k


def _random_dml(rng: np.random.Generator, next_id: int) -> tuple[tuple, int]:
    kind = rng.random()
    columns = [("id", int(rng.integers(0, next_id + 5))), ("a", int(rng.integers(-20, 20)))]
    column, value = columns[int(rng.integers(0, len(columns)))]
    cmp_op = str(rng.choice(["=", "<", ">="]))
    if kind < 0.5:
        count = int(rng.integers(1, 4))
        values = []
        for _ in range(count):
            values.append(
                (
                    next_id,
                    int(rng.integers(-20, 20)) if rng.random() > 0.15 else None,
                    round(float(rng.uniform(-5, 5)), 3) if rng.random() > 0.15 else None,
                    str(rng.choice(["ash", "birch", "cedar", "oak"]))
                    if rng.random() > 0.15
                    else None,
                )
            )
            next_id += 1
        return ("insert", values), next_id
    if kind < 0.75:
        return ("delete", column, cmp_op, value), next_id
    return ("update", int(rng.integers(-3, 4)), column, cmp_op, value), next_id


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("delta_rows", [1, 1_000_000])
def test_dml_corpus_matches_rebuild_oracle(seed: int, delta_rows: int) -> None:
    """Replay a random DML script through the delta-store write path —
    accelerators on, worker pool with worker-crash injection — checking
    after every step against a database rebuilt from scratch off a plain
    Python mirror of the rows.  ``delta_rows=1`` merges on every write;
    the large threshold keeps everything pending in the delta."""
    rng = np.random.default_rng(4000 + seed)
    table, rows = random_table(rng, n=int(rng.integers(10, 40)))
    queries = [random_query(rng) for _ in range(6)]
    script = []
    next_id = len(rows)
    for _ in range(8):
        op, next_id = _random_dml(rng, next_id)
        script.append(op)

    under_test = dict(zone_rows=8, threads=4, faults="worker_crash:0.1", fault_seed=seed)
    settings.configure(delta_rows=delta_rows, **under_test)
    db = Database()
    db.create_table("t", table)
    for step, op in enumerate(script):
        _apply_dml(db, rows, op)
        if step % 2 and step != len(script) - 1:
            continue  # query every other step and at the end
        for sql in queries:
            got = db.sql(sql)
            settings.configure(threads=0, faults="off", zone_rows=0)
            try:
                # a fresh database per query: a plan-cache miss every time
                expected = _rebuild_oracle(rows).sql(sql)
            finally:
                settings.configure(**under_test)
            try:
                tables_bit_identical(got, expected)
            except AssertionError as exc:
                raise AssertionError(
                    f"write path diverged after step {step} ({op[0]}) on: {sql}"
                ) from exc


def _rebuild_oracle(rows: list[dict]) -> Database:
    """A fresh database holding exactly ``rows`` — never touched by DML.

    Column types are pinned to the corpus schema: inference would turn a
    column whose surviving values are all NULL into FLOAT64.
    """
    types = {
        "id": DataType.INT64, "a": DataType.INT64,
        "b": DataType.FLOAT64, "s": DataType.STRING,
    }
    oracle = Database()
    oracle.create_table(
        "t",
        Table(
            {
                name: Column([r[name] for r in rows], dtype=dtype)
                for name, dtype in types.items()
            }
        ),
    )
    return oracle


# -- VALUES batches: typed literals against create_table --------------------------------

_VALUES_TYPES = {
    "i": DataType.INT64, "f": DataType.FLOAT64, "s": DataType.STRING, "b": DataType.BOOL,
}
_SEED_ROWS = {"i": [1, None], "f": [0.5, None], "s": ["a", None], "b": [True, None]}


def _number_sql(value: int | float) -> str:
    """A number as VALUES text; a negative one is unary minus, so it takes
    the expression grammar rather than the plain-literal lookahead."""
    text = repr(abs(value))
    return "-" + text if math.copysign(1, value) < 0 else text


def _string_sql(value: str) -> str:
    return "'" + value.replace("'", "''") + "'"


_NULL_CELL = st.just(("NULL", None))
_VALUE_CELLS = {
    "i": st.one_of(
        _NULL_CELL,
        st.integers(-(2**63) + 1, 2**63 - 1).map(lambda v: (_number_sql(v), v)),
        # integral floats into INT64, up to where every integer is a float
        st.integers(-(2**53), 2**53).map(lambda v: (_number_sql(float(v)), v)),
        st.integers(-99, 99).map(lambda v: (f"{v} + 1", v + 1)),
    ),
    "f": st.one_of(
        _NULL_CELL,
        st.floats(allow_nan=False, allow_infinity=False).map(lambda v: (_number_sql(v), v)),
        st.integers(-(2**63) + 1, 2**63 - 1).map(lambda v: (_number_sql(v), float(v))),
        st.integers(-99, 99).map(lambda v: (f"{v} * 0.5", v * 0.5)),
    ),
    "s": st.one_of(
        _NULL_CELL,
        st.text(st.characters(exclude_categories=("Cs",)), max_size=6).map(
            lambda v: (_string_sql(v), v)
        ),
        st.text("a'b -", max_size=6).map(lambda v: (_string_sql(v), v)),
        st.just(("CASE WHEN 1 < 2 THEN 'lo' ELSE 'hi' END", "lo")),
    ),
    "b": st.one_of(
        _NULL_CELL,
        st.sampled_from([("TRUE", True), ("FALSE", False), ("1 < 2", True), ("NOT TRUE", False)]),
    ),
}
_VALUE_ROWS = st.lists(st.fixed_dictionaries(_VALUE_CELLS), min_size=1, max_size=12)
#: a column list for the INSERT: None (all, positionally) or a permutation of a subset
_COLUMN_LISTS = st.none() | st.permutations(list(_VALUES_TYPES)).flatmap(
    lambda names: st.integers(1, len(names)).map(lambda k: names[:k])
)
_PLAIN_ROW = {"i": ("1", 1), "f": ("1.0", 1.0), "s": ("'a'", "a"), "b": ("TRUE", True)}


def _values_sql(rows: list[dict], names: list[str] | None) -> str:
    listed = f" ({', '.join(names)})" if names else ""
    tuples = ", ".join(
        "(" + ", ".join(row[name][0] for name in names or _VALUES_TYPES) + ")" for row in rows
    )
    return f"INSERT INTO t{listed} VALUES {tuples}"


def _values_table(rows: list[dict], names: list[str] | None) -> Table:
    """What ``create_table`` builds from the seed rows plus ``rows``."""
    return Table([
        (name, Column(
            _SEED_ROWS[name]
            + [row[name][1] if name in (names or _VALUES_TYPES) else None for row in rows],
            dtype=dtype,
        ))
        for name, dtype in _VALUES_TYPES.items()
    ])


def _seeded(path: str | None = None) -> Database:
    db = Database(path=path)
    db.create_table("t", _values_table([], None))
    return db


@pytest.mark.parametrize("delta_rows", [1, 1_000_000])
@hypothesis_settings(max_examples=60, deadline=None)
@given(rows=_VALUE_ROWS, names=_COLUMN_LISTS)
@example(rows=[dict.fromkeys(_VALUES_TYPES, ("NULL", None))], names=None)
@example(
    rows=[_PLAIN_ROW, {"i": ("2", 2), "f": ("3", 3.0), "s": ("'y'", "y"), "b": ("FALSE", False)}],
    names=None,
)
@example(
    rows=[{"i": ("9007199254740993", 2**53 + 1), "f": ("9007199254740993", 2.0**53),
           "s": ("'it''s'", "it's"), "b": ("NULL", None)}],
    names=None,
)
@example(
    rows=[{"i": ("4.0", 4), "f": ("-0.0", -0.0), "s": ("''''", "'"), "b": ("FALSE", False)}],
    names=["i", "f", "s"],
)
@example(
    rows=[{"i": ("-1", -1), "f": ("1 * 0.5", 0.5), "s": ("''", ""), "b": ("TRUE", True)},
          {"i": ("1 + 1", 2), "f": ("-1.5", -1.5), "s": ("'--'", "--"), "b": ("1 < 2", True)}],
    names=["b", "i", "f", "s"],
)
def test_values_batch_equals_create_table(delta_rows, rows, names):
    """A VALUES batch — plain literals through the lookahead, ``-1`` or
    ``1 + 1`` through the grammar, any column list — leaves the table that
    ``create_table`` builds from the same values, pending and merged."""
    settings.configure(delta_rows=delta_rows)
    db = _seeded()
    assert db.execute(_values_sql(rows, names)) == len(rows)
    want = _values_table(rows, names)
    tables_bit_identical(db.get_table("t"), want)
    tables_bit_identical(db.sql("SELECT * FROM t"), want)
    db.flush_deltas()
    tables_bit_identical(db.get_table("t"), want)


_FRACTIONAL = ("i", "2.5", TypeMismatchError,
               "cannot store 2.5 in INT64 column 'i' without losing precision")
_INTO_STRING = ("s", "7", TypeMismatchError, "cannot assign INT64 values to STRING column 's'")
_WIDTH = "width"
_UNKNOWN = "unknown"


def _expected_rejection(cells: list[list[str]], defects: list[tuple[int, object]]):
    """``(error type, message)`` a batch with these defects raises: an
    unknown column before anything, else the first defect in row order —
    a row's width before its items, its items left to right."""
    if any(kind == _UNKNOWN for _, kind in defects):
        return CatalogError, "unknown column(s) in INSERT: ['z']"
    ranked = []
    for row, kind in defects:
        if kind == _WIDTH:
            ranked.append((row, -1, CatalogError,
                           f"INSERT row width {len(cells[row])} does not match 4 columns"))
        elif len(cells[row]) == 4:  # a short row is rejected by its width alone
            column, _, error, message = kind
            ranked.append((row, list(_VALUES_TYPES).index(column), error, message))
    return min(ranked, key=lambda entry: entry[:2])[2:]


@hypothesis_settings(max_examples=60, deadline=None)
@given(
    rows=_VALUE_ROWS,
    defects=st.lists(
        st.tuples(st.integers(0, 11), st.sampled_from([_FRACTIONAL, _INTO_STRING, _WIDTH])),
        min_size=1, max_size=3,
    ) | st.just([(0, _UNKNOWN)]),
)
@example(rows=[_PLAIN_ROW], defects=[(0, _FRACTIONAL)])
@example(rows=[_PLAIN_ROW], defects=[(0, _INTO_STRING)])
@example(rows=[_PLAIN_ROW] * 2, defects=[(1, _FRACTIONAL), (0, _WIDTH)])
@example(rows=[_PLAIN_ROW] * 2, defects=[(1, _INTO_STRING), (1, _FRACTIONAL)])
@example(rows=[_PLAIN_ROW], defects=[(0, _UNKNOWN)])
def test_rejected_values_batch_changes_nothing(rows, defects):
    """A batch with defects — a fractional value into INT64, a number into
    STRING, a short row, an unknown column — raises the first defect's
    error and message, appends nothing and logs nothing."""
    settings.configure(delta_rows=1_000_000)
    names = list(_VALUES_TYPES)
    cells = [[row[name][0] for name in names] for row in rows]
    defects = [(row % len(rows), kind) for row, kind in defects]
    for row, kind in defects:
        if kind == _WIDTH:
            cells[row] = cells[row][:3]
        elif kind == _UNKNOWN:
            names[0] = "z"
        elif len(cells[row]) == 4:
            column, text, _, _ = kind
            cells[row][names.index(column)] = text
    error, message = _expected_rejection(cells, defects)
    sql = f"INSERT INTO t ({', '.join(names)}) VALUES " + ", ".join(
        "(" + ", ".join(row) + ")" for row in cells
    )
    with tempfile.TemporaryDirectory() as path:
        db = _seeded(path)
        db.execute("INSERT INTO t VALUES (2, 1.5, 'b', FALSE)")  # a pending row
        before, logged = db.get_table("t"), db.durability.wal.records_logged
        with pytest.raises(error) as raised:
            db.execute(sql)
        assert str(raised.value) == message
        assert db.durability.wal.records_logged == logged
        assert db.delta_store_if_dirty("t").pending_inserts == 1
        tables_bit_identical(db.get_table("t"), before)
        db.close()


# -- the VALUES reader equals the token path ------------------------------------------

_NULL_WORDS = st.sampled_from(["NULL", "null", "Null", "nUlL"])
_BOOL_WORDS = st.sampled_from(["TRUE", "True", "tRuE", "FALSE", "false", "FaLsE"])
#: unsigned numbers: ints past 2**53 and 2**63, and every float shape
_NUMBER_TEXT = st.one_of(
    st.integers(0, 2**65).map(str),
    st.from_regex(
        r"\A(?:[0-9]{1,3}\.[0-9]{0,3}|\.[0-9]{1,3}|[0-9]{1,3})(?:[eE][+-]?[0-9]{1,2})?\Z"
    ),
)
_STRING_TEXT = st.text(
    st.characters(exclude_categories=("Cs",)) | st.sampled_from(list("',)-\x00٣é")),
    max_size=6,
).map(_string_sql)
_PLAIN_CELLS = {
    "i": st.one_of(_NULL_WORDS, _NUMBER_TEXT),
    "f": st.one_of(_NULL_WORDS, _NUMBER_TEXT),
    "s": st.one_of(_NULL_WORDS, _STRING_TEXT),
    "b": st.one_of(_NULL_WORDS, _BOOL_WORDS),
}
_SPACES = st.sampled_from(["", " ", "\t", "\n", " \t\n "])
_TAILS = st.sampled_from(["", ";", " ;\n", ";;", ",", ", ;"])


def _reader_outcome(sql: str):
    """``(statement, None)`` or ``(None, (error type, message))``."""
    try:
        return parse_statement(sql), None
    except ReproError as exc:
        return None, (type(exc), str(exc))


def _typed_rows(statement) -> list[list[tuple[type, str]]]:
    """``(type, repr)`` of every VALUES value; a Literal stands for its value."""
    return [
        [(type(v), repr(v)) for v in (
            item.value if isinstance(item, Literal) else item for item in row
        )]
        for row in statement.rows
    ]


@hypothesis_settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(st.fixed_dictionaries(_PLAIN_CELLS), min_size=1, max_size=6),
    names=_COLUMN_LISTS,
    space=_SPACES,
    tail=_TAILS,
    short=st.booleans(),
)
@example(  # ints past 2**53 and 2**63 (the last is too big for INT64)
    rows=[{"i": "9007199254740993", "f": "18446744073709551617", "s": "'a'", "b": "TRUE"},
          {"i": "9223372036854775808", "f": "1", "s": "NULL", "b": "FALSE"}],
    names=None, space=" ", tail="", short=False,
)
@example(  # every float shape, integral ones into INT64
    rows=[{"i": "1e-0", "f": "1.", "s": "'x'", "b": "NULL"},
          {"i": "1E+3", "f": ".5", "s": "'y'", "b": "NULL"}],
    names=None, space="", tail="", short=False,
)
@example(  # quotes, separators, a comment opener, NUL, non-ASCII, a Unicode digit
    rows=[{"i": "1", "f": "2", "s": "'it''s, (x) -- y'", "b": "TRUE"},
          {"i": "2", "f": "3", "s": "'\x00é٣'", "b": "FALSE"}],
    names=None, space=" ", tail="", short=False,
)
@example(  # mixed-case words, tabs and newlines, a trailing ;
    rows=[{"i": "nUlL", "f": "null", "s": "Null", "b": "tRuE"}],
    names=None, space="\t\n", tail=";", short=False,
)
@example(rows=[{"i": "1", "f": "2", "s": "'a'", "b": "TRUE"}], names=None, space=" ",
         tail=";;", short=False)
@example(rows=[{"i": "1", "f": "2", "s": "'a'", "b": "TRUE"}], names=None, space=" ",
         tail=",", short=False)
@example(  # a column list and a short row
    rows=[{"i": "1", "f": "2", "s": "'a'", "b": "TRUE"}] * 2,
    names=["s", "i"], space=" ", tail="", short=True,
)
def test_values_reader_equals_token_path(rows, names, space, tail, short):
    """A plain VALUES list read in one step (``TokenType.ROWS``) gives what
    the token path gives for the same text with a ``-- x`` comment after
    VALUES (which no plain list holds): the same rows by value and Python
    type, the same table pending and merged, or the same error with no
    WAL record.  The comment replaces six spaces, so error positions line
    up too."""
    settings.configure(delta_rows=1_000_000)
    columns = names or list(_VALUES_TYPES)
    cells = [[row[name] for name in columns] for row in rows]
    if short:
        cells[-1] = cells[-1][:-1]
    separator = f"{space},{space}"
    listed = f" ({', '.join(names)})" if names else ""
    body = separator.join(f"({space}{separator.join(row)}{space})" for row in cells) + tail
    read = f"INSERT INTO t{listed} VALUES      {body}"
    forced = f"INSERT INTO t{listed} VALUES -- x\n{body}"
    assert len(read) == len(forced)
    assert TokenType.ROWS not in {token.type for token in tokenize(forced)}
    plain = bool(cells[-1]) and tail.strip() in ("", ";")
    assert (tokenize(read)[-2].type is TokenType.ROWS) == plain

    (statement, error), (forced_statement, forced_error) = map(_reader_outcome, (read, forced))
    assert error == forced_error
    if error is None:
        assert all(type(item) is Literal for row in forced_statement.rows for item in row)
        assert _typed_rows(statement) == _typed_rows(forced_statement)

    outcomes = []
    with tempfile.TemporaryDirectory() as path_a, tempfile.TemporaryDirectory() as path_b:
        for path, sql in ((path_a, read), (path_b, forced)):
            db = _seeded(path)
            logged = db.durability.wal.records_logged
            try:
                db.execute(sql)
                failure = None
            except ReproError as exc:
                failure = type(exc), str(exc)
                assert db.durability.wal.records_logged == logged
                assert db.delta_store_if_dirty("t") is None
            outcomes.append((db, failure))
        (db_read, failure), (db_forced, forced_failure) = outcomes
        assert failure == forced_failure
        tables_bit_identical(db_read.get_table("t"), db_forced.get_table("t"))
        db_read.flush_deltas()
        db_forced.flush_deltas()
        tables_bit_identical(db_read.get_table("t"), db_forced.get_table("t"))
        db_read.close()
        db_forced.close()


# -- integer literals outside INT64 --------------------------------------------------


@pytest.mark.parametrize("sql", [
    "SELECT -9223372036854775808 AS x FROM t",
    "SELECT i FROM t WHERE i > -9223372036854775808",
    "UPDATE t SET i = -9223372036854775808",
    "INSERT INTO t VALUES (-9223372036854775808, 1.0, 'x', TRUE)",
])
def test_int_literal_outside_int64_raises_type_mismatch(sql):
    """``-9223372036854775808`` negates a literal one past INT64's top, so
    it is a type error that names the value, not a bare OverflowError,
    wherever it is evaluated; the table is left as it was."""
    db = _seeded()
    before = db.get_table("t")
    with pytest.raises(TypeMismatchError, match="9223372036854775808"):
        db.execute(sql)
    tables_bit_identical(db.get_table("t"), before)


def test_int_literal_past_int64_into_float64_is_stored():
    db = _seeded()
    assert db.execute("INSERT INTO t (f) VALUES (9223372036854775808)") == 1
    assert db.get_table("t").column("f").to_list()[-1] == 9.223372036854776e18

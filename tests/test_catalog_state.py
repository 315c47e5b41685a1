"""The install matrix: what survives each way a table's main is replaced.

One durable table carrying every structure the catalog attaches — its
zone maps, caller-registered indexes on ``a``
and on the shard key ``k`` (a sharded table's index follows the same
rule as any other), a range layout, a cached plan, (for the delta
column) two pending rows — is put through every writer, and each writer
x structure cell asserts kept / dropped / rebuilt exactly as the rule
table in ``Database._install``'s docstring (and DESIGN.md, "Catalog
state") says, so the table is held to the code.
What the zone-map rows promise — every zone map the catalog keeps
equals a rebuild from scratch after any write sequence, and a write
re-summarises only the zones it touched — is a property test below,
beside what ``Database.statistics`` promises: every column entry equals
a build over the table as queries see it, writes pending or not.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import settings as hypothesis_settings
from hypothesis import strategies as st

from repro import settings
from repro.engine import Database, DataType, Table
from repro.engine import statistics
from repro.engine.column import Column
from repro.engine.executor import execute_plan
from repro.engine.sql.parser import parse
from repro.engine.statistics import ColumnStatistics, ZoneMap
from repro.errors import CatalogError, TypeMismatchError
from repro.indexing import UpdatableCrackerIndex
from repro.obs.metrics import get_registry
from tests.conftest import pin_defaults

ROWS = 1000
ZONE_ROWS = 64
PLAN_SQL = "SELECT COUNT(*) AS n FROM t WHERE b > 5"
PENDING = f"INSERT INTO t VALUES ({ROWS}, 0.5, 1, 'x'), ({ROWS + 1}, 1.5, 2, 'y')"


@pytest.fixture(autouse=True)
def _pinned():
    settings.configure(
        zone_rows=ZONE_ROWS, storage="memory", shards=0, threads=0,
        wal=True, faults="off",
    )
    pin_defaults("delta_rows", "memory_budget_kb")


def _table(rows: int = ROWS) -> Table:
    return Table.from_dict(
        {
            "k": list(range(rows)),  # monotone: range-sharding it moves no row
            "a": [float((i * 7) % rows) for i in range(rows)],
            "b": [i % 10 for i in range(rows)],
            "s": ["abcde"[i % 5] for i in range(rows)],
        }
    )


def _attached(root, pending: bool) -> Database:
    db = Database(path=root)
    db.create_table("t", _table())
    values = np.asarray(db.main_table("t").column("a").data)
    db.register_index("t", "a", UpdatableCrackerIndex(values))
    db.apply_sharding("t", 2, shard_by="range(k)")
    keys = np.asarray(db.main_table("t").column("k").data)
    db.register_index("t", "k", UpdatableCrackerIndex(keys))
    db.statistics("t")
    db.zone_map("t")
    db.checkpoint()  # storage=memory: persists what is cached, adopts nothing
    if pending:
        db.execute(PENDING)
    db.plan(PLAN_SQL)
    return db


def _zone_maps(db: Database, name: str) -> dict[int, ZoneMap]:
    """The table's zone maps by granularity, as the catalog holds them."""
    return db._state(name).zones


def _snapshot(db: Database, name: str) -> dict:
    zone_maps = _zone_maps(db, name)
    store = db.delta_store_if_dirty(name)
    layout = db.shard_layout(name)
    return {
        # column statistics are no catalog state: the "stats" row is the
        # table's zone maps, the "zones" row the one scans read here
        "stats": zone_maps,
        "zones": zone_maps.get(ZONE_ROWS),
        "index_a": db.index_for(name, "a"),
        "cracker_k": db.index_for(name, "k"),
        "layout": layout and (layout.mode, layout.key, layout.num_shards),
        "store": store,
        "store_version": None if store is None else store.version,
        "pending": 0 if store is None else store.pending_inserts,
        "catalog": db.catalog_version,
        "version": db.table_version(name),
    }


def _summary(new, old) -> str:
    """``none`` / ``kept`` (the same object) / ``extended`` (another object
    over more rows) / ``patched`` (another object over the same rows that
    shares at least one entry object with the old one) / ``restored``
    (another object over the same rows).  A table's zone maps by
    granularity summarise as the map at ``ZONE_ROWS``."""
    if not new:
        return "none"
    if new is old:
        return "kept"
    if isinstance(new, dict):
        assert new.keys() == old.keys()
        return _summary(new[ZONE_ROWS], old[ZONE_ROWS])
    if new.row_count > old.row_count:
        return "extended"
    shared = any(old.columns.get(name) is entry for name, entry in new.columns.items())
    return "patched" if shared else "restored"


def _index(new, old) -> str:
    if new is None:
        return "dropped"
    return "kept" if new is old else "rebuilt"


def _outcomes(db: Database, name: str, before: dict, plan) -> dict:
    now = _snapshot(db, name)
    # summarised before the scans below build a missing zone map in place
    zone_maps = {key: _summary(now[key], before[key]) for key in ("stats", "zones")}
    if now["store"] is None:
        delta = "clean"
    elif now["store"] is not before["store"]:
        delta = f"replayed {now['pending']}"
    else:
        delta = "kept" if now["store_version"] == before["store_version"] else "touched"
    if now["layout"] is None:
        layout = "none"
    else:
        layout = "kept" if now["layout"] == before["layout"] else "changed"
    # the invariant no cell shows: surviving indexes still hold main positions
    table = db.get_table(name)
    for column, low, high in (("a", 10, 200), ("k", 100, 600)):
        if column in table.schema:
            data = np.asarray(table.column(column).data)
            got = db.sql(
                f"SELECT {column} FROM {name} WHERE {column} >= {low} AND {column} < {high}"
            )
            want = data[(data >= low) & (data < high)]
            assert sorted(got.column(column).to_list()) == sorted(want.tolist())
    # a kept plan answers as a fresh one: nothing a writer changed is in it
    cached = db.plan(PLAN_SQL)
    answer = execute_plan(cached, db).to_dicts()
    assert execute_plan(db._plan_fresh(parse(PLAN_SQL), True), db).to_dicts() == answer
    return {
        **zone_maps,
        "index_a": _index(now["index_a"], before["index_a"]),
        "cracker_k": _index(now["cracker_k"], before["cracker_k"]),
        "layout": layout,
        "delta": delta,
        "plan": "kept" if cached is plan else "replanned",
        "catalog": "same" if now["catalog"] == before["catalog"] else "moved",
        "version": "same" if now["version"] == before["version"] else "moved",
    }


# -- the writers ----------------------------------------------------------------------
# each takes the attached database and returns (database, table name) to observe


def _sql(*statements):
    def writer(db):
        for statement in statements:
            db.execute(statement)
        return db, "t"

    return writer


def _merge(*statements):
    def writer(db):
        _sql(*statements)(db)
        db.flush_deltas("t")
        return db, "t"

    return writer


def _reshard(num_shards, shard_by=None):
    def writer(db):
        db.apply_sharding("t", num_shards, shard_by=shard_by)
        return db, "t"

    return writer


def _create(db):
    db.create_table("u", _table(100))
    return db, "u"


def _replace(db):
    db.replace_table("t", _table(500))
    return db, "t"


def _adopt(db):
    db.execute("PRAGMA storage=mmap")
    db.checkpoint()
    assert db.main_table("t").is_mapped
    return db, "t"


def _reopen(db):
    root = db.durability.root
    db.close()
    return Database(path=root), "t"


NEW = dict(stats="none", zones="none", index_a="dropped", cracker_k="dropped",
           layout="none", delta="clean", plan="replanned", catalog="moved", version="moved")
# an index picks rows at run time: no change to the index set replans
MOVED = dict(stats="none", zones="none", index_a="dropped", cracker_k="dropped",
             layout="kept", delta="clean", plan="kept", catalog="same", version="moved")
CHANGED = dict(stats="patched", zones="patched", index_a="kept", cracker_k="kept",
               layout="kept", delta="touched", plan="kept", catalog="same", version="moved")
SAME = dict(stats="kept", zones="kept", index_a="kept", cracker_k="kept",
            layout="kept", delta="kept", plan="kept", catalog="same", version="same")

#: writer -> (what it does, the row of _install's table it lands on, its own deviations)
MATRIX = {
    "create": (_create, NEW, {}),
    "replace_table": (_replace, NEW, {}),
    "delete_all": (_sql("DELETE FROM t"), NEW, {}),
    "update_indexed": (
        _sql("UPDATE t SET a = a + 1 WHERE k < 10"), CHANGED, dict(index_a="dropped"),
    ),
    "update_unindexed": (_sql("UPDATE t SET b = b + 1 WHERE k < 10"), CHANGED, {}),
    "update_shard_key": (
        _sql("UPDATE t SET k = k + 0 WHERE k < 10"), CHANGED, dict(cracker_k="dropped"),
    ),
    "update_no_row": (_sql("UPDATE t SET b = 0 WHERE k < 0"), SAME, {}),
    # not an install at all: the delta grew and the index set shrank
    "insert_unindexable": (
        _sql(f"INSERT INTO t VALUES ({ROWS + 5}, NULL, 3, 'z')"), SAME,
        dict(index_a="dropped", delta="touched"),
    ),
    "merge_append": (
        _merge(f"INSERT INTO t VALUES ({ROWS + 5}, 2.5, 3, 'z')"), SAME,
        dict(stats="extended", zones="extended", delta="clean", version="moved"),
    ),
    "merge_compacting": (_merge("DELETE FROM t WHERE k = 5"), MOVED, {}),
    "merge_reclustering": (_merge("INSERT INTO t VALUES (-1, 2.5, 3, 'z')"), MOVED, {}),
    # 2 -> 4 range shards of a monotone key: no row moves, the layout changes;
    # a layout schedules a scan's tasks at run time, so no re-shard replans
    "reshard_identity": (_reshard(4, "range(k)"), SAME, dict(layout="changed", delta="clean")),
    "reshard_moving": (_reshard(2, "hash(b)"), MOVED, dict(layout="changed")),
    "unshard": (_reshard(0), SAME, dict(layout="none")),
    "adopt_mmap": (_adopt, SAME, dict(delta="clean")),
    # recovered: new contents with the checkpoint's statistics and layout;
    # the WAL replays the pending rows; versions of another Database object
    # do not compare
    "reopen": (
        _reopen, NEW,
        dict(stats="restored", zones="restored", layout="kept",
             delta="replayed 2", plan=None, catalog=None, version=None),
    ),
}
#: one test per cell that has an expectation
CELLS = [
    (writer, structure)
    for writer, (_, row, own) in MATRIX.items()
    for structure, outcome in {**row, **own}.items()
    if outcome is not None
]


@pytest.mark.parametrize("writer,structure", CELLS)
def test_install_matrix(tmp_path, writer, structure):
    write, row, own = MATRIX[writer]
    # only the delta cell starts with rows pending: a re-shard merges them
    # first and a checkpoint flushes them, which would blur the other cells
    db = _attached(tmp_path / "db", pending=structure == "delta")
    try:
        before = _snapshot(db, "t")
        assert before["stats"] and before["zones"] is not None
        assert isinstance(before["index_a"], UpdatableCrackerIndex)
        assert isinstance(before["cracker_k"], UpdatableCrackerIndex)
        plan = db.plan(PLAN_SQL)
        db, name = write(db)
        got = _outcomes(db, name, before, plan)
    finally:
        db.close()
    assert got[structure] == {**row, **own}[structure], got


def test_live_adoption_matches_reopen(tmp_path):
    """A session that goes out of core and one that reopens the same
    directory plan, answer and read alike.  Registered indexes are the
    session's own and never persist, so the live one drops its index on
    ``k`` to compare like with like."""
    sql = "SELECT COUNT(*) AS n FROM t WHERE k < 500"

    def observe(db):
        counter = get_registry().counter("io.bytes_read")
        before = counter.value
        explain = db.execute(f"EXPLAIN {sql}").column("plan").to_list()
        return explain, db.sql(sql).to_dicts(), counter.value - before

    db = _attached(tmp_path / "db", pending=False)
    db.unregister_index("t", "k")
    db, _ = _adopt(db)
    try:
        live = observe(db)
        db, _ = _reopen(db)  # storage is still mmap
        assert observe(db) == live
        assert live[1] == [{"n": 500}] and live[2] > 0
    finally:
        db.close()


def test_update_matching_no_row_logs_and_installs_nothing(tmp_path):
    db = _attached(tmp_path / "db", pending=False)
    try:
        logged, main = db.durability.wal.records_logged, db.main_table("t")
        assert db.execute("UPDATE t SET b = 0 WHERE k < 0") == 0
        assert db.durability.wal.records_logged == logged
        assert db.main_table("t") is main
        with pytest.raises(TypeMismatchError):  # assignments are still checked
            db.execute("UPDATE t SET b = 'x' WHERE k < 0")
    finally:
        db.close()


# -- zone maps and statistics after writes equal a rebuild ----------------------------

BIG = 2**60  # INT64 keys no float64 can tell apart
STATS_ROWS = 200
READ_SQL = "SELECT COUNT(*) AS n, SUM(n) AS total FROM t WHERE f > 0"
_STATISTICS_FIELDS = (
    "dtype", "row_count", "null_count", "distinct_count", "min_value", "max_value",
)


def _stats_table(rows: int = STATS_ROWS) -> Table:
    """NULLs in every column, NaN and both zeros in ``f``, both zeros but
    no NaN in ``g``, INT64 keys past 2**53, a dictionary-encoded STRING
    and a BOOL."""
    f = [float(((i * 37) % 23) - 11) / 4 for i in range(rows)]
    for i in range(rows):
        if i % 17 == 0:
            f[i] = math.nan
        elif i % 13 == 0:
            f[i] = -0.0
    return Table([
        ("k", Column(np.arange(rows, dtype=np.int64) + BIG)),
        ("f", Column([None if i % 19 == 0 else v for i, v in enumerate(f)],
                     dtype=DataType.FLOAT64)),
        ("g", Column([None if i % 23 == 0 else -0.0 if i % 29 == 0 else (i * 0.37) % 5
                      for i in range(rows)], dtype=DataType.FLOAT64)),
        ("n", Column([None if i % 7 == 0 else (i * 5) % 9 - 4 for i in range(rows)],
                     dtype=DataType.INT64)),
        ("s", Column([None if i % 5 == 0 else "abcd"[i % 4] for i in range(rows)],
                     dtype=DataType.STRING)),
        ("b", Column([None if i % 11 == 0 else i % 3 == 0 for i in range(rows)],
                     dtype=DataType.BOOL)),
    ])


def _same_value(got, want) -> bool:
    return got == want or (got != got and want != want)  # NaN is NaN


def _assert_statistics_equal_rebuild(db: Database, name: str = "t") -> None:
    """Every column entry ``Database.statistics`` gives equals one built
    from the table as queries see it, pending writes included."""
    table, stats = db.get_table(name), db.statistics(name)
    assert stats.row_count == table.num_rows
    for column in table.column_names:
        actual = stats.column(column)
        expected = ColumnStatistics.from_column(table.column(column))
        for field in _STATISTICS_FIELDS:
            assert _same_value(getattr(actual, field), getattr(expected, field)), (
                column, field,
            )


def _assert_zones_equal_rebuild(db: Database, name: str = "t") -> None:
    main, zone_maps = db.main_table(name), _zone_maps(db, name)
    assert zone_maps, "the read consulted no zone map"
    for zone_rows, zones in zone_maps.items():
        fresh = ZoneMap.from_table(main, zone_rows)
        assert zones.row_count == fresh.row_count
        assert zones.columns.keys() == fresh.columns.keys()
        for column, expected in fresh.columns.items():
            for field in ("mins", "maxs", "real_counts", "null_counts", "nan_counts"):
                assert np.array_equal(
                    getattr(zones.columns[column], field), getattr(expected, field)
                ), (zone_rows, column, field)


def _read(db: Database) -> None:
    """The scan reads (or builds) its zone map and leaves the column
    statistics as they were; every entry ``Database.statistics`` gives
    then equals a rebuild, writes pending or not."""
    stats = db.statistics("t")
    columns = dict(stats.columns)
    db.sql(READ_SQL)
    assert db.statistics("t") is stats and stats.columns == columns, (
        "the scan touched the column statistics"
    )
    _assert_zones_equal_rebuild(db)
    _assert_statistics_equal_rebuild(db)


_KEY_RANGE = st.tuples(st.integers(0, STATS_ROWS), st.integers(1, 12))
_ASSIGNMENTS = {
    "k": ["k + 0"],
    "f": ["f * -1", "f + 1.5", "NULL", "-0.0"],
    "g": ["g * -1", "g + 0.5", "NULL"],
    "n": ["n + 1", "NULL", "7"],
    "s": ["'zz'", "'a'", "NULL"],
    "b": ["NOT b", "TRUE", "NULL"],
}
_ASSIGNMENT = st.sampled_from(
    [(column, expr) for column, exprs in _ASSIGNMENTS.items() for expr in exprs]
)
_VALUE_ROW = st.tuples(
    st.sampled_from(["0.25", "-0.0", "0.0", "NULL", "3.5"]),
    st.sampled_from(["-0.0", "NULL", "9.25"]),
    st.sampled_from(["-2", "NULL", "4"]),
    st.sampled_from(["'b'", "'new'", "NULL"]),
    st.sampled_from(["TRUE", "FALSE", "NULL"]),
)
_OPS = st.one_of(
    st.tuples(st.just("update"), st.lists(_ASSIGNMENT, min_size=1, max_size=2,
                                          unique_by=lambda a: a[0]), _KEY_RANGE),
    st.tuples(st.just("insert"), st.lists(_VALUE_ROW, min_size=1, max_size=3)),
    st.tuples(st.just("delete"), _KEY_RANGE),
    st.tuples(st.just("merge")),
    st.tuples(st.just("checkpoint")),
    st.tuples(st.just("reopen")),
    st.tuples(st.just("read")),
)


def _where(key_range) -> str:
    lo, width = key_range
    return f"k >= {BIG + lo} AND k < {BIG + lo + width}"


def _hit_zones(db: Database, key_range) -> int:
    """How many zones of the main hold a live row ``_where(key_range)`` selects."""
    lo, width = key_range
    keys = np.asarray(db.main_table("t").column("k").data)
    hit = (keys >= BIG + lo) & (keys < BIG + lo + width)
    live = db._state("t").delta.live_main_mask()
    if live is not None:
        hit &= live
    return len(np.unique(np.flatnonzero(hit) // ZONE_ROWS))


@contextlib.contextmanager
def _zone_kernel_calls():
    """A list that gains the ``(start, stop)`` rows of every
    ``statistics.summarise_zone`` call while the block runs."""
    calls = []
    kernel = statistics.summarise_zone

    def spy(data, validity, start, stop):
        calls.append((start, stop))
        return kernel(data, validity, start, stop)

    statistics.summarise_zone = spy
    try:
        yield calls
    finally:
        statistics.summarise_zone = kernel


@hypothesis_settings(max_examples=40, deadline=None)
@given(st.lists(_OPS, min_size=1, max_size=12))
# an UPDATE of pending rows only, then a read
@example([("insert", [("0.25", "NULL", "4", "'new'", "TRUE")]),
          ("update", [("f", "f + 1.5"), ("n", "n + 1")], (STATS_ROWS, 1)), ("read",)])
# an UPDATE straddling the boundary of zones 0 and 1, then checkpoint and reopen
@example([("update", [("f", "f * -1"), ("n", "NULL"), ("s", "'zz'")], (60, 12)),
          ("checkpoint",), ("reopen",), ("read",)])
def test_statistics_equal_a_rebuild_after_any_write_sequence(ops):
    next_key = STATS_ROWS
    with tempfile.TemporaryDirectory() as root:
        db = Database(path=root)
        try:
            db.create_table("t", _stats_table())
            db.sql(READ_SQL)
            for op in ops:
                kind = op[0]
                if kind == "update":
                    sets = ", ".join(f"{column} = {expr}" for column, expr in op[1])
                    numeric = [column for column, _ in op[1] if column in "kfgn"]
                    kept = _zone_maps(db, "t").keys() == {ZONE_ROWS}  # the scan builds none
                    zones = _hit_zones(db, op[2])
                    with _zone_kernel_calls() as calls:
                        db.execute(f"UPDATE t SET {sets} WHERE {_where(op[2])}")
                    if kept:  # one kernel call per zone hit, per assigned numeric column
                        assert len(calls) == zones * len(numeric), (calls, zones, numeric)
                elif kind == "insert":
                    rows = []
                    for values in op[1]:
                        rows.append(f"({BIG + next_key}, {', '.join(values)})")
                        next_key += 1
                    db.execute("INSERT INTO t VALUES " + ", ".join(rows))
                elif kind == "delete":
                    db.execute(f"DELETE FROM t WHERE {_where(op[1])}")
                elif kind == "merge":
                    db.flush_deltas("t")
                elif kind == "checkpoint":
                    db.checkpoint()
                elif kind == "reopen":
                    db.close()
                    db = Database(path=root)
                else:
                    _read(db)
            _read(db)
        finally:
            db.close()


def test_update_drops_only_the_assigned_entries():
    """An UPDATE re-summarises the assigned numeric columns in the zones
    it hit, one kernel call per zone, and shares every other summary; the
    column statistics go with the delta version it touched."""
    db = Database()
    db.create_table("t", _stats_table())
    db.sql(READ_SQL)
    stats = db.statistics("t")
    stats.column("k")
    before = _zone_maps(db, "t")[ZONE_ROWS]
    with _zone_kernel_calls() as calls:  # rows 50..89: zones 0 and 1 of four
        db.execute(f"UPDATE t SET f = f * -1, s = 'zz' WHERE {_where((50, 40))}")
    patched = _zone_maps(db, "t")[ZONE_ROWS]
    assert patched is not before and patched.row_count == before.row_count
    assert calls == [(0, 64), (64, 128)]  # f's two zones; STRING and BOOL have no zones
    assert set(patched.columns) == {"k", "f", "g", "n"}
    for name in ("k", "g", "n"):
        assert patched.columns[name] is before.columns[name]
    for field in ("mins", "maxs", "real_counts", "null_counts", "nan_counts"):
        old, new = getattr(before.columns["f"], field), getattr(patched.columns["f"], field)
        assert np.array_equal(new[2:], old[2:]), field
    _assert_zones_equal_rebuild(db)
    fresh = db.statistics("t")
    assert fresh is not stats and fresh.columns == {}
    with _zone_kernel_calls() as calls:
        db.sql(READ_SQL)
    assert calls == [] and _zone_maps(db, "t")[ZONE_ROWS] is patched
    _read(db)


def _manifest_stats(root) -> dict:
    """The ``stats`` entry the current checkpoint's manifest holds for ``t``."""
    directory = root / (root / "CURRENT").read_text().strip()
    manifest = json.loads((directory / "MANIFEST.json").read_text())
    (meta,) = (meta for meta in manifest["tables"] if meta["name"] == "t")
    return meta["stats"]


def test_checkpoint_between_update_and_read_persists_partial_statistics(tmp_path):
    """A checkpoint after an UPDATE persists whole zone maps — the UPDATE
    re-summarised what it hit — and no column statistics; the reopened
    map equals a rebuild before any scan."""
    db = Database(path=tmp_path / "db")
    try:
        db.create_table("t", _stats_table())
        db.sql(READ_SQL)
        db.statistics("t").column("f")
        db.execute(f"UPDATE t SET f = f + 1.5 WHERE {_where((0, 80))}")
        db.checkpoint()
        db.close()
        written = _manifest_stats(tmp_path / "db")
        assert "columns" not in written
        assert written["zone_maps"][str(ZONE_ROWS)]["columns"] == ["k", "f", "g", "n"]
        db = Database(path=tmp_path / "db")
        _assert_zones_equal_rebuild(db)
        assert db.statistics("t").columns == {}
        _read(db)
    finally:
        db.close()


def _spy_on_column_statistics(monkeypatch) -> list:
    """A list that gains one entry per ``ColumnStatistics.from_column``
    call while the test runs."""
    built = []
    build = ColumnStatistics.from_column.__func__

    def spy(cls, column):
        built.append(column)
        return build(cls, column)

    monkeypatch.setattr(ColumnStatistics, "from_column", classmethod(spy))
    return built


def test_a_scan_builds_no_column_statistics(tmp_path, monkeypatch):
    """Whatever a write did, a scan builds only zones and taking
    ``Database.statistics`` builds nothing; reading a column builds its
    entry once."""
    built = _spy_on_column_statistics(monkeypatch)
    everything = _stats_table().column_names

    def scan_then_statistics(db):
        built.clear()
        db.sql(READ_SQL)
        assert built == [], "the scan built column statistics"
        stats = db.statistics("t")
        assert built == [] and stats.columns == {}, "taking the statistics built entries"
        for _ in range(2):
            for name in everything:
                db.statistics("t").column(name)
            assert len(built) == len(everything)
        _assert_statistics_equal_rebuild(db)

    db = Database(path=tmp_path / "db")
    try:
        db.create_table("t", _stats_table())
        scan_then_statistics(db)
        db.execute(f"UPDATE t SET f = f * -1, s = 'zz' WHERE {_where((10, 40))}")
        scan_then_statistics(db)
        db.execute(f"INSERT INTO t VALUES ({BIG + STATS_ROWS}, 0.5, 1.5, 2, 'b', TRUE)")
        scan_then_statistics(db)  # pending
        db.flush_deltas("t")  # a pure append
        scan_then_statistics(db)
        db.execute(f"DELETE FROM t WHERE {_where((0, 5))}")
        db.flush_deltas("t")  # compacts
        scan_then_statistics(db)
        db.execute(f"UPDATE t SET n = 7 WHERE {_where((20, 5))}")
        db.checkpoint()
        db.close()
        db = Database(path=tmp_path / "db")
        scan_then_statistics(db)
    finally:
        db.close()


_JOIN_SQL = "EXPLAIN SELECT COUNT(*) AS n FROM f JOIN u ON a = x JOIN v ON c = y"


def _join_tables(db: Database) -> None:
    db.create_table("f", {"a": [i % 100 for i in range(400)], "c": [i % 50 for i in range(400)],
                          "note": [f"f{i % 7}" for i in range(400)]})
    db.create_table("u", {"x": list(range(100)), "w": [i * 0.5 for i in range(100)]})
    db.create_table("v", {"y": [i % 50 for i in range(100)], "z": ["vz"] * 100})


def test_join_plan_reads_completed_statistics():
    """Join reordering reads distinct counts: after an UPDATE collapses
    ``u.x`` the plan reorders, and it is the plan a rebuild gives."""
    settings.configure(optimizer=True)
    db = Database()
    _join_tables(db)
    before = db.execute(_JOIN_SQL).column("plan").to_list()
    assert not any("join_reorder" in line for line in before)
    db.execute("UPDATE u SET x = 0 WHERE x >= 20")
    completed = db.execute(_JOIN_SQL).column("plan").to_list()
    assert any("join_reorder" in line for line in completed)
    rebuilt = Database()
    for name in ("f", "u", "v"):
        rebuilt.create_table(name, db.get_table(name))
    assert rebuilt.execute(_JOIN_SQL).column("plan").to_list() == completed


def test_join_reorder_builds_only_the_join_key_entries(monkeypatch):
    """Planning a two-join global COUNT(*) builds the statistics of the
    two join keys it ranks by and of no other column; planning it again
    builds none, and neither does a scan."""
    settings.configure(optimizer=True)
    db = Database()
    _join_tables(db)
    built = _spy_on_column_statistics(monkeypatch)
    db.execute(_JOIN_SQL)
    assert len(built) == 2
    assert set(db.statistics("u").columns) == {"x"}
    assert set(db.statistics("v").columns) == {"y"}
    assert db.statistics("f").columns == {}
    db.execute(_JOIN_SQL)
    db.sql("SELECT COUNT(*) AS n FROM u WHERE w > 10")
    assert len(built) == 2


@pytest.mark.parametrize("durable", [False, True], ids=["memory", "durable"])
def test_close_drops_every_table_state(tmp_path, durable):
    """A closed database, in memory or durable, pins no main, tail, zone
    map or plan, and reading a table of it raises."""
    pin_defaults("delta_rows")
    db = Database(path=tmp_path) if durable else Database()
    db.create_table("t", {"a": list(range(100)), "s": ["x", "y", None, "z"] * 25})
    db.execute("INSERT INTO t VALUES (100, 'w')")
    db.zone_map("t")
    db.sql("SELECT s, COUNT(*) AS n FROM t WHERE a > 5 GROUP BY s")
    assert db.delta_store_if_dirty("t") is not None and db._plan_cache
    db.close()
    assert not db._tables and not db._plan_cache and not db._plan_templates
    assert not db.has_table("t") and db.table_names() == []
    for read in (db.get_table, db.main_table, db._state, db.delta_tail):
        with pytest.raises(CatalogError, match="^database is closed$"):
            read("t")


#: builds, registers and closes one database a round while keeping the last
#: round's table until the next is built (as a benchmark's set-up loop does),
#: printing the resident size after each close
_REBUILD_ROUNDS = """
import numpy as np
from repro.engine import Database
from repro.engine.column import Column
from repro.engine.table import Table
from repro.engine.types import DataType

def resident_mb():
    for line in open("/proc/self/status"):
        if line.startswith("VmRSS"):
            return int(line.split()[1]) / 1024

rows = 1_000_000
rng = np.random.default_rng(0)
labels = np.array([f"label-{i}" for i in range(50)], dtype=object)
strings = [labels[rng.integers(0, 50, rows)] for _ in range(3)]
numbers = rng.random(rows)
kept, sizes = None, []
for _ in range(6):
    kept = Table([("x", Column(numbers, dtype=DataType.FLOAT64))]
                 + [(f"s{i}", Column(s, dtype=DataType.STRING)) for i, s in enumerate(strings)])
    db = Database()
    db.create_table("t", kept)
    db.zone_map("t")
    db.close()
    sizes.append(resident_mb())
print(sizes)
"""


def test_close_returns_freed_heap_pages():
    """``close`` trims the C heap, so rebuilding a database round after
    round holds one resident size instead of keeping each round's freed
    arrays (about 11 MB more here without the trim).  Run in a fresh
    interpreter so the test's own heap does not blur the reading."""
    from repro.engine import catalog

    if catalog._MALLOC_TRIM is None or not os.path.exists("/proc/self/status"):
        pytest.skip("needs glibc's malloc_trim and /proc")
    src = str(Path(catalog.__file__).resolve().parents[2])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", _REBUILD_ROUNDS], env=env, capture_output=True, text=True,
        check=True,
    ).stdout
    sizes = json.loads(out)
    assert max(sizes) - sizes[0] < 4.0, sizes


def test_close_trims_the_heap_once(monkeypatch):
    """The trim runs on the first ``close`` only, with no padding kept."""
    from repro.engine import catalog

    calls = []
    monkeypatch.setattr(catalog, "_MALLOC_TRIM", calls.append)
    db = Database()
    db.create_table("t", {"a": [1, 2, 3]})
    db.close()
    db.close()
    assert calls == [0]

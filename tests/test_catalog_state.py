"""The install matrix: what survives each way a table's main is replaced.

One durable table carrying every structure the catalog attaches — cached
statistics with a zone map inside, a caller-registered index on ``a``,
the partition-local cracker on the shard key ``k``, a range layout, a
cached plan, (for the delta column) two pending rows — is put through
every writer, and each writer x structure cell asserts kept / dropped /
rebuilt exactly as the rule table in ``Database._install``'s docstring
(and DESIGN.md, "Catalog state") says, so the table is held to the code.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import settings
from repro.engine import Database, Table
from repro.engine.shards import ShardedCrackerIndex
from repro.errors import TypeMismatchError
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
        zone_rows=ZONE_ROWS, storage="memory", shards=0, shard_index=True, threads=0,
        dict_encode=True, wal=True, faults="off", plan_cache=True,
    )
    pin_defaults("delta_rows", "plan_cache_size", "memory_budget_kb")


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
    db.statistics("t")
    db.zone_map("t")
    db.checkpoint()  # storage=memory: persists what is cached, adopts nothing
    if pending:
        db.execute(PENDING)
    db.plan(PLAN_SQL)
    return db


def _snapshot(db: Database, name: str) -> dict:
    stats = db.cached_statistics(name)
    store = db.delta_store_if_dirty(name)
    layout = db.shard_layout(name)
    return {
        "stats": stats,
        "zones": None if stats is None else stats.zone_maps.get(ZONE_ROWS),
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
    """``none`` / ``kept`` (the same object) / ``extended`` or ``restored``
    (another object over more / the same rows)."""
    if new is None:
        return "none"
    if new is old:
        return "kept"
    return "extended" if new.row_count > old.row_count else "restored"


def _index(new, old) -> str:
    if new is None:
        return "dropped"
    return "kept" if new is old else "rebuilt"


def _outcomes(db: Database, name: str, before: dict, plan) -> dict:
    now = _snapshot(db, name)
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
    return {
        "stats": _summary(now["stats"], before["stats"]),
        "zones": _summary(now["zones"], before["zones"]),
        "index_a": _index(now["index_a"], before["index_a"]),
        "cracker_k": _index(now["cracker_k"], before["cracker_k"]),
        "layout": layout,
        "delta": delta,
        "plan": "kept" if db.plan(PLAN_SQL) is plan else "replanned",
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
MOVED = dict(stats="none", zones="none", index_a="dropped", cracker_k="rebuilt",
             layout="kept", delta="clean", plan="kept", catalog="same", version="moved")
CHANGED = dict(stats="none", zones="none", index_a="kept", cracker_k="kept",
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
    # the shard-key cracker is dropped with its column's values and rebuilt
    # at once — unless pending rows exist that a new index would never see
    "update_shard_key": (
        _sql("UPDATE t SET k = k + 0 WHERE k < 10"), CHANGED, dict(cracker_k="rebuilt"),
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
    # 2 -> 4 range shards of a monotone key: no row moves, the layout changes
    "reshard_identity": (
        _reshard(4, "range(k)"), SAME,
        dict(cracker_k="rebuilt", layout="changed", delta="clean",
             plan="replanned", catalog="moved"),
    ),
    "reshard_moving": (
        _reshard(2, "hash(b)"), MOVED,
        dict(cracker_k="dropped", layout="changed", plan="replanned", catalog="moved"),
    ),
    "unshard": (
        _reshard(0), SAME,
        dict(cracker_k="dropped", layout="none", plan="replanned", catalog="moved"),
    ),
    # a mapped main carries no in-RAM cracker
    "adopt_mmap": (_adopt, SAME, dict(cracker_k="dropped", delta="clean")),
    # recovered: new contents with the checkpoint's statistics and layout;
    # the WAL replays the pending rows; versions of another Database object
    # do not compare
    "reopen": (
        _reopen, NEW,
        dict(stats="restored", zones="restored", cracker_k="rebuilt", layout="kept",
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
        assert before["stats"] is not None and before["zones"] is not None
        assert isinstance(before["index_a"], UpdatableCrackerIndex)
        assert isinstance(before["cracker_k"], ShardedCrackerIndex)
        plan = db.plan(PLAN_SQL)
        db, name = write(db)
        got = _outcomes(db, name, before, plan)
    finally:
        db.close()
    assert got[structure] == {**row, **own}[structure], got


def test_live_adoption_matches_reopen(tmp_path):
    """A session that goes out of core and one that reopens the same
    directory plan, answer and read alike (no in-RAM cracker on either)."""
    sql = "SELECT COUNT(*) AS n FROM t WHERE k < 500"

    def observe(db):
        counter = get_registry().counter("io.bytes_read")
        before = counter.value
        explain = db.execute(f"EXPLAIN {sql}").column("plan").to_list()
        return explain, db.sql(sql).to_dicts(), counter.value - before

    db, _ = _adopt(_attached(tmp_path / "db", pending=False))
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

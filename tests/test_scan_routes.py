"""Route lattice for predicate scans: every route gives the same answer.

One small table — a dictionary-encoded STRING column with NULLs, a
FLOAT64 column with NaN, a clustered INT64 key — at ``zone_rows=64`` so
every scan is multi-span, run as plain scan / fused aggregate / Top-N
over {memory, mmap} x {clean, appended tail, tombstoned main} x
{threads 0, 4} x {shards 0, 4}.  Asserted per lattice point: results
bit-identical to the unpruned serial in-memory reference; gathered
STRING columns still carry the base column's dictionary object; the
zone counters agree between memory and mmap and memory reads no bytes;
a type-mismatched predicate raises the same error on every route.
"""

from __future__ import annotations

import itertools
import shutil

import pytest

from repro import settings
from repro.engine import Database, Table
from repro.engine import operators as ops
from repro.engine import parallel
from repro.errors import TypeMismatchError
from repro.obs.metrics import get_registry
from tests.conftest import pin_defaults
from tests.test_parallel import tables_bit_identical

ROWS = 1000
ZONE_ROWS = 64
WHERE = "k >= 100 AND k < 420"  # zones 1 and 6 MAYBE, zones 2..5 PASS
QUERIES = {
    "scan": f"SELECT k, s, f FROM t WHERE {WHERE}",
    "fused": (
        "SELECT s, COUNT(*) AS n, SUM(f) AS total, MIN(k) AS lo "
        f"FROM t WHERE {WHERE} GROUP BY s"
    ),
    "topn": f"SELECT k, s, f FROM t WHERE {WHERE} ORDER BY f DESC, k LIMIT 7",
}
#: every zone FAILs on k, so only the type guard can notice ``s > 5``
MISTYPED = (
    "SELECT k FROM t WHERE s > 5 AND k > 100000",
    "SELECT COUNT(*) AS n FROM t WHERE s > 5 AND k > 100000",
)
STATES = ("clean", "appended", "tombstoned")
LATTICE = list(itertools.product(("memory", "mmap"), STATES, (0, 4), (0, 4)))


def _table() -> Table:
    return Table.from_dict(
        {
            "k": list(range(ROWS)),
            "s": [None if i % 11 == 0 else "abcde"[i % 5] for i in range(ROWS)],
            "f": [float("nan") if i % 13 == 0 else float((i * 7) % 101) for i in range(ROWS)],
        }
    )


@pytest.fixture(scope="module", autouse=True)
def checkpoints(tmp_path_factory):
    """Pins every config axis the lattice varies and builds one
    checkpointed durable root per shard count, copied per lattice point."""
    settings.configure(
        zone_rows=ZONE_ROWS, dict_encode=True, shards=0, shard_index=False,
        wal=True, wal_sync="commit", faults="off", storage="memory",
    )
    pin_defaults("delta_rows")
    roots = {}
    for shard_count in (0, 4):
        roots[shard_count] = tmp_path_factory.mktemp(f"routes{shard_count}") / "db"
        with Database(path=roots[shard_count]) as db:
            db.create_table("t", _table())
            if shard_count:
                db.apply_sharding("t", shard_count, shard_by="range(k)")
            db.checkpoint()
    yield roots
    parallel.shutdown_pool()


def _open(checkpoints, tmp_path, storage, state, threads, shard_count) -> Database:
    root = tmp_path / f"{storage}-{state}-{threads}-{shard_count}"
    shutil.copytree(checkpoints[shard_count], root)
    settings.configure(
        storage=storage, threads=threads, morsel_rows=64, min_parallel_rows=2, pool_kind="thread"
    )
    db = Database(path=root)
    assert db.get_table("t").is_mapped == (storage == "mmap")
    if state != "clean":
        # tail rows reuse dictionary values and fall inside WHERE
        db.execute("INSERT INTO t VALUES (150, 'c', 1.5), (300, NULL, 2.5), (5000, 'a', 3.5)")
    if state == "tombstoned":
        db.execute("DELETE FROM t WHERE k >= 120 AND k < 140")  # straddles a zone boundary
    assert (db.delta_store_if_dirty("t") is None) == (state == "clean")
    return db


def _run(db: Database, monkeypatch) -> dict:
    """Results, counter deltas and the dictionary observations of one lattice point."""
    base_dictionary = db.main_table("t").column("s").dictionary()[1]
    aggregated = []  # inputs of the serial routes' one aggregation pass
    real_hash_aggregate = ops.hash_aggregate

    def spy(table, *args, **kwargs):
        aggregated.append(table)
        return real_hash_aggregate(table, *args, **kwargs)

    registry = get_registry()
    names = ("scan.zones_pruned", "scan.zones_passed", "io.bytes_read")
    results, counters = {}, {}
    monkeypatch.setattr(ops, "hash_aggregate", spy)
    for label, sql in QUERIES.items():
        before = [registry.counter(name).value for name in names]
        results[label] = db.sql(sql)
        counters[label] = [registry.counter(name).value - b for name, b in zip(names, before)]
    monkeypatch.undo()
    for table in (results["scan"], results["topn"], *aggregated):
        encoding = table.column("s").dictionary()
        assert encoding is not None and encoding[1] is base_dictionary
    return {"results": results, "counters": counters}


@pytest.fixture(scope="module")
def reference(checkpoints, tmp_path_factory):
    """Per delta state: the unpruned, serial, in-memory, unsharded answers."""
    answers = {}
    settings.configure(zone_rows=0)
    for state in STATES:
        db = _open(checkpoints, tmp_path_factory.mktemp("reference"), "memory", state, 0, 0)
        try:
            answers[state] = {label: db.sql(sql) for label, sql in QUERIES.items()}
        finally:
            db.close()
    settings.configure(zone_rows=ZONE_ROWS)
    return answers


@pytest.mark.parametrize("storage,state,threads,shard_count", LATTICE)
def test_lattice_point(
    checkpoints, reference, tmp_path, monkeypatch, storage, state, threads, shard_count
):
    db = _open(checkpoints, tmp_path, storage, state, threads, shard_count)
    try:
        assert (db.shard_layout("t") is not None) == bool(shard_count)
        got = _run(db, monkeypatch)
        for label, want in reference[state].items():
            tables_bit_identical(got["results"][label], want)
        for pruned, passed, bytes_read in got["counters"].values():
            # six of sixteen zones survive WHERE whatever the route
            assert (pruned, passed) == (10, 4)
            assert (bytes_read > 0) == (storage == "mmap")
        for sql in MISTYPED:
            with pytest.raises(TypeMismatchError, match="no common type for STRING and INT64"):
                db.sql(sql)
    finally:
        db.close()

"""Route lattice for predicate scans: every route gives the same answer.

One small table — a dictionary-encoded STRING column with NULLs, a
FLOAT64 column with NaN, a clustered INT64 key — at ``zone_rows=64`` so
every scan is multi-span, run as plain scan / filtered GROUP BY / Top-N
over {memory, mmap} x {clean, appended tail, tombstoned main} x
{threads 0, 4} x {shards 0, 4}.  Asserted per lattice point: results
bit-identical to the unpruned serial in-memory reference; gathered
STRING columns still carry the base column's dictionary object; the
zone counters agree between memory and mmap and memory reads no bytes;
a type-mismatched predicate raises the same error on every route.

An index axis — none, a ``CrackerIndex`` on the NaN-bearing float
column, an ``UpdatableCrackerIndex`` holding pending inserts and
tombstones, one registered over a 4-shard main — x threads x
optimizer runs a filter, a filtered GROUP BY with float SUM/AVG, an ORDER
BY and a join's right input: an index picks the rows a scan reads and
never changes its answer, row order and float rounding included.

The key kernels (GROUP BY / DISTINCT / ORDER BY / Top-N / JOIN / a
shard-key probe) run at four corners of the same lattice — serial, pooled,
sharded, dirty delta — against the pure-Python reference interpreter:
INT64 keys beyond 2**53 stay distinct, and a key holding NULLs still
makes one NaN group.
"""

from __future__ import annotations

import itertools
import shutil

import numpy as np
import pytest

from repro import settings
from repro.core.session import ExplorationSession
from repro.engine import Database, Table
from repro.engine import operators as ops
from repro.engine import parallel
from repro.engine.column import Column
from repro.engine.sql.parser import parse
from repro.errors import TypeMismatchError
from repro.indexing import CrackerIndex, UpdatableCrackerIndex
from repro.obs.metrics import get_registry
from repro.obs.profile import table_nbytes
from tests.conftest import pin_defaults
from tests.reference_interpreter import run_reference
from tests.test_join_differential import nested_loop_join
from tests.test_parallel import tables_bit_identical

ROWS = 1000
ZONE_ROWS = 64
WHERE = "k >= 100 AND k < 420"  # zones 1 and 6 MAYBE, zones 2..5 PASS
QUERIES = {
    "scan": f"SELECT k, s, f FROM t WHERE {WHERE}",
    "grouped": (
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
        zone_rows=ZONE_ROWS, shards=0,
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


def _open(checkpoints, tmp_path, storage, state, threads, shard_count, index=None) -> Database:
    """One lattice point's database; ``index(db)`` registers an index
    before the writes, so it has to absorb them.  Besides ``STATES`` the
    index axis uses ``deleted``: tombstones and no pending rows."""
    root = tmp_path / f"{storage}-{state}-{threads}-{shard_count}"
    shutil.copytree(checkpoints[shard_count], root)
    settings.configure(storage=storage, threads=threads)
    db = Database(path=root)
    assert db.get_table("t").is_mapped == (storage == "mmap")
    if index is not None:
        index(db)
    if state in ("appended", "tombstoned"):
        # tail rows reuse dictionary values and fall inside WHERE
        db.execute("INSERT INTO t VALUES (150, 'c', 1.5), (300, NULL, 2.5), (5000, 'a', 3.5)")
    if state in ("tombstoned", "deleted"):
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
        batches = get_registry().counter("parallel.batches")
        before = batches.value
        got = _run(db, monkeypatch)
        # six surviving zones (or two shards) are several tasks: threads=4 pools them
        assert (batches.value > before) == bool(threads)
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


# -- a scan gathers what its consumer reads ----------------------------------------------

#: ``k`` and ``f`` are read only by the predicate in every query but the join,
#: whose driving scan also hands ``k`` to the join key
CONSUMER_WHERE = f"{WHERE} AND f < 90.0"
CONSUMERS = {
    "project": (f"SELECT s FROM t WHERE {CONSUMER_WHERE}", ["s"]),
    "distinct": (f"SELECT DISTINCT s FROM t WHERE {CONSUMER_WHERE}", ["s"]),
    "topn": (f"SELECT s FROM t WHERE {CONSUMER_WHERE} ORDER BY s DESC LIMIT 7", ["s"]),
    "group_by": (f"SELECT s, COUNT(*) AS n FROM t WHERE {CONSUMER_WHERE} GROUP BY s", ["s"]),
    "join": (
        "SELECT t.s, d.tag FROM t JOIN d ON t.k = d.k "
        f"WHERE t.k >= 100 AND t.k < 420 AND t.f < 90.0",
        ["k", "s"],
    ),
}


@pytest.mark.parametrize("consumer", CONSUMERS)
@pytest.mark.parametrize("state", ("clean", "appended"))
@pytest.mark.parametrize("storage", ("memory", "mmap"))
def test_a_scan_gathers_only_what_its_consumer_reads(
    checkpoints, tmp_path, monkeypatch, storage, state, consumer
):
    """The gather takes each column the scan's consumer reads once per
    source (the main, and a pending tail) and no column only the
    predicate reads; the predicate is still evaluated over the columns it
    reads, so a mapped scan reads exactly the bytes ``SELECT *`` reads."""
    sql, gathered = CONSUMERS[consumer]
    settings.configure(optimizer=True)
    db = _open(checkpoints, tmp_path, storage, state, 0, 0)
    try:
        _add_dimension(db)
        main = db.main_table("t")
        tail = db.delta_tail("t") if state == "appended" else None
        taken: list[tuple[str, str]] = []
        gathering: list[int] = []
        real_take, real_gather = Column.take, parallel.gather

        def owner(column) -> tuple[str, str]:
            for source, table in (("main", main), ("tail", tail)):
                for name in [] if table is None else table.column_names:
                    if np.shares_memory(ops.key_array(column), ops.key_array(table.column(name))):
                        return source, name
            return "other", "?"

        def take_spy(self, indices):
            if gathering:
                taken.append(owner(self))
            return real_take(self, indices)

        def gather_spy(*args, **kwargs):
            gathering.append(1)
            try:
                return real_gather(*args, **kwargs)
            finally:
                gathering.pop()

        monkeypatch.setattr(Column, "take", take_spy)
        monkeypatch.setattr(parallel, "gather", gather_spy)
        bytes_read = get_registry().counter("io.bytes_read")
        before = bytes_read.value
        got = db.sql(sql)
        read = bytes_read.value - before
        monkeypatch.undo()
        sources = ["main"] + (["tail"] if tail is not None else [])
        assert sorted(taken) == sorted((source, name) for source in sources for name in gathered)
        before = bytes_read.value
        db.sql(f"SELECT * FROM t WHERE {CONSUMER_WHERE}")
        assert read == bytes_read.value - before
        assert (read > 0) == (storage == "mmap")
        settings.configure(optimizer=False, zone_rows=0)
        tables_bit_identical(got, db.sql(sql))
    finally:
        db.close()


@pytest.mark.parametrize("state", ("clean", "appended"))
def test_explain_analyze_charges_a_scan_the_columns_it_reads(checkpoints, tmp_path, state):
    """A pruned scan's input bytes are those of the columns it reads — its
    consumer's ``s`` and its predicate's ``k``, never ``f`` — over the main
    and, while writes are pending, the tail."""
    settings.configure(optimizer=True)
    db = _open(checkpoints, tmp_path, "memory", state, 0, 0)
    try:
        report = db.explain_analyze(f"SELECT s FROM t WHERE {WHERE}")
        (scan,) = [node for node in _walk(report.root) if node.label.startswith("Scan(t")]
        sources = [db.main_table("t")] + [db.delta_tail("t")] * (state == "appended")
        assert scan.bytes_in == sum(table_nbytes(source.select(["k", "s"])) for source in sources)
    finally:
        db.close()


def _walk(node):
    yield node
    for child in node.children:
        yield from _walk(child)


# -- indexes: an index picks rows, the answer stays the scan's --------------------------

INDEX_WHERE = f"{WHERE} AND f >= 5.0 AND f < 80.0"
INDEX_WARMUP = "SELECT k FROM t WHERE k >= 200 AND k < 300 AND f >= 20.0 AND f < 60.0"
INDEX_QUERIES = {
    "filter": f"SELECT k, s, f FROM t WHERE {INDEX_WHERE}",
    "grouped": (
        "SELECT s, COUNT(*) AS n, SUM(f) AS total, AVG(f) AS mean "
        f"FROM t WHERE {INDEX_WHERE} GROUP BY s"
    ),
    "order": f"SELECT k, s, f FROM t WHERE {INDEX_WHERE} ORDER BY s",  # ties keep scan order
    # t is the join's right input; the optimizer pushes the range below the join
    "join": (
        "SELECT d.tag, t.k, t.f FROM d JOIN t ON d.k = t.k "
        "WHERE t.f >= 5.0 AND t.f < 80.0 AND t.k >= 100"
    ),
}


#: kind -> (delta state, shard count, index class); the index on f is
#: registered before the writes — a CrackerIndex cannot absorb an INSERT
#: and ignores a DELETE — the sharded point's over the re-clustered main
INDEXES = {
    "none": ("clean", 0, None),
    "cracker": ("deleted", 0, CrackerIndex),
    "updatable": ("tombstoned", 0, UpdatableCrackerIndex),
    "sharded": ("clean", 4, UpdatableCrackerIndex),
}


def _add_dimension(db: Database) -> None:
    keys = list(range(0, ROWS + 10, 3))
    db.create_table("d", {"k": keys, "tag": ["wxyz"[i % 4] for i in range(len(keys))]})


@pytest.fixture(scope="module")
def index_reference(checkpoints, tmp_path_factory):
    """Per delta state: the index queries' answers with no index, serial,
    unpruned, unoptimized."""
    saved = settings.snapshot()
    settings.configure(zone_rows=0, optimizer=False)
    answers = {}
    for state in {state for state, *_ in INDEXES.values()}:
        db = _open(checkpoints, tmp_path_factory.mktemp("index_ref"), "memory", state, 0, 0)
        try:
            _add_dimension(db)
            answers[state] = {label: db.sql(sql) for label, sql in INDEX_QUERIES.items()}
        finally:
            db.close()
    settings.restore(saved)
    return answers


@pytest.mark.parametrize("optimizer", (True, False), ids=("optimized", "unoptimized"))
@pytest.mark.parametrize("threads", (0, 4))
@pytest.mark.parametrize("kind", INDEXES)
def test_index_axis(checkpoints, index_reference, tmp_path, kind, threads, optimizer):
    state, shard_count, index_class = INDEXES[kind]

    def register(db):
        values = np.asarray(db.main_table("t").column("f").data)  # NaN slots included
        db.register_index("t", "f", index_class(values))

    settings.configure(optimizer=optimizer)
    db = _open(
        checkpoints, tmp_path, "memory", state, threads, shard_count,
        register if index_class is not None else None,
    )
    try:
        assert (db.shard_layout("t") is not None) == bool(shard_count)
        if index_class is not None:
            assert isinstance(db.index_for("t", "f"), index_class)
        if kind == "updatable":
            assert db.index_for("t", "f").pending_count == 3  # the inserts, unmerged
        _add_dimension(db)
        # a narrower range first: the queries below then span several
        # cracked pieces, so the index answers them out of row order
        report = db.explain_analyze(INDEX_WARMUP).render()
        assert ("index: f in" in report) == (index_class is not None)
        for label, want in index_reference[state].items():
            tables_bit_identical(db.sql(INDEX_QUERIES[label]), want)
    finally:
        db.close()


#: the answers a cracker index used to change: it holds NULL slots'
#: placeholder values and NaN, which the probed conjunct never re-checked
INDEX_REPROS = {
    "null": ({"x": [1, None, 3, 7, None, 9], "y": [1, 2, 3, 4, 5, 6]}, "x < 5"),
    "nan": ({"x": [1.0, float("nan"), 6.0, 7.0], "y": [1, 2, 3, 4]}, "x > 5"),
}


@pytest.mark.parametrize("case", INDEX_REPROS)
def test_index_reads_null_and_nan_rows_as_sql_does(case):
    data, where = INDEX_REPROS[case]
    sql = f"SELECT y FROM t WHERE {where}"
    plain = Database()
    plain.create_table("t", data)
    session = ExplorationSession()  # registers a CrackerIndex on x by default
    session.load_table("t", data)
    indexed = Database()
    indexed.create_table("t", data)
    indexed.register_index(
        "t", "x", CrackerIndex(np.asarray(indexed.main_table("t").column("x").data))
    )
    want = plain.sql(sql)
    tables_bit_identical(session.sql(sql), want)
    assert session.db.index_for("t", "x") is not None
    tables_bit_identical(indexed.sql(sql), want)


# -- key kernels: one answer per key, on every route ------------------------------------

BIG = 2**53  # beyond it float64 folds neighbouring INT64 keys together
#: the corners of the lattice above a key kernel can tell apart
POINTS = {
    "serial": dict(threads=0, shards=0, dirty=False),
    "pooled": dict(threads=4, shards=0, dirty=False),
    "sharded": dict(threads=4, shards=4, dirty=False),
    "dirty": dict(threads=0, shards=0, dirty=True),
}
WIDE_KEY_QUERIES = {
    "group_by": "SELECT k, COUNT(*) AS n, SUM(v) AS total FROM w GROUP BY k",
    "distinct": "SELECT DISTINCT k FROM w",
    "order_asc": "SELECT k, v FROM w ORDER BY k, v",
    "order_desc": "SELECT k, v FROM w ORDER BY k DESC, v",
    "topn": "SELECT k, v FROM w ORDER BY k DESC, v LIMIT 5",
    "join_inner": "SELECT v, x FROM w JOIN u ON w.k = u.k",
    "join_left": "SELECT v, x FROM w LEFT JOIN u ON w.k = u.k",
    # zone classification split at shard extents at the sharded point
    "probe": f"SELECT k, v FROM w WHERE k >= {BIG + 1} AND k <= {BIG + 2}",
}
NAN_GROUP_QUERIES = {
    "one_key": "SELECT f, COUNT(*) AS n FROM g GROUP BY f",
    "two_keys": "SELECT f, s, COUNT(*) AS n, SUM(i) AS total FROM g GROUP BY f, s",
}


def _at_point(point: str, name: str, table: Table, shard_key: str, writes) -> Database:
    """An in-memory database holding ``table`` at one corner of the lattice."""
    spec = POINTS[point]
    settings.configure(threads=spec["threads"])
    db = Database()
    db.create_table(name, table)
    if spec["shards"]:
        db.apply_sharding(name, spec["shards"], shard_by=f"range({shard_key})")
    if spec["dirty"]:
        for statement in writes:
            db.execute(statement)
        assert db.delta_store_if_dirty(name) is not None
    return db


def _same_rows(got: Table, want: list[tuple], ordered: bool) -> None:
    """Exact comparison (Python ints never round), NaN equal to NaN."""

    def canon(rows):
        rows = [
            tuple("NaN" if isinstance(v, float) and v != v else v for v in row)
            for row in rows
        ]
        return rows if ordered else sorted(rows, key=repr)

    assert canon(got.rows()) == canon(want)


@pytest.mark.parametrize("point", POINTS)
@pytest.mark.parametrize("case", WIDE_KEY_QUERIES)
def test_wide_int_keys_stay_exact(point, case):
    rows = 300
    wide = Table.from_dict(
        {
            "k": [BIG + (i * 7) % 4 for i in range(rows)],
            "v": list(range(rows)),
        }
    )
    db = _at_point(
        point, "w", wide, "k",
        [
            f"INSERT INTO w VALUES ({BIG + 1}, 1000), ({BIG + 5}, 1001)",
            "DELETE FROM w WHERE v = 17",
        ],
    )
    db.create_table("u", {"k": [BIG, BIG + 1, BIG + 1], "x": [10, 20, 30]})
    sql = WIDE_KEY_QUERIES[case]
    if case == "probe":
        report = db.explain_analyze(sql).render()
        assert "index:" not in report and "zones:" in report
        assert ("shards:" in report) == (point == "sharded")
    physical = db.get_table("w").to_dicts()  # the row order this route scans
    if case.startswith("join"):
        joined = nested_loop_join(physical, db.get_table("u").to_dicts(), "k", "k", case[5:])
        want = [(row["v"], row["x"]) for row in joined]
    else:
        want = run_reference(parse(sql), physical)
    _same_rows(db.sql(sql), want, ordered=case in ("order_asc", "order_desc", "topn"))


@pytest.mark.parametrize("point", POINTS)
@pytest.mark.parametrize("case", NAN_GROUP_QUERIES)
def test_one_nan_group_whatever_else_is_in_the_key(point, case):
    rows = 300
    nan = float("nan")
    grouped = Table.from_dict(
        {
            "i": list(range(rows)),
            "f": [(1.0, nan, None, nan, 1.0, nan, 2.5)[i % 7] for i in range(rows)],
            "s": [(None, "a", "b")[i % 3] for i in range(rows)],
        }
    )
    db = _at_point(
        point, "g", grouped, "i",
        ["INSERT INTO g VALUES (1000, NULL, 'a'), (1001, 3.5, NULL)", "DELETE FROM g WHERE i = 8"],
    )
    sql = NAN_GROUP_QUERIES[case]
    got = db.sql(sql)
    assert sum(1 for f in got.column("f").to_list() if f is not None and f != f) == (
        1 if case == "one_key" else 3
    )
    _same_rows(got, run_reference(parse(sql), db.get_table("g").to_dicts()), ordered=True)

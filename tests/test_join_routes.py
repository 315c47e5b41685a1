"""Route lattice for a join's right input: it is a scan like any other.

A fact table joined to a dimension clustered on ``day``, with the right
table {clean, dirty delta, sharded, zoned, mapped, pooled} x {no right
predicate, pushed range, contradiction, type error} x {inner, left}.
Asserted per point: results bit-identical to the ``optimizer=0`` plan
(residual filter above the join) on the same database; the pushed range
prunes zones of the right table and, on a mapped main, reads fewer bytes
than the table holds; a type-mismatched right-side predicate raises the
same error wherever the predicate ends up.
"""

from __future__ import annotations

import pytest

from repro import settings
from repro.engine import Database, Table
from repro.engine import parallel
from repro.engine.executor import _ranges_nbytes, execute_plan
from repro.engine.planner import JoinNode, ScanNode
from repro.errors import TypeMismatchError
from repro.obs.metrics import get_registry
from tests.conftest import pin_defaults
from tests.test_parallel import tables_bit_identical

ROWS = 1000
ZONE_ROWS = 64
#: right-table routes: settings, plus what is done to ``u`` after loading
STATES = {
    "clean": {},
    "dirty": {"zone_rows": ZONE_ROWS, "dirty": True},
    "sharded": {"shards": 2},
    "zoned": {"zone_rows": ZONE_ROWS},
    "mmap": {"zone_rows": ZONE_ROWS, "storage": "mmap"},
    "pooled": {"threads": 4, "zone_rows": ZONE_ROWS},
}
JOIN = "SELECT id, amount, day, label, w FROM f {join} u ON day_id = day"
RANGE = "day >= 100 AND day < 420"  # zones 1 and 6 MAYBE, 2..5 PASS, ten FAIL
WHERES = {
    "none": "",
    "range": f" WHERE {RANGE}",
    # the constant conjunct lands on the driving scan, the range on the right one
    "contradiction": f" WHERE {RANGE} AND 1 = 0",
}
#: every zone FAILs on day, so where zones gate only the type guard notices
MISTYPED = " WHERE label > 5 AND day > 100000"
COUNTERS = ("scan.zones_pruned", "scan.zones_passed", "io.bytes_read")


def _dimension() -> Table:
    return Table.from_dict(
        {
            "day": list(range(ROWS)),
            "label": [None if i % 11 == 0 else "abcde"[i % 5] for i in range(ROWS)],
            "w": [float((i * 7) % 101) for i in range(ROWS)],
        }
    )


def _fact() -> Table:
    # keys past the dimension's last day and NULL keys: unmatched left rows
    return Table.from_dict(
        {
            "id": list(range(400)),
            "day_id": [(i * 37) % 1200 if i % 17 else None for i in range(400)],
            "amount": [float(i % 13) for i in range(400)],
        }
    )


@pytest.fixture(scope="module", autouse=True)
def pins():
    settings.configure(
        shards=0, wal=True, wal_sync="commit", storage="memory",
    )
    pin_defaults("delta_rows")
    yield
    parallel.shutdown_pool()


def _open(state: str, tmp_path) -> Database:
    spec = STATES[state]
    settings.configure(
        storage="memory", threads=spec.get("threads", 0),
        zone_rows=spec.get("zone_rows", settings.ROWS["zone_rows"].default),
    )
    if spec.get("storage") == "mmap":
        with Database(path=tmp_path / "db") as db:
            db.create_table("f", _fact())
            db.create_table("u", _dimension())
            db.checkpoint()
        settings.configure(storage="mmap")
        db = Database(path=tmp_path / "db")
        assert db.get_table("u").is_mapped
    else:
        db = Database()
        db.create_table("f", _fact())
        db.create_table("u", _dimension())
    if spec.get("shards"):
        db.apply_sharding("u", spec["shards"], shard_by="range(day)")
    if spec.get("dirty"):
        # a second row for day 150, a NULL label, a day no fact row has;
        # tombstones straddling a zone boundary
        db.execute("INSERT INTO u VALUES (150, 'c', 1.5), (300, NULL, 2.5), (5000, 'a', 3.5)")
        db.execute("DELETE FROM u WHERE day >= 120 AND day < 140")
    assert (db.delta_store_if_dirty("u") is not None) == bool(spec.get("dirty"))
    return db


def _right_scan(plan) -> ScanNode:
    node = plan.root
    while not isinstance(node, JoinNode):
        node = node.child
    return node.right


def _optimized(db: Database, sql: str):
    """``(result, counter deltas)`` of ``sql`` with the optimizer on."""
    registry = get_registry()
    settings.configure(optimizer=True)
    before = [registry.counter(name).value for name in COUNTERS]
    result = db.sql(sql)
    return result, [registry.counter(name).value - b for name, b in zip(COUNTERS, before)]


@pytest.mark.parametrize("kind", ("inner", "left"))
@pytest.mark.parametrize("state", STATES)
def test_lattice_point(state, kind, tmp_path):
    db = _open(state, tmp_path)
    join = JOIN.format(join="LEFT JOIN" if kind == "left" else "JOIN")
    zoned = settings.current.zone_rows == ZONE_ROWS
    batches = get_registry().counter("parallel.batches")
    before = batches.value
    try:
        for case, where in WHERES.items():
            settings.configure(optimizer=False)
            want = db.sql(join + where)
            got, (pruned, passed, bytes_read) = _optimized(db, join + where)
            tables_bit_identical(got, want)
            pushed = kind == "inner" and case != "none"
            text = db.explain(join + where)
            assert (f"Scan(u, filter: (({RANGE.replace(' AND ', ') AND (')}))" in text) == pushed
            # only the right scan carries a zone-gated predicate in this plan
            assert (pruned, passed) == ((10, 4) if pushed and zoned else (0, 0))
            if pushed and state == "mmap":
                main = db.main_table("u")
                assert 0 < bytes_read < _ranges_nbytes(main, [(0, main.num_rows, True)])
            else:
                assert bytes_read == 0
        assert (want.num_rows, got.num_rows) == (0, 0)  # the contradiction, last
        # the pushed range's six surviving zones are one pooled batch per run
        assert (batches.value > before) == (state == "pooled")

        for optimizer in (False, True):
            settings.configure(optimizer=optimizer)
            with pytest.raises(TypeMismatchError, match="no common type for STRING and INT64"):
                db.sql(join + MISTYPED)

        if kind == "inner":
            # a right scan marked empty: no SQL gets there today (a constant
            # conjunct lands on the driving scan), so mark the planned
            # scans by hand, in a plan a fresh database's cache missed on
            settings.configure(optimizer=True)
            fresh = _open(state, tmp_path / "fresh")
            try:
                plan = fresh.plan(join + WHERES["range"])
                _right_scan(plan).empty = True
                assert "Scan(u, empty, filter:" in plan.explain()
                tables_bit_identical(execute_plan(plan, fresh), want)
                # a mistyped predicate never becomes a plan to mark
                with pytest.raises(
                    TypeMismatchError, match="no common type for STRING and INT64"
                ):
                    fresh.plan(join + MISTYPED)
            finally:
                fresh.close()
    finally:
        db.close()


def test_explain_analyze_profiles_the_right_scan(tmp_path):
    db = _open("zoned", tmp_path)
    settings.configure(optimizer=True)
    report = db.explain_analyze(JOIN.format(join="JOIN") + WHERES["range"])
    join = report.root
    while not join.label.startswith("HashJoin"):
        (join,) = join.children
    left, right = join.children
    assert left.label.startswith("Scan(f") and right.label.startswith("Scan(u, filter:")
    assert (right.rows_in, right.rows_out) == (ROWS, 320)
    assert right.annotations == ["zones: 10 pruned, 4 passed of 16"]
    assert join.rows_in == left.rows_out + right.rows_out
    line = next(line for line in report.lines() if line.lstrip().startswith("Scan(u"))
    assert "rows=1000->320" in line and "[zones: 10 pruned, 4 passed of 16]" in line

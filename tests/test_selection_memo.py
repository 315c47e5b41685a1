"""The selection memo: a scan's evaluated span selections are reused.

A zone-gated scan keeps what each evaluated span selected in its table's
:class:`~repro.engine.parallel.SelectionMemo`, keyed by the predicate,
for one epoch — the table's data version, its delta version and the
settings generation.  Two things are checked here:

- *differentially*: a hypothesis script interleaves repeated predicates
  with every way a table changes (INSERT, DELETE, UPDATE of a predicate
  column, a delta merge, a checkpoint and a memory-mapped reopen,
  ``replace_table``, a configuration change) and every answer, asked
  twice, must be bit-identical to a fresh ``Database`` built from the
  same rows;
- *by counting*: a reused scan calls ``truth_mask`` for nothing, any
  configuration change or the reference configuration (``optimizer=0``)
  evaluates again, and the index route and a table at or under
  ``zone_rows`` never reach the memo — so the suite's serial-vs-pooled
  and optimized-vs-reference comparisons still compare evaluations.
"""

from __future__ import annotations

import sys
import tempfile

import pytest
from hypothesis import HealthCheck, example, given
from hypothesis import settings as hypothesis_settings
from hypothesis import strategies as st

from repro import settings
from repro.engine import Database, DataType, Table
from repro.engine import parallel
from repro.engine.column import Column
from repro.indexing import CrackerIndex
from repro.obs.metrics import get_registry
from tests.conftest import pin_defaults
from tests.test_bind_types import spy_truth_mask
from tests.test_parallel import tables_bit_identical

ROWS = 300
ZONE_ROWS = 32
BIG = 2**53  # n + 1 and n + 1.0 differ here: the typed-key example

SCHEMA = [
    ("k", DataType.INT64), ("x", DataType.FLOAT64), ("n", DataType.INT64), ("s", DataType.STRING),
]
X_VALUES = [0.0, -0.0, 0.5, 1.0, 2.5, None, float("nan")]
#: what a write may put in ``x``: SQL has no NaN literal
X_WRITTEN = X_VALUES[:-1]
S_VALUES = ["a", "b", "c"]

#: a WHERE only rows inserted by the script can satisfy
TAIL = f"k >= {ROWS} AND x > 0.25"
#: WHEREs the script repeats; pairs that differ only in a literal's type
#: or sign, a brush and the brush minus one conjunct, and one only pending
#: rows satisfy
PREDICATES = [
    "k >= 40 AND k < 200 AND x > 0.25",
    "k >= 40 AND k < 200",
    "x = 1",
    "x = 1.0",
    "x = 0.0",
    "x = -0.0",
    f"n + 1 > {BIG}",
    f"n + 1.0 > {BIG}",
    TAIL,
    "s = 'b' OR x IS NULL",
]
SHAPES = [
    "SELECT k, x, n, s FROM t WHERE {}",
    "SELECT s, COUNT(*) AS c, SUM(x) AS sx, MAX(n) AS mx FROM t WHERE {} GROUP BY s",
]


@pytest.fixture(autouse=True)
def _pinned():
    """Multi-span scans in every leg; unsharded and in memory, so a fresh
    database keeps the rows in the order the script wrote them."""
    settings.configure(
        zone_rows=ZONE_ROWS, optimizer=True, shards=0, storage="memory", wal_sync="off",
        faults="off",
    )
    pin_defaults("delta_rows", "memory_budget_kb", "degrade")


def _row(i: int) -> tuple:
    n = BIG if i % 11 == 0 else (None if i % 13 == 0 else i % 17)
    return (i, X_VALUES[i % len(X_VALUES)], n, S_VALUES[i % len(S_VALUES)])


def _table(rows: list[tuple]) -> Table:
    return Table([
        (name, Column([row[j] for row in rows], dtype=dtype))
        for j, (name, dtype) in enumerate(SCHEMA)
    ])


def _sql_value(value) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, str):
        return f"'{value}'"
    return repr(value)


class _Script:
    """A database under test beside the rows it must hold, in order."""

    def __init__(self, root: str) -> None:
        self.root = root
        self.rows = [_row(i) for i in range(ROWS)]
        self.next_k = ROWS
        self.db = Database(path=root)
        self.db.create_table("t", _table(self.rows))

    def query(self, predicate: int) -> None:
        fresh = Database()
        fresh.create_table("t", _table(self.rows))
        for shape in SHAPES:
            sql = shape.format(PREDICATES[predicate])
            want = fresh.sql(sql)
            for _ in range(2):  # the second answer comes out of the memo
                tables_bit_identical(self.db.sql(sql), want)

    def insert(self, x: int, count: int) -> None:
        rows = [
            (self.next_k + i, X_WRITTEN[(x + i) % len(X_WRITTEN)], BIG if i % 2 else i, "b")
            for i in range(count)
        ]
        self.next_k += count
        values = ", ".join(f"({', '.join(map(_sql_value, row))})" for row in rows)
        assert self.db.execute(f"INSERT INTO t VALUES {values}") == count
        self.rows += rows

    def delete(self, residue: int) -> None:
        """Tombstones only: no row moves, no value changes."""
        self.db.execute(f"DELETE FROM t WHERE k % 5 = {residue}")
        self.rows = [row for row in self.rows if row[0] % 5 != residue]

    def update(self, x: int, residue: int) -> None:
        """Rewrites ``x``, a predicate column, on main and pending rows."""
        value = X_WRITTEN[x]
        self.db.execute(f"UPDATE t SET x = {_sql_value(value)} WHERE k % 7 = {residue}")
        self.rows = [
            (k, value, n, s) if k % 7 == residue else (k, old, n, s)
            for k, old, n, s in self.rows
        ]

    def merge(self) -> None:
        self.db.flush_deltas("t")

    def reopen(self) -> None:
        """Checkpoint, then reopen with the columns memory-mapped."""
        self.db.checkpoint()
        self.db.close()
        settings.configure(storage="mmap")
        self.db = Database(path=self.root)

    def replace(self) -> None:
        self.rows = [(k, x, n, s) for k, x, n, s in reversed(self.rows)]
        self.db.replace_table("t", _table(self.rows))

    def configure(self, threads: int) -> None:
        settings.configure(threads=threads)


_predicate = st.integers(0, len(PREDICATES) - 1)
_step = st.one_of(
    st.tuples(st.just("query"), _predicate),
    st.tuples(st.just("query"), _predicate),
    st.tuples(st.just("insert"), st.integers(0, 5), st.integers(1, 40)),
    st.tuples(st.just("delete"), st.integers(0, 4)),
    st.tuples(st.just("update"), st.integers(0, 5), st.integers(0, 6)),
    st.tuples(st.just("merge")),
    st.tuples(st.just("reopen")),
    st.tuples(st.just("replace")),
    st.tuples(st.just("configure"), st.sampled_from([0, 2])),
)


def _q(predicate: str) -> tuple:
    return ("query", PREDICATES.index(predicate))


@hypothesis_settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(script=st.lists(_step, min_size=1, max_size=10))
# typed literal keys: 1 vs 1.0 (n + 1 and n + 1.0 part at 2^53), 0.0 vs -0.0,
# and NaN rows under both
@example(script=[_q(f"n + 1 > {BIG}"), _q(f"n + 1.0 > {BIG}"), _q(f"n + 1 > {BIG}")])
@example(script=[_q("x = 1"), _q("x = 1.0"), _q("x = 0.0"), _q("x = -0.0"), _q("x = 0.0")])
@example(script=[_q("k >= 40 AND k < 200 AND x > 0.25"), ("update", 5, 3),
                 _q("k >= 40 AND k < 200 AND x > 0.25")])
# a change that only tombstones rows
@example(script=[_q("k >= 40 AND k < 200"), ("delete", 2), _q("k >= 40 AND k < 200")])
# a predicate only the pending tail satisfies, asked again over as many
# live pending rows, one of them new
@example(script=[("insert", 2, 5), _q(TAIL), ("delete", 0), ("insert", 0, 1), _q(TAIL),
                 ("update", 0, ROWS % 7), _q(TAIL)])
@example(script=[_q("s = 'b' OR x IS NULL"), ("insert", 5, 3), ("merge",),
                 _q("s = 'b' OR x IS NULL"), ("reopen",), ("update", 5, 1),
                 _q("s = 'b' OR x IS NULL"), ("replace",), _q("s = 'b' OR x IS NULL")])
@example(script=[_q("k >= 40 AND k < 200"), ("configure", 2), _q("k >= 40 AND k < 200"),
                 ("configure", 0), _q("k >= 40 AND k < 200")])
def test_answers_equal_a_fresh_database(script) -> None:
    saved = settings.snapshot()
    with tempfile.TemporaryDirectory() as root:
        state = _Script(root)
        try:
            for op, *args in script:
                getattr(state, op)(*args)
        finally:
            state.db.close()
            settings.restore(saved)


# -- counted: what reuses and what evaluates again ----------------------------------


def _database(rows: int = 8 * ZONE_ROWS) -> Database:
    db = Database()
    db.create_table("t", {
        "k": list(range(rows)),
        "x": [float(i % 10) for i in range(rows)],
        "s": [S_VALUES[i % 3] for i in range(rows)],
    })
    return db


#: straddles zones 1..5 of 8, every one MAYBE (``x > 2`` holds in none whole)
BRUSH = "SELECT s, COUNT(*) AS c FROM t WHERE k >= 40 AND k < 170 AND x > 2 GROUP BY s"


def _evaluations(db: Database, calls: list, sql: str = BRUSH) -> int:
    calls.clear()
    db.sql(sql)
    return len(calls)


def test_a_repeated_scan_evaluates_nothing(monkeypatch) -> None:
    db = _database()
    calls = spy_truth_mask(monkeypatch)
    reused = get_registry().counter("scan.spans_reused")
    first = _evaluations(db, calls)
    assert first > 0
    before = reused.value
    assert _evaluations(db, calls) == 0
    assert reused.value - before == first
    # a view that drops the GROUP BY keeps the WHERE: same runs
    assert _evaluations(db, calls, "SELECT k FROM t WHERE k >= 40 AND k < 170 AND x > 2") == 0


def test_a_configuration_change_evaluates_again(monkeypatch) -> None:
    db = _database()
    calls = spy_truth_mask(monkeypatch)
    assert _evaluations(db, calls) > 0
    assert _evaluations(db, calls) == 0
    settings.configure(threads=settings.current.threads)  # even to the same value
    assert _evaluations(db, calls) > 0
    db.execute(f"PRAGMA zone_rows={ZONE_ROWS}")
    assert _evaluations(db, calls) > 0


def test_the_reference_configuration_never_reuses(monkeypatch) -> None:
    db = _database()
    calls = spy_truth_mask(monkeypatch)
    assert _evaluations(db, calls) > 0
    db.execute("PRAGMA optimizer=0")  # the ledger's reference flip
    assert _evaluations(db, calls) > 0
    assert _evaluations(db, calls) > 0
    db.execute("PRAGMA optimizer=1")
    assert _evaluations(db, calls) > 0


def test_a_write_evaluates_again(monkeypatch) -> None:
    db = _database()
    calls = spy_truth_mask(monkeypatch)
    assert _evaluations(db, calls) > 0
    db.execute("INSERT INTO t VALUES (1000, 5.0, 'a')")
    assert _evaluations(db, calls) > 0
    assert _evaluations(db, calls) == 0
    db.execute("DELETE FROM t WHERE k = 1000")
    assert _evaluations(db, calls) > 0


def _memo_lookups(monkeypatch) -> list:
    lookups = []
    original = Database.selection_memo

    def spy(self, *args, **kwargs):
        lookups.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Database, "selection_memo", spy)
    return lookups


def test_index_route_and_one_zone_tables_bypass_the_memo(monkeypatch) -> None:
    lookups = _memo_lookups(monkeypatch)
    calls = spy_truth_mask(monkeypatch)
    small = _database(ZONE_ROWS)  # at zone_rows: one span nobody classifies
    indexed = _database()
    indexed.register_index("t", "k", CrackerIndex(indexed.main_table("t").column("k").data))
    for db in (small, indexed):
        for _ in range(2):
            assert _evaluations(db, calls) > 0
    assert not lookups
    assert _evaluations(_database(), calls) > 0 and lookups  # the spy sees a gated scan


def _kept(memo) -> int:
    """The positions the memo's runs hold, counted afresh."""
    return sum(len(run) for runs in memo._entries.values() for run in runs.values())


def test_memo_positions_stay_within_the_main() -> None:
    db = _database()
    memo = db._state("t").selections
    for low in range(0, 200, 10):  # more predicates than the memo keeps
        db.sql(f"SELECT k FROM t WHERE x >= 0 AND k >= {low}")
        assert memo._positions == _kept(memo) <= db.main_table("t").num_rows


def test_pooled_tasks_fill_the_memo_without_lost_updates() -> None:
    """More workers than cores and a tiny switch interval: every run a
    task keeps is accounted for, and every span of a repeat is reused."""
    settings.configure(threads=8)
    db = _database(64 * ZONE_ROWS)
    memo = db._state("t").selections
    reused = get_registry().counter("scan.spans_reused")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for low in range(4):  # each WHERE evicts older ones to fit the main
            sql = f"SELECT k, x FROM t WHERE x > {low}"
            first = db.sql(sql)
            assert memo._positions == _kept(memo)
            before = reused.value
            tables_bit_identical(db.sql(sql), first)
            assert reused.value - before == 64  # every span
    finally:
        sys.setswitchinterval(interval)
        parallel.shutdown_pool()

"""Tests for a scan's span tasks and their runners (repro.engine.parallel).

The load-bearing guarantee is that serial and parallel execution are
**bit-identical**: the property-style corpus test below replays the SQL
differential-test corpus in both modes and compares raw column payloads
byte for byte, not just normalised values.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import example, given, settings as hypothesis_settings, strategies as st

from repro import settings
from repro.engine import Database, Table
from repro.engine import operators as ops
from repro.engine import parallel
from repro.engine.shards import ShardLayout
from repro.obs.metrics import MetricsRegistry, get_registry, set_registry
from repro.obs.profile import PlanProfiler
from repro.obs.tracing import get_tracer
from tests.conftest import pin_defaults
from tests.test_sql_differential import random_query, random_table


@pytest.fixture()
def parallel_mode():
    """Force the pooled path: 64-row zones, so a filtered scan of more
    rows is several span tasks."""
    settings.configure(threads=4, zone_rows=64)
    yield settings.current
    parallel.shutdown_pool()


@pytest.fixture()
def serial_mode():
    settings.configure(threads=0)


def tables_bit_identical(a: Table, b: Table) -> None:
    """Assert schema, validity and raw payload bytes all match."""
    assert a.column_names == b.column_names
    assert a.schema.types == b.schema.types
    assert a.num_rows == b.num_rows
    for name in a.column_names:
        ca, cb = a.column(name), b.column(name)
        va = ca.validity if ca.validity is not None else np.ones(len(ca), bool)
        vb = cb.validity if cb.validity is not None else np.ones(len(cb), bool)
        assert np.array_equal(va, vb), f"validity differs in {name!r}"
        if ca.data.dtype == object or ca.data.dtype.kind in ("U", "S"):
            assert list(ca.data[va]) == list(cb.data[vb]), f"payload differs in {name!r}"
        else:
            assert ca.data[va].tobytes() == cb.data[vb].tobytes(), (
                f"payload differs in {name!r}"
            )


def run_both_modes(table: Table, sql: str) -> tuple[Table, Table]:
    db = Database()
    db.create_table("t", table)
    settings.configure(threads=0)
    serial = db.sql(sql)
    settings.configure(threads=4, zone_rows=64)
    try:
        par = db.sql(sql)
    finally:
        settings.configure(threads=0)
    return serial, par


# -- a scan's tasks -------------------------------------------------------------------


class TestMorselRanges:
    """``parallel._span_tasks`` is where every scan becomes tasks, the
    same list whoever runs them: one task per span, uncut, or over a shard
    layout one per scheduled shard; the scan pools when ``threads >= 2``
    and it has two tasks or more."""

    @staticmethod
    def _cut(ranges, num_rows=10, threads=2, tail=None, layout=None):
        """The task spans of a scan over ``num_rows`` rows, and whether it pools;
        a task over the ``tail`` table shows as ``("tail", spans)``."""
        settings.configure(threads=threads)
        table = Table.from_dict({"x": list(range(num_rows))})
        tasks = parallel._span_tasks(table, ranges, None, tail, layout=layout)
        return [
            spans if source is table else ("tail", spans) for source, spans, _live, _memo in tasks
        ], parallel.should_parallelize(len(tasks))

    def test_covers_all_rows_without_overlap(self) -> None:
        assert self._cut(None) == ([[(0, 10, True)]], False)
        spans = [(0, 3, True), (3, 6, False), (6, 9, True), (9, 10, True)]
        assert self._cut(spans) == ([[span] for span in spans], True)

    def test_exact_multiple(self) -> None:
        # a span is never cut, whatever its length
        assert self._cut([(0, 6, False)], num_rows=6) == ([[(0, 6, False)]], False)

    def test_cuts_fall_at_morsel_rows_within_each_span(self) -> None:
        """No cut falls inside a span: on both runners each span is one task."""
        spans = [(2, 9, True), (12, 14, False)]
        assert self._cut(spans, num_rows=20) == ([[(2, 9, True)], [(12, 14, False)]], True)
        assert self._cut(spans, num_rows=20, threads=0) == (
            [[(2, 9, True)], [(12, 14, False)]], False
        )

    def test_gaps_between_spans_are_never_bridged(self) -> None:
        tasks, _ = self._cut([(0, 2, True), (4, 6, True)])
        assert tasks == [[(0, 2, True)], [(4, 6, True)]]

    def test_single_morsel_when_smaller_than_size(self) -> None:
        # a one-task scan runs on the calling thread
        assert self._cut(None, num_rows=2) == ([[(0, 2, True)]], False)

    def test_tail_task_comes_last(self) -> None:
        tail = Table.from_dict({"x": [10, 11]})
        tasks, pooled = self._cut([(0, 6, True)], tail=tail)
        assert tasks == [[(0, 6, True)], ("tail", [(0, 2, True)])] and pooled

    def test_empty_input(self) -> None:
        # an all-FAIL scan keeps one empty span, and nothing to pool
        assert self._cut([]) == ([[(0, 0, False)]], False)

    @pytest.mark.parametrize("threads", [0, 2])
    def test_a_layout_makes_one_task_per_scheduled_shard(self, threads) -> None:
        """Spans split at shard extents, a shard's adjacent spans with one
        evaluate flag merge, and the shard no span reaches gets no task;
        pooled or not, the same tasks."""
        layout = ShardLayout("range", "x", [0, 4, 8, 10], [3.0, 7.0])
        tasks, pooled = self._cut(
            [(0, 2, True), (2, 6, True), (6, 7, False)], threads=threads, layout=layout
        )
        assert tasks == [[(0, 4, True)], [(4, 6, True), (6, 7, False)]]
        assert pooled == bool(threads)


class TestConfig:
    def test_threads_gate_parallelism(self) -> None:
        settings.configure(threads=0)
        assert not parallel.should_parallelize(16)
        settings.configure(threads=1)
        assert not parallel.should_parallelize(16)
        settings.configure(threads=2)
        assert parallel.should_parallelize(16)

    def test_small_inputs_fall_back_to_serial(self) -> None:
        # a one-task scan runs on the calling thread
        settings.configure(threads=4)
        assert not parallel.should_parallelize(1)
        assert parallel.should_parallelize(2)

    def test_a_two_span_scan_pools(self) -> None:
        """128 rows in 64-row zones are two span tasks: one pooled batch."""
        pin_defaults("shards", "delta_rows", "optimizer")
        settings.configure(threads=4, zone_rows=64, faults="off")
        db = Database()
        db.create_table("t", {"x": list(range(128))})
        _, fanout = _pooled_run(db, "SELECT x FROM t WHERE x % 3 = 0")
        assert fanout == (1, 2)

    def test_rejects_bad_values(self) -> None:
        with pytest.raises(ValueError):
            settings.configure(threads=-1)
        with pytest.raises(ValueError):
            settings.configure(zone_rows=-1)


# -- kernel-level bit-identity --------------------------------------------------------


class TestKernels:
    def _table(self, n: int = 200, seed: int = 0) -> Table:
        rng = np.random.default_rng(seed)
        return Table.from_dict(
            {
                "g": [["a", "b", "c"][i] for i in rng.integers(0, 3, n)],
                "x": [int(v) if v % 7 else None for v in rng.integers(-50, 50, n)],
                "y": [float(v) if v < 1 else None for v in rng.normal(size=n)],
            }
        )

    @staticmethod
    def _residual(sql: str, node: str) -> tuple[Table, Table, Database]:
        """``sql`` serially and with the pool: the pooled run's driving scan
        ``Scan(t`` fans out, and ``node`` above it (a Filter left above a
        join, an Aggregate) is one serial kernel — the pool runs only
        base-table spans.  Both tables have NULLs and NaNs, and ``t.g`` is
        a dictionary-encoded STRING column."""
        rng = np.random.default_rng(7)
        n = 500

        def floats(size):
            return [
                None if v < -1.5 else float("nan") if v > 1.5 else float(v)
                for v in rng.normal(size=size)
            ]

        db = Database()
        db.create_table("t", {
            "g": [None if v == 0 else "abcd"[v] for v in rng.integers(0, 4, n)],
            "x": [int(v) if v % 7 else None for v in rng.integers(-50, 50, n)],
            "y": floats(n),
            "k": [i % 50 for i in range(n)],
        })
        db.create_table("u", {"k2": list(range(50)), "w": floats(50)})
        assert db.main_table("t").column("g").dictionary() is not None
        settings.configure(optimizer=True, threads=0, zone_rows=64)
        serial = db.sql(sql)
        settings.configure(threads=4)
        pooled = db.sql(sql)
        lines = [line.strip() for line in db.explain_analyze(sql).render().splitlines()]
        fanned = [line for line in lines if "parallel:" in line]
        assert len(fanned) == 1 and fanned[0].startswith("Scan(t"), "\n".join(lines)
        assert any(line.startswith(node) for line in lines), "\n".join(lines)
        return serial, pooled, db

    def test_filter_mask_identical(self) -> None:
        """A residual filter over a pooled scan's join is the serial filter."""
        serial, pooled, db = self._residual(
            "SELECT g, x, y, w FROM t JOIN u ON k = k2 "
            "WHERE k < 45 AND (x > 0 OR w < 0.5 OR g = 'b')",
            "Filter",
        )
        assert 0 < pooled.num_rows < 450
        tables_bit_identical(serial, pooled)
        base = db.main_table("t").column("g").dictionary()[1]
        assert pooled.column("g").dictionary()[1] is base

    def test_group_by_identical(self) -> None:
        """A GROUP BY over a pooled scan is one serial group pass."""
        serial, pooled, _ = self._residual(
            "SELECT g, COUNT(*) AS n, COUNT(y) AS cy, SUM(x) AS sx, AVG(y) AS my, "
            "MIN(y) AS lo, MAX(x) AS hi, COUNT(DISTINCT x) AS dx FROM t "
            "WHERE x > -40 OR y < 1 GROUP BY g",
            "Aggregate",
        )
        assert pooled.num_rows == 4  # a, b, c and the NULL group
        tables_bit_identical(serial, pooled)

    def test_aggregate_partials_recombine(self, parallel_mode) -> None:
        table = self._table(500, seed=3)
        serial, par = run_both_modes(
            table,
            "SELECT g, COUNT(*) AS n, COUNT(x) AS cx, SUM(x) AS sx, "
            "AVG(y) AS my, MIN(y) AS lo, MAX(y) AS hi, "
            "COUNT(DISTINCT x) AS dx FROM t GROUP BY g",
        )
        tables_bit_identical(serial, par)

    def test_global_aggregate(self, parallel_mode) -> None:
        table = self._table(300, seed=4)
        serial, par = run_both_modes(
            table, "SELECT COUNT(*) AS n, SUM(y) AS sy, AVG(x) AS mx FROM t"
        )
        tables_bit_identical(serial, par)

    def test_sum_float_preserves_pairwise_summation(self, parallel_mode) -> None:
        # float addition is not associative: naive partial-sum merging
        # would drift from numpy's pairwise summation on adversarial data
        values = [1e16, 1.0, -1e16, 1.0] * 64
        table = Table.from_dict({"y": values, "g": ["k"] * len(values)})
        serial, par = run_both_modes(table, "SELECT g, SUM(y) AS s, AVG(y) AS m FROM t GROUP BY g")
        tables_bit_identical(serial, par)

    def test_sort_multi_key_with_nulls(self, parallel_mode) -> None:
        table = self._table(300, seed=5)
        serial, par = run_both_modes(
            table, "SELECT g, x, y FROM t ORDER BY g, x DESC, y"
        )
        tables_bit_identical(serial, par)

    def test_sort_desc_stability_matches_serial(self, parallel_mode) -> None:
        table = Table.from_dict(
            {"k": [1, 1, 2, 2, 1, 2, 1, 2, 1, 1], "i": list(range(10))}
        )
        serial, par = run_both_modes(table, "SELECT k, i FROM t ORDER BY k DESC")
        tables_bit_identical(serial, par)
        # equal keys keep original (ascending i) order under DESC
        assert par.column("i").to_list()[:4] == [2, 3, 5, 7]

    def test_sort_with_nan_keys_is_stable_on_the_pool(self, parallel_mode) -> None:
        nan = float("nan")
        table = Table.from_dict(
            {"y": [1.0, nan, 3.0, nan, 3.0, nan, 2.0] * 3, "i": list(range(21))}
        )
        serial, par = run_both_modes(table, "SELECT y, i FROM t ORDER BY y DESC")
        tables_bit_identical(serial, par)
        # NaN is the largest value; equal keys (NaNs too) keep row order
        assert par.column("i").to_list() == [
            1, 3, 5, 8, 10, 12, 15, 17, 19,  # NaN
            2, 4, 9, 11, 16, 18,  # 3.0
            6, 13, 20,  # 2.0
            0, 7, 14,  # 1.0
        ]
        serial, par = run_both_modes(table, "SELECT y, i FROM t ORDER BY y")
        tables_bit_identical(serial, par)
        assert par.column("i").to_list()[-9:] == [1, 3, 5, 8, 10, 12, 15, 17, 19]

    def test_string_sort_keys(self, parallel_mode) -> None:
        table = self._table(150, seed=6)
        serial, par = run_both_modes(table, "SELECT g, x FROM t ORDER BY g DESC, x")
        tables_bit_identical(serial, par)


class TestCallerHelps:
    """On the thread pool the calling thread works instead of blocking."""

    @pytest.fixture(autouse=True)
    def _thread_pool(self, parallel_mode):
        # no injected faults: after a crashed task the caller deliberately
        # stops taking work back, so "every task ran on this thread" holds
        # only for a batch in which nothing crashes — which batch that is
        # no longer depends on earlier tests (conftest restarts the batch
        # numbering), but it does on the leg's fault spec and seed
        settings.configure(faults="off")

    @staticmethod
    def _who(i: int) -> tuple[int, int]:
        import threading

        return i, threading.get_ident()

    def test_lone_task_never_leaves_the_calling_thread(self) -> None:
        import threading

        assert parallel._run_tasks(self._who, [(7,)]) == [(7, threading.get_ident())]
        assert parallel._run_tasks(self._who, []) == []

    def test_caller_takes_back_tasks_the_pool_has_not_started(self) -> None:
        import threading

        gate = threading.Event()
        pool = parallel._get_pool()
        # occupy every worker, so the batch's pooled tasks stay queued
        blockers = [pool.submit(gate.wait, 30) for _ in range(settings.current.threads)]
        try:
            results = parallel._run_tasks(self._who, [(i,) for i in range(5)])
        finally:
            gate.set()
        assert all(b.result() for b in blockers)
        assert [i for i, _ in results] == list(range(5))  # results keep task order
        assert {tid for _, tid in results} == {threading.get_ident()}


# -- pooled aggregates: partials only where they merge exactly -----------------------

NAN = float("nan")
#: zero signs, NaN, NULL and a magnitude that swamps the small values
_FLOATS = [0.0, -0.0, NAN, 1.5, -2.25, 1e16, None]


def _sharded_db(ys: list) -> Database:
    """``t(ts, g, k, y)`` over 2 ``range(ts)`` shards of 64-row zones, at
    threads=2 with no faults, so a brush over both
    shards is one pooled batch of 2 shard tasks on every CI leg."""
    pin_defaults("delta_rows", "storage", "memory_budget_kb", "degrade")
    settings.configure(threads=2, zone_rows=64, shards=0, optimizer=True, faults="off")
    n = len(ys)
    db = Database()
    db.create_table("t", {
        "ts": list(range(n)),
        "g": ["abc"[(i * 7) % 3] for i in range(n)],
        "k": [(i * 5) % 11 - 5 for i in range(n)],
        "y": ys,
    })
    db.apply_sharding("t", 2, shard_by="range(ts)")
    return db


def _pooled_run(db: Database, sql: str) -> tuple[Table, tuple[int, int]]:
    """``sql`` with ``(parallel.batches, parallel.morsels)`` it recorded."""
    registry = get_registry()
    counters = [registry.counter("parallel.batches"), registry.counter("parallel.morsels")]
    before = [counter.value for counter in counters]
    result = db.sql(sql)
    batches, morsels = (counter.value - b for counter, b in zip(counters, before))
    return result, (batches, morsels)


class TestPooledAggregates:
    """A GROUP BY over a pooled scan runs the scan's filter tasks on the pool,
    and the calling thread groups the gathered rows once, whatever the
    aggregates: the serial operator's input and arithmetic."""

    N = 2000
    BRUSH = "WHERE ts >= 300 AND ts < 1700"  # over both shards

    def _groupings(self, db: Database, sql: str, monkeypatch) -> tuple[Table, dict, tuple]:
        """Run ``sql`` pooled, counting ``group_rows`` and ``group_ids`` calls
        on every thread (``group_rows`` reaches ``group_ids`` by name too)."""
        calls: dict[str, list] = {"group_rows": [], "group_ids": []}
        lock = threading.Lock()

        def spy(name, real):
            def counted(*args):
                with lock:
                    calls[name].append(threading.get_ident())
                return real(*args)
            return counted

        with monkeypatch.context() as patch:
            for name in calls:
                patch.setattr(ops, name, spy(name, getattr(ops, name)))
            result, fanout = _pooled_run(db, sql)
        return result, {name: len(seen) for name, seen in calls.items()}, fanout

    def _db(self) -> Database:
        return _sharded_db([_FLOATS[(i * 3) % len(_FLOATS)] for i in range(self.N)])

    @pytest.mark.parametrize("select", [
        "COUNT(*) AS n, SUM(y) AS s",
        "COUNT(*) AS n, MIN(y) AS lo, SUM(k) AS sk",
    ])
    def test_groups_once_on_the_calling_thread(self, select, monkeypatch) -> None:
        db = self._db()
        sql = f"SELECT g, {select} FROM t {self.BRUSH} GROUP BY g"
        pooled, calls, fanout = self._groupings(db, sql, monkeypatch)
        assert calls == {"group_rows": 1, "group_ids": 1}  # once, on the calling thread
        assert fanout == (1, 2)  # one batch of the two shard tasks
        settings.configure(threads=0)
        tables_bit_identical(pooled, db.sql(sql))


_AGGREGATES = (
    "COUNT(*)", "COUNT(y)", "SUM(y)", "AVG(y)", "MIN(y)", "MAX(y)", "SUM(k)",
    "SUM(DISTINCT y)", "AVG(DISTINCT y)", "COUNT(DISTINCT y)", "MIN(DISTINCT k)",
)


@hypothesis_settings(max_examples=40, deadline=None)
@given(
    ys=st.lists(st.sampled_from(_FLOATS), min_size=130, max_size=260),
    calls=st.lists(st.sampled_from(_AGGREGATES), min_size=1, max_size=4, unique=True),
    grouped=st.booleans(),
)
@example(
    ys=[0.0, -0.0, NAN, 1.5, -0.0, None, 0.0, NAN, -2.25, 1e16] * 16,
    calls=["AVG(y)", "SUM(DISTINCT y)", "MIN(y)"],
    grouped=True,
)
def test_pooled_aggregates_equal_serial(ys, calls, grouped) -> None:
    """Any mix of aggregates over 2 pooled shard tasks equals threads=0
    bit for bit."""
    db = _sharded_db(ys)
    select = ", ".join(f"{call} AS a{i}" for i, call in enumerate(calls))
    sql = f"SELECT {'g, ' if grouped else ''}{select} FROM t WHERE ts >= 10 AND ts < {len(ys) - 10}"
    sql += " GROUP BY g" if grouped else ""
    pooled, fanout = _pooled_run(db, sql)
    assert fanout == (1, 2)
    settings.configure(threads=0)
    tables_bit_identical(pooled, db.sql(sql))
    parallel.shutdown_pool()


# -- property-style corpus test -------------------------------------------------------


@pytest.mark.parametrize("seed", range(12))
def test_corpus_serial_and_parallel_bit_identical(seed: int) -> None:
    """Replay the SQL differential corpus in both modes; results must be
    bit-identical (payload bytes, validity masks and schemas).  The corpus
    tables hold 20-120 rows, so the pooled mode's zones are 8 rows: its
    filtered scans are several span tasks."""
    rng = np.random.default_rng(1000 + seed)
    table, _ = random_table(rng, n=int(rng.integers(20, 120)))
    db = Database()
    db.create_table("t", table)
    pooled = 0
    for _ in range(10):
        sql = random_query(rng)
        settings.configure(threads=0)
        serial = db.sql(sql)
        settings.configure(threads=4, zone_rows=8)
        par, (batches, _) = _pooled_run(db, sql)
        pooled += batches
        try:
            tables_bit_identical(serial, par)
        except AssertionError as exc:  # pragma: no cover - diagnostic
            raise AssertionError(f"modes disagree on {sql!r}: {exc}") from exc
    assert pooled > 0
    parallel.shutdown_pool()


# -- observability --------------------------------------------------------------------


class TestObservability:
    def test_parallel_metrics_family_recorded(self, parallel_mode) -> None:
        old = set_registry(MetricsRegistry())
        try:
            db = Database()
            db.create_table("t", {"x": list(range(100))})
            db.sql("SELECT x FROM t WHERE x > 10")
            snapshot = set_registry(old).snapshot()
        finally:
            set_registry(old)
        assert snapshot["counters"]["parallel.morsels"] > 1
        assert snapshot["counters"]["parallel.batches"] >= 1
        assert snapshot["gauges"]["parallel.workers"] == 4
        assert snapshot["timers"]["parallel.batch_time"]["count"] >= 1

    def test_explain_analyze_shows_fanout(self, parallel_mode) -> None:
        db = Database()
        db.create_table("t", {"x": list(range(100)), "g": ["a", "b"] * 50})
        report = db.explain_analyze(
            "SELECT g, COUNT(*) AS n FROM t WHERE x > 5 GROUP BY g"
        )
        text = report.render()
        assert "tasks x 4 threads" in text
        assert any(node.annotations for node in _walk_profiles(report.root))

    def test_per_worker_spans_collected(self, parallel_mode) -> None:
        # per-worker spans live in the parent's tracer, which the pool's
        # threads share
        tracer = get_tracer()
        tracer.clear()
        tracer.enable()
        try:
            db = Database()
            db.create_table("t", {"x": list(range(200))})
            db.sql("SELECT x FROM t WHERE x > 3")
        finally:
            tracer.disable()
        names = [s.name for s in tracer.all_spans()]
        assert "parallel.morsel" in names
        workers = {
            s.attrs.get("worker")
            for s in tracer.all_spans()
            if s.name == "parallel.morsel"
        }
        assert all(w for w in workers)
        tracer.clear()

    @pytest.mark.parametrize("shape", [
        "SELECT x FROM t WHERE x % 3 = 0",
        "SELECT g, COUNT(*) AS n FROM t WHERE x % 3 = 0 GROUP BY g",
    ])
    def test_fanout_annotation_is_the_tasks_that_ran(self, shape) -> None:
        """16 zones of 64 rows are 16 tasks; a pending INSERT adds its
        tail task."""
        pin_defaults("shards", "delta_rows", "optimizer")
        settings.configure(threads=4, zone_rows=64)
        db = Database()
        db.create_table("t", {"x": list(range(1000)), "g": ["a", "b"] * 500})
        morsels = get_registry().counter("parallel.morsels")
        for want in (16, 17):
            before = morsels.value
            text = db.explain_analyze(shape).render()
            assert morsels.value - before == want
            assert f"parallel: {want} tasks x 4 threads" in text, text
            db.execute("INSERT INTO t VALUES (1000, 'a')")

    def test_profiler_serial_runs_have_no_fanout_annotation(self, serial_mode) -> None:
        db = Database()
        db.create_table("t", {"x": list(range(100))})
        report = db.explain_analyze("SELECT x FROM t WHERE x > 5")
        assert "parallel:" not in report.render()


def _walk_profiles(root):
    yield root
    for child in root.children:
        yield from _walk_profiles(child)


# -- knobs ----------------------------------------------------------------------------


class TestKnobs:
    def test_pragma_threads_roundtrip(self) -> None:
        db = Database()
        assert db.execute("PRAGMA threads=2") == 0
        assert settings.current.threads == 2
        readback = db.execute("PRAGMA threads")
        assert readback.to_dicts() == [{"pragma": "threads", "value": 2}]
        assert db.execute("PRAGMA threads=0") == 0
        assert settings.current.threads == 0

    def test_pragma_morsel_rows_is_no_threshold(self) -> None:
        """No row count gates the pool: ``PRAGMA morsel_rows`` is unknown,
        and two tasks pool at ``threads >= 2`` however few rows they hold."""
        from repro.errors import CatalogError

        db = Database()
        db.execute("PRAGMA threads=2")
        before = settings.snapshot()
        with pytest.raises(CatalogError, match="^unknown pragma 'morsel_rows'"):
            db.execute("PRAGMA morsel_rows=500")
        assert settings.snapshot() == before
        table = Table.from_dict({"x": list(range(4))})
        tasks = parallel._span_tasks(table, [(0, 1, True), (2, 3, True)], None, None)
        assert len(tasks) == 2 and parallel.should_parallelize(len(tasks))

    def test_pragma_rejects_unknown_and_garbage(self) -> None:
        from repro.errors import CatalogError

        db = Database()
        with pytest.raises(CatalogError):
            db.execute("PRAGMA bogus=1")
        with pytest.raises(CatalogError):
            db.execute("PRAGMA threads=abc")
        with pytest.raises(CatalogError):
            db.execute("PRAGMA threads=-2")

    def test_shell_threads_command(self) -> None:
        from repro.__main__ import Shell

        shell = Shell()
        out = shell.execute("\\threads 3")
        assert "threads = 3" in out
        assert "parallel" in out
        out = shell.execute("\\threads 0")
        assert "threads = 0" in out and "serial" in out
        out = shell.execute("PRAGMA threads=2")
        assert out == "ok"
        assert "threads | 2" in shell.execute("PRAGMA threads")

"""Tests for the query governor (repro.resilience).

Covers the four pillars of the resilience layer:

- deadlines and cancellation (operator- and scan-task checkpoints on
  both runners,
  bounded cancellation latency, Ctrl-C surfacing as a typed error);
- memory budgets (estimated-allocation accounting, the ``alloc_spike``
  fault point);
- graceful degradation (approximate answers whose confidence interval
  contains the exact result);
- fault tolerance (serial task retry under injected task crashes —
  including bit-identity of the SQL differential corpus — and the
  process-pool -> thread-pool fallback).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro import settings
from repro.engine import Database, DataType
from repro.engine import parallel
from repro.engine.csv_io import read_csv
from repro.errors import (
    ApproximationError,
    CatalogError,
    ExecutionError,
    LoadingError,
    MemoryBudgetError,
    QueryCancelledError,
    QueryTimeoutError,
)
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.obs.profile import table_nbytes
from repro.obs.tracing import get_tracer
from repro.resilience import (
    CancellationToken,
    QueryContext,
    activate,
    context_from_config,
    current_context,
    parse_faults,
)
from repro.resilience.degrade import DegradedTable, degradable, degraded_answer
from repro.resilience.faults import FaultInjector, FaultSpec, InjectedFault
from tests.test_parallel import tables_bit_identical
from tests.test_sql_differential import random_query, random_table


@pytest.fixture(autouse=True)
def _reset_governor():
    """No test leaves its worker pool behind."""
    yield
    parallel.shutdown_pool()


@pytest.fixture()
def registry():
    """A fresh metrics registry installed for the test."""
    fresh = MetricsRegistry()
    old = set_registry(fresh)
    yield fresh
    set_registry(old)


def _demo_db(n: int = 2_000, seed: int = 0) -> Database:
    rng = np.random.default_rng(seed)
    db = Database()
    db.create_table(
        "t",
        {
            "x": rng.integers(0, 1_000, n).tolist(),
            "y": np.round(rng.uniform(0, 100, n), 3).tolist(),
            "g": [["a", "b", "c"][i] for i in rng.integers(0, 3, n)],
        },
    )
    return db


#: a WHERE every row passes: the scan's span tasks are the only tasks, so
#: the slowed and crashing tasks are this scan's spans
AGG_QUERY = "SELECT g, COUNT(*) AS n, SUM(x) AS sx, AVG(y) AS ay FROM t WHERE x >= 0 GROUP BY g"


# -- context unit behaviour -----------------------------------------------------------


class TestQueryContext:
    def test_no_limits_never_raises(self):
        ctx = QueryContext()
        ctx.check()
        ctx.charge(10**12)

    def test_deadline_raises_timeout(self):
        ctx = QueryContext(timeout_ms=1)
        time.sleep(0.005)
        with pytest.raises(QueryTimeoutError):
            ctx.check()

    def test_cancellation_raises(self):
        ctx = QueryContext()
        ctx.cancel()
        with pytest.raises(QueryCancelledError):
            ctx.check()
        assert ctx.cancelled

    def test_token_is_shared(self):
        token = CancellationToken()
        ctx = QueryContext(token=token)
        token.cancel()
        with pytest.raises(QueryCancelledError):
            ctx.check()

    def test_memory_budget(self):
        ctx = QueryContext(memory_budget_bytes=1_000)
        ctx.charge(600)
        ctx.release(600)
        ctx.charge(900, "Scan(t)")
        with pytest.raises(MemoryBudgetError, match="Scan"):
            ctx.charge(200, "Scan(t)")
        assert ctx.peak_bytes >= 1_100

    def test_activation_is_scoped(self):
        assert current_context() is None
        ctx = QueryContext()
        with activate(ctx):
            assert current_context() is ctx
        assert current_context() is None

    def test_context_from_config_maps_zero_to_none(self):
        settings.configure(timeout_ms=0, memory_budget_kb=0)
        ctx = context_from_config()
        assert ctx.deadline_s is None
        assert ctx.memory_budget_bytes is None

    def test_configure_rejects_bad_values(self):
        with pytest.raises(ValueError):
            settings.configure(timeout_ms=-1)
        with pytest.raises(ValueError):
            settings.configure(memory_budget_kb=-1)
        with pytest.raises(ValueError):
            settings.configure(faults="nonsense")


# -- fault-injection harness ----------------------------------------------------------


class TestFaults:
    def test_parse_spec(self):
        specs = parse_faults("worker_crash:0.5,slow_morsel:1:35")
        assert specs["worker_crash"] == FaultSpec("worker_crash", 0.5)
        assert specs["slow_morsel"] == FaultSpec("slow_morsel", 1.0, 35.0)
        assert parse_faults("") == {}

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_faults("worker_crash")
        with pytest.raises(ValueError):
            parse_faults("meteor_strike:0.5")
        with pytest.raises(ValueError):
            parse_faults("worker_crash:1.5")

    def test_decisions_are_deterministic(self):
        injector = FaultInjector(parse_faults("worker_crash:0.3"), seed=7)
        decisions = [injector.decide("worker_crash", (0, i)) for i in range(100)]
        again = [injector.decide("worker_crash", (0, i)) for i in range(100)]
        assert decisions == again
        fired = sum(d is not None for d in decisions)
        assert 0 < fired < 100  # probabilistic, not all-or-nothing

    def test_crash_helper_raises(self):
        injector = FaultInjector(parse_faults("worker_crash:1.0"), seed=0)
        with pytest.raises(InjectedFault):
            injector.maybe_crash((0, 0))

    def test_pragma_roundtrip(self):
        db = Database()
        db.execute("PRAGMA faults=worker_crash:0.25")
        shown = db.execute("PRAGMA faults")
        assert shown.column("value")[0] == "worker_crash:0.25"
        db.execute("PRAGMA faults=off")
        assert db.execute("PRAGMA faults").column("value")[0] == "off"

    def test_pragma_rejects_bad_spec(self):
        db = Database()
        with pytest.raises(CatalogError):
            db.execute("PRAGMA faults=meteor_strike:1")


# -- deadlines & cancellation through the engine --------------------------------------


class TestDeadlines:
    def test_timeout_cancels_within_a_morsel_of_the_deadline(self):
        """The acceptance criterion: with slow-task injection the query
        dies within roughly one span's work of its deadline, far before
        it could have finished."""
        db = _demo_db(n=4_000)
        settings.configure(threads=2, zone_rows=100)
        # 40 spans x 50 ms sleep / 2 threads ~= 1 s of work if run dry
        settings.configure(faults="slow_morsel:1.0:50", timeout_ms=60)
        start = time.perf_counter()
        with pytest.raises(QueryTimeoutError):
            db.sql(AGG_QUERY)
        wall_s = time.perf_counter() - start
        # deadline (60 ms) + in-flight spans (~2 x 50 ms) + slack
        assert wall_s < 0.45, f"cancellation latency out of bounds: {wall_s:.3f}s"

    def test_a_serial_scan_stops_within_a_span_of_the_deadline(self):
        """The calling thread runs each span through the same governed
        step as a worker: its fault sites slow every span, and the
        deadline stops the scan within about one span past it."""
        db = _demo_db(n=4_000)
        settings.configure(threads=0, zone_rows=250)
        # 16 spans x 20 ms = 320 ms of work if run dry
        settings.configure(faults="slow_morsel:1.0:20", timeout_ms=60)
        start = time.perf_counter()
        with pytest.raises(QueryTimeoutError):
            db.sql(AGG_QUERY)
        wall_s = time.perf_counter() - start
        # deadline (60 ms) + the span in flight (20 ms) + slack
        assert wall_s < 0.16, f"cancellation latency out of bounds: {wall_s:.3f}s"

    def test_timeout_pragma_roundtrip(self):
        db = Database()
        db.execute("PRAGMA timeout_ms=250")
        assert settings.current.timeout_ms == 250
        assert db.execute("PRAGMA timeout_ms").column("value")[0] == 250
        db.execute("PRAGMA timeout_ms=0")

    def test_timeout_metric_increments(self, registry):
        db = _demo_db(n=4_000)
        settings.configure(threads=2, zone_rows=100, faults="slow_morsel:1.0:50", timeout_ms=40)
        with pytest.raises(QueryTimeoutError):
            db.sql(AGG_QUERY)
        assert registry.counter("resilience.timeouts").value == 1

    def test_keyboard_interrupt_surfaces_as_cancellation(
        self, registry, monkeypatch
    ):
        db = _demo_db(n=100)

        def boom(plan, database, profiler=None):
            raise KeyboardInterrupt

        import repro.engine.executor as executor

        monkeypatch.setattr(executor, "execute_plan", boom)
        with pytest.raises(QueryCancelledError):
            db.sql("SELECT COUNT(*) AS n FROM t")
        assert registry.counter("resilience.cancellations").value == 1
        # the session is still usable afterwards
        monkeypatch.undo()
        assert db.sql("SELECT COUNT(*) AS n FROM t").column("n")[0] == 100
        assert get_tracer().open_depth() == 0

    def test_cancelled_token_aborts_governed_query(self, monkeypatch):
        db = _demo_db(n=100)
        import repro.engine.executor as executor

        real = executor.execute_plan

        def cancel_then_run(plan, database, profiler=None):
            ctx = current_context()
            assert ctx is not None
            ctx.cancel()
            return real(plan, database, profiler)

        monkeypatch.setattr(executor, "execute_plan", cancel_then_run)
        with pytest.raises(QueryCancelledError):
            db.sql("SELECT COUNT(*) AS n FROM t")


# -- memory budgets -------------------------------------------------------------------


class TestMemoryBudget:
    def test_budget_exceeded_raises(self, registry):
        db = _demo_db(n=5_000)
        settings.configure(memory_budget_kb=1)
        with pytest.raises(MemoryBudgetError):
            db.sql("SELECT x, y FROM t WHERE x > 10")
        assert registry.counter("resilience.memory_exceeded").value == 1

    def test_generous_budget_passes(self):
        db = _demo_db(n=1_000)
        settings.configure(memory_budget_kb=100_000)
        assert db.sql("SELECT COUNT(*) AS n FROM t").column("n")[0] == 1_000

    def test_alloc_spike_inflates_charges(self):
        db = _demo_db(n=1_000)
        # tens of KB of intermediates fit a 10 MB budget...
        settings.configure(memory_budget_kb=10_000)
        db.sql("SELECT x FROM t WHERE x >= 0")
        # ...but not when every charge is inflated 10000x
        settings.configure(faults="alloc_spike:1.0:10000")
        with pytest.raises(MemoryBudgetError):
            db.sql("SELECT x FROM t WHERE x >= 0")

    @pytest.mark.parametrize("degrade", (0, 1))
    def test_filtered_aggregate_charges_its_gathered_columns(self, degrade):
        """The scan under a filtered GROUP BY charges the columns it gathers
        for the aggregate (``g`` and ``x``; ``y`` is only evaluated), so a
        budget below them stops the query before the group pass, or
        degrades it, though the grouped answer itself is tiny."""
        settings.configure(shards=0, optimizer=True, faults="off")
        db = _demo_db(n=20_000)
        sql = "SELECT g, SUM(x) AS sx FROM t WHERE y < 90 GROUP BY g"
        gathered = table_nbytes(db.sql("SELECT g, x FROM t WHERE y < 90"))
        assert gathered > 150_000 and table_nbytes(db.sql(sql)) < 100
        settings.configure(memory_budget_kb=gathered // 1024 - 8, degrade=degrade)
        if degrade:
            assert isinstance(db.sql(sql), DegradedTable)
        else:
            with pytest.raises(MemoryBudgetError, match=r"at Scan\(t, filter: \(y < 90\), columns: \[x, g\]\)"):
                db.sql(sql)


# -- graceful degradation -------------------------------------------------------------


class TestDegradation:
    def _exact_and_degraded(self, n: int = 20_000):
        # the degraded answer samples fixed row positions (seed 0), so
        # the CI-containment guarantee is calibrated against the insert
        # order; keep env-driven auto-sharding from re-clustering the
        # demo table under that sample
        settings.configure(shards=0)
        db = _demo_db(n=n)
        exact = db.sql(AGG_QUERY)
        settings.configure(memory_budget_kb=4, degrade=1)
        degraded = db.sql(AGG_QUERY)
        return exact, degraded

    def test_degraded_answer_is_tagged(self):
        exact, degraded = self._exact_and_degraded()
        assert isinstance(degraded, DegradedTable)
        assert degraded.degraded
        assert degraded.sample_rows == 10_000  # degraded_answer's row budget
        assert degraded.total_rows == 20_000
        assert "budget" in degraded.reason
        assert list(degraded.column_names) == [
            "g", "n", "n_lo", "n_hi", "sx", "sx_lo", "sx_hi", "ay", "ay_lo", "ay_hi",
        ]

    def test_confidence_interval_contains_exact_answer(self):
        """The acceptance criterion: every exact cell lies inside the
        degraded answer's confidence interval (deterministic seed)."""
        exact, degraded = self._exact_and_degraded()
        exact_by_group = {
            exact.column("g")[i]: {
                name: exact.column(name)[i] for name in ("n", "sx", "ay")
            }
            for i in range(exact.num_rows)
        }
        assert degraded.num_rows == exact.num_rows
        for i in range(degraded.num_rows):
            truth = exact_by_group[degraded.column("g")[i]]
            for name in ("n", "sx", "ay"):
                lo = degraded.column(f"{name}_lo")[i]
                hi = degraded.column(f"{name}_hi")[i]
                assert lo <= truth[name] <= hi, (
                    f"exact {name}={truth[name]} outside [{lo}, {hi}]"
                )

    def test_degradation_metric_and_span(self, registry):
        tracer = get_tracer()
        tracer.clear()
        tracer.enable()
        try:
            self._exact_and_degraded(n=5_000)
        finally:
            tracer.disable()
        assert registry.counter("resilience.degradations").value == 1
        names = [span.name for span in tracer.all_spans()]
        assert "resilience.degrade" in names

    def test_non_degradable_plan_still_fails(self):
        db = _demo_db(n=5_000)
        settings.configure(memory_budget_kb=1, degrade=1)
        with pytest.raises(MemoryBudgetError):
            db.sql("SELECT x, y FROM t ORDER BY y")

    def test_degradable_shapes(self):
        db = _demo_db(n=100)
        assert degradable(db.plan("SELECT COUNT(*) AS n FROM t"))
        assert degradable(db.plan(AGG_QUERY))
        assert degradable(db.plan("SELECT AVG(y) AS a FROM t WHERE x > 500"))
        assert not degradable(db.plan("SELECT x FROM t"))
        assert not degradable(db.plan("SELECT g, COUNT(*) AS n FROM t GROUP BY g ORDER BY n"))
        assert not degradable(db.plan("SELECT COUNT(DISTINCT g) AS n FROM t"))
        assert not degradable(db.plan("SELECT MAX(x) AS m FROM t"))

    def test_degraded_answer_rejects_bad_plan(self):
        db = _demo_db(n=100)
        with pytest.raises(ApproximationError):
            degraded_answer(db.plan("SELECT x FROM t"), db)

    def test_degradation_does_not_mask_cancellation(self, monkeypatch):
        """A cancelled query must never silently return an approximation."""
        db = _demo_db(n=1_000)
        settings.configure(degrade=1)
        import repro.engine.executor as executor

        def boom(plan, database, profiler=None):
            raise KeyboardInterrupt

        monkeypatch.setattr(executor, "execute_plan", boom)
        with pytest.raises(QueryCancelledError):
            db.sql(AGG_QUERY)


# -- fault tolerance: retries and pool fallback ---------------------------------------


class TestRetries:
    def test_injected_crashes_are_retried_to_the_exact_result(self, registry):
        db = _demo_db(n=2_000)
        settings.configure(threads=0)
        serial = db.sql(AGG_QUERY)
        # every task crashes once
        settings.configure(threads=4, zone_rows=64, faults="worker_crash:1.0")
        recovered = db.sql(AGG_QUERY)
        tables_bit_identical(serial, recovered)
        assert registry.counter("resilience.morsel_failures").value > 0
        assert registry.counter("resilience.retries").value > 0

    def test_crash_placement_ignores_earlier_batches(self, monkeypatch):
        """Faults key on (batch, task); conftest restarts the batch
        numbering per test, so the same query under the same faults and
        seed crashes the same tasks whatever ran before it."""
        from tests.conftest import restart_batch_numbering

        db = _demo_db(n=2_000)
        settings.configure(threads=4, zone_rows=64, faults="worker_crash:0.3", fault_seed=7)
        crashed: list[tuple[int, int]] = []
        retry = parallel._retry_morsel_serially

        def spy(fn, args, key, exc):
            crashed.append(key)
            return retry(fn, args, key, exc)

        monkeypatch.setattr(parallel, "_retry_morsel_serially", spy)
        db.sql(AGG_QUERY)  # numbered from 0 by this test's own fixture
        first = sorted(crashed)
        assert first and first[0][0] == 0
        for _ in range(3):  # the batches of "earlier tests"
            db.sql(AGG_QUERY)
        restart_batch_numbering()
        del crashed[:]
        db.sql(AGG_QUERY)
        assert sorted(crashed) == first

    def test_persistent_failure_exhausts_retries(self):
        settings.configure(threads=2)

        def always_broken(start: int, stop: int) -> int:
            raise RuntimeError("kaput")

        with pytest.raises(ExecutionError, match="failed after"):
            parallel._run_tasks(always_broken, [(0, 4)])

    def test_resource_errors_are_not_retried(self):
        settings.configure(threads=2)
        ctx = QueryContext()
        ctx.cancel()

        def kernel(start: int, stop: int) -> int:
            return stop - start

        with activate(ctx):
            with pytest.raises(QueryCancelledError):
                parallel._run_tasks(kernel, [(0, 4)])

    def test_differential_corpus_bit_identical_under_crashes(self):
        """The acceptance criterion: with worker_crash injection on, the
        SQL differential corpus still matches serial bit for bit."""
        settings.configure(faults="worker_crash:0.2", fault_seed=3, zone_rows=8)
        rng = np.random.default_rng(11)
        checked = 0
        for _ in range(40):
            table, _rows = random_table(rng, 60)
            query = random_query(rng)
            db = Database()
            db.create_table("t", table)
            settings.configure(threads=0)
            serial = db.sql(query)
            settings.configure(threads=4)
            recovered = db.sql(query)
            settings.configure(threads=0)
            tables_bit_identical(serial, recovered)
            checked += 1
        assert checked == 40


class TestPoolFallback:
    def test_thread_pool_failure_is_wrapped_with_morsel_id(self):
        settings.configure(threads=2)

        def kernel(start: int, stop: int) -> int:
            raise RuntimeError("worker died")

        # a failing task goes through the serial-retry path; when the
        # retries fail too, an ExecutionError names the offending morsel
        with pytest.raises(ExecutionError, match=r"morsel \d+:0"):
            parallel._run_tasks(kernel, [(0, 4)])


# -- malformed-row loading policies ---------------------------------------------------


class TestCsvOnError:
    CSV = "a,b\n1,x\n2,y\nbad_int,z\n4\n5,w\n"
    DTYPES = [DataType.INT64, DataType.STRING]

    def _write(self, tmp_path):
        path = tmp_path / "dirty.csv"
        path.write_text(self.CSV)
        return path

    def test_raise_is_the_default(self, tmp_path):
        with pytest.raises(LoadingError):
            read_csv(self._write(tmp_path), dtypes=self.DTYPES)

    def test_skip_drops_bad_rows_and_counts_them(self, tmp_path, registry):
        table = read_csv(self._write(tmp_path), dtypes=self.DTYPES, on_error="skip")
        assert table.num_rows == 3
        assert table.column("a").to_list() == [1, 2, 5]
        assert registry.counter("loading.rows_skipped").value == 2

    def test_null_keeps_rows_with_null_fields(self, tmp_path):
        table = read_csv(self._write(tmp_path), dtypes=self.DTYPES, on_error="null")
        assert table.num_rows == 5
        assert table.column("a").to_list() == [1, 2, None, None, 5]
        assert table.column("b").to_list() == ["x", "y", "z", None, "w"]

    def test_rejects_unknown_policy(self, tmp_path):
        with pytest.raises(ValueError):
            read_csv(self._write(tmp_path), dtypes=self.DTYPES, on_error="explode")

    def test_malformed_row_injection(self, tmp_path, registry):
        path = tmp_path / "clean.csv"
        path.write_text("a\n" + "\n".join(str(i) for i in range(50)) + "\n")
        assert read_csv(path).num_rows == 50
        settings.configure(faults="malformed_row:1.0")
        with pytest.raises(LoadingError, match="injected"):
            read_csv(path)
        assert read_csv(path, on_error="skip").num_rows == 0
        assert registry.counter("loading.rows_skipped").value == 50


# -- tracer hygiene -------------------------------------------------------------------


class TestTracerUnwind:
    def test_unwind_closes_abandoned_spans(self):
        tracer = get_tracer()
        tracer.clear()
        tracer.enable()
        try:
            depth = tracer.open_depth()
            span_a = tracer.span("outer")
            span_a.__enter__()
            tracer.span("inner").__enter__()
            assert tracer.open_depth() == depth + 2
            closed = tracer.unwind(depth)
            assert closed == 2
            assert tracer.open_depth() == depth
            roots = [s.name for s in tracer.finished]
            assert "outer" in roots
        finally:
            tracer.disable()
            tracer.clear()

    def test_unwind_noop_when_clean(self):
        assert get_tracer().unwind() == 0

"""Unit tests for the observability layer (``repro.obs``)."""

import json

import pytest

from repro import settings
from repro.engine.catalog import Database
from repro.obs import (
    MetricsRegistry,
    PlanProfiler,
    Tracer,
    get_registry,
    set_registry,
)
from repro.obs.tracing import disable_tracing, enable_tracing, get_tracer, trace


@pytest.fixture()
def registry():
    """A fresh registry installed as the process default for the test."""
    fresh = MetricsRegistry()
    old = set_registry(fresh)
    yield fresh
    set_registry(old)


# -- metrics registry ------------------------------------------------------------------


class TestMetricsRegistry:
    def test_counter_accumulates_and_rejects_negative(self, registry) -> None:
        counter = registry.counter("c")
        counter.inc()
        counter.inc(4)
        assert registry.counter("c").value == 5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_last_write_wins(self, registry) -> None:
        registry.gauge("g").set(3.5)
        registry.gauge("g").set(1.5)
        registry.gauge("g").add(1.0)
        assert registry.gauge("g").value == 2.5

    def test_timer_observations(self, registry) -> None:
        timer = registry.timer("t")
        timer.observe(0.2)
        timer.observe(0.4)
        with timer.time():
            pass
        assert timer.count == 3
        assert timer.max_s >= 0.4
        assert timer.as_dict()["count"] == 3

    def test_snapshot_is_json_serialisable(self, registry) -> None:
        registry.counter("queries").inc()
        registry.gauge("load").set(0.7)
        registry.timer("lat").observe(0.01)
        registry.record_table("bench", ["col"], [[1], [2]])
        snapshot = json.loads(registry.to_json())
        assert snapshot["counters"] == {"queries": 1}
        assert snapshot["gauges"] == {"load": 0.7}
        assert snapshot["timers"]["lat"]["count"] == 1
        assert snapshot["benchmarks"]["bench"]["rows"] == [[1], [2]]

    def test_sources_are_weak_and_uniquely_named(self, registry) -> None:
        class Source:
            def metrics(self):
                return {"n": 1}

        first, second = Source(), Source()
        name1 = registry.register_source("cache", first)
        name2 = registry.register_source("cache", second)
        assert name1 == "cache" and name2 == "cache#2"
        assert set(registry.snapshot()["sources"]) == {"cache", "cache#2"}
        del first
        assert set(registry.snapshot()["sources"]) == {"cache#2"}

    def test_reset_clears_everything(self, registry) -> None:
        registry.counter("c").inc()
        registry.reset()
        assert registry.snapshot()["counters"] == {}

    def test_default_registry_swap(self, registry) -> None:
        assert get_registry() is registry


# -- tracing ---------------------------------------------------------------------------


class TestTracing:
    def test_spans_nest(self) -> None:
        tracer = Tracer(enabled=True)
        with tracer.span("outer", depth=0):
            with tracer.span("inner"):
                pass
            with tracer.span("inner2"):
                pass
        assert len(tracer.finished) == 1
        outer = tracer.finished[0]
        assert outer.name == "outer"
        assert [c.name for c in outer.children] == ["inner", "inner2"]
        assert outer.duration_s >= sum(c.duration_s for c in outer.children)
        assert [s.name for s in tracer.all_spans()] == ["outer", "inner", "inner2"]

    def test_disabled_tracer_records_nothing(self) -> None:
        tracer = Tracer(enabled=False)
        with tracer.span("outer"):
            pass
        assert tracer.finished == []

    def test_default_tracer_gate(self) -> None:
        tracer = get_tracer()
        tracer.clear()
        with trace("while-disabled"):
            pass
        assert tracer.finished == []
        enable_tracing()
        try:
            with trace("while-enabled", rows=3):
                pass
        finally:
            disable_tracing()
        assert [s.name for s in tracer.finished] == ["while-enabled"]
        assert tracer.finished[0].attrs == {"rows": 3}
        tracer.clear()

    def test_engine_operators_emit_spans_when_enabled(self) -> None:
        db = Database()
        db.create_table("t", {"x": [3, 1, 2], "y": ["a", "b", "a"]})
        tracer = get_tracer()
        tracer.clear()
        enable_tracing()
        try:
            db.sql("SELECT DISTINCT y FROM t ORDER BY y")
        finally:
            disable_tracing()
        names = {s.name for s in tracer.all_spans()}
        assert {"op.sort", "op.distinct"} <= names
        tracer.clear()

    def test_span_as_dict(self) -> None:
        tracer = Tracer(enabled=True)
        with tracer.span("a", k=1):
            with tracer.span("b"):
                pass
        rendered = tracer.finished[0].as_dict()
        assert rendered["name"] == "a"
        assert rendered["attrs"] == {"k": 1}
        assert rendered["children"][0]["name"] == "b"


# -- EXPLAIN ANALYZE -------------------------------------------------------------------


@pytest.fixture()
def db() -> Database:
    database = Database()
    database.create_table(
        "orders",
        {
            "id": [1, 2, 3, 4, 5, 6],
            "customer": ["ann", "bob", "ann", "cat", "bob", "ann"],
            "amount": [10.0, 20.0, 30.0, 40.0, 50.0, 60.0],
            "region_id": [1, 2, 1, 3, 2, 9],
        },
    )
    database.create_table(
        "regions",
        {"region_id": [1, 2, 3], "region": ["north", "south", "east"]},
    )
    return database


class TestExplainAnalyze:
    def test_report_covers_every_non_aggregate_node_type(self, db: Database) -> None:
        # customer <> region spans both join sides, so it survives as a
        # residual Filter even with the plan optimizer pushing conjuncts
        report = db.explain_analyze(
            "SELECT DISTINCT customer, region FROM orders "
            "JOIN regions ON orders.region_id = regions.region_id "
            "WHERE amount > 5 AND customer <> region "
            "ORDER BY customer LIMIT 10"
        )
        labels = []

        def walk(profile):
            labels.append(profile.label)
            for child in profile.children:
                walk(child)

        walk(report.root)
        # the optimizer fuses Limit -> Sort into one TopN node
        top = ("TopN",) if settings.current.optimizer else ("Limit", "Sort")
        for head in top + ("Distinct", "Project", "Filter", "HashJoin", "Scan"):
            assert any(label.startswith(head) for label in labels), labels

    def test_report_covers_aggregate_node(self, db: Database) -> None:
        report = db.explain_analyze(
            "SELECT customer, SUM(amount) AS total FROM orders "
            "GROUP BY customer HAVING SUM(amount) > 0 ORDER BY customer"
        )
        text = report.render()
        assert "Aggregate(" in text

    def test_every_node_reports_time_rows_and_bytes(self, db: Database) -> None:
        report = db.explain_analyze("SELECT id FROM orders WHERE amount > 25 LIMIT 2")

        def walk(profile):
            assert profile.wall_s >= profile.self_s >= 0.0
            assert profile.rows_in >= 0 and profile.rows_out >= 0
            assert profile.bytes_out >= 0
            for child in profile.children:
                walk(child)

        walk(report.root)
        assert report.root.rows_out == 2
        # the scan reads the full base table
        leaf = report.root
        while leaf.children:
            leaf = leaf.children[0]
        assert leaf.label.startswith("Scan")
        assert leaf.rows_in == 6

    def test_render_shape(self, db: Database) -> None:
        report = db.explain_analyze("SELECT id FROM orders ORDER BY id DESC LIMIT 3")
        lines = report.lines()
        assert lines[-1].startswith("total time:")
        for line in lines[:-1]:
            if line.startswith("note:"):
                continue
            assert "time=" in line and "rows=" in line and "bytes=" in line
        root = "TopN(3: id DESC)" if settings.current.optimizer else "Limit(3)"
        assert report.as_dict()["plan"]["label"] == root

    def test_explain_analyze_statement_through_sql_frontend(self, db: Database) -> None:
        result = db.execute("EXPLAIN ANALYZE SELECT id FROM orders LIMIT 1")
        plan_lines = result.column("plan").to_list()
        assert any("Limit(1)" in line for line in plan_lines)
        assert any("time=" in line for line in plan_lines)
        assert plan_lines[-1].startswith("total time:")

    def test_plain_explain_statement_does_not_execute(self, db: Database) -> None:
        before = db.queries_executed
        result = db.execute("EXPLAIN SELECT id FROM orders")
        assert db.queries_executed == before
        plan_lines = result.column("plan").to_list()
        assert any("Scan(orders" in line for line in plan_lines)
        assert not any("time=" in line for line in plan_lines)

    def test_profiled_execution_matches_unprofiled_result(self, db: Database) -> None:
        from repro.engine.executor import execute_plan

        sql = "SELECT customer, amount FROM orders WHERE amount >= 30 ORDER BY amount"
        plan = db.plan(sql)
        profiler = PlanProfiler()
        profiled = execute_plan(plan, db, profiler=profiler)
        plain = execute_plan(db.plan(sql), db)
        assert profiled == plain
        assert profiler.root is not None
        assert profiler.root.rows_out == plain.num_rows

    def test_query_metrics_recorded(self, db: Database) -> None:
        fresh = MetricsRegistry()
        old = set_registry(fresh)
        try:
            db.sql("SELECT id FROM orders")
            db.explain_analyze("SELECT id FROM orders")
            snapshot = fresh.snapshot()
        finally:
            set_registry(old)
        assert snapshot["counters"]["engine.queries"] == 1
        assert snapshot["counters"]["engine.queries_profiled"] == 1
        assert snapshot["timers"]["engine.query_time"]["count"] == 2


class TestSelectionReuse:
    def test_reused_spans_are_counted_and_annotated(self, registry) -> None:
        settings.configure(zone_rows=16, optimizer=True, shards=0)
        database = Database()
        database.create_table("t", {"k": list(range(128)), "v": [i % 10 for i in range(128)]})
        sql = "SELECT k FROM t WHERE k >= 20 AND k < 90 AND v > 3"
        first = database.explain_analyze(sql).render()
        assert "selection:" not in first
        assert registry.counter("scan.spans_reused").value == 0
        second = database.explain_analyze(sql).render()
        reused = registry.counter("scan.spans_reused").value
        assert reused == 5  # zones 1..5 of 8 are MAYBE: every one reused
        assert f"selection: {reused} of {reused} spans reused" in second
        database.execute("INSERT INTO t VALUES (200, 9)")  # a new epoch
        assert "selection:" not in database.explain_analyze(sql).render()
        assert registry.counter("scan.spans_reused").value == reused

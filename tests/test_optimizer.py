"""Tests for the rule-based plan optimizer (repro.engine.optimizer).

Covers the satellite correctness fixes of PR 6 — probe AND-merge
inclusivity at equal bounds, balanced-pair output-name stripping, and
the ambiguous-join BindError — plus a per-rule before/after plan-shape
suite driven by ``Plan.explain()``, the ``PRAGMA optimizer`` plumbing
(including flag-aware plan-cache entries), a filtered aggregate's
pruned scan — its zone metrics and degradability — and the corpus property test
asserting optimizer-on and optimizer-off answers are bit-identical under
threads and fault injection.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import settings
from repro.engine import Database, Table
from repro.engine.expressions import strip_outer_parens
from repro.engine.planner import RangeProbe, intersect_probes
from repro.errors import BindError, TypeMismatchError
from repro.indexing import CrackerIndex
from repro.obs.metrics import MetricsRegistry, get_registry, set_registry
from tests.conftest import pin_defaults
from tests.test_parallel import tables_bit_identical
from tests.test_sql_differential import random_query, random_table


@pytest.fixture(autouse=True)
def _reset_config():
    """Pin the optimizer and zone maps on, regardless of REPRO_* env overrides."""
    pin_defaults("zone_rows", "optimizer")


@pytest.fixture()
def registry():
    fresh = MetricsRegistry()
    old = set_registry(fresh)
    yield fresh
    set_registry(old)


def _db(**tables) -> Database:
    db = Database()
    for name, data in tables.items():
        db.create_table(name, data)
    return db


def _explain_with_notes(db: Database, sql: str) -> str:
    """EXPLAIN output including the ``note: optimizer: ...`` trace lines."""
    return "\n".join(db.execute("EXPLAIN " + sql).column("plan").to_list())


# -- satellite 1: probe AND-merge inclusivity -----------------------------------------


class TestIntersectProbes:
    """Equal bounds with mixed inclusivity must tighten to exclusive."""

    @pytest.mark.parametrize(
        "a_incl,b_incl,expected_incl",
        [(True, True, True), (True, False, False),
         (False, True, False), (False, False, False)],
    )
    def test_equal_low_bounds(self, a_incl, b_incl, expected_incl):
        merged = intersect_probes(
            RangeProbe(column="x", low=5, low_inclusive=a_incl),
            RangeProbe(column="x", low=5, low_inclusive=b_incl),
        )
        assert merged is not None
        assert merged.low == 5 and merged.low_inclusive is expected_incl

    @pytest.mark.parametrize(
        "a_incl,b_incl,expected_incl",
        [(True, True, True), (True, False, False),
         (False, True, False), (False, False, False)],
    )
    def test_equal_high_bounds(self, a_incl, b_incl, expected_incl):
        merged = intersect_probes(
            RangeProbe(column="x", high=7, high_inclusive=a_incl),
            RangeProbe(column="x", high=7, high_inclusive=b_incl),
        )
        assert merged is not None
        assert merged.high == 7 and merged.high_inclusive is expected_incl

    def test_tighter_bound_wins(self):
        merged = intersect_probes(
            RangeProbe(column="x", low=1, high=10),
            RangeProbe(column="x", low=3, high=8, high_inclusive=False),
        )
        assert (merged.low, merged.high) == (3, 8)
        assert merged.low_inclusive is True and merged.high_inclusive is False

    def test_different_columns_do_not_merge(self):
        assert intersect_probes(
            RangeProbe(column="x", low=1), RangeProbe(column="y", low=1)
        ) is None

    def test_incomparable_bounds_do_not_merge(self):
        assert intersect_probes(
            RangeProbe(column="x", low=1), RangeProbe(column="x", low="a")
        ) is None

    @pytest.mark.parametrize(
        "predicate,expected",
        [("a >= 10 AND a > 10", list(range(11, 21))),
         ("a > 10 AND a >= 10", list(range(11, 21))),
         ("a <= 20 AND a < 20", list(range(10, 20))),
         ("a < 20 AND a <= 20", list(range(10, 20)))],
    )
    def test_engine_equal_bound_pairs_on_index(self, predicate, expected):
        """The four >=/> x <=/<  equal-bound pairs, probed through a real
        adaptive index: the strict bound must win."""
        db = _db(t={"a": list(range(100)), "b": list(range(100))})
        values = np.asarray(db.get_table("t").column("a").data)
        db.register_index("t", "a", CrackerIndex(values))
        base = "SELECT b FROM t WHERE a >= 10 AND a <= 20 AND " + predicate
        rows = db.sql(base + " ORDER BY b").column("b").to_list()
        assert rows == expected


# -- satellite 2: balanced output-name stripping --------------------------------------


class TestStripOuterParens:
    def test_strips_balanced_outer_pair(self):
        assert strip_outer_parens("(a + b)") == "a + b"
        assert strip_outer_parens("((a))") == "a"

    def test_keeps_non_enclosing_parens(self):
        # str.strip("()") would mangle this to "a + b) * (c + d"
        assert strip_outer_parens("((a + b) * (c + d))") == "(a + b) * (c + d)"
        assert strip_outer_parens("(a + b) * (c + d)") == "(a + b) * (c + d)"

    def test_untouched_without_parens(self):
        assert strip_outer_parens("a") == "a"
        assert strip_outer_parens("") == ""

    def test_output_name_keeps_inner_parens(self):
        db = _db(t={"a": [1, 2], "b": [3, 4], "c": [5, 6], "d": [7, 8]})
        result = db.sql("SELECT (a + b) * (c + d) FROM t")
        assert list(result.column_names) == ["(a_+_b)_*_(c_+_d)"]

    def test_group_key_name_matches(self):
        db = _db(t={"a": [1, 1, 2], "b": [3, 3, 4]})
        result = db.sql(
            "SELECT (a + b) * (a + b) FROM t GROUP BY (a + b) * (a + b)"
        )
        assert list(result.column_names) == ["(a_+_b)_*_(a_+_b)"]


# -- satellite 3: ambiguous-join binding ----------------------------------------------


class TestAmbiguousJoinBinding:
    @pytest.fixture()
    def db(self):
        return _db(
            t={"a": [1, 2, 3], "b": [4, 5, 6]},
            u={"a": [1, 2], "label": ["x", "y"]},
        )

    def test_unqualified_ambiguous_raises(self, db):
        with pytest.raises(BindError, match="ambiguous join condition"):
            db.sql("SELECT label FROM t JOIN u ON a = a")

    def test_same_side_qualified_raises(self, db):
        with pytest.raises(BindError, match="both operands resolve"):
            db.sql("SELECT label FROM t JOIN u ON t.a = t.b")

    def test_error_names_the_clause(self, db):
        with pytest.raises(BindError, match="JOIN u ON a = a"):
            db.sql("SELECT label FROM t JOIN u ON a = a")

    def test_qualified_both_sides_still_binds(self, db):
        result = db.sql("SELECT label FROM t JOIN u ON t.a = u.a ORDER BY label")
        assert result.column("label").to_list() == ["x", "y"]


# -- per-rule plan-shape tests via Plan.explain() -------------------------------------


class TestRewriteRules:
    @pytest.fixture()
    def db(self):
        return _db(
            t={
                "id": list(range(100)),
                "a": [i % 10 for i in range(100)],
                "b": [float(i) for i in range(100)],
            },
            u={"k": list(range(10)), "w": [i * 2 for i in range(10)]},
        )

    def test_constant_folding_drops_tautology(self, db):
        text = db.explain("SELECT a FROM t WHERE TRUE AND a < 5")
        assert "Scan(t, filter: (a < 5)" in text
        assert "TRUE" not in text

    def test_contradiction_marks_scan_empty(self, db):
        text = db.explain("SELECT a FROM t WHERE a < 5 AND 1 = 2")
        assert "Scan(t, empty" in text
        assert db.sql("SELECT a FROM t WHERE a < 5 AND 1 = 2").num_rows == 0

    def test_contradiction_still_surfaces_type_errors(self, db):
        db.create_table("strs", {"s": ["x", "y"]})
        with pytest.raises(TypeMismatchError):
            db.sql("SELECT s FROM strs WHERE s < 3 AND 1 = 2")

    def test_duplicate_conjunct_deduped(self, db):
        text = db.explain("SELECT a FROM t WHERE a < 5 AND a < 5")
        assert text.count("a < 5") == 1

    def test_folding_never_hides_column_type_errors(self, db):
        db.create_table("strs", {"s": ["x", "y"]})
        # FALSE AND (s < 3) must still raise, not fold to empty
        with pytest.raises(TypeMismatchError):
            db.sql("SELECT s FROM strs WHERE FALSE AND s < 3")

    def test_pushdown_moves_right_conjunct_below_join(self, db):
        text = db.explain(
            "SELECT a, w FROM t JOIN u ON a = k WHERE w > 4 AND a < 8"
        )
        assert "HashJoin(inner, u, a = k)\n" in text
        assert "Scan(u, filter: (w > 4))" in text  # the right scan's own line
        assert "Scan(t" in text and "filter: (a < 8)" in text
        assert "\nFilter" not in text  # residual filter fully dissolved

    def test_pushdown_keeps_cross_side_conjunct(self, db):
        text = db.explain("SELECT a, w FROM t JOIN u ON a = k WHERE a < w")
        assert "Filter((a < w))" in text

    def test_no_pushdown_below_left_join(self, db):
        text = db.explain(
            "SELECT a, w FROM t LEFT JOIN u ON a = k WHERE w > 4"
        )
        assert "Scan(u)" in text  # the right scan took no filter
        assert "Filter((w > 4))" in text

    def test_probe_merge_tightens_index_range(self, db):
        # the scan intersects every range conjunct on the indexed column
        # into one lookup; the plan keeps the whole predicate either way
        values = np.asarray(db.get_table("t").column("id").data)
        db.register_index("t", "id", CrackerIndex(values))
        sql = "SELECT a FROM t WHERE id >= 10 AND id <= 20 AND id > 10"
        assert "index" not in db.explain(sql)
        assert "index: id in (10, 20]: 10 of 100 rows" in db.explain_analyze(sql).render()
        assert db.sql(sql).column("a").to_list() == [i % 10 for i in range(11, 21)]

    def test_probe_merge_empty_range_empties_scan(self, db):
        values = np.asarray(db.get_table("t").column("id").data)
        db.register_index("t", "id", CrackerIndex(values))
        sql = "SELECT a FROM t WHERE id > 10 AND id < 10"
        assert "index: id in (10, 10): 0 of 100 rows" in db.explain_analyze(sql).render()
        assert db.sql(sql).num_rows == 0

    def test_projection_pruning_lists_columns(self, db):
        # the scan gathers what its consumer reads; ``b`` is evaluated, not copied
        text = db.explain("SELECT a FROM t WHERE b > 2.0")
        assert "Scan(t, filter: (b > 2.0), columns: [a])" in text

    def test_projection_pruning_star_keeps_all(self, db):
        text = db.explain("SELECT * FROM t WHERE b > 2.0")
        assert "columns:" not in text

    def test_join_reorder_under_global_aggregate(self, db):
        db.create_table(
            "wide", {"k2": [i % 2 for i in range(50)], "v": list(range(50))}
        )
        sql = (
            "SELECT COUNT(*) AS c FROM t "
            "JOIN wide ON a = k2 JOIN u ON a = k"
        )
        text = _explain_with_notes(db, sql)
        # u (unique keys) must join before wide (25 rows per key)
        assert text.index("HashJoin(inner, wide") < text.index(
            "HashJoin(inner, u"
        )
        assert "note: optimizer: join_reorder" in text
        settings.configure(optimizer=False)
        unopt = db.sql(sql)
        settings.configure(optimizer=True)
        tables_bit_identical(db.sql(sql), unopt)

    def test_no_reorder_when_order_observable(self, db):
        db.create_table(
            "wide", {"k2": [i % 2 for i in range(50)], "v": list(range(50))}
        )
        text = _explain_with_notes(
            db, "SELECT a, v, w FROM t JOIN wide ON a = k2 JOIN u ON a = k"
        )
        assert "join_reorder" not in text
        assert text.index("HashJoin(inner, u") < text.index(
            "HashJoin(inner, wide"
        )

    def test_fusion_replaces_aggregate_over_filtered_scan(self, db):
        """A filtered aggregate needs no node of its own: the Aggregate sits
        on the filtered scan, which gathers only the columns it groups."""
        text = db.explain("SELECT a, COUNT(*) AS c FROM t WHERE b > 2.0 GROUP BY a")
        assert "  Aggregate(keys: a; aggs: c=COUNT(*))\n" in text
        assert text.endswith("\n    Scan(t, filter: (b > 2.0), columns: [a])")
        assert "\nFilter" not in text and "Fused" not in text

    def test_explain_shows_three_distinct_rules(self, db):
        text = _explain_with_notes(
            db, "SELECT b FROM t WHERE TRUE AND b > 2.0 AND b > 2.0 ORDER BY b LIMIT 3"
        )
        for rule in ("constant_fold", "prune", "topn"):
            assert f"note: optimizer: {rule}" in text

    def test_optimizer_off_leaves_plan_alone(self, db):
        sql = "SELECT a, COUNT(*) AS c FROM t WHERE TRUE AND b > 2.0 GROUP BY a"
        settings.configure(optimizer=False)
        text = _explain_with_notes(db, sql)
        assert "optimizer:" not in text
        assert "columns:" not in text
        assert "TRUE" in text


# -- PRAGMA / plan-cache plumbing ------------------------------------------------------


class TestOptimizerPragma:
    def test_pragma_read_and_set(self):
        db = _db(t={"a": [1, 2, 3]})
        assert db.execute("PRAGMA optimizer").column("value").to_list() == [1]
        db.execute("PRAGMA optimizer=0")
        assert settings.current.optimizer is False
        db.execute("PRAGMA optimizer=1")
        assert settings.current.optimizer is True

    def test_plan_cache_entries_are_flag_aware(self):
        """Toggling PRAGMA optimizer must not serve stale optimized plans."""
        db = _db(t={"a": list(range(10)), "b": list(range(10))})
        sql = "SELECT COUNT(*) AS c FROM t WHERE b > 2"
        pruned = "Scan(t, filter: (b > 2), columns: [b])"
        assert pruned in db.plan(sql).explain()
        db.execute("PRAGMA optimizer=0")
        assert "columns:" not in db.plan(sql).explain()
        db.execute("PRAGMA optimizer=1")
        assert pruned in db.plan(sql).explain()

    def test_optimizer_metrics_family(self, registry):
        db = _db(t={"a": list(range(10)), "b": list(range(10))})
        db.sql("SELECT COUNT(*) AS c FROM t WHERE TRUE AND b > 2")
        metrics = registry.snapshot()
        assert metrics["counters"].get("optimizer.runs", 0) >= 1
        assert metrics["counters"].get("optimizer.constant_fold", 0) >= 1
        assert metrics["counters"].get("optimizer.prune", 0) >= 1
        assert "optimizer.fuse" not in metrics["counters"]


# -- a filtered aggregate: Aggregate over its pruned scan -------------------------------


class TestFusedAggregate:
    """What a fused filter+aggregate was is now the plain plan: the scan
    evaluates its predicate span by span and gathers only the aggregate's
    columns, and one serial ``hash_aggregate`` groups them."""

    def _clustered_db(self, n: int = 4000) -> Database:
        return _db(
            t={
                "id": list(range(n)),
                "a": [i // 100 for i in range(n)],  # clustered: zones prune
                "b": [float(i % 7) for i in range(n)],
            }
        )

    def test_fused_matches_unfused_bit_for_bit(self):
        db = self._clustered_db()
        for sql in (
            "SELECT COUNT(*) AS c, MIN(b) AS lo, MAX(b) AS hi FROM t WHERE a >= 30",
            "SELECT a, COUNT(*) AS c, SUM(b) AS s FROM t WHERE a >= 30 GROUP BY a",
            "SELECT a, AVG(b) AS m, COUNT(DISTINCT b) AS d FROM t "
            "WHERE a >= 10 AND a < 12 GROUP BY a",
        ):
            optimized = db.sql(sql)
            settings.configure(optimizer=False)
            baseline = db.sql(sql)
            settings.configure(optimizer=True)
            tables_bit_identical(optimized, baseline)

    def test_fused_matches_under_threads(self):
        db = self._clustered_db()
        sql = "SELECT a, SUM(b) AS s, COUNT(*) AS c FROM t WHERE a < 35 GROUP BY a"
        settings.configure(optimizer=False)
        baseline = db.sql(sql)
        settings.configure(optimizer=True, threads=4, zone_rows=64)
        batches = get_registry().counter("parallel.batches")
        before = batches.value
        tables_bit_identical(db.sql(sql), baseline)
        assert batches.value > before

    def test_fused_records_zone_metrics(self, registry):
        db = self._clustered_db()
        settings.configure(zone_rows=100)
        assert "  Aggregate(keys: <global>; aggs: c=COUNT(*))\n    Scan(t, filter: (a >= 30), " \
            "columns: [a])" in db.plan("SELECT COUNT(*) AS c FROM t WHERE a >= 30").explain()
        result = db.sql("SELECT COUNT(*) AS c FROM t WHERE a >= 30")
        assert result.column("c").to_list() == [1000]
        metrics = registry.snapshot()
        assert metrics["counters"].get("scan.zones_pruned", 0) >= 10

    def test_fused_all_zones_pruned_global_returns_one_row(self):
        db = self._clustered_db()
        settings.configure(zone_rows=100)
        result = db.sql("SELECT COUNT(*) AS c, SUM(b) AS s FROM t WHERE a > 1000")
        assert result.column("c").to_list() == [0]
        assert result.column("s").to_list() == [None]

    def test_fused_type_error_parity_when_all_zones_pruned(self):
        db = _db(
            t={"a": [i // 10 for i in range(400)], "s": ["x"] * 400}
        )
        settings.configure(zone_rows=100)
        with pytest.raises(TypeMismatchError):
            db.sql("SELECT COUNT(*) AS c FROM t WHERE a > 1000 AND s < 3")

    def test_fused_plan_stays_degradable(self):
        from repro.resilience.degrade import degradable

        db = self._clustered_db()
        plan = db.plan("SELECT COUNT(b) AS c FROM t WHERE a >= 30")
        assert "Scan(t, filter: (a >= 30), columns: [b])" in plan.explain()
        assert degradable(plan)

    def test_explain_analyze_annotates_fused_node(self):
        db = self._clustered_db()
        settings.configure(zone_rows=100)
        lines = db.explain_analyze(
            "SELECT COUNT(*) AS c FROM t WHERE a >= 30"
        ).render().splitlines()
        # the scan's line carries its zone annotation and the gathered bytes
        # (one INT64 column of 1,000 rows); the Aggregate's line carries none
        (scan,) = [line for line in lines if line.strip().startswith("Scan(t")]
        (aggregate,) = [line for line in lines if line.strip().startswith("Aggregate(")]
        assert "zones: 30 pruned, 10 passed of 40" in scan and "rows=4000->1000" in scan
        assert "->8000)" in scan
        assert "[" not in aggregate.split(")  (")[1]
        assert not any("fused:" in line for line in lines)


# -- corpus property test: optimizer on == off, bit for bit ---------------------------


@pytest.mark.parametrize("seed", range(12))
def test_corpus_bit_identity_optimizer_on_off(seed: int) -> None:
    """Replay the differential-test corpus with the optimizer on — under
    tiny zones, four threads and worker-crash injection —
    against the optimizer-off serial engine.  Payloads must match byte
    for byte (the plan rewrites may only change how answers are computed,
    never the answers)."""
    rng = np.random.default_rng(4000 + seed)
    table, rows = random_table(rng, n=int(rng.integers(20, 90)))
    queries = [random_query(rng) for _ in range(10)]

    def build_db() -> Database:
        db = Database()
        db.create_table(
            "t",
            Table.from_dict(
                {name: [r[name] for r in rows] for name in ("id", "a", "b", "s")}
            ),
        )
        return db

    settings.configure(optimizer=False, zone_rows=8, threads=0, faults="off")
    baseline_db = build_db()
    baseline = [baseline_db.sql(sql) for sql in queries]

    settings.configure(optimizer=True, threads=4, faults="worker_crash:0.1", fault_seed=seed)
    opt_db = build_db()
    # run twice so the repeat hits the (flag-aware) plan cache
    optimized = [opt_db.sql(sql) for sql in queries]
    repeated = [opt_db.sql(sql) for sql in queries]

    for sql, expected, got, again in zip(queries, baseline, optimized, repeated):
        try:
            tables_bit_identical(got, expected)
            tables_bit_identical(again, expected)
        except AssertionError as exc:
            raise AssertionError(f"optimizer changed the answer of: {sql}") from exc


@pytest.mark.parametrize("seed", range(4))
def test_indexed_corpus_optimizer_on_off(seed: int) -> None:
    """Range queries through an adaptive index, optimizer on and off,
    against the same table with no index: bit-identical in values and
    row order, although the index answers in cracking order."""
    rng = np.random.default_rng(7000 + seed)
    n = 500
    data = {
        "id": list(range(n)),
        "a": [int(v) for v in rng.integers(0, 200, n)],
        "v": [float(v) for v in rng.random(n) * 1e6],
    }
    plain = _db(t=data)
    indexed = _db(t=data)
    indexed.register_index(
        "t", "a", CrackerIndex(np.asarray(indexed.get_table("t").column("a").data))
    )
    for low in rng.integers(0, 180, 6):
        low, high = int(low), int(low) + int(rng.integers(1, 40))
        where = f"WHERE a >= {low} AND a < {high} AND a > {low}"
        for sql in (
            f"SELECT id, a FROM t {where}",
            f"SELECT id, a FROM t {where} ORDER BY a",
            f"SELECT a, COUNT(*) AS n, SUM(v) AS s, AVG(v) AS m FROM t {where} GROUP BY a",
        ):
            for optimizer in (True, False):
                settings.configure(optimizer=optimizer)
                tables_bit_identical(indexed.sql(sql), plain.sql(sql))

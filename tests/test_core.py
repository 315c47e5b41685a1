"""Tests for the ExplorationSession facade, history, steering, taxonomy."""

import numpy as np
import pytest

from repro.core import (
    ExplorationSession,
    FacetSteering,
    QueryHistory,
    TAXONOMY,
    ZoomSteering,
    validate_coverage,
)
from repro.core.taxonomy import render_table
from repro.engine import Database, Table, col
from repro.errors import CatalogError
from repro.workloads import sales_table


@pytest.fixture()
def session():
    s = ExplorationSession()
    s.load_table("sales", sales_table(5000, seed=0))
    return s


class TestHistory:
    def test_records_in_order(self):
        history = QueryHistory()
        history.record("q1", 10)
        history.record("q2", 0)
        assert history.queries() == ["q1", "q2"]
        assert history.last(1)[0].sql == "q2"

    def test_empty_result_fraction(self):
        history = QueryHistory()
        history.record("q1", 10)
        history.record("q2", 0)
        assert history.empty_result_fraction() == 0.5

    def test_column_touch_counts(self):
        history = QueryHistory()
        history.record("q1", 1, columns=frozenset({"a", "b"}))
        history.record("q2", 1, columns=frozenset({"a"}))
        assert history.column_touch_counts() == {"a": 2, "b": 1}


class TestSession:
    def test_sql_records_history(self, session):
        session.sql("SELECT region FROM sales WHERE revenue > 100")
        assert len(session.history) == 1
        entry = session.history.last(1)[0]
        assert "revenue" in entry.columns

    def test_cracking_index_autocreated(self, session):
        assert session.db.index_for("sales", "revenue") is None
        session.sql("SELECT region FROM sales WHERE revenue > 100")
        assert session.db.index_for("sales", "revenue") is not None

    def test_cracked_results_match_uncracked(self):
        plain = ExplorationSession(enable_cracking=False)
        cracked = ExplorationSession(enable_cracking=True)
        for s in (plain, cracked):
            s.load_table("sales", sales_table(3000, seed=1))
        q = "SELECT COUNT(*) AS n FROM sales WHERE revenue >= 50 AND revenue <= 500"
        assert plain.sql(q).to_dicts() == cracked.sql(q).to_dicts()

    def test_approx_requires_samples(self, session):
        with pytest.raises(CatalogError):
            session.approx("sales", "avg", "revenue")

    def test_approx_near_truth(self, session):
        session.build_samples("sales", uniform_fractions=(0.1,))
        answer = session.approx("sales", "avg", "revenue")
        truth = float(np.mean(session.db.get_table("sales").column("revenue").data))
        assert abs(answer.estimate.value - truth) / truth < 0.1

    def test_approx_refuses_samples_of_a_table_that_changed(self):
        """Samples are row positions into the table build_samples saw.  At
        the parent, after ``DELETE FROM t WHERE id >= 1000`` + merge,
        ``approx`` raised a bare ``IndexError: index 1006 is out of bounds``
        from ``Column.take`` — or, with positions still in range, read
        whichever rows the compacting merge had moved there."""
        session = ExplorationSession(enable_cracking=False)
        session.load_table(
            "t", Table.from_dict({"id": np.arange(5000), "v": np.arange(5000.0)})
        )
        session.build_samples("t", uniform_fractions=(0.5,))
        assert session.approx("t", "avg", "v").estimate.contains(2499.5)
        session.db.execute("DELETE FROM t WHERE id >= 1000")
        with pytest.raises(CatalogError, match="'t' has changed since build_samples"):
            session.approx("t", "avg", "v")  # pending delete
        session.db.flush_deltas("t")
        with pytest.raises(CatalogError, match="build_samples again"):
            session.approx("t", "avg", "v")  # merged: rows renumbered
        session.build_samples("t", uniform_fractions=(0.5,))
        assert session.approx("t", "avg", "v").estimate.contains(499.5)

    def test_recommend_views(self, session):
        views = session.recommend_views(
            "sales", col("region") == "north", ["category"], ["revenue"], k=2
        )
        assert len(views) == 2

    def test_explore_by_example(self, session):
        table = session.db.get_table("sales")
        price = np.asarray(table.column("price").data)
        result = session.explore_by_example(
            "sales", ["price"], oracle=lambda i: int(20 <= price[i] <= 40),
            max_iterations=6,
        )
        assert result.samples_labeled > 0

    def test_steering_suggestions(self, session):
        session.sql("SELECT * FROM sales WHERE price > 50")
        suggestions = session.steer("sales", k=2)
        assert len(suggestions) == 2
        assert all("price" in s.sql for s in suggestions)

    def test_suggest_next_from_logs(self, session):
        logs = [
            ["SELECT * FROM sales WHERE price > 10", "SELECT region FROM sales WHERE price > 10"],
            ["SELECT * FROM sales WHERE price > 10", "SELECT region FROM sales WHERE price > 10"],
        ]
        session.observe_log_sessions(logs)
        session.sql("SELECT * FROM sales WHERE price > 10")
        suggestions = session.suggest_next(k=1)
        assert suggestions
        assert "region" in suggestions[0].query


class TestSteering:
    def test_zoom_targets_most_touched_column(self):
        db = Database()
        db.create_table("sales", sales_table(3000, seed=2))
        history = QueryHistory()
        history.record("q", 5, columns=frozenset({"quantity"}))
        history.record("q", 5, columns=frozenset({"quantity"}))
        suggestions = ZoomSteering(db, "sales").suggest(history, k=3)
        assert all("quantity" in s.sql for s in suggestions)

    def test_zoom_scores_sorted(self):
        db = Database()
        db.create_table("sales", sales_table(3000, seed=3))
        suggestions = ZoomSteering(db, "sales").suggest(QueryHistory(), k=5)
        scores = [s.score for s in suggestions]
        assert scores == sorted(scores, reverse=True)

    def test_facet_steering_produces_runnable_sql(self):
        db = Database()
        db.create_table("sales", sales_table(4000, seed=4))
        revenue = np.asarray(db.get_table("sales").column("revenue").data)
        threshold = float(np.quantile(revenue, 0.9))
        suggestions = FacetSteering(db, "sales").suggest(
            col("revenue") > threshold, k=2, min_ratio=1.1
        )
        for suggestion in suggestions:
            result = db.sql(suggestion.sql)
            assert result.num_rows > 0


class TestTaxonomy:
    def test_every_cluster_covered(self):
        report = validate_coverage()
        assert report.complete, f"missing: {report.missing}"
        assert report.clusters_covered == report.clusters_total == len(TAXONOMY)

    def test_three_layers_present(self):
        layers = {cluster.layer for cluster in TAXONOMY}
        assert layers == {"User Interaction", "Middleware", "Database Layer"}

    def test_paper_refs_are_valid_citation_numbers(self):
        for cluster in TAXONOMY:
            assert all(1 <= ref <= 68 for ref in cluster.paper_refs)

    def test_render_mentions_all_layers(self):
        text = render_table()
        for layer in ("User Interaction", "Middleware", "Database Layer"):
            assert layer in text

"""Every recommended view is a GROUP BY on the engine's group kernel
(DESIGN.md, "Views are GROUP BYs"): SeeDB, facets, cube cells, VizDeck
bars and the ordered sampler's partition against ``Database.sql`` over the
same table, the NULL-measure answers the private loops got wrong, and the
phased SeeDB against the exact one at the values the loops gave."""

import math

import numpy as np
import pytest

from repro import Database
from repro.engine import col, truth_mask
from repro.engine.column import Column
from repro.engine.table import Table
from repro.engine.types import DataType
from repro.explore import CubeExplorer, FacetRecommender, SeeDB, VizDeck
from repro.viz import OrderedSampler
from repro.workloads import sales_table

N = 480
NAMES = np.array(["ash", "birch", "cedar", "elm", "fir"], dtype=object)

#: (kind of key column ``k``, encoded): STRING keys of a table built
#: outside the database, or of the registered one (both dictionary codes
#: from construction), INT64 keys, a NULL key
KEYS = [("string", 0), ("string", 1), ("int", 1), ("null", 0), ("null", 1)]
MEASURES = ["clean", "null", "nan"]


def _database(keys: str, encoded: int, measure: str = "clean") -> tuple[Database, Table]:
    """The database holding ``t`` and the table the views are handed: the
    registered one, or with ``encoded=0`` the same rows built outside the
    database."""
    db = Database()
    db.create_table("t", _table(keys, measure))
    table = db.get_table("t") if encoded else _table(keys, measure)
    assert (table is db.get_table("t")) == bool(encoded)
    return db, table


def _table(keys: str, measure: str) -> Table:
    """``t(k, c, flag, m, w, v)``: key ``k`` of the asked kind over five
    values, a second STRING key ``c``, a 0/1 ``flag``, the measure ``m`` of
    the asked kind (``null``: a third of it NULL and every target row of
    ``cedar`` / every row of cell (birch, y) NULL; ``nan``: NaNs inside
    cell (elm, x)), an INT64 measure ``w`` and a clean float ``v``."""
    rng = np.random.default_rng(11)
    group = rng.integers(0, 5, N)
    c = np.array(["x", "y", "z"], dtype=object)[rng.integers(0, 3, N)]
    flag = rng.integers(0, 2, N)
    if keys == "int":
        k = Column(group * 7 - 3)
    else:
        k = Column(NAMES[group], dtype=DataType.STRING,
                   validity=(group != 4) if keys == "null" else None)
    m = np.round(rng.normal(50.0 + 5.0 * group, 4.0), 3)
    valid = None
    if measure == "null":
        valid = rng.integers(0, 3, N) > 0
        valid &= ~((group == 2) & (flag == 1)) & ~((group == 1) & (c == "y"))
    elif measure == "nan":
        m[(group == 3) & (c == "x") & (rng.integers(0, 2, N) == 0)] = np.nan
    return Table([
        ("k", k),
        ("c", Column(c, dtype=DataType.STRING)),
        ("flag", Column(flag)),
        ("m", Column(m, validity=valid)),
        ("w", Column(rng.integers(1, 10, N))),
        ("v", Column(rng.normal(10.0 * group, 3.0))),
    ])


def _close(actual, expected) -> bool:
    return actual == pytest.approx(expected, rel=1e-9, abs=0.0, nan_ok=True)


# -- (a) the differential lattice ----------------------------------------------------


def _sql_distributions(db: Database, dimension: str, measure: str, aggregate: str):
    """(target, reference) of one SeeDB view as SQL answers it; a NULL
    aggregate is an absent key."""
    rows = db.sql(
        f"SELECT {dimension}, flag, {aggregate.upper()}({measure}) AS a "
        f"FROM t GROUP BY {dimension}, flag"
    ).rows()
    answers = [(key, flag, value) for key, flag, value in rows if value is not None]
    return (
        {key: float(value) for key, flag, value in answers if flag == 1},
        {key: float(value) for key, flag, value in answers if flag == 0},
    )


@pytest.mark.parametrize("prune", [False, True], ids=["exact", "pruned"])
@pytest.mark.parametrize("measure", MEASURES)
@pytest.mark.parametrize("keys,encoded", KEYS)
def test_seedb_distributions_equal_sql(keys, encoded, measure, prune):
    """Fails at the parent on every NULL-measure cell (a NULL read 0.0 and
    was counted).  The phased recommender adds partials in phase order,
    hence the relative 1e-9."""
    db, table = _database(keys, encoded, measure)
    seedb = SeeDB(table, ["k", "c"], ["m", "w"])
    views = seedb.recommend(col("flag") == 1, k=4 if prune else 12, prune=prune, num_phases=4)
    assert len(views) == (4 if prune else 12)
    for view in views:
        spec = view.spec
        target, reference = _sql_distributions(db, spec.dimension, spec.measure, spec.aggregate)
        assert _close(view.target_distribution, target), spec.describe()
        assert _close(view.reference_distribution, reference), spec.describe()
    if measure == "null" and not prune:
        by_spec = {view.spec.describe(): view for view in views}
        cedar = 11 if keys == "int" else "cedar"
        assert cedar not in by_spec["avg(m) GROUP BY k"].target_distribution
        assert by_spec["count(m) GROUP BY k"].target_distribution[cedar] == 0.0


@pytest.mark.parametrize("measure", MEASURES)
@pytest.mark.parametrize("keys,encoded", KEYS)
def test_cube_cells_equal_sql(keys, encoded, measure):
    """A cell is ``AVG(m) GROUP BY k, c``; a NULL mean is no cell, and
    neither is a NaN one (the matrix marks absence with NaN)."""
    db, table = _database(keys, encoded, measure)
    explorer = CubeExplorer(table, "k", "c", "m")
    rows = list(db.sql("SELECT k, c, AVG(m) AS a FROM t GROUP BY k, c").rows())
    expected = {
        (k, c): value for k, c, value in rows if value is not None and not math.isnan(value)
    }
    assert _close({(x.row_value, x.column_value): x.actual for x in explorer.cells()}, expected)
    assert explorer.row_values == sorted({k for k, _, _ in rows}, key=str)
    assert explorer.column_values == ["x", "y", "z"]
    if measure == "null":
        assert (4 if keys == "int" else "birch", "y") not in expected


@pytest.mark.parametrize("keys,encoded", KEYS)
def test_facet_supports_equal_sql(keys, encoded):
    db, table = _database(keys, encoded)
    facets = FacetRecommender(table, facet_columns=["k"]).interesting_facets(
        col("w") >= 6, min_ratio=0.0, min_support=1
    )
    in_result = dict(db.sql("SELECT k, COUNT(*) AS n FROM t WHERE w >= 6 GROUP BY k").rows())
    overall = dict(db.sql("SELECT k, COUNT(*) AS n FROM t GROUP BY k").rows())
    size = sum(in_result.values())
    assert {f.value: f.support_in_result for f in facets} == in_result
    assert _close(
        {f.value: f.relevance_ratio for f in facets},
        {value: (n / size) / (overall[value] / N) for value, n in in_result.items()},
    )
    assert [f.relevance_ratio for f in facets] == sorted(
        (f.relevance_ratio for f in facets), reverse=True
    )


@pytest.mark.parametrize("keys,encoded", KEYS)
def test_vizdeck_bar_counts_equal_sql(keys, encoded):
    """The bar score is a function of ``COUNT(*) GROUP BY k`` alone (the
    NULLs are one bar); an INT64 column is a histogram, not a bar."""
    db, table = _database(keys, encoded)
    scores = {c.describe(): c.score for c in VizDeck(table).candidates()}
    if keys == "int":
        assert "bar(k)" not in scores and "histogram(k)" in scores
        return
    counts = np.array([n for _, n in db.sql("SELECT k, COUNT(*) AS n FROM t GROUP BY k").rows()])
    p = counts / counts.sum()
    balance = float(-np.sum(p * np.log(p))) / math.log(len(counts))
    assert _close(scores["bar(k)"], 1.0 - abs(balance - 0.6))


@pytest.mark.parametrize("keys,encoded", KEYS)
def test_ordered_sampler_partition_equals_sql(keys, encoded):
    """One batch as large as the table exhausts every group: the sizes and
    means are then the partition's, exactly."""
    db, table = _database(keys, encoded)
    rows = list(db.sql("SELECT k, COUNT(*) AS n, AVG(v) AS a FROM t GROUP BY k").rows())
    values = table.column("v").data
    sampler = OrderedSampler(table.column("k"), values, batch=N)
    result = sampler.run()
    assert result.samples_per_group == {k: n for k, n, _ in rows}
    assert _close(result.estimates, {k: a for k, _, a in rows})
    assert sampler.true_order() == [k for k, _, a in sorted(rows, key=lambda row: row[2])]
    # the same partition from a plain Python sequence of keys
    listed = OrderedSampler(table.column("k").to_list(), values, batch=N).run()
    assert listed.samples_per_group == result.samples_per_group
    assert list(listed.estimates) == sorted(result.estimates, key=str)


# -- a NULL measure is not 0.0 -------------------------------------------------------


@pytest.fixture()
def repro_table():
    """``g=[a,a,b,b,a,b] flag=[1,1,1,0,0,0] m=[10,NULL,30,NULL,20,40]``."""
    db = Database()
    db.create_table("t", Table([
        ("g", Column(list("aabbab"))),
        ("c", Column(list("xyxyxy"))),
        ("flag", Column([1, 1, 1, 0, 0, 0])),
        ("m", Column([10.0, None, 30.0, None, 20.0, 40.0], dtype=DataType.FLOAT64)),
    ]))
    return db


def test_seedb_skips_null_measures(repro_table):
    """The parent read the NULLs as 0.0: target ``avg(m)`` of ``a`` 5.0 and
    reference ``avg(m)`` of ``b`` 20.0, and counted them in ``count(m)``."""
    table = repro_table.get_table("t")
    views = {
        view.spec.aggregate: view
        for view in SeeDB(table, ["g"], ["m"]).recommend(col("flag") == 1, k=3, prune=False)
    }
    assert views["avg"].target_distribution["a"] == 10.0
    assert views["avg"].reference_distribution["b"] == 40.0
    assert views["count"].target_distribution == {"a": 1.0, "b": 1.0}
    for aggregate, view in views.items():
        target, reference = _sql_distributions(repro_table, "g", "m", aggregate)
        assert view.target_distribution == target
        assert view.reference_distribution == reference


def test_cube_skips_null_measures(repro_table):
    """The parent gave cell (a, y) 0.0 and cell (b, y) 20.0."""
    explorer = CubeExplorer(repro_table.get_table("t"), "g", "c", "m")
    cells = {(x.row_value, x.column_value): x.actual for x in explorer.cells()}
    assert ("a", "y") not in cells
    assert cells[("b", "y")] == 40.0
    sql = repro_table.sql("SELECT g, c, AVG(m) AS a FROM t GROUP BY g, c").rows()
    assert cells == {(g, c): a for g, c, a in sql if a is not None}


def test_null_predicate_rows_are_reference():
    table = Table([
        ("g", Column(list("aabb"))),
        ("flag", Column([1, None, 1, 0], dtype=DataType.INT64)),
        ("m", Column([1.0, 2.0, 3.0, 4.0])),
    ])
    view = SeeDB(table, ["g"], ["m"], ["sum"]).recommend(col("flag") == 1, k=1, prune=False)[0]
    assert view.target_distribution == {"a": 1.0, "b": 3.0}
    assert view.reference_distribution == {"a": 2.0, "b": 4.0}


# -- (c) the phased recommender against the exact one --------------------------------

DIMENSIONS = ["region", "category"]
SALES_MEASURES = ["price", "quantity", "revenue", "discount"]


@pytest.mark.parametrize("seed", range(5))
def test_pruned_agrees_with_exact(seed):
    """Top-1 and the counters at the values the per-view loops gave: a
    target on one dimension prunes the other dimension's 12 views after
    the second phase; a target on a measure prunes nothing."""
    table = sales_table(6000, seed=seed)
    n = table.num_rows
    for target, pruned_views in ((col("category") == "tools", 12), (col("discount") >= 0.1, 0)):
        exact = SeeDB(table, DIMENSIONS, SALES_MEASURES)
        top_exact = exact.recommend(target, k=4, prune=False)
        pruned = SeeDB(table, DIMENSIONS, SALES_MEASURES)
        top_pruned = pruned.recommend(target, k=4, prune=True, num_phases=8)
        assert top_pruned[0].spec == top_exact[0].spec
        assert _close(top_pruned[0].utility, top_exact[0].utility)
        assert (pruned.views_pruned, pruned.views_evaluated_fully) == (
            pruned_views, 24 - pruned_views
        )
        assert (exact.views_evaluated_fully, exact.phases_executed) == (24, 0)
        assert pruned.phases_executed == 8
        # logical work: every row once per view it served
        assert exact.rows_aggregated == 24 * n
        is_target = truth_mask(target, table)
        before_pruning = sum(  # rows of the first two phases, which all 24 views read
            len(phase)
            for side in (is_target, ~is_target)
            for phase in np.array_split(np.flatnonzero(side), 8)[:2]
        )
        assert pruned.rows_aggregated == 24 * n - pruned_views * (n - before_pruning)

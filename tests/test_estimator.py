"""The one estimator under every approximate answer (DESIGN.md,
"Approximate answers"): interval coverage, the three wrong answers it
replaced, the stratified sampler against a plain-Python reference, and
the degrade path agreeing with BlinkDB-style selection cell for cell."""

import math

import numpy as np
import pytest

from repro import Database
from repro.engine import col
from repro.engine.column import Column
from repro.engine.table import Table
from repro.engine.types import DataType
from repro.resilience.degrade import degraded_answer
from repro.sampling import (
    ApproximateQueryEngine,
    SampleCatalog,
    build_stratified_sample,
    stratified_estimate,
)
from repro.sampling.stratified import Stratum

SEEDS = 40


def _strings(names, codes):
    return Column(np.array(names, dtype=object)[codes], dtype=DataType.STRING)


def _truth(aggregate, values, mask):
    if aggregate == "count":
        return float(mask.sum())
    return float(values[mask].sum()) if aggregate == "sum" else float(values[mask].mean())


# -- (a) coverage --------------------------------------------------------------------


@pytest.fixture(scope="module")
def skewed():
    """20k rows: a skewed group key ``g`` (the rarest group is smaller than
    the stratification cap, so it is fully sampled), a second key ``h``, a
    measure whose level depends on the group, and ``x`` to filter on."""
    rng = np.random.default_rng(7)
    n = 20_000
    g = rng.choice(5, size=n, p=[0.45, 0.3, 0.15, 0.09, 0.01])
    h = rng.integers(0, 3, size=n)
    table = Table([
        ("g", _strings(["a", "b", "c", "d", "e"], g)),
        ("h", Column(h)),
        ("v", Column(rng.normal(50.0 + 10.0 * g, 8.0))),
        ("x", Column(rng.random(n))),
    ])
    return table, np.asarray(table.column("g").to_list(), dtype=object)


@pytest.fixture(scope="module")
def coverage(skewed):
    """``{(kind, filtered, grouped, aggregate): (hits, cells)}`` over SEEDS
    samples, counting cells backed by at least 30 sampled member rows."""
    table, g = skewed
    v, x = table.column("v").data, table.column("x").data
    tally: dict[tuple, list[int]] = {}
    for seed in range(SEEDS):
        catalogs = {"uniform": SampleCatalog(table), "stratified": SampleCatalog(table)}
        catalogs["uniform"].add_uniform(0.1, seed=seed)
        catalogs["stratified"].add_stratified(["g", "h"], cap=150, seed=seed)
        for kind, catalog in catalogs.items():
            engine = ApproximateQueryEngine(table, catalog)
            for filtered in (False, True):
                keep = x < 0.6 if filtered else np.ones(len(x), dtype=bool)
                where = col("x") < 0.6 if filtered else None
                for grouped in (False, True):
                    for aggregate in ("count", "sum", "avg"):
                        answer = engine.query(
                            aggregate,
                            None if aggregate == "count" else "v",
                            where=where,
                            group_by=["g"] if grouped else None,
                        )
                        cells = (
                            [(keep & (g == key), e) for (key,), e in answer.group_estimates.items()]
                            if grouped
                            else [(keep, answer.estimate)]
                        )
                        hits = tally.setdefault((kind, filtered, grouped, aggregate), [0, 0])
                        for mask, estimate in cells:
                            if estimate.sample_size < 30:
                                continue
                            truth = _truth(aggregate, v, mask)
                            slack = 1e-9 * abs(truth)  # a fully sampled stratum: width 0
                            hits[0] += estimate.low - slack <= truth <= estimate.high + slack
                            hits[1] += 1
    return tally


@pytest.mark.parametrize("aggregate", ["count", "sum", "avg"])
@pytest.mark.parametrize("grouped", [False, True], ids=["global", "grouped"])
@pytest.mark.parametrize("filtered", [False, True], ids=["all", "where"])
@pytest.mark.parametrize("kind", ["uniform", "stratified"])
def test_nominal_95_interval_covers(coverage, kind, filtered, grouped, aggregate):
    """The property IDEBench scores: the reported interval contains the
    exact answer at (about) the nominal rate.  At the parent commit ten of
    the 24 cells fail: grouped-uniform COUNT and SUM, with or without a
    WHERE (a group's size was read as known: 0.00 and 0.28), and a
    stratified sample's global SUM and AVG and its grouped COUNT and SUM
    under a WHERE (read as uniform: 0.00)."""
    hits, cells = coverage[(kind, filtered, grouped, aggregate)]
    assert cells >= SEEDS
    assert hits / cells >= 0.90, f"{hits}/{cells}"


# -- (b) the three wrong answers -----------------------------------------------------


@pytest.fixture(scope="module")
def repro_table():
    """200k rows: four even groups ``g``; a skewed key ``r`` whose rare
    value (0.1 % of the rows) carries values 300 times the rest."""
    rng = np.random.default_rng(0)
    n = 200_000
    g = rng.integers(0, 4, size=n)
    r = rng.choice(4, size=n, p=[0.70, 0.25, 0.049, 0.001])
    v = rng.exponential(10.0, size=n) + np.where(r == 3, 5000.0, 0.0) + np.where(r == 2, 60.0, 0.0)
    x = rng.random(n)
    return Table([
        ("g", _strings(["a", "b", "c", "d"], g)),
        ("r", _strings(["common", "mid", "small", "rare"], r)),
        ("v", Column(v)),
        ("x", Column(x)),
        ("u", Column(rng.normal(100.0, 10.0, size=n))),
    ])


def test_grouped_uniform_sum_and_count_have_honest_bounds(repro_table):
    """Repro (i).  A grouped SUM from a 2 % uniform sample: the parent read
    ``N × share`` as the group's known size, so its 95 % interval covered
    the truth in 0.16 of 160 (seed, group) cells, and a grouped COUNT came
    back ``52,300 ± 0`` for a truth of 50,024.  Now 0.93, and ± 2,697."""
    g = np.asarray(repro_table.column("g").to_list(), dtype=object)
    u = repro_table.column("u").data
    hits = cells = 0
    for seed in range(SEEDS):
        catalog = SampleCatalog(repro_table)
        catalog.add_uniform(0.02, seed=seed)
        answer = ApproximateQueryEngine(repro_table, catalog).query("sum", "u", group_by=["g"])
        for (key,), estimate in answer.group_estimates.items():
            cells += 1
            hits += estimate.contains(float(u[g == key].sum()))
    assert hits / cells >= 0.90

    catalog = SampleCatalog(repro_table)
    catalog.add_uniform(0.02, seed=0)
    count = ApproximateQueryEngine(repro_table, catalog).query("count", group_by=["g"])
    estimate = count.group_estimates[("a",)]
    assert estimate.half_width > 0
    assert estimate.contains(float((g == "a").sum()))


def test_stratified_sample_with_where_is_not_read_as_uniform(repro_table):
    """Repro (ii).  GROUP BY + WHERE over a stratified sample fell through
    to the uniform formula: the rare group's COUNT was ``46,000 ± 0`` for a
    truth of 186.  Now ``187 ± 8``."""
    catalog = SampleCatalog(repro_table)
    catalog.add_stratified(["r"], cap=100, seed=0)
    answer = ApproximateQueryEngine(repro_table, catalog).query(
        "count", where=col("x") < 0.9, group_by=["r"]
    )
    assert "stratified" in answer.sample_used
    r = np.asarray(repro_table.column("r").to_list(), dtype=object)
    truth = int(((r == "rare") & (repro_table.column("x").data < 0.9)).sum())
    estimate = answer.group_estimates[("rare",)]
    assert estimate.contains(truth)
    assert estimate.half_width < 0.2 * truth


def test_ungrouped_query_weights_a_stratified_sample(repro_table):
    """Repro (iii).  An unbounded, ungrouped AVG picks the largest sample —
    the stratified one — which the parent averaged as if uniform:
    ``623.47 ± 76.37`` for a truth of 17.98.  Now ``17.73 ± 0.62``."""
    catalog = SampleCatalog(repro_table)
    catalog.add_uniform(0.005, seed=1)
    catalog.add_stratified(["r"], cap=500, seed=0)
    answer = ApproximateQueryEngine(repro_table, catalog).query("avg", "v")
    assert "stratified" in answer.sample_used
    assert answer.estimate.contains(float(repro_table.column("v").data.mean()))


def test_error_bound_calibrates_on_the_query_asked():
    """The pilot is the query's own relative error on the smallest sample:
    a selective WHERE needs a larger sample than the same aggregate
    without one (the parent calibrated both on the table's first numeric
    column, here a row id)."""
    rng = np.random.default_rng(3)
    n = 50_000
    table = Table([
        ("id", Column(np.arange(n))),
        ("v", Column(rng.normal(100.0, 30.0, size=n))),
        ("x", Column(rng.random(n))),
    ])
    catalog = SampleCatalog(table)
    for fraction in (0.01, 0.05, 0.25):
        catalog.add_uniform(fraction, seed=int(fraction * 100))
    engine = ApproximateQueryEngine(table, catalog)
    plain = engine.query("sum", "v", error_bound=0.04)
    selective = engine.query("sum", "v", where=col("x") < 0.02, error_bound=0.04)
    assert plain.estimate.relative_error <= 0.04
    assert selective.rows_scanned > plain.rows_scanned


# -- (c) the sampler against a plain-Python reference -------------------------------


def _reference_strata(table, columns, cap, seed):
    """The row-at-a-time formulation ``build_stratified_sample`` replaced."""
    rng = np.random.default_rng(seed)
    key_columns = [table.column(c) for c in columns]
    group_rows: dict[tuple, list[int]] = {}
    for row in range(table.num_rows):
        group_rows.setdefault(tuple(c[row] for c in key_columns), []).append(row)
    strata = {}
    for key, rows in group_rows.items():
        rows = np.asarray(rows, dtype=np.int64)
        chosen = rng.choice(rows, size=cap, replace=False) if len(rows) > cap else rows
        strata[key] = Stratum(key=key, row_indices=np.sort(chosen), population=len(rows))
    return strata


@pytest.mark.parametrize("seed", range(5))
def test_stratified_sampler_matches_reference(seed):
    rng = np.random.default_rng(100 + seed)
    n = 3_000
    region = [None if i % 97 == 0 else "nesw"[k] for i, k in enumerate(rng.integers(0, 4, size=n))]
    table = Table([
        ("region", Column(region, dtype=DataType.STRING)),
        ("tier", Column(rng.integers(0, 3, size=n))),
    ])
    for columns in (["region"], ["tier", "region"]):
        sample = build_stratified_sample(table, columns, cap=40, seed=seed)
        reference = _reference_strata(table, columns, 40, seed)
        assert list(sample.strata) == list(reference)  # same keys, same order
        for key, stratum in sample.strata.items():
            assert stratum.population == reference[key].population
            assert np.array_equal(stratum.row_indices, reference[key].row_indices)


def test_nan_keys_form_one_stratum():
    """As the engine's GROUP BY groups them (the dict loop this replaced
    gave every NaN row a stratum of its own)."""
    table = Table([("k", Column(np.array([1.0, np.nan, 2.0, np.nan, np.nan])))])
    sample = build_stratified_sample(table, ["k"], cap=10)
    assert [s.population for s in sample.strata.values()] == [1, 3, 1]


# -- (d) one estimator: the degrade path and sample selection agree -----------------


def test_degrade_path_agrees_with_sample_selection_cell_for_cell():
    rng = np.random.default_rng(11)
    n = 30_000
    db = Database()
    db.create_table("t", Table([
        ("g", _strings(["p", "q", "r", "s", "t", "u"], rng.integers(0, 6, size=n))),
        ("x", Column(rng.random(n))),
        ("y", Column(rng.normal(20.0, 5.0, size=n))),
    ]))
    table = db.get_table("t")
    degraded = degraded_answer(
        db.plan("SELECT g, COUNT(*) AS n, SUM(y) AS s, AVG(y) AS a FROM t WHERE x < 0.7 GROUP BY g"),
        db, max_rows=3_000, seed=5,
    )
    catalog = SampleCatalog(table)
    catalog.add_uniform(3_000 / n, seed=5)  # the same draw: one stratum, 3,000 of 30,000
    engine = ApproximateQueryEngine(table, catalog)
    assert degraded.num_rows == 6
    for aggregate, name in (("count", "n"), ("sum", "s"), ("avg", "a")):
        answer = engine.query(
            aggregate, None if aggregate == "count" else "y",
            where=col("x") < 0.7, group_by=["g"],
        )
        assert [key for (key,) in answer.group_estimates] == degraded.column("g").to_list()
        for i, estimate in enumerate(answer.group_estimates.values()):
            assert degraded.column(name)[i] == estimate.value
            assert degraded.column(f"{name}_lo")[i] == estimate.low
            assert degraded.column(f"{name}_hi")[i] == estimate.high


def test_undefined_average_is_null_not_a_number():
    """An AVG no sampled non-NULL value backs has no estimate."""
    keys, [(value, half_width, support)] = stratified_estimate(
        [("AVG", np.array([1.0, 2.0, 0.0]), np.array([True, True, False]))],
        [30], [3], keys=[Column(["a", "a", "b"])],
    )
    assert keys[0].to_list() == ["a", "b"]
    assert value[0] == 1.5 and math.isnan(value[1])
    assert support.tolist() == [2.0, 0.0]

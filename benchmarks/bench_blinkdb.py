"""S7 — BlinkDB: bounded errors / bounded response times ([7]).

Two headline shapes:

1. error–latency trade-off: relative error of a global AVG falls roughly
   like 1/sqrt(sample size) as the row budget grows;
2. stratified vs uniform on skewed groups: with a zipfian group
   distribution, a uniform sample's rare-group estimates blow up (or the
   groups vanish entirely) while an equally sized stratified sample keeps
   every group's error bounded.

Also the stratification-cap ablation called out in DESIGN.md.  Beside
each error the tables report *coverage*: the share of 95 % intervals,
over ``COVERAGE_SEEDS`` re-drawn samples, that contain the exact answer —
the bound is part of the contract, not only the point estimate.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import numpy as np
from common import print_table

from repro.engine.table import Table
from repro.sampling import ApproximateQueryEngine, SampleCatalog
from repro.workloads import sales_table

N = 60_000
COVERAGE_SEEDS = 20


def _true_group_means(table: Table) -> dict[str, float]:
    regions = np.asarray(table.column("region").to_list(), dtype=object)
    revenue = np.asarray(table.column("revenue").data, dtype=float)
    return {
        str(region): float(revenue[regions == region].mean())
        for region in set(regions.tolist())
    }


def run_experiment(n: int = N):
    table = sales_table(n, group_skew=1.6, seed=0)
    truth = float(np.mean(table.column("revenue").data))
    group_truth = _true_group_means(table)

    # 1. error vs budget
    fractions = (0.001, 0.005, 0.02, 0.1)

    def budget_engine(offset: int) -> ApproximateQueryEngine:
        catalog = SampleCatalog(table)
        for fraction in fractions:
            catalog.add_uniform(fraction, seed=int(fraction * 10_000) + offset)
        return ApproximateQueryEngine(table, catalog)

    budget_rows = []
    engines = [budget_engine(1_000 * i) for i in range(COVERAGE_SEEDS)]
    for budget in (100, 500, 2_000, 10_000):
        answer = engines[0].query("avg", "revenue", time_bound_rows=budget)
        error = abs(answer.estimate.value - truth) / truth
        covered = np.mean([
            e.query("avg", "revenue", time_bound_rows=budget).estimate.contains(truth)
            for e in engines
        ])
        budget_rows.append(
            [budget, answer.rows_scanned, answer.estimate.value, error, float(covered)]
        )

    # 2. uniform vs stratified on skewed groups, equal storage
    def group_engines(seed: int) -> dict[str, ApproximateQueryEngine]:
        strat_catalog = SampleCatalog(table)
        stratified = strat_catalog.add_stratified(["region"], cap=400, seed=seed)
        uni_catalog = SampleCatalog(table)
        uni_catalog.add_uniform(stratified.size / table.num_rows, seed=seed + 1)
        return {
            "uniform": ApproximateQueryEngine(table, uni_catalog),
            "stratified": ApproximateQueryEngine(table, strat_catalog),
        }

    hits: dict[tuple[str, str], list[bool]] = {}
    tabulated = {}  # the first draw's answers: the estimates the table shows
    for seed in range(COVERAGE_SEEDS):
        for kind, engine_ in group_engines(1 + 2 * seed).items():
            answer = engine_.query("avg", "revenue", group_by=["region"])
            tabulated.setdefault(kind, answer)
            for (region,), estimate in answer.group_estimates.items():
                hits.setdefault((kind, str(region)), []).append(
                    estimate.contains(group_truth[str(region)])
                )

    group_rows = []
    worst = {"uniform": 0.0, "stratified": 0.0}
    coverage = {}
    for kind, answer in tabulated.items():
        for (region,), estimate in sorted(answer.group_estimates.items()):
            true_mean = group_truth[str(region)]
            error = abs(estimate.value - true_mean) / true_mean
            worst[kind] = max(worst[kind], error)
            covered = float(np.mean(hits[(kind, str(region))]))
            group_rows.append([kind, region, estimate.value, true_mean, error, covered])
        missing = set(group_truth) - {
            str(k[0]) for k in answer.group_estimates
        }
        for region in sorted(missing):
            worst[kind] = max(worst[kind], 1.0)
            group_rows.append([kind, region, "MISSING", group_truth[region], 1.0, "—"])
        coverage[kind] = float(np.mean([h for (k, _), hs in hits.items() if k == kind for h in hs]))
    return budget_rows, group_rows, worst, coverage, table


def test_bench_blinkdb(benchmark) -> None:
    budget_rows, group_rows, worst, coverage, table = run_experiment(n=30_000)
    print_table(
        "S7a: error vs row budget (global AVG)",
        ["budget", "rows scanned", "estimate", "relative error", "coverage"],
        budget_rows,
    )
    print_table(
        "S7b: per-group AVG, uniform vs stratified (equal storage)",
        ["sample", "region", "estimate", "truth", "relative error", "coverage"],
        group_rows,
    )
    # errors shrink as the budget grows (compare smallest vs largest)
    assert budget_rows[-1][3] < budget_rows[0][3]
    # stratified bounds the worst group error at least as well as uniform
    assert worst["stratified"] <= worst["uniform"] + 1e-9
    # and the intervals hold the truth at about the nominal rate, whichever
    # sample answers (the global AVG's, and every region's)
    assert np.mean([row[4] for row in budget_rows]) >= 0.88
    assert min(coverage.values()) >= 0.88

    catalog = SampleCatalog(table)
    catalog.add_uniform(0.01, seed=3)
    catalog.add_stratified(["region"], cap=200, seed=4)
    engine = ApproximateQueryEngine(table, catalog)
    benchmark(lambda: engine.query("avg", "revenue", group_by=["region"]))


def test_bench_blinkdb_cap_ablation(benchmark) -> None:
    """Ablation: the stratification cap K trades storage for rare-group error."""
    table = sales_table(30_000, group_skew=1.6, seed=5)
    group_truth = _true_group_means(table)
    rows = []
    for cap in (50, 200, 800):
        catalog = SampleCatalog(table)
        sample = catalog.add_stratified(["region"], cap=cap, seed=cap)
        engine = ApproximateQueryEngine(table, catalog)
        answer = engine.query("avg", "revenue", group_by=["region"])
        worst = max(
            abs(e.value - group_truth[str(k[0])]) / group_truth[str(k[0])]
            for k, e in answer.group_estimates.items()
        )
        rows.append([cap, sample.size, worst])
    print_table(
        "S7c: stratification cap K ablation",
        ["cap K", "sample rows", "worst group error"],
        rows,
    )
    assert rows[-1][2] <= rows[0][2] + 0.05, "larger caps should not hurt accuracy"

    catalog = SampleCatalog(table)
    catalog.add_stratified(["region"], cap=200, seed=6)
    benchmark(lambda: catalog.samples()[0].size)


if __name__ == "__main__":
    budget_rows, group_rows, _, _, _ = run_experiment()
    print_table(
        "S7a: error vs row budget (global AVG)",
        ["budget", "rows scanned", "estimate", "relative error", "coverage"],
        budget_rows,
    )
    print_table(
        "S7b: per-group AVG, uniform vs stratified (equal storage)",
        ["sample", "region", "estimate", "truth", "relative error", "coverage"],
        group_rows,
    )

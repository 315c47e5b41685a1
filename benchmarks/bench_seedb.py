"""S9 — SeeDB: pruning cuts work, keeps the top-k ([49]).

The exact recommender evaluates every (dimension, measure, aggregate)
view on all the data; the phased recommender prunes views whose utility
interval falls below the running top-k.

Shape assertions: pruning drops a substantial share of the candidate
views before the final phase, and the pruned top-1 equals the exact
top-1 (and the pruned top-k heavily overlaps the exact top-k).  The
confidence-level ablation from DESIGN.md is included.  The saving is
also printed as logical work: ``rows_aggregated``, the rows fed to the
group kernel times the views each served.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from common import print_table

from repro.engine import col
from repro.explore import SeeDB
from repro.workloads import sales_table

N = 30_000
DIMENSIONS = ["region", "category"]
MEASURES = ["price", "quantity", "revenue", "discount"]


def run_experiment(n: int = N, k: int = 5):
    table = sales_table(n, seed=0)
    target = col("region") == "north"

    exact_engine = SeeDB(table, DIMENSIONS, MEASURES)
    exact = exact_engine.recommend(target, k=k, prune=False)

    pruned_engine = SeeDB(table, DIMENSIONS, MEASURES)
    pruned = pruned_engine.recommend(target, k=k, prune=True, num_phases=10)

    total = len(exact_engine.candidate_views())
    overlap = len(
        {v.spec for v in exact[:k]} & {v.spec for v in pruned[:k]}
    )
    rows = [
        [mode, total, engine.views_evaluated_fully, engine.rows_aggregated, top[0].spec.describe()]
        for mode, engine, top in (("exact", exact_engine, exact), ("pruned", pruned_engine, pruned))
    ]
    return exact, pruned, exact_engine, pruned_engine, overlap, rows, k


def test_bench_seedb(benchmark) -> None:
    exact, pruned, exact_engine, pruned_engine, overlap, rows, k = run_experiment(
        n=12_000
    )
    print_table(
        "S9: views fully evaluated, exact vs CI-pruned",
        ["mode", "candidates", "fully evaluated", "rows x views aggregated", "top view"],
        rows,
    )
    assert pruned_engine.views_pruned > 0
    assert pruned_engine.views_evaluated_fully < exact_engine.views_evaluated_fully
    assert pruned[0].spec == exact[0].spec, "pruning must keep the top view"
    assert overlap >= k - 1, "top-k should be (near-)identical"

    table = sales_table(6_000, seed=1)

    def run_pruned():
        engine = SeeDB(table, DIMENSIONS, MEASURES)
        return engine.recommend(col("region") == "north", k=3, prune=True, num_phases=6)

    benchmark(run_pruned)


def test_bench_seedb_confidence_ablation(benchmark) -> None:
    """Ablation: lower pruning confidence prunes more aggressively."""
    table = sales_table(12_000, seed=2)
    target = col("category") == "tools"
    rows = []
    pruned_counts = {}
    for confidence in (0.7, 0.9, 0.99):
        engine = SeeDB(table, DIMENSIONS, MEASURES)
        top = engine.recommend(target, k=3, prune=True, num_phases=10, confidence=confidence)
        pruned_counts[confidence] = engine.views_pruned
        rows.append(
            [confidence, engine.views_pruned, engine.views_evaluated_fully, top[0].spec.describe()]
        )
    print_table(
        "S9b: pruning-confidence ablation",
        ["confidence", "views pruned", "fully evaluated", "top view"],
        rows,
    )
    assert pruned_counts[0.7] >= pruned_counts[0.99], (
        "looser confidence prunes at least as much"
    )
    benchmark(lambda: None)


if __name__ == "__main__":
    *_, rows, _ = run_experiment()
    print_table(
        "S9: views fully evaluated, exact vs CI-pruned",
        ["mode", "candidates", "fully evaluated", "rows x views aggregated", "top view"],
        rows,
    )

"""Query governor: cancellation latency and degraded-answer quality.

Two experiments over the resilience layer:

1. **Cancellation latency vs span size** — a scan's task is one zone
   span, on the calling thread (``threads=0``) or the pool
   (``threads=2``).  With every task slowed by a fixed injected delay and
   a deadline far below the total work, the overshoot past the deadline
   is bounded by roughly the work in flight at the checkpoint (one span
   per thread): smaller zones mean finer checkpoints and tighter
   cancellation, on both runners.
2. **Degraded-answer error/latency curve** — the sampling-based
   approximate answer at growing sample budgets, against the exact
   aggregate: wall time, relative error and CI width all shrink toward
   the exact answer as the budget grows, while the share of COUNT / SUM /
   AVG intervals (over 20 sample seeds) that contain the exact value
   stays at the nominal 95 %.

Both tables feed the benchmark-metrics export via ``print_table``.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import numpy as np
from common import print_table

from repro import settings
from repro.engine import Database, parallel
from repro.errors import QueryTimeoutError
from repro.resilience.degrade import degraded_answer
from repro.workloads import sales_table

QUERY = (
    "SELECT region, COUNT(*) AS n, SUM(quantity) AS sq, AVG(price) AS ap "
    "FROM sales GROUP BY region"
)
#: a WHERE every row passes (quantity is 1..9): a scan's span tasks are the
#: only tasks, so the slowed tasks are this scan's zone spans
LATENCY_QUERY = QUERY.replace(" GROUP BY", " WHERE quantity >= 1 GROUP BY")
SLOW_MS = 20.0
DEADLINE_MS = 60
LATENCY_HEADER = ["threads", "zone_rows", "spans", "wall ms", "overshoot ms", "outcome"]
COVERAGE_SEEDS = 20


def _reset() -> None:
    settings.configure(
        timeout_ms=0, faults="off", degrade=0,
        threads=0, zone_rows=settings.ROWS["zone_rows"].default,
    )
    parallel.shutdown_pool()


def run_latency_experiment(
    n: int = 8_000, span_sizes: tuple[int, ...] = (100, 250, 500), runners=(0, 2)
):
    """Overshoot past the deadline for each span size, per runner
    (``threads``).  Every point's slowed work is past its deadline: the
    largest spans are ``n / 500 = 16`` tasks, 320 ms serially and about
    110 ms over the two workers and the calling thread."""
    db = Database()
    db.create_table("sales", sales_table(n, seed=0))
    rows = []
    overshoots = {}
    try:
        for threads in runners:
            for zone_rows in span_sizes:
                # built before the clock starts: the zone map at this size and the plan
                settings.configure(threads=threads, zone_rows=zone_rows, timeout_ms=0, faults="off")
                db.sql(LATENCY_QUERY)
                settings.configure(timeout_ms=DEADLINE_MS, faults=f"slow_morsel:1.0:{SLOW_MS}")
                start = time.perf_counter()
                try:
                    db.sql(LATENCY_QUERY)
                    outcome = "finished"
                except QueryTimeoutError:
                    outcome = "timeout"
                wall_ms = (time.perf_counter() - start) * 1e3
                overshoot_ms = max(0.0, wall_ms - DEADLINE_MS)
                overshoots[threads, zone_rows] = (overshoot_ms, outcome)
                rows.append([
                    threads, zone_rows, -(-n // zone_rows),
                    f"{wall_ms:.1f}", f"{overshoot_ms:.1f}", outcome,
                ])
    finally:
        _reset()
    return rows, overshoots


def run_degradation_experiment(
    n: int = 200_000, sample_sizes: tuple[int, ...] = (1_000, 5_000, 25_000)
):
    """Error and latency of the degraded answer at growing sample budgets."""
    db = Database()
    db.create_table("sales", sales_table(n, seed=0))
    start = time.perf_counter()
    exact = db.sql(QUERY)
    exact_ms = (time.perf_counter() - start) * 1e3
    exact_cells = {
        exact.column("region")[i]: {name: exact.column(name)[i] for name in ("n", "sq", "ap")}
        for i in range(exact.num_rows)
    }
    plan = db.plan(QUERY)
    rows = [["exact", f"{exact_ms:.1f}", "0.000%", "—", ""]]
    errors = {}
    coverage = {}
    try:
        for size in sample_sizes:
            start = time.perf_counter()
            approx = degraded_answer(plan, db, max_rows=size, reason="benchmark")
            wall_ms = (time.perf_counter() - start) * 1e3
            truth = np.array(
                [exact_cells[region]["sq"] for region in approx.column("region").to_list()]
            )
            sq = approx.column("sq").data
            mean_err = float(np.mean(np.abs(sq - truth) / np.abs(truth)))
            ci_width = (approx.column("sq_hi").data - approx.column("sq_lo").data) / np.abs(truth)
            errors[size] = mean_err
            coverage[size] = _interval_coverage(db, plan, exact_cells, size)
            rows.append(
                [
                    f"sample {size}",
                    f"{wall_ms:.1f}",
                    f"{mean_err:.3%}",
                    f"{float(np.mean(ci_width)):.3%}",
                    f"{coverage[size]:.2f}",
                ]
            )
    finally:
        _reset()
    return rows, errors, coverage


def _interval_coverage(db, plan, truth: dict, size: int) -> float:
    """Share of (seed, group, aggregate) cells of the degraded answer whose
    95 % interval contains the exact value (``truth[region][aggregate]``)."""
    hits = cells = 0
    for seed in range(COVERAGE_SEEDS):
        approx = degraded_answer(plan, db, max_rows=size, seed=seed, reason="benchmark")
        for i, region in enumerate(approx.column("region").to_list()):
            for name, value in truth[region].items():
                hits += approx.column(f"{name}_lo")[i] <= value <= approx.column(f"{name}_hi")[i]
                cells += 1
    return hits / cells


def test_bench_resilience(benchmark) -> None:
    latency_rows, overshoots = run_latency_experiment(n=2_000, span_sizes=(50, 125))
    print_table(
        "Governor: cancellation latency vs span size (injected 20 ms/task)",
        LATENCY_HEADER,
        latency_rows,
    )
    # every point is slowed past its deadline, serial and pooled alike, and
    # small spans keep the overshoot within a handful of slow tasks' work;
    # generous bound so single-core CI hosts don't flake
    assert {outcome for _, outcome in overshoots.values()} == {"timeout"}
    assert max(overshoots[threads, 50][0] for threads in (0, 2)) < SLOW_MS * 10

    degrade_rows, errors, coverage = run_degradation_experiment(
        n=50_000, sample_sizes=(1_000, 10_000)
    )
    print_table(
        "Governor: degraded-answer error/latency curve (SUM per group)",
        ["mode", "wall ms", "mean rel error", "mean CI width", "95% CI coverage"],
        degrade_rows,
    )
    # more sample budget must not make the estimate worse (deterministic seed)
    assert errors[10_000] <= errors[1_000]
    # the bound, not only the point estimate: COUNT, SUM and AVG intervals
    # hold the exact value at about the nominal rate over the seeds
    assert min(coverage.values()) >= 0.88

    db = Database()
    db.create_table("sales", sales_table(20_000, seed=1))
    plan = db.plan(QUERY)
    try:
        benchmark(lambda: degraded_answer(plan, db, max_rows=2_000, reason="bench"))
    finally:
        _reset()


if __name__ == "__main__":
    rows, _ = run_latency_experiment()
    print_table(
        "Governor: cancellation latency vs span size (injected 20 ms/task)",
        LATENCY_HEADER,
        rows,
    )
    rows, _, _ = run_degradation_experiment()
    print_table(
        "Governor: degraded-answer error/latency curve (SUM per group)",
        ["mode", "wall ms", "mean rel error", "mean CI width", "95% CI coverage"],
        rows,
    )

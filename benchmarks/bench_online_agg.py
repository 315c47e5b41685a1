"""S6 — online aggregation ([25]'s headline figure).

Running AVG over a large table: the confidence interval's half-width
shrinks like 1/sqrt(rows processed), so a few percent of the data already
pins the answer tightly — the analyst stops the query early.

Shape assertions: the half-width decreases monotonically (sampled at
checkpoints), roughly as 1/sqrt(n); a 1%-relative-error stop consumes a
small fraction of the table; the final (exhausted) answer is exact; and
the interval is honest — over ``COVERAGE_SEEDS`` consumption orders it
contains the exact answer at about the nominal rate, for the running AVG
and for a grouped running SUM (whose group sizes are estimates too).
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import numpy as np
from common import print_table

from repro.sampling import OnlineAggregator

N = 1_000_000
COVERAGE_SEEDS = 20
CHECKPOINTS = (1, 2, 5, 10, 25, 50, 100)


def _covers(estimate, truth: float) -> bool:
    """Interval membership, to 1e-9 relative: an exhausted run's interval
    has width 0 and its sum was taken in another order."""
    slack = 1e-9 * abs(truth)
    return estimate.low - slack <= truth <= estimate.high + slack


def _coverage(values, aggregate, percent, truth, groups=None) -> float:
    """Share of (seed, group) intervals holding the exact answer once
    ``percent`` % of the rows have been consumed."""
    hits = []
    for seed in range(COVERAGE_SEEDS):
        result = OnlineAggregator(
            values, aggregate, groups=groups,
            batch_size=len(values) * percent // 100, seed=100 + seed,
        ).step()
        if groups is None:
            hits.append(_covers(result.estimate, truth))
        else:
            hits.extend(_covers(e, truth[key]) for key, e in result.group_estimates.items())
    return float(np.mean(hits))


HEADERS = ["rows seen", "progress", "estimate", "ci half-width", "covers truth", "coverage"]
GROUPED_HEADERS = ["progress", "coverage (6 groups x seeds)"]


def run_experiment(n: int = N):
    rng = np.random.default_rng(0)
    values = rng.lognormal(mean=3.0, sigma=1.0, size=n)
    truth = float(values.mean())
    aggregator = OnlineAggregator(values, "avg", batch_size=n // 100, seed=1)
    rows = []
    widths = []
    batch = 0
    for result in aggregator.run():
        batch += 1
        widths.append(result.estimate.half_width)
        if batch in CHECKPOINTS:
            rows.append(
                [
                    result.rows_processed,
                    f"{100 * result.progress:.0f}%",
                    result.estimate.value,
                    result.estimate.half_width,
                    _covers(result.estimate, truth),
                    _coverage(values, "avg", batch, truth),
                ]
            )
    # a grouped running SUM: each group's size is unknown mid-stream
    groups = rng.integers(0, 6, size=n)
    group_truth = dict(enumerate(np.bincount(groups, weights=values).tolist()))
    grouped_rows = [
        [f"{percent}%", _coverage(values, "sum", percent, group_truth, groups)]
        for percent in (1, 5, 25)
    ]
    return values, truth, widths, rows, grouped_rows


def test_bench_online_aggregation(benchmark) -> None:
    values, truth, widths, rows, grouped_rows = run_experiment(n=200_000)
    print_table("S6: running AVG estimate with 95% CI", HEADERS, rows)
    print_table("S6b: grouped running SUM, 95% CI", GROUPED_HEADERS, grouped_rows)
    # the interval holds the truth at about the nominal rate at every
    # checkpoint short of exhaustion (where it is exact)
    assert np.mean([row[5] for row in rows]) >= 0.88
    assert min(row[1] for row in grouped_rows) >= 0.88
    # width shrinks ~1/sqrt(n): width at 4x the rows should be ~half
    assert widths[3] < widths[0] * 0.75
    assert widths[-1] == 0.0, "exhausted run is exact"
    # early stopping saves most of the scan
    aggregator = OnlineAggregator(values, "avg", batch_size=2000, seed=2)
    stopped = aggregator.run_until(relative_error=0.01)
    assert stopped.rows_processed <= len(values) / 3
    assert abs(stopped.estimate.value - truth) / truth < 0.05

    def one_stop():
        agg = OnlineAggregator(values, "avg", batch_size=2000, seed=3)
        return agg.run_until(relative_error=0.02).rows_processed

    benchmark(one_stop)


if __name__ == "__main__":
    _, _, _, rows, grouped_rows = run_experiment()
    print_table("S6: running AVG estimate with 95% CI", HEADERS, rows)
    print_table("S6b: grouped running SUM, 95% CI", GROUPED_HEADERS, grouped_rows)

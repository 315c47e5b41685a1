"""Online aggregation (Hellerstein, Haas & Wang [25]; CONTROL [24]).

Rows are consumed in random order; after every batch the aggregator
exposes a running estimate with a shrinking confidence interval, so an
analyst can stop a query the moment the answer is "good enough" — the
canonical interactive-exploration behaviour the tutorial highlights.

Group-by is supported: each group carries its own interval, and the
stopping test can demand that *every* group has converged.  The rows
consumed so far are a uniform sample of the table, so every snapshot is
:func:`~repro.sampling.estimators.stratified_estimate` over them — a
group's size is unknown mid-stream and is estimated, with its sampling
error, as part of the group's SUM or COUNT.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

import numpy as np

from repro.engine.column import Column
from repro.errors import ApproximationError
from repro.sampling.estimators import Estimate, cell_estimates, stratified_estimate


@dataclass
class OnlineResult:
    """Snapshot of the running computation after some batches."""

    rows_processed: int
    total_rows: int
    estimate: Estimate | None
    group_estimates: dict[Any, Estimate] = field(default_factory=dict)

    @property
    def progress(self) -> float:
        """Fraction of the table consumed, in [0, 1]."""
        if self.total_rows == 0:
            return 1.0
        return self.rows_processed / self.total_rows


class OnlineAggregator:
    """Streaming estimator for one aggregate over one column.

    Args:
        values: the full column payload (the engine hands this over; the
            aggregator itself only reads it in random order).
        aggregate: ``"avg"``, ``"sum"`` or ``"count"``; for ``count`` pass
            predicate outcomes (booleans) as ``values``.
        groups: optional parallel array of group keys for GROUP BY.
        confidence: CI level of the running intervals.
        batch_size: rows consumed per :meth:`step`.
        seed: RNG seed for the random consumption order.
    """

    def __init__(
        self,
        values: np.ndarray,
        aggregate: str = "avg",
        groups: np.ndarray | None = None,
        confidence: float = 0.95,
        batch_size: int = 1000,
        seed: int = 0,
    ) -> None:
        if aggregate not in ("avg", "sum", "count"):
            raise ApproximationError(f"unsupported aggregate {aggregate!r}")
        self._values = np.asarray(values, dtype=np.float64)
        self._groups = None if groups is None else Column(np.asarray(groups))
        if self._groups is not None and len(self._groups) != len(self._values):
            raise ApproximationError("groups array must match values length")
        self.aggregate = aggregate
        self.confidence = confidence
        self.batch_size = batch_size
        self._order = np.random.default_rng(seed).permutation(len(self._values))
        self._cursor = 0

    @property
    def total_rows(self) -> int:
        """Rows in the underlying table."""
        return len(self._values)

    @property
    def rows_processed(self) -> int:
        """Rows consumed so far."""
        return self._cursor

    @property
    def finished(self) -> bool:
        """True when the whole table has been consumed (exact answer)."""
        return self._cursor >= len(self._values)

    def step(self) -> OnlineResult:
        """Consume one batch and return the updated snapshot."""
        self._cursor = min(self._cursor + self.batch_size, len(self._values))
        return self.current()

    def current(self) -> OnlineResult:
        """The current snapshot without consuming more rows: the rows seen
        so far are a uniform sample of the table, so a group's size is
        estimated — with its sampling error — along with its aggregate."""
        n_total = self.total_rows
        if self._cursor == 0:
            return OnlineResult(0, n_total, None)
        seen = self._order[: self._cursor]
        # a count is the total of the predicate outcomes
        function = "SUM" if self.aggregate == "count" else self.aggregate.upper()
        keys, [cells] = stratified_estimate(
            [(function, self._values[seen], None)],
            [n_total],
            [self._cursor],
            keys=[] if self._groups is None else [self._groups.take(seen)],
            confidence=self.confidence,
        )
        estimates = cell_estimates(cells, self.confidence, n_total)
        if self._groups is None:
            return OnlineResult(self._cursor, n_total, estimates[0])
        return OnlineResult(
            self._cursor, n_total, None, dict(zip(keys[0].to_list(), estimates))
        )

    def run(self) -> Iterator[OnlineResult]:
        """Iterate snapshots batch by batch until the table is exhausted."""
        while not self.finished:
            yield self.step()

    def run_until(
        self,
        relative_error: float | None = None,
        half_width: float | None = None,
        max_rows: int | None = None,
        predicate: Callable[[OnlineResult], bool] | None = None,
    ) -> OnlineResult:
        """Consume batches until a stopping condition holds.

        Conditions (any one stops the run; for grouped queries they must
        hold for every group):

        - ``relative_error``: CI half-width / estimate below this.
        - ``half_width``: absolute CI half-width below this.
        - ``max_rows``: row budget.
        - ``predicate``: arbitrary user test on the snapshot.
        """
        if relative_error is None and half_width is None and max_rows is None and predicate is None:
            raise ApproximationError("run_until needs at least one stopping condition")

        def satisfied(result: OnlineResult) -> bool:
            if predicate is not None and predicate(result):
                return True
            estimates = (
                list(result.group_estimates.values())
                if result.group_estimates
                else ([result.estimate] if result.estimate else [])
            )
            if not estimates:
                return False
            if relative_error is not None and all(
                e.relative_error <= relative_error for e in estimates
            ):
                return True
            if half_width is not None and all(
                e.half_width <= half_width for e in estimates
            ):
                return True
            return False

        result = self.current()
        while not self.finished:
            result = self.step()
            if satisfied(result):
                return result
            if max_rows is not None and self.rows_processed >= max_rows:
                return result
        return result

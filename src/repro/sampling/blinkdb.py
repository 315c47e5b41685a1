"""Query-time sample selection under error/latency bounds (BlinkDB [7]).

BlinkDB keeps a catalog of pre-built samples — uniform samples at several
fractions plus stratified samples on frequently grouped column sets — and,
per query, picks the cheapest sample that satisfies the user's bound:

- ``error_bound``: pick the smallest sample whose *predicted* relative
  error meets the bound — the error-latency profile ``c / sqrt(rows)``,
  with ``c`` calibrated by answering *this* query (its aggregate, column,
  WHERE and GROUP BY; the worst group's error) from the smallest sample.
- ``time_bound``: pick the largest sample whose size fits the time budget
  (cost is proportional to rows scanned).

Whichever sample is chosen, the answer comes from
:func:`~repro.sampling.estimators.stratified_estimate`: a uniform sample
declares one stratum, a stratified sample its own, and neither is ever
read as the other.  The S7 benchmark reproduces the headline shapes
(error falls like 1/sqrt(rows); stratified samples keep rare-group errors
bounded where uniform samples blow up) and reports interval coverage.

A catalog's samples are row positions into the table it was built over;
they do not follow writes (``ExplorationSession.approx`` refuses a table
that has changed since ``build_samples``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from repro.engine.expressions import Expression
from repro.engine.table import Table
from repro.errors import ApproximationError
from repro.sampling.estimators import Estimate
from repro.sampling.stratified import (
    StratifiedSample,
    build_stratified_sample,
    build_uniform_sample,
    estimate_sample,
)


@dataclass
class StoredSample:
    """One catalog entry: either uniform or stratified."""

    name: str
    kind: str  # "uniform" | "stratified"
    row_indices: np.ndarray | None = None  # uniform only
    stratified: StratifiedSample | None = None  # stratified only

    @property
    def size(self) -> int:
        """Rows stored."""
        if self.kind == "uniform":
            assert self.row_indices is not None
            return len(self.row_indices)
        assert self.stratified is not None
        return self.stratified.size


class SampleCatalog:
    """The set of samples maintained over one base table."""

    def __init__(self, table: Table) -> None:
        self.table = table
        self._samples: list[StoredSample] = []

    def add_uniform(self, fraction: float, seed: int = 0) -> StoredSample:
        """Create and register a uniform sample."""
        rows = build_uniform_sample(self.table, fraction, seed=seed)
        sample = StoredSample(
            name=f"uniform_{fraction:g}", kind="uniform", row_indices=rows
        )
        self._samples.append(sample)
        return sample

    def add_stratified(
        self, columns: Sequence[str], cap: int, seed: int = 0
    ) -> StoredSample:
        """Create and register a stratified sample."""
        stratified = build_stratified_sample(self.table, columns, cap, seed=seed)
        sample = StoredSample(
            name=f"stratified_{'_'.join(columns)}_K{cap}",
            kind="stratified",
            stratified=stratified,
        )
        self._samples.append(sample)
        return sample

    def samples(self) -> list[StoredSample]:
        """All registered samples, smallest first."""
        return sorted(self._samples, key=lambda s: s.size)

    def storage_rows(self) -> int:
        """Total rows across all samples (the storage budget used)."""
        return sum(s.size for s in self._samples)


@dataclass
class ApproximateAnswer:
    """The result of an approximate aggregate query."""

    estimate: Estimate | None
    group_estimates: dict[tuple[Any, ...], Estimate]
    sample_used: str
    rows_scanned: int


class ApproximateQueryEngine:
    """Answers simple aggregate queries from the cheapest adequate sample.

    Supported query shape: one aggregate (``avg``/``sum``/``count``) over
    one column, an optional predicate, and an optional GROUP BY over
    categorical columns.
    """

    def __init__(self, table: Table, catalog: SampleCatalog) -> None:
        self.table = table
        self.catalog = catalog

    # -- public API --------------------------------------------------------------------

    def query(
        self,
        aggregate: str,
        value_column: str | None = None,
        where: Expression | None = None,
        group_by: Sequence[str] | None = None,
        error_bound: float | None = None,
        time_bound_rows: int | None = None,
        confidence: float = 0.95,
    ) -> ApproximateAnswer:
        """Run one approximate query.

        Args:
            aggregate: ``"avg"``, ``"sum"`` or ``"count"``.
            value_column: aggregated column (None only for count).
            where: optional predicate, evaluated on sampled rows only.
            group_by: optional grouping columns.
            error_bound: target relative error (half-width / estimate).
            time_bound_rows: scan budget in rows (a latency proxy).
            confidence: CI level.

        Raises:
            ApproximationError: when no sample can satisfy the request.
        """
        candidates = self._candidates(group_by)
        if not candidates:
            raise ApproximationError(
                "no registered sample can answer this query shape"
            )

        def evaluate(sample: StoredSample) -> ApproximateAnswer:
            return self._evaluate(sample, aggregate, value_column, where, group_by, confidence)

        return evaluate(
            self._choose(candidates, error_bound, time_bound_rows, group_by, evaluate)
        )

    # -- selection ----------------------------------------------------------------------

    def _candidates(self, group_by: Sequence[str] | None) -> list[StoredSample]:
        result = []
        for sample in self.catalog.samples():
            if group_by and sample.kind == "stratified":
                assert sample.stratified is not None
                if not sample.stratified.covers(group_by):
                    continue
            result.append(sample)
        # prefer stratified samples for grouped queries: put them first
        # among equal sizes
        if group_by:
            result.sort(key=lambda s: (s.size, 0 if s.kind == "stratified" else 1))
        return result

    def _choose(
        self,
        candidates: list[StoredSample],
        error_bound: float | None,
        time_bound_rows: int | None,
        group_by: Sequence[str] | None,
        evaluate: Callable[[StoredSample], ApproximateAnswer],
    ) -> StoredSample:
        if group_by and error_bound is None and time_bound_rows is None:
            # unbounded grouped query: a covering stratified sample keeps
            # rare groups represented, so prefer the largest one
            stratified = [s for s in candidates if s.kind == "stratified"]
            if stratified:
                return max(stratified, key=lambda s: s.size)
        if time_bound_rows is not None:
            fitting = [s for s in candidates if s.size <= time_bound_rows]
            if not fitting:
                raise ApproximationError(
                    f"no sample fits the {time_bound_rows}-row budget"
                )
            return fitting[-1]  # largest that fits
        if error_bound is not None:
            # error-latency profile: relative error scales like c/sqrt(n);
            # calibrate c on the query's own answer from the smallest
            # candidate (its worst group), then pick the smallest sample
            # predicted to satisfy the bound
            smallest = candidates[0]
            try:
                pilot = evaluate(smallest)
                errors = [pilot.estimate] if pilot.estimate else pilot.group_estimates.values()
                worst = max((e.relative_error for e in errors), default=math.inf)
            except ApproximationError:  # too small to answer at all
                worst = math.inf
            c = worst * math.sqrt(max(1, smallest.size))
            for sample in candidates:
                if c / math.sqrt(max(1, sample.size)) <= error_bound:
                    return sample
            # no sample suffices: fall back to the exact answer over the
            # base table (a "sample" of fraction 1, zero sampling error)
            return StoredSample(
                name="full_table",
                kind="uniform",
                row_indices=np.arange(self.table.num_rows, dtype=np.int64),
            )
        return candidates[-1]  # no bound: use the largest sample

    # -- evaluation ----------------------------------------------------------------------

    def _evaluate(
        self,
        sample: StoredSample,
        aggregate: str,
        value_column: str | None,
        where: Expression | None,
        group_by: Sequence[str] | None,
        confidence: float,
    ) -> ApproximateAnswer:
        if sample.kind == "stratified":
            design = sample.stratified.design()
        else:
            design = (sample.row_indices, None, [self.table.num_rows], [sample.size])
        groups = estimate_sample(
            self.table, design, aggregate, value_column, where, group_by or (), confidence
        )
        if group_by:
            return ApproximateAnswer(None, groups, sample.name, sample.size)
        estimate = groups.get(())
        if estimate is None or (aggregate != "count" and estimate.sample_size == 0):
            raise ApproximationError(
                "no sampled rows satisfy the predicate; use a larger sample"
            )
        return ApproximateAnswer(estimate, {}, sample.name, sample.size)

"""Stratified samples with per-group caps (BlinkDB [7]).

A uniform sample of a skewed table starves rare groups: a group holding
0.1% of the rows gets ~0.1% of the sample, often too few rows for any
usable estimate.  BlinkDB's stratified samples instead take
``min(cap, |group|)`` rows from **every** group, so rare groups are as
well represented as popular ones.  Each stratum records the rows it
stands for and the rows it holds, ``(N_h, n_h)`` — what
:func:`~repro.sampling.estimators.stratified_estimate` needs to weight
every sampled row correctly under any WHERE and any GROUP BY
(:func:`estimate_sample` is the by-column-name front of it, shared with
:mod:`repro.sampling.blinkdb`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.engine.expressions import Expression, truth_mask
from repro.engine.operators import first_appearance, group_rows
from repro.engine.table import Table
from repro.errors import ApproximationError
from repro.sampling.estimators import Estimate, cell_estimates, stratified_estimate

#: what a sample declares to the estimator: ``(rows, strata, population,
#: taken)`` — the sampled row positions, each one's stratum id (None for a
#: one-stratum sample), and per stratum the rows it stands for and holds
SampleDesign = tuple[np.ndarray, np.ndarray | None, np.ndarray, np.ndarray]


@dataclass
class Stratum:
    """One group's slice of a stratified sample."""

    key: tuple[Any, ...]
    row_indices: np.ndarray  # positions in the base table
    population: int

    @property
    def taken(self) -> int:
        """Sampled rows in this stratum."""
        return len(self.row_indices)

    @property
    def scale(self) -> float:
        """Per-row expansion factor |group| / taken."""
        return self.population / max(1, self.taken)


@dataclass
class StratifiedSample:
    """A stratified sample of a table on a set of grouping columns.

    Attributes:
        columns: the stratification columns (in order).
        cap: per-group row cap K.
        strata: one :class:`Stratum` per distinct group.
        base_rows: base-table cardinality.
    """

    columns: tuple[str, ...]
    cap: int
    strata: dict[tuple[Any, ...], Stratum]
    base_rows: int

    @property
    def size(self) -> int:
        """Total sampled rows."""
        return sum(s.taken for s in self.strata.values())

    @property
    def fraction(self) -> float:
        """Sampled fraction of the base table."""
        return self.size / max(1, self.base_rows)

    def covers(self, group_columns: Sequence[str]) -> bool:
        """True if this sample stratifies on a superset of the given columns."""
        return set(group_columns) <= set(self.columns)

    def design(self) -> SampleDesign:
        """What the estimator needs to know of this sample: stratum ``h`` is
        the ``h``-th entry of :attr:`strata`."""
        strata = list(self.strata.values())
        taken = np.array([s.taken for s in strata], dtype=np.int64)
        rows = np.concatenate([s.row_indices for s in strata] or [np.empty(0, dtype=np.int64)])
        return (
            rows,
            np.repeat(np.arange(len(strata)), taken),
            np.array([s.population for s in strata], dtype=np.int64),
            taken,
        )

    def estimate_grouped(
        self,
        table: Table,
        value_column: str | None,
        aggregate: str,
        group_columns: Sequence[str] | None = None,
        confidence: float = 0.95,
    ) -> dict[tuple[Any, ...], Estimate]:
        """Per-group estimates of one aggregate from the sample.

        Args:
            table: the base table the sample indexes into.
            value_column: the aggregated column (None only for ``count``).
            aggregate: ``"avg"``, ``"sum"`` or ``"count"``.
            group_columns: the query's GROUP BY columns; must be a subset
                of the stratification columns.  Defaults to all of them.
        """
        group_columns = tuple(group_columns or self.columns)
        if not self.covers(group_columns):
            raise ApproximationError(
                f"sample on {self.columns} cannot answer GROUP BY {group_columns}"
            )
        return estimate_sample(
            table, self.design(), aggregate, value_column, None, group_columns, confidence
        )


def estimate_sample(
    table: Table,
    design: SampleDesign,
    aggregate: str,
    value_column: str | None,
    where: Expression | None,
    group_by: Sequence[str],
    confidence: float,
) -> dict[tuple[Any, ...], Estimate]:
    """One aggregate of ``table`` estimated from a sample of it, per group
    (the global group's key is ``()``): the named columns and the predicate
    are evaluated on the sampled rows and handed to
    :func:`~repro.sampling.estimators.stratified_estimate`.  A group whose
    estimate is undefined — an AVG no sampled non-NULL value backs — is
    left out.
    """
    if aggregate != "count" and value_column is None:
        raise ApproximationError(f"{aggregate} requires a value column")
    rows, strata, population, taken = design
    subset = table.take(rows)
    values = valid = None
    if value_column is not None:
        column = subset.column(value_column)
        values, valid = column.data, column.validity
    keys, [cells] = stratified_estimate(
        [(aggregate.upper(), values, valid)],
        population,
        taken,
        strata,
        [subset.column(name) for name in group_by],
        None if where is None else truth_mask(where, subset),
        confidence,
    )
    group_keys = zip(*(key.to_list() for key in keys)) if keys else [()]
    estimates = cell_estimates(cells, confidence, int(np.sum(population)))
    return {key: e for key, e in zip(group_keys, estimates) if e is not None}


def build_stratified_sample(
    table: Table,
    columns: Sequence[str],
    cap: int,
    seed: int = 0,
) -> StratifiedSample:
    """Build a stratified sample capped at ``cap`` rows per group.

    Rows are grouped by the engine's GROUP BY kernel — NULL keys form one
    stratum and so do NaN keys — and drawn group by group in the groups'
    first-appearance order, so a seed names one sample.

    Args:
        table: base table.
        columns: stratification columns.
        cap: maximum rows kept per distinct group (K in the paper).
        seed: RNG seed.
    """
    if cap <= 0:
        raise ApproximationError("cap must be positive")
    if not columns:
        raise ApproximationError("a stratified sample needs a stratification column")
    rng = np.random.default_rng(seed)
    key_columns = [table.column(c) for c in columns]
    order, starts, counts = group_rows(key_columns, table.num_rows)
    first_rows, appearance = first_appearance(order, starts)
    keys = zip(*(column.take(first_rows).to_list() for column in key_columns))
    strata: dict[tuple[Any, ...], Stratum] = {}
    for key, start, size in zip(keys, starts[appearance].tolist(), counts[appearance].tolist()):
        chosen = order[start : start + size]  # the group's rows, ascending
        chosen = np.sort(rng.choice(chosen, size=cap, replace=False)) if size > cap else chosen.copy()
        strata[key] = Stratum(key=key, row_indices=chosen, population=size)
    return StratifiedSample(
        columns=tuple(columns), cap=cap, strata=strata, base_rows=table.num_rows
    )


def build_uniform_sample(table: Table, fraction: float, seed: int = 0) -> np.ndarray:
    """Row positions of a uniform sample of the given fraction."""
    if not 0.0 < fraction <= 1.0:
        raise ApproximationError(f"fraction must be in (0, 1], got {fraction}")
    rng = np.random.default_rng(seed)
    n = table.num_rows
    size = max(1, int(round(n * fraction)))
    return np.sort(rng.choice(n, size=size, replace=False))

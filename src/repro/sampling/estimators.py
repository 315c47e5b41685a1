"""The one estimator under every approximate answer.

:func:`stratified_estimate` is the textbook stratified *domain* estimator.
A sample declares, per sampled row, a stratum id and, per stratum ``h``,
the rows it stands for and the rows drawn from it, ``(N_h, n_h)``; a
uniform sample is the one-stratum case.  For an output group ``g`` and a
per-row contribution ``y_i = value_i · 1[row in g ∧ WHERE ∧ non-NULL]``
taken over the *whole* sample — a row outside the group contributes a
zero, it is not dropped — the classical results are:

=========  ===============================  ==================================
Aggregate  Point estimate                   Variance
=========  ===============================  ==================================
SUM        ``Σ_h N_h · ȳ_h``                ``Σ_h N_h²(1 − n_h/N_h) s²_h/n_h``
COUNT      SUM of the indicator ``d_i``     the same, over ``d_i``
AVG        ``SUM(y) / SUM(d)``              linearised: the SUM variance of
                                            ``y_i − AVG·d_i``, over ``SUM(d)²``
=========  ===============================  ==================================

with ``ȳ_h`` and ``s²_h`` the mean and the (``ddof=1``) variance of the
contributions of stratum ``h``'s sampled rows.  Because group membership
and the predicate are part of the contribution, a group's size is
estimated with its own sampling error instead of being treated as known,
and a stratified sample is never read as if it were uniform.

Every approximate answer in the repo — the governor's degrade path,
:class:`~repro.sampling.blinkdb.ApproximateQueryEngine`, stratified
samples, online aggregation and :func:`srs_estimate` — is a caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.stats import norm

from repro.engine.column import Column
from repro.engine.operators import first_appearance, group_rows, row_group_ids
from repro.errors import ApproximationError

#: one aggregate's answer for every output group: ``(value, half_width,
#: support)`` arrays — ``value`` is NaN where undefined (an AVG no sampled
#: non-NULL row backs), ``support`` counts the sampled rows that contributed
GroupCells = tuple[np.ndarray, np.ndarray, np.ndarray]


@dataclass(frozen=True)
class Estimate:
    """A point estimate with a symmetric confidence interval.

    Attributes:
        value: the point estimate.
        half_width: half the CI width (``value ± half_width``).
        confidence: the confidence level the interval was built at.
        sample_size: sampled rows that contributed to the estimate.
        population_size: rows the sample stands for.
    """

    value: float
    half_width: float
    confidence: float
    sample_size: int
    population_size: int

    @property
    def low(self) -> float:
        """Lower CI endpoint."""
        return self.value - self.half_width

    @property
    def high(self) -> float:
        """Upper CI endpoint."""
        return self.value + self.half_width

    @property
    def relative_error(self) -> float:
        """Half-width as a fraction of the estimate (inf when value is 0)."""
        if self.value == 0:
            return math.inf if self.half_width > 0 else 0.0
        return abs(self.half_width / self.value)

    def contains(self, truth: float) -> bool:
        """True if the interval covers ``truth``."""
        return self.low <= truth <= self.high


def stratified_estimate(
    aggregates: Sequence[tuple[str, np.ndarray | None, np.ndarray | None]],
    population: Sequence[int],
    taken: Sequence[int],
    strata: np.ndarray | None = None,
    keys: Sequence[Column] = (),
    member: np.ndarray | None = None,
    confidence: float = 0.95,
) -> tuple[list[Column], list[GroupCells]]:
    """COUNT / SUM / AVG with bounds for every group, from one sample.

    Args:
        aggregates: ``(function, values, valid)`` per aggregate over the
            sampled rows: ``function`` is ``"COUNT"``, ``"SUM"`` or
            ``"AVG"``; ``values`` the argument (ignored by COUNT); ``valid``
            True where it is non-NULL (None: everywhere).
        population: ``N_h``, the rows each stratum stands for.
        taken: ``n_h``, the rows sampled from each stratum; they sum to
            the number of sampled rows.
        strata: the stratum id of every sampled row (ignored, and may be
            None, for a one-stratum sample).
        keys: GROUP BY key columns over the sampled rows; none is the
            global group.
        member: True for sampled rows that pass the WHERE (None: all).
            Only these define groups, as in the exact aggregate.
        confidence: CI level in (0, 1).

    Returns:
        The key columns, one entry per group in first-appearance order, and
        one :data:`GroupCells` per aggregate.  A stratum with a single
        sampled row adds no variance (it has none to estimate); a fully
        sampled stratum adds none because it has none.

    Raises:
        ApproximationError: for a bad confidence level or function name.
    """
    if not 0.0 < confidence < 1.0:
        raise ApproximationError(f"confidence must be in (0,1), got {confidence}")
    z = float(norm.ppf(0.5 + confidence / 2.0))
    population = np.asarray(population, dtype=np.float64)
    taken = np.asarray(taken, dtype=np.float64)
    divisor = np.maximum(taken, 1.0)  # n_h, safe to divide by for an empty stratum
    # per stratum, what multiplies Σ(y − ȳ_h)²: N_h²(1 − n_h/N_h) / (n_h (n_h − 1))
    spread = np.where(
        (taken > 1) & (taken < population),
        population * (population - taken) / (divisor * np.maximum(taken - 1.0, 1.0)),
        0.0,
    )
    num_strata = len(population)

    rows = slice(None) if member is None else np.flatnonzero(member)
    num_rows = int(taken.sum()) if member is None else len(rows)
    if member is not None:
        keys = [key.take(rows) for key in keys]
    order, starts, counts = group_rows(keys, num_rows)
    num_groups = len(counts)
    if keys:  # label every row with its group's place in first-appearance order
        first_rows, appearance = first_appearance(order, starts)
        place = np.empty(num_groups, dtype=np.int64)
        place[appearance] = np.arange(num_groups)
        group = row_group_ids(order, counts, place)
        keys = [key.take(first_rows) for key in keys]
    else:
        group = np.zeros(num_rows, dtype=np.int64)
    # the non-empty (group × stratum) cells, and each row's cell
    if num_strata > 1:
        cells, cell = np.unique(group * num_strata + strata[rows], return_inverse=True)
        cell_group, cell_stratum = np.divmod(cells, num_strata)
    else:
        cell, cell_group = group, np.arange(num_groups)
        cell_stratum = np.zeros(num_groups, dtype=np.int64)

    def per_cell(x: np.ndarray) -> np.ndarray:
        return np.bincount(cell, weights=x, minlength=len(cell_group))

    def per_group(x: np.ndarray) -> np.ndarray:
        return np.bincount(cell_group, weights=x, minlength=num_groups)

    def total(x: np.ndarray) -> np.ndarray:  # Σ_h N_h · x̄_h
        return per_group(population[cell_stratum] * (per_cell(x) / divisor[cell_stratum]))

    results: list[GroupCells] = []
    for function, values, valid in aggregates:
        if function not in ("COUNT", "SUM", "AVG"):
            raise ApproximationError(f"unknown aggregate {function!r}")
        present = np.ones(num_rows) if valid is None else valid[rows].astype(np.float64)
        if function == "COUNT":
            residual = present
        else:
            residual = np.where(present > 0, np.asarray(values, dtype=np.float64)[rows], 0.0)
        value = total(residual)
        scale = 1.0
        if function == "AVG":
            scale = total(present)
            value = np.divide(value, scale, out=np.full(num_groups, np.nan), where=scale > 0)
            residual = np.where(present > 0, residual - value[group], 0.0)
        squares = per_cell(residual * residual) - per_cell(residual) ** 2 / divisor[cell_stratum]
        variance = per_group(spread[cell_stratum] * np.maximum(squares, 0.0))
        with np.errstate(invalid="ignore", divide="ignore"):
            half_width = z * np.sqrt(variance) / scale
        support = np.bincount(group, weights=present, minlength=num_groups)
        results.append((value, half_width, support))
    return keys, results


def cell_estimates(
    cells: GroupCells, confidence: float, population_size: int
) -> list[Estimate | None]:
    """One :class:`Estimate` per group of a :data:`GroupCells` (None where
    the value is undefined)."""
    return [
        None if math.isnan(value)
        else Estimate(value, half_width, confidence, int(support), population_size)
        for value, half_width, support in zip(*(array.tolist() for array in cells))
    ]


def srs_estimate(
    sample: np.ndarray,
    population_size: int,
    aggregate: str = "avg",
    confidence: float = 0.95,
) -> Estimate:
    """Estimate one aggregate from a simple random sample: the one-stratum,
    one-group case of :func:`stratified_estimate`.

    Args:
        sample: sampled values.  For COUNT estimation pass the per-row
            predicate outcomes (the count is the total of the indicator).
        population_size: N, the full table's row count.
        aggregate: ``"avg"``, ``"sum"`` or ``"count"``.
        confidence: CI confidence level in (0, 1).

    Raises:
        ApproximationError: for an empty sample or unknown aggregate.
    """
    sample = np.asarray(sample, dtype=np.float64)
    if len(sample) == 0:
        raise ApproximationError("cannot estimate from an empty sample")
    function = "SUM" if aggregate == "count" else aggregate.upper()
    _, [cells] = stratified_estimate(
        [(function, sample, None)], [population_size], [len(sample)], confidence=confidence
    )
    return cell_estimates(cells, confidence, population_size)[0]

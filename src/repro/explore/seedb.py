"""SeeDB: deviation-based visualization recommendation ([49]).

Given a *target* subset of a table (e.g. ``WHERE region = 'north'``) the
system searches all (dimension, measure, aggregate) views for the ones
whose target distribution deviates most from the reference (the rest of
the data) — those are the "interesting" bar charts to show first.

Both of the paper's optimisation families are implemented:

- **shared scans** — every view is a GROUP BY, and all views over one
  dimension come out of one pass of the engine's group kernel keyed on
  ``(dimension, is target)``: SUM and COUNT of each measure for target and
  reference at once, AVG as their ratio;
- **confidence-interval pruning** — the data is consumed in phases, each
  view keeps a running utility estimate with a Hoeffding-style interval,
  and views whose upper bound falls below the current top-k's lower bound
  are dropped without reading the remaining phases.  A phase aggregates
  only its own rows and adds its partial SUMs and COUNTs to the earlier
  phases'; the survivors' final utilities are read off the merged partials.

The S9 benchmark reproduces the headline result: pruning cuts the views
fully evaluated (and ``rows_aggregated``, the aggregate updates) by a
large factor while preserving the true top-k.  Not wall-clock, at these
sizes: ten kernel calls per dimension over randomly gathered rows are
slower than the one shared pass (ROADMAP item 13: zone-range phases).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from repro.engine import operators as ops
from repro.engine.column import Column, concat_columns
from repro.engine.expressions import Expression, truth_mask
from repro.engine.table import Table

AGGREGATES = ("avg", "sum", "count")

#: one grouping pass over one dimension: per (dimension value, is target)
#: group its key, its target flag and ``stats[group, measure] = (SUM, COUNT)``
_Partials = tuple[Column, np.ndarray, np.ndarray]


@dataclass(frozen=True)
class ViewSpec:
    """One candidate view: GROUP BY dimension, aggregate(measure)."""

    dimension: str
    measure: str
    aggregate: str

    def describe(self) -> str:
        """Human-readable label."""
        return f"{self.aggregate}({self.measure}) GROUP BY {self.dimension}"


@dataclass
class ViewRecommendation:
    """A ranked view with its final utility."""

    spec: ViewSpec
    utility: float
    target_distribution: dict[Any, float] = field(default_factory=dict)
    reference_distribution: dict[Any, float] = field(default_factory=dict)


def _merge(a: _Partials, b: _Partials) -> _Partials:
    """Add two passes' partials group by group: the kernel regroups the
    concatenated keys, and SUM and COUNT partials both recombine as SUM."""
    keys = concat_columns([a[0], b[0]])
    flags = np.concatenate([a[1], b[1]])
    order, starts, _ = ops.group_rows([keys, Column(flags)], len(keys))
    first = order[starts]
    stats = np.concatenate([a[2], b[2]])[order]
    return keys.take(first), flags[first], np.add.reduceat(stats, starts)


def _normalise(distribution: dict[Any, float], keys: Sequence[Any]) -> np.ndarray:
    values = np.asarray([max(0.0, distribution.get(k, 0.0)) for k in keys])
    total = values.sum()
    if total <= 0:
        return np.full(len(keys), 1.0 / max(1, len(keys)))
    return values / total


def kl_divergence(p: np.ndarray, q: np.ndarray, epsilon: float = 1e-9) -> float:
    """KL(p || q) with epsilon smoothing — SeeDB's default utility."""
    p = np.clip(p, epsilon, None)
    q = np.clip(q, epsilon, None)
    p = p / p.sum()
    q = q / q.sum()
    return float(np.sum(p * np.log(p / q)))


class SeeDB:
    """The view recommender.

    Distributions follow SQL aggregate semantics (the engine's group
    kernel computes them): NULL measures are skipped — ``count(m)`` is
    ``COUNT(m)``, and a group whose ``avg`` or ``sum`` is NULL is absent —
    NULL dimension values form one group keyed ``None``, and NaN groups
    as the engine's GROUP BY groups it.  Rows on which the target
    predicate is NULL belong to the reference.

    Args:
        table: the data.
        dimensions: candidate GROUP BY columns (categorical).
        measures: candidate aggregation columns (numeric).
        aggregates: aggregate functions considered.
    """

    def __init__(
        self,
        table: Table,
        dimensions: Sequence[str],
        measures: Sequence[str],
        aggregates: Sequence[str] = AGGREGATES,
    ) -> None:
        self.table = table
        self.dimensions = list(dimensions)
        self.measures = list(measures)
        self.aggregates = list(aggregates)
        self.views_evaluated_fully = 0
        self.views_pruned = 0
        self.phases_executed = 0
        self.rows_aggregated = 0  # logical work: rows fed to the group kernel x views they served

    def candidate_views(self) -> list[ViewSpec]:
        """The full candidate space."""
        return [
            ViewSpec(dimension, measure, aggregate)
            for dimension in self.dimensions
            for measure in self.measures
            for aggregate in self.aggregates
        ]

    def _aggregate(
        self, dimension: str, views: Sequence[ViewSpec], is_target: np.ndarray, rows: Any
    ) -> _Partials:
        """The shared scan: SUM and COUNT of every measure ``views`` (all on
        ``dimension``) read, per (dimension value, is target) group of
        ``rows`` (positions, or a slice)."""
        keys = self.table.column(dimension).take(rows)
        flags = is_target[rows]
        order, starts, counts = ops.group_rows([keys, Column(flags)], len(keys))
        stats = np.zeros((len(counts), len(self.measures), 2))
        for measure in {spec.measure for spec in views}:
            column = self.table.column(measure).take(rows)
            total = ops.aggregate_groups("SUM", False, column, order, starts, counts).data
            present = ops.aggregate_groups("COUNT", False, column, order, starts, counts).data
            i = self.measures.index(measure)
            stats[:, i, 0], stats[:, i, 1] = np.where(present > 0, total, 0.0), present
        self.rows_aggregated += len(keys) * len(views)
        first = order[starts]
        return keys.take(first), flags[first], stats

    def _view(
        self, spec: ViewSpec, partials: _Partials
    ) -> tuple[float, dict[Any, float], dict[Any, float]]:
        """Utility and (target, reference) distributions of one view, read
        off its dimension's partials."""
        group_keys, flags, stats = partials
        total, present = stats[:, self.measures.index(spec.measure)].T
        values = {"count": present, "sum": total, "avg": total / np.maximum(present, 1.0)}
        # SUM and AVG over no non-NULL value are NULL: the group is absent
        known = (present > 0) | (spec.aggregate == "count")
        cells = list(zip(group_keys.to_list(), flags, values[spec.aggregate].tolist(), known))
        target = {key: value for key, flag, value, ok in cells if ok and flag}
        reference = {key: value for key, flag, value, ok in cells if ok and not flag}
        all_keys = sorted(set(target) | set(reference), key=str)
        utility = kl_divergence(
            _normalise(target, all_keys), _normalise(reference, all_keys)
        )
        return utility, target, reference

    def recommend(
        self,
        target_predicate: Expression,
        k: int = 5,
        prune: bool = True,
        num_phases: int = 10,
        confidence: float = 0.95,
    ) -> list[ViewRecommendation]:
        """Top-k most deviating views for the target subset.

        Args:
            target_predicate: defines the target rows; the reference is
                the complement.
            k: views returned.
            prune: enable confidence-interval pruning.
            num_phases: data partitions used by the pruning scheme.
            confidence: pruning interval confidence.
        """
        is_target = truth_mask(target_predicate, self.table)
        if is_target.all() or not is_target.any():
            raise ValueError("target predicate must split the table non-trivially")
        phases: list[Any] = [slice(None)]  # exact: one pass over every row
        if prune:
            rng = np.random.default_rng(0)
            sides = [
                np.array_split(rng.permutation(np.flatnonzero(side)), num_phases)
                for side in (is_target, ~is_target)
            ]
            phases = [np.concatenate(parts) for parts in zip(*sides)]
            self.phases_executed += num_phases
        alive = self.candidate_views()
        merged: dict[str, _Partials] = {}  # per dimension, every phase so far
        delta = 1.0 - confidence

        for phase, rows in enumerate(phases):
            for dimension in dict.fromkeys(spec.dimension for spec in alive):
                views = [spec for spec in alive if spec.dimension == dimension]
                partials = self._aggregate(dimension, views, is_target, rows)
                merged[dimension] = _merge(merged[dimension], partials) if phase else partials
            if phase < 1 or len(alive) <= k:
                continue
            # Hoeffding-style running interval on the utility estimates
            m = phase + 1
            epsilon = math.sqrt(math.log(2.0 / delta) / (2.0 * m))
            utilities = {spec: self._view(spec, merged[spec.dimension])[0] for spec in alive}
            lower_topk = sorted(utilities.values(), reverse=True)[k - 1] - epsilon
            survivors = [spec for spec in alive if utilities[spec] + epsilon >= lower_topk]
            self.views_pruned += len(alive) - len(survivors)
            alive = survivors

        self.views_evaluated_fully += len(alive)
        final = [
            ViewRecommendation(spec, *self._view(spec, merged[spec.dimension]))
            for spec in alive
        ]
        final.sort(key=lambda r: -r.utility)
        return final[:k]

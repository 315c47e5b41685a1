"""Rapid sampling for visualizations with ordering guarantees ([12]).

For a bar chart of per-group means, viewers read the *order* of the bars,
not their exact heights.  IFOCUS-style sampling therefore draws rows per
group only until every pair of adjacent bars is separated with high
confidence — groups whose means are far apart settle after a handful of
samples, and only genuinely close pairs need deep sampling.

The implementation runs rounds of per-group sampling, maintains a
Hoeffding-style confidence interval per group mean, and stops sampling a
group once its interval is disjoint from every other *active* group's
interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from repro.engine import operators as ops
from repro.engine.column import Column


@dataclass
class OrderingResult:
    """Outcome of an ordering-guaranteed sampling run."""

    order: list[Any]  # group keys, smallest mean first
    estimates: dict[Any, float]
    samples_per_group: dict[Any, int]
    correct_probability: float

    @property
    def total_samples(self) -> int:
        """Total rows drawn across all groups."""
        return sum(self.samples_per_group.values())


class OrderedSampler:
    """Samples grouped values until the group-mean ordering is settled.

    Args:
        groups: per-row group keys, a sequence or an engine ``Column``;
            they partition as the engine's GROUP BY does (the NULLs are
            one group, keyed ``None``).
        values: per-row measure values.
        confidence: target probability that the returned order is correct.
        batch: rows drawn per group per round.
        seed: RNG seed.
    """

    def __init__(
        self,
        groups: Sequence[Any] | Column,
        values: np.ndarray,
        confidence: float = 0.95,
        batch: int = 10,
        seed: int = 0,
    ) -> None:
        keys = groups if isinstance(groups, Column) else Column(groups)
        values = np.asarray(values, dtype=np.float64)
        order, starts, _ = ops.group_rows([keys], len(keys))
        # per group: its key and its rows' values, rows ascending
        members = dict(zip(keys.take(order[starts]).to_list(), np.split(values[order], starts[1:])))
        self._values_by_group: dict[Any, np.ndarray] = {
            key: members[key] for key in sorted(members, key=str)
        }
        self.confidence = confidence
        self.batch = batch
        self._rng = np.random.default_rng(seed)
        spans = [
            float(v.max() - v.min()) if len(v) else 1.0
            for v in self._values_by_group.values()
        ]
        self._range = max(max(spans), 1e-9)

    def run(self, max_rounds: int = 200) -> OrderingResult:
        """Sample until the ordering is settled (or groups are exhausted)."""
        keys = list(self._values_by_group)
        drawn: dict[Any, list[float]] = {k: [] for k in keys}
        permutations = {
            k: self._rng.permutation(len(self._values_by_group[k])) for k in keys
        }
        cursors = {k: 0 for k in keys}
        active = set(keys)
        delta = (1.0 - self.confidence) / max(1, len(keys))

        def interval(key: Any) -> tuple[float, float]:
            samples = drawn[key]
            n = len(samples)
            if n == 0:
                return (-math.inf, math.inf)
            if cursors[key] >= len(self._values_by_group[key]):
                mean = float(np.mean(samples))
                return (mean, mean)  # exhausted: exact
            epsilon = self._range * math.sqrt(math.log(2.0 / delta) / (2.0 * n))
            mean = float(np.mean(samples))
            return (mean - epsilon, mean + epsilon)

        for _ in range(max_rounds):
            if not active:
                break
            for key in list(active):
                values = self._values_by_group[key]
                start = cursors[key]
                end = min(start + self.batch, len(values))
                if start < end:
                    drawn[key].extend(values[permutations[key][start:end]].tolist())
                    cursors[key] = end
                if end >= len(values):
                    pass  # exhausted; interval collapses to a point
            # retire groups whose interval is disjoint from all others
            intervals = {k: interval(k) for k in keys}
            for key in list(active):
                lo, hi = intervals[key]
                separated = all(
                    other == key or hi < intervals[other][0] or lo > intervals[other][1]
                    for other in keys
                )
                exhausted = cursors[key] >= len(self._values_by_group[key])
                if separated or exhausted:
                    active.discard(key)

        estimates = {
            k: float(np.mean(drawn[k])) if drawn[k] else 0.0 for k in keys
        }
        order = sorted(keys, key=lambda k: estimates[k])
        return OrderingResult(
            order=order,
            estimates=estimates,
            samples_per_group={k: len(drawn[k]) for k in keys},
            correct_probability=self.confidence,
        )

    def true_order(self) -> list[Any]:
        """Ground-truth ordering (full-data means), for evaluation."""
        means = {k: float(v.mean()) for k, v in self._values_by_group.items()}
        return sorted(means, key=lambda k: means[k])

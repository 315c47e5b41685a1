"""VizDeck: self-organising dashboards ([40]).

VizDeck enumerates candidate visualizations of a table and ranks them by
statistical "interestingness" heuristics, so the dashboard assembles
itself with the most promising charts on top.  The heuristics implemented
mirror the paper's feature set:

- histograms of numeric columns scored by deviation from uniformity
  (entropy deficit) and by skew;
- bar charts of categorical columns scored by balance of group sizes;
- scatter plots of numeric pairs scored by |Pearson correlation|.

Feedback ("vote up/down this chart") nudges the per-chart-type weights —
the paper's personalisation mechanism.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.engine import operators as ops
from repro.engine.table import Table
from repro.explore.facets import _categorical_columns


@dataclass
class VizCandidate:
    """One ranked visualization candidate."""

    kind: str  # "histogram" | "bar" | "scatter"
    columns: tuple[str, ...]
    score: float

    def describe(self) -> str:
        """Human-readable label."""
        return f"{self.kind}({', '.join(self.columns)})"


def _entropy_deficit(values: np.ndarray, bins: int = 16) -> float:
    """1 − normalised entropy of the histogram: 0 = uniform, 1 = point mass."""
    counts, _ = np.histogram(values, bins=bins)
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts[counts > 0] / total
    entropy = -np.sum(p * np.log(p))
    max_entropy = math.log(bins)
    return float(1.0 - entropy / max_entropy) if max_entropy > 0 else 0.0


def _abs_skewness(values: np.ndarray) -> float:
    std = values.std()
    if std == 0:
        return 0.0
    return float(abs(np.mean(((values - values.mean()) / std) ** 3)))


class VizDeck:
    """Ranks candidate visualizations of a table.

    Args:
        table: the data.
        max_scatter_pairs: cap on numeric-pair enumeration.
    """

    def __init__(self, table: Table, max_scatter_pairs: int = 50) -> None:
        self.table = table
        self.max_scatter_pairs = max_scatter_pairs
        self._weights = {"histogram": 1.0, "bar": 1.0, "scatter": 1.0}

    def _numeric_columns(self) -> list[str]:
        return [
            name
            for name in self.table.column_names
            if self.table.column(name).dtype.is_numeric
        ]

    def candidates(self) -> list[VizCandidate]:
        """Score every candidate visualization (unsorted)."""
        result: list[VizCandidate] = []
        numeric = self._numeric_columns()
        for name in numeric:
            values = np.asarray(self.table.column(name).data, dtype=np.float64)
            score = 0.5 * _entropy_deficit(values) + 0.5 * min(
                1.0, _abs_skewness(values) / 3.0
            )
            result.append(VizCandidate("histogram", (name,), score))
        for name in _categorical_columns(self.table, max_cardinality=30):
            # SELECT COUNT(*) GROUP BY name; the NULLs are one bar
            _, _, counts = ops.group_rows([self.table.column(name)], self.table.num_rows)
            p = counts / counts.sum()
            entropy = float(-np.sum(p * np.log(p)))
            max_entropy = math.log(len(counts)) if len(counts) > 1 else 1.0
            # interesting bar charts are neither flat nor degenerate
            balance = entropy / max_entropy if max_entropy else 0.0
            score = 1.0 - abs(balance - 0.6)
            result.append(VizCandidate("bar", (name,), score))
        pairs = 0
        for i, a in enumerate(numeric):
            for b in numeric[i + 1 :]:
                if pairs >= self.max_scatter_pairs:
                    break
                x = np.asarray(self.table.column(a).data, dtype=np.float64)
                y = np.asarray(self.table.column(b).data, dtype=np.float64)
                if x.std() == 0 or y.std() == 0:
                    continue
                score = float(abs(np.corrcoef(x, y)[0, 1]))
                result.append(VizCandidate("scatter", (a, b), score))
                pairs += 1
        return result

    def rank(self, k: int = 10) -> list[VizCandidate]:
        """Top-k candidates under the current personalised weights."""
        scored = [
            VizCandidate(c.kind, c.columns, c.score * self._weights[c.kind])
            for c in self.candidates()
        ]
        scored.sort(key=lambda c: (-c.score, c.describe()))
        return scored[:k]

    def feedback(self, kind: str, positive: bool, rate: float = 0.2) -> None:
        """Vote a chart type up or down, shifting future rankings."""
        if kind not in self._weights:
            raise ValueError(f"unknown chart kind {kind!r}")
        factor = (1.0 + rate) if positive else 1.0 / (1.0 + rate)
        self._weights[kind] *= factor

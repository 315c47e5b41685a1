"""Discovery-driven exploration of OLAP cubes (Sarawagi et al. [54, 55]).

Instead of making the analyst drill into every corner of a data cube,
i3/discovery-driven exploration precomputes *surprise* indicators: each
cell's value is compared to what an additive model (grand effect + row
effect + column effect) predicts, and cells whose residuals are large —
standardised as in the papers — are flagged as **exceptions**.  Drill
paths are then ranked by the exceptions hiding beneath them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.engine import operators as ops
from repro.engine.expressions import col
from repro.engine.sql.ast import AggregateCall
from repro.engine.table import Table


@dataclass
class CubeCell:
    """One cell of the 2-D cube view with its surprise score."""

    row_value: Any
    column_value: Any
    actual: float
    expected: float
    surprise: float

    @property
    def is_exception(self) -> bool:
        """Flagged when the standardised residual exceeds 2.5."""
        return self.surprise > 2.5


class CubeExplorer:
    """Surprise analysis over one (row dim, column dim, measure) view.

    The cells are ``AVG(measure) GROUP BY row_dim, column_dim`` on the
    engine's group kernel, with SQL's semantics: NULL measures are skipped
    (a cell with none left is absent), a dimension's NULLs are one value
    (``None``), and NaN groups as the engine's GROUP BY groups it.

    Args:
        table: the fact table.
        row_dim, column_dim: categorical dimensions.
        measure: numeric measure, aggregated by mean per cell.
    """

    def __init__(
        self, table: Table, row_dim: str, column_dim: str, measure: str
    ) -> None:
        self.table = table
        self.row_dim = row_dim
        self.column_dim = column_dim
        self.measure = measure
        cells = ops.hash_aggregate(
            table,
            [col(row_dim), col(column_dim)],
            [("mean", AggregateCall("AVG", col(measure)))],
            group_names=["row", "column"],
        )
        self.row_values = sorted(set(cells.column("row")), key=str)
        self.column_values = sorted(set(cells.column("column")), key=str)
        self._matrix = np.full((len(self.row_values), len(self.column_values)), np.nan)
        row_index = {v: i for i, v in enumerate(self.row_values)}
        column_index = {v: i for i, v in enumerate(self.column_values)}
        for row, column, mean in cells.rows():
            if mean is not None:
                self._matrix[row_index[row], column_index[column]] = mean

    # -- the additive model ----------------------------------------------------------

    def _fit(self) -> tuple[np.ndarray, float]:
        """Expected cell values and residual scale under the additive model.

        The scale is a robust one (scaled median absolute deviation), as in
        the exception papers: a single gross outlier must not inflate the
        yardstick it is judged against.
        """
        actual = self._matrix
        present = ~np.isnan(actual)
        grand = float(np.nanmean(actual))
        row_effect = np.nanmean(actual, axis=1) - grand
        column_effect = np.nanmean(actual, axis=0) - grand
        expected = grand + row_effect[:, None] + column_effect[None, :]
        residuals = (actual - expected)[present]
        if residuals.size:
            mad = float(np.median(np.abs(residuals - np.median(residuals))))
            scale = 1.4826 * mad  # normal-consistent MAD
        else:
            scale = 1.0
        # floor the scale at a small fraction of the data's magnitude so
        # views with near-zero residuals do not standardise noise upward
        floor = 0.01 * max(1e-9, abs(grand))
        return expected, max(scale, floor, 1e-9)

    def cells(self) -> list[CubeCell]:
        """Every populated cell with its surprise score."""
        expected, scale = self._fit()
        result = []
        for i, row_value in enumerate(self.row_values):
            for j, column_value in enumerate(self.column_values):
                actual = self._matrix[i, j]
                if np.isnan(actual):
                    continue
                surprise = abs(actual - expected[i, j]) / scale
                result.append(
                    CubeCell(
                        row_value=row_value,
                        column_value=column_value,
                        actual=float(actual),
                        expected=float(expected[i, j]),
                        surprise=float(surprise),
                    )
                )
        return result

    def exceptions(self, threshold: float = 2.5) -> list[CubeCell]:
        """Cells whose surprise exceeds the threshold, most surprising first."""
        flagged = [cell for cell in self.cells() if cell.surprise > threshold]
        flagged.sort(key=lambda cell: -cell.surprise)
        return flagged

    def drill_path_scores(self) -> dict[Any, float]:
        """Rank row-dimension values by the total surprise beneath them —
        the "where should I drill next?" indicator of the papers."""
        scores: dict[Any, float] = {value: 0.0 for value in self.row_values}
        for cell in self.cells():
            scores[cell.row_value] += max(0.0, cell.surprise - 1.0)
        return scores


def best_views_by_exceptions(
    table: Table,
    dimensions: Sequence[str],
    measure: str,
    top_k: int = 3,
) -> list[tuple[str, str, float]]:
    """Rank all (row dim, column dim) cube views by their exception mass.

    The discovery-driven entry point: which 2-D views of the cube contain
    the most surprising structure?
    """
    ranked = []
    for i, row_dim in enumerate(dimensions):
        for column_dim in dimensions[i + 1 :]:
            explorer = CubeExplorer(table, row_dim, column_dim, measure)
            mass = sum(cell.surprise for cell in explorer.cells() if cell.surprise > 1.0)
            ranked.append((row_dim, column_dim, float(mass)))
    ranked.sort(key=lambda item: -item[2])
    return ranked[:top_k]

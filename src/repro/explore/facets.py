"""YmalDB-style result-driven recommendations ("You May Also Like", [20]).

After a query, the system inspects the result set for *interesting facet
values*: attribute values significantly over-represented in the result
relative to the whole database.  Those values are then used to recommend
additional tuples (sharing the interesting facets but outside the
original result) — steering the user toward related data they did not
ask for.

Interestingness of value ``v`` of attribute ``A`` is the relevance ratio
``P(v | result) / P(v | database)``, the measure used by YmalDB.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.engine import operators as ops
from repro.engine.column import Column
from repro.engine.expressions import Expression, col, truth_mask
from repro.engine.table import Table


def _categorical_columns(table: Table, max_cardinality: int) -> list[str]:
    """The low-cardinality non-numeric columns of a table."""
    return [
        name
        for name in table.column_names
        if not table.column(name).dtype.is_numeric
        and table.column(name).distinct_count() <= max_cardinality
    ]


@dataclass
class InterestingFacet:
    """One over-represented attribute value."""

    attribute: str
    value: Any
    relevance_ratio: float
    support_in_result: int


class FacetRecommender:
    """Finds interesting facets of a query result and recommends tuples.

    Supports are one GROUP BY per facet column on the engine's group
    kernel, with SQL's semantics: a column's NULLs are one value, ``None``.

    Args:
        table: the full table.
        facet_columns: candidate categorical columns; defaults to every
            low-cardinality non-numeric column.
        max_cardinality: cardinality cutoff for automatic facet columns.
    """

    def __init__(
        self,
        table: Table,
        facet_columns: Sequence[str] | None = None,
        max_cardinality: int = 50,
    ) -> None:
        self.table = table
        if facet_columns is None:
            facet_columns = _categorical_columns(table, max_cardinality)
        self.facet_columns = list(facet_columns)

    def interesting_facets(
        self,
        predicate: Expression,
        min_ratio: float = 1.5,
        min_support: int = 2,
    ) -> list[InterestingFacet]:
        """Facet values over-represented in the predicate's result.

        Args:
            predicate: the user's query.
            min_ratio: minimum relevance ratio to report.
            min_support: minimum occurrences inside the result.
        """
        return self._facets(truth_mask(predicate, self.table), min_ratio, min_support)

    def _facets(
        self, in_result: np.ndarray, min_ratio: float, min_support: int
    ) -> list[InterestingFacet]:
        result_size = int(in_result.sum())
        if result_size == 0:
            return []
        n = self.table.num_rows
        member = Column(in_result)
        facets: list[InterestingFacet] = []
        for attribute in self.facet_columns:
            # SELECT attribute, COUNT(*), SUM(in_result) GROUP BY attribute
            column = self.table.column(attribute)
            order, starts, counts = ops.group_rows([column], n)
            supports = ops.aggregate_groups("SUM", False, member, order, starts, counts).data
            ratios = (supports / result_size) / (counts / n)
            keep = np.flatnonzero((supports >= max(min_support, 1)) & (ratios >= min_ratio))
            values = column.take(order[starts[keep]]).to_list()  # one per reported group
            facets.extend(
                InterestingFacet(attribute, *facet)
                for facet in zip(values, ratios[keep].tolist(), supports[keep].tolist())
            )
        facets.sort(key=lambda f: -f.relevance_ratio)
        return facets

    def recommend_tuples(self, predicate: Expression, k: int = 10, min_ratio: float = 1.5) -> Table:
        """Rows *outside* the result that share its interesting facets.

        Rows are scored by the summed relevance ratios of the interesting
        facet values they carry; the top-k are returned.
        """
        in_result = truth_mask(predicate, self.table)
        scores = np.zeros(self.table.num_rows)
        for facet in self._facets(in_result, min_ratio, min_support=2):
            attribute = col(facet.attribute)
            carries = attribute.is_null() if facet.value is None else attribute == facet.value
            scores += np.where(truth_mask(carries, self.table), facet.relevance_ratio, 0.0)
        scores[in_result] = -np.inf  # only recommend rows the user has not seen
        order = np.argsort(-scores, kind="stable")[:k]
        chosen = order[scores[order] > 0]  # -inf marks the result itself
        return self.table.take(chosen)

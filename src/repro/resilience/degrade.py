"""Graceful degradation: re-route a doomed aggregate through sampling.

When a query hits its deadline or memory budget and the degradation
policy is on (``PRAGMA degrade=1``), the governor checks whether the
plan is a *degradable aggregate* — a grouped or global COUNT/SUM/AVG
over a single base table with an optional pushed-down predicate — and,
if so, answers it from a bounded uniform sample instead of failing.
This is the BlinkDB/online-aggregation posture from the survey's
middleware layer: under resource pressure, a bounded-error answer now
beats an exact answer never.

The approximate answer is a :class:`DegradedTable`: alongside each
aggregate column ``x`` it carries ``x_lo``/``x_hi`` confidence bounds,
and the table object itself is tagged with ``degraded=True``, the
sampled row count and the reason, so shells and clients can surface the
approximation honestly.  This module owns the plan analysis, the sample
draw and the column layout; the numbers are
:func:`repro.sampling.estimators.stratified_estimate` over a one-stratum
sample, the same function every other approximate answer calls.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.engine import expressions as ex
from repro.engine.column import Column, column_from_parts
from repro.engine.expressions import truth_mask
from repro.engine.planner import AggregateNode, Plan, ProjectNode, ScanNode
from repro.engine.table import Table
from repro.engine.types import DataType
from repro.errors import ApproximationError
from repro.obs.tracing import trace
from repro.sampling.estimators import stratified_estimate

_SUPPORTED = ("COUNT", "SUM", "AVG")


class DegradedTable(Table):
    """A result table produced by degradation rather than exact execution.

    Behaves exactly like a :class:`~repro.engine.table.Table`; the extra
    attributes describe the approximation so callers can tell (and show)
    that the answer is not exact.
    """

    degraded = True
    reason = ""
    sample_rows = 0
    total_rows = 0
    confidence = 0.95


def degradable(plan: Plan) -> bool:
    """True when the plan can be answered approximately by sampling."""
    return _analyse(plan) is not None


def _analyse(plan: Plan) -> tuple[AggregateNode, ScanNode, list[str]] | None:
    """Decompose a degradable plan; None when the shape is unsupported.

    Supported shape: ``[Project] -> Aggregate -> Scan`` where the project
    only passes columns through, every group key is a plain column
    reference, and every aggregate is a non-DISTINCT COUNT/SUM/AVG.
    HAVING, ORDER BY, LIMIT, DISTINCT aggregates and joins are rejected:
    their sampled semantics are not a drop-in for the exact answer.
    """
    node = plan.root
    output: list[str] | None = None
    if isinstance(node, ProjectNode):
        items = node.items
        if any(
            item.star or not isinstance(item.expression, ex.ColumnRef)
            for item in items
        ):
            return None
        output = [item.output_name() for item in items]
        node = node.child
    if not isinstance(node, AggregateNode):
        return None
    scan = node.child
    if not isinstance(scan, ScanNode):
        return None
    if any(not isinstance(expr, ex.ColumnRef) for expr in node.group_exprs):
        return None
    agg_names = {name for name, _ in node.aggregates}
    for name, call in node.aggregates:
        if call.distinct or call.function not in _SUPPORTED:
            return None
    if output is None:
        output = list(node.group_names) + [name for name, _ in node.aggregates]
    known = set(node.group_names) | agg_names
    if any(name not in known for name in output):
        return None
    return node, scan, output


def degraded_answer(
    plan: Plan,
    database: Any,
    max_rows: int = 10_000,
    confidence: float = 0.95,
    seed: int = 0,
    reason: str = "",
) -> DegradedTable:
    """Answer a degradable aggregate plan from a bounded uniform sample.

    Args:
        plan: a plan for which :func:`degradable` is True.
        database: catalog resolving the scanned table.
        max_rows: sample-size budget (the whole table when smaller).
        confidence: CI level of the per-cell bounds.
        seed: RNG seed of the uniform sample (deterministic by default).
        reason: human-readable trigger, recorded on the result.

    Raises:
        ApproximationError: when the plan shape is not degradable.
    """
    analysed = _analyse(plan)
    if analysed is None:
        raise ApproximationError("plan is not a degradable aggregate")
    agg_node, scan, output = analysed

    base = database.get_table(scan.table)
    n_population = base.num_rows
    sample_size = min(n_population, max_rows)
    with trace(
        "resilience.degrade",
        table=scan.table,
        sample_rows=sample_size,
        total_rows=n_population,
        reason=reason,
    ):
        if sample_size == 0:
            rows_idx = np.empty(0, dtype=np.int64)
        else:
            rng = np.random.default_rng(seed)
            rows_idx = np.sort(
                rng.choice(n_population, size=sample_size, replace=False)
            )
        subset = base.take(rows_idx)

        aggregates = []
        for _, call in agg_node.aggregates:
            if call.argument is None:
                aggregates.append(("COUNT", None, None))
            else:
                column = call.argument.evaluate(subset)
                aggregates.append((call.function, column.data, column.validity))
        keys, cells = stratified_estimate(
            aggregates,
            [n_population],
            [sample_size],
            keys=[expr.evaluate(subset) for expr in agg_node.group_exprs],
            member=None if scan.predicate is None else truth_mask(scan.predicate, subset),
            confidence=confidence,
        )

        # each aggregate column ``x`` is followed by its ``x_lo`` / ``x_hi`` bounds
        by_name: dict[str, list[tuple[str, Column]]] = {
            name: [(name, key)] for name, key in zip(agg_node.group_names, keys)
        }
        for (name, _), (value, half_width, _) in zip(agg_node.aggregates, cells):
            defined = ~np.isnan(value)
            by_name[name] = [
                (name + suffix, column_from_parts(bound, DataType.FLOAT64, defined))
                for suffix, bound in (
                    ("", value), ("_lo", value - half_width), ("_hi", value + half_width)
                )
            ]
        result = DegradedTable([pair for name in output for pair in by_name[name]])
        result.reason = reason or "resource budget exhausted"
        result.sample_rows = int(sample_size)
        result.total_rows = int(n_population)
        result.confidence = confidence
        return result

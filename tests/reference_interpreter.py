"""An independent row-at-a-time SQL interpreter for differential testing.

Shares only the *parser* with the engine; evaluation is deliberately
naive Python over lists of dicts, so any disagreement with the vectorised
engine (or with its index-accelerated plans) exposes a real bug in the
column-store execution path.
"""

from __future__ import annotations

import math
import re
from typing import Any

from repro.engine import expressions as ex
from repro.engine.expressions import strip_outer_parens
from repro.engine.sql.ast import AggregateCall, SelectStatement

Row = dict[str, Any]


def eval_expression(expr: ex.Expression, row: Row) -> Any:
    """Evaluate one scalar expression over one row (None = SQL NULL)."""
    if isinstance(expr, ex.ColumnRef):
        return row[expr.name]
    if isinstance(expr, ex.Literal):
        return expr.value
    if isinstance(expr, ex.Comparison):
        left = eval_expression(expr.left, row)
        right = eval_expression(expr.right, row)
        if left is None or right is None:
            return None
        ops = {
            "=": lambda a, b: a == b,
            "<>": lambda a, b: a != b,
            "<": lambda a, b: a < b,
            "<=": lambda a, b: a <= b,
            ">": lambda a, b: a > b,
            ">=": lambda a, b: a >= b,
        }
        return ops[expr.op](left, right)
    if isinstance(expr, ex.Arithmetic):
        left = eval_expression(expr.left, row)
        right = eval_expression(expr.right, row)
        if left is None or right is None:
            return None
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            return left * right
        if expr.op == "/":
            return None if right == 0 else left / right
        if expr.op == "%":
            return None if right == 0 else math.fmod(left, right)
    if isinstance(expr, ex.Negate):
        inner = eval_expression(expr.operand, row)
        return None if inner is None else -inner
    if isinstance(expr, ex.And):
        left = eval_expression(expr.left, row)
        right = eval_expression(expr.right, row)
        if left is False or right is False:
            return False
        if left is None or right is None:
            return None
        return bool(left) and bool(right)
    if isinstance(expr, ex.Or):
        left = eval_expression(expr.left, row)
        right = eval_expression(expr.right, row)
        if left is True or right is True:
            return True
        if left is None or right is None:
            return None
        return bool(left) or bool(right)
    if isinstance(expr, ex.Not):
        inner = eval_expression(expr.operand, row)
        return None if inner is None else not inner
    if isinstance(expr, ex.InList):
        value = eval_expression(expr.operand, row)
        if value is None:
            return None
        return any(eval_expression(option, row) == value for option in expr.options)
    if isinstance(expr, ex.IsNull):
        is_null = eval_expression(expr.operand, row) is None
        return (not is_null) if expr.negated else is_null
    if isinstance(expr, ex.Like):
        value = eval_expression(expr.operand, row)
        if value is None:
            return None
        pattern = re.escape(expr.pattern).replace(r"\%", "%").replace(r"\_", "_")
        pattern = pattern.replace("%", ".*").replace("_", ".")
        matched = re.fullmatch(pattern, value, re.DOTALL) is not None
        return (not matched) if expr.negated else matched
    if isinstance(expr, ex.FunctionCall):
        value = eval_expression(expr.arguments[0], row)
        if value is None:
            return None
        name = expr.name
        if name == "ABS":
            return abs(value)
        if name == "SQRT":
            return None if value < 0 else math.sqrt(value)
        if name == "FLOOR":
            return float(math.floor(value))
        if name == "CEIL":
            return float(math.ceil(value))
        if name == "ROUND":
            digits = 0
            if len(expr.arguments) == 2:
                digits = eval_expression(expr.arguments[1], row)
                if digits is None:
                    return None
            import numpy as np

            return float(np.round(value, int(digits)))
        if name == "LN":
            return None if value <= 0 else math.log(value)
        if name == "EXP":
            result = math.exp(value)
            return None if math.isinf(result) else result
        if name == "LENGTH":
            return len(value)
        if name == "UPPER":
            return value.upper()
        if name == "LOWER":
            return value.lower()
    if isinstance(expr, ex.Case):
        for condition, value in expr.branches:
            if eval_expression(condition, row) is True:
                result = eval_expression(value, row)
                return _promote_case(expr, row, result)
        if expr.default is not None:
            return _promote_case(expr, row, eval_expression(expr.default, row))
        return None
    raise NotImplementedError(f"reference interpreter: {type(expr).__name__}")


def _promote_case(expr: ex.Case, row: Row, result: Any) -> Any:
    """Mimic the engine's numeric promotion across CASE branches."""
    kinds = set()
    for _, value in expr.branches:
        kinds.add(_static_kind(value, row))
    if expr.default is not None:
        kinds.add(_static_kind(expr.default, row))
    if result is not None and kinds == {"int", "float"} and isinstance(result, int):
        return float(result)
    return result


def _static_kind(expr: ex.Expression, row: Row) -> str:
    value = eval_expression(expr, row)
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, int):
        return "int"
    if isinstance(value, float):
        return "float"
    if isinstance(value, str):
        return "str"
    return "null"


def _aggregate(call: AggregateCall, rows: list[Row]) -> Any:
    if call.argument is None:
        return len(rows)
    values = [eval_expression(call.argument, row) for row in rows]
    values = [v for v in values if v is not None]
    if call.distinct:
        # one NaN, as _group_key makes one NaN group: ``nan not in [nan]``
        # holds for two NaN objects
        first: dict[tuple, Any] = {}
        for v in values:
            first.setdefault(_group_key((v,)), v)
        values = list(first.values())
    if call.function == "COUNT":
        return len(values)
    if not values:
        return None
    if call.function == "SUM":
        total = sum(values)
        return float(total) if any(isinstance(v, float) for v in values) else total
    if call.function == "AVG":
        return sum(float(v) for v in values) / len(values)
    if call.function in ("MIN", "MAX"):
        if any(isinstance(v, float) and math.isnan(v) for v in values):
            return math.nan  # Python's min/max keep or drop a NaN by position
        extreme = min(values) if call.function == "MIN" else max(values)
        # a float extreme that is a zero is +0.0: min/max pick by position
        return extreme + 0.0 if isinstance(extreme, float) else extreme
    raise NotImplementedError(call.function)


#: stands for every NaN in a group key: ``nan != nan``, so as a dict key
#: each NaN object would be a group of its own, where SQL has one NaN group
_NAN = ("NaN",)


def _group_key(values) -> tuple:
    return tuple(
        _NAN if isinstance(v, float) and math.isnan(v) else v for v in values
    )


def run_reference(statement: SelectStatement, rows: list[Row]) -> list[tuple]:
    """Execute a (single-table, join-free) SELECT over dict rows.

    Returns output rows as tuples in engine column order.  ORDER BY and
    LIMIT are honoured; the caller decides whether order matters.
    """
    if statement.joins:
        raise NotImplementedError("reference interpreter is single-table")
    working = rows
    if statement.where is not None:
        working = [
            row for row in working if eval_expression(statement.where, row) is True
        ]

    if statement.is_aggregate:
        groups: dict[tuple, list[Row]] = {}
        shown: dict[tuple, tuple] = {}  # group -> its first row's key values
        for row in working:
            values = tuple(
                eval_expression(expr, row) for expr in statement.group_by
            )
            key = _group_key(values)
            if key not in groups:
                groups[key] = []
                shown[key] = values
            groups[key].append(row)
        if not statement.group_by:
            groups = {(): working}
            shown = {(): ()}
        out_rows: list[Row] = []
        for key in shown:
            out: Row = {}
            for expr, value in zip(statement.group_by, shown[key]):
                name = strip_outer_parens(expr.to_sql())
                for item in statement.items:
                    if (
                        item.expression is not None
                        and item.expression.to_sql() == expr.to_sql()
                        and item.alias
                    ):
                        name = item.alias
                out[name] = value
            for name, call in statement.aggregates() + statement.having_aggregates:
                out[name] = _aggregate(call, groups[key])
            out_rows.append(out)
        if statement.having is not None:
            out_rows = [
                row for row in out_rows
                if eval_expression(statement.having, row) is True
            ]
        working_out = out_rows
        output_names = [
            item.output_name() for item in statement.items if not item.star
        ]
    else:
        working_out = []
        output_names = []
        for item in statement.items:
            if item.star:
                output_names.extend(rows[0].keys() if rows else [])
            else:
                output_names.append(item.output_name())
        for row in working:
            out = dict(row)
            for item in statement.items:
                if not item.star:
                    out[item.output_name()] = eval_expression(item.expression, row)
            working_out.append(out)

    if statement.order_by:
        # multi-key with mixed directions: stable sorts from the last key
        # backwards, matching the engine's approach (nulls rank first)
        for order_item in reversed(statement.order_by):
            working_out.sort(
                key=lambda row, item=order_item: _order_rank(item, row),
                reverse=not order_item.ascending,
            )

    if statement.distinct:
        seen: set[tuple] = set()
        deduped = []
        for row in working_out:
            signature = _group_key(row.get(name) for name in output_names)
            if signature not in seen:
                seen.add(signature)
                deduped.append(row)
        working_out = deduped

    if statement.limit is not None:
        working_out = working_out[: statement.limit]
    return [tuple(row.get(name) for name in output_names) for row in working_out]


def _order_rank(order_item, row: Row):
    value = eval_expression(order_item.expression, row)
    if value is None:
        return (0, 0)
    return (1, value)  # as is: through float(), ints beyond 2**53 tie

"""Statement-level AST for the SQL subset.

Scalar expressions reuse :mod:`repro.engine.expressions`; this module adds
the statement shell around them: select lists, joins, grouping, ordering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from operator import setitem
from typing import Any, Callable, Collection, Iterator, Sequence

from repro.engine.expressions import Expression, Literal, strip_outer_parens

AGGREGATE_FUNCTIONS = ("COUNT", "SUM", "AVG", "MIN", "MAX")

#: One entry of a statement's ``expressions()``: the clause the
#: expression sits in (``select``, ``aggregate``, ``where``, ``group``,
#: ``having``, ``having_aggregate``, ``order``, ``set``), the
#: expression, and a setter that stores a replacement in its place.
ExpressionSite = tuple[str, Expression, Callable[[Expression], None]]


def _site(clause: str, holder: object, attribute: str) -> list[ExpressionSite]:
    """The expression in ``holder.attribute``, when there is one."""
    expression = getattr(holder, attribute)
    if expression is None:
        return []
    return [(clause, expression, partial(setattr, holder, attribute))]


@dataclass
class AggregateCall:
    """An aggregate function call in a select list or HAVING clause.

    ``argument`` is None only for ``COUNT(*)``.
    """

    function: str
    argument: Expression | None
    distinct: bool = False

    def default_name(self) -> str:
        """Name used for the output column when no alias is given."""
        if self.argument is None:
            return "count_star"
        inner = strip_outer_parens(self.argument.to_sql()).replace(" ", "_")
        prefix = f"{self.function.lower()}_distinct" if self.distinct else self.function.lower()
        return f"{prefix}_{inner}"

    def to_sql(self) -> str:
        """Render back to SQL text."""
        if self.argument is None:
            return "COUNT(*)"
        inner = self.argument.to_sql()
        if self.distinct:
            return f"{self.function}(DISTINCT {inner})"
        return f"{self.function}({inner})"


@dataclass
class SelectItem:
    """One entry of a select list: an expression or aggregate plus alias.

    Exactly one of ``expression`` / ``aggregate`` is set, except for the
    ``*`` wildcard where both are None and ``star`` is True.
    """

    expression: Expression | None = None
    aggregate: AggregateCall | None = None
    alias: str | None = None
    star: bool = False

    def expressions(self) -> Iterator[ExpressionSite]:
        """The item's expression, or its aggregate's argument."""
        yield from _site("select", self, "expression")
        if self.aggregate is not None:
            yield from _site("aggregate", self.aggregate, "argument")

    def output_name(self) -> str:
        """Column name this item produces."""
        if self.alias:
            return self.alias
        if self.aggregate is not None:
            return self.aggregate.default_name()
        assert self.expression is not None
        return strip_outer_parens(self.expression.to_sql()).replace(" ", "_")

    def to_sql(self) -> str:
        """Render back to SQL text."""
        if self.star:
            return "*"
        body = self.aggregate.to_sql() if self.aggregate else self.expression.to_sql()  # type: ignore[union-attr]
        return f"{body} AS {self.alias}" if self.alias else body


@dataclass
class JoinClause:
    """``JOIN table ON left_col = right_col`` (equi-join only)."""

    table: str
    left_column: str
    right_column: str
    kind: str = "inner"  # "inner" | "left"

    def to_sql(self) -> str:
        """Render back to SQL text."""
        kw = "LEFT JOIN" if self.kind == "left" else "JOIN"
        return f"{kw} {self.table} ON {self.left_column} = {self.right_column}"


@dataclass
class OrderItem:
    """One ``ORDER BY`` key."""

    expression: Expression
    ascending: bool = True

    def to_sql(self) -> str:
        """Render back to SQL text."""
        return f"{self.expression.to_sql()} {'ASC' if self.ascending else 'DESC'}"


@dataclass
class SelectStatement:
    """A parsed SELECT statement."""

    items: list[SelectItem]
    table: str
    distinct: bool = False
    joins: list[JoinClause] = field(default_factory=list)
    where: Expression | None = None
    group_by: list[Expression] = field(default_factory=list)
    having: Expression | None = None
    having_aggregates: list[tuple[str, AggregateCall]] = field(default_factory=list)
    order_by: list[OrderItem] = field(default_factory=list)
    limit: int | None = None

    @property
    def is_aggregate(self) -> bool:
        """True if the query computes aggregates (with or without GROUP BY)."""
        return bool(self.group_by) or any(item.aggregate for item in self.items)

    def aggregates(self) -> list[tuple[str, AggregateCall]]:
        """(output name, call) for every aggregate in the select list."""
        return [
            (item.output_name(), item.aggregate)
            for item in self.items
            if item.aggregate is not None
        ]

    def expressions(self) -> Iterator[ExpressionSite]:
        """Every expression the statement holds, tagged with its clause.

        This is the only enumeration of "the expressions of a SELECT":
        the binder rewrites through it and every column collector reads
        through it, so a clause cannot be bound but not collected.
        """
        for item in self.items:
            yield from item.expressions()
        yield from _site("where", self, "where")
        for position, expression in enumerate(self.group_by):
            yield "group", expression, partial(setitem, self.group_by, position)
        yield from _site("having", self, "having")
        for _, call in self.having_aggregates:
            yield from _site("having_aggregate", call, "argument")
        for order in self.order_by:
            yield from _site("order", order, "expression")

    def referenced_columns(self, clauses: Collection[str] | None = None) -> set[str]:
        """Column names read by the statement (by ``clauses`` only, when given)."""
        return {
            name
            for clause, expression, _ in self.expressions()
            if clauses is None or clause in clauses
            for name in expression.referenced_columns()
        }

    def to_sql(self) -> str:
        """Render the statement back to SQL text."""
        keyword = "SELECT DISTINCT " if self.distinct else "SELECT "
        parts = [keyword + ", ".join(i.to_sql() for i in self.items), f"FROM {self.table}"]
        parts.extend(j.to_sql() for j in self.joins)
        if self.where is not None:
            parts.append(f"WHERE {self.where.to_sql()}")
        if self.group_by:
            parts.append("GROUP BY " + ", ".join(e.to_sql() for e in self.group_by))
        if self.having is not None:
            parts.append(f"HAVING {self.having.to_sql()}")
        if self.order_by:
            parts.append("ORDER BY " + ", ".join(o.to_sql() for o in self.order_by))
        if self.limit is not None:
            parts.append(f"LIMIT {self.limit}")
        return " ".join(parts)


@dataclass
class CreateTableStatement:
    """``CREATE TABLE name (col TYPE, ...)``."""

    table: str
    columns: list[tuple[str, str]]  # (name, type word)

    def to_sql(self) -> str:
        """Render back to SQL text."""
        cols = ", ".join(f"{n} {t}" for n, t in self.columns)
        return f"CREATE TABLE {self.table} ({cols})"


@dataclass
class DropTableStatement:
    """``DROP TABLE name``."""

    table: str

    def to_sql(self) -> str:
        """Render back to SQL text."""
        return f"DROP TABLE {self.table}"


@dataclass
class InsertStatement:
    """``INSERT INTO name [(cols)] VALUES (...), (...)``."""

    table: str
    columns: list[str]  # empty = positional
    #: per row, an :class:`Expression` per item, or the Python value of
    #: each plain literal (tuples) when the lexer read the whole list
    #: (``TokenType.ROWS``)
    rows: Sequence[Sequence[Any]]

    def to_sql(self) -> str:
        """Render back to SQL text."""
        cols = f" ({', '.join(self.columns)})" if self.columns else ""
        rows = ", ".join(
            "(" + ", ".join(
                (v if isinstance(v, Expression) else Literal(v)).to_sql() for v in row
            ) + ")"
            for row in self.rows
        )
        return f"INSERT INTO {self.table}{cols} VALUES {rows}"


@dataclass
class DeleteStatement:
    """``DELETE FROM name [WHERE ...]``."""

    table: str
    where: Expression | None = None

    def expressions(self) -> Iterator[ExpressionSite]:
        """The WHERE predicate, in :meth:`SelectStatement.expressions` form."""
        yield from _site("where", self, "where")

    def to_sql(self) -> str:
        """Render back to SQL text."""
        suffix = f" WHERE {self.where.to_sql()}" if self.where is not None else ""
        return f"DELETE FROM {self.table}{suffix}"


@dataclass
class UpdateStatement:
    """``UPDATE name SET col = expr, ... [WHERE ...]``."""

    table: str
    assignments: list[tuple[str, Expression]]
    where: Expression | None = None

    def expressions(self) -> Iterator[ExpressionSite]:
        """SET values and the WHERE predicate, in
        :meth:`SelectStatement.expressions` form."""
        for position, (column, expression) in enumerate(self.assignments):
            yield "set", expression, lambda new, at=position, to=column: setitem(
                self.assignments, at, (to, new)
            )
        yield from _site("where", self, "where")

    def to_sql(self) -> str:
        """Render back to SQL text."""
        sets = ", ".join(f"{c} = {e.to_sql()}" for c, e in self.assignments)
        suffix = f" WHERE {self.where.to_sql()}" if self.where is not None else ""
        return f"UPDATE {self.table} SET {sets}{suffix}"


@dataclass
class ExplainStatement:
    """``EXPLAIN [ANALYZE] <select>``.

    Plain EXPLAIN renders the plan; ANALYZE also executes it and reports
    per-node wall time, row counts and bytes touched.  ``select_offset``
    is where the inner SELECT starts in the parsed text.
    """

    statement: SelectStatement
    analyze: bool = False
    select_offset: int = 0

    def to_sql(self) -> str:
        """Render back to SQL text."""
        keyword = "EXPLAIN ANALYZE" if self.analyze else "EXPLAIN"
        return f"{keyword} {self.statement.to_sql()}"


Statement = (
    SelectStatement
    | CreateTableStatement
    | DropTableStatement
    | InsertStatement
    | DeleteStatement
    | UpdateStatement
    | ExplainStatement
)

"""Logical planning: name binding and predicate pushdown.

The planner turns a parsed :class:`~repro.engine.sql.ast.SelectStatement`
into a tree of plan nodes.  Rewrites applied, in order:

1. **Name binding** — qualified references (``t.col``) are resolved against
   the FROM/JOIN tables, and every join's output names are decided here
   (:class:`_Binder`): a joined column whose name an earlier table of the
   chain already uses is renamed ``right_<name>``.  Each
   :class:`JoinNode` carries its map, and the executor renames by it.
2. **Typing** — every expression is typed against the schema it is
   evaluated over (:func:`bind_statement`): a bare ``NULL`` takes its
   context's type, and every dtype error raises before any row is read.
3. **Predicate splitting and pushdown** — the WHERE clause is split into
   conjuncts; conjuncts that reference only base-table columns are pushed
   into the scan, where zone maps and indexes see them.

A plan never depends on the indexes a table has.  The paper's Database
Layer section (adaptive indexing) plugs in at execution: cracker indexes
register themselves with the catalog, and a scan whose predicate has a
range conjunct (:func:`extract_probe`) on an indexed column asks the
index which rows to read, refining it as a side effect.
"""

from __future__ import annotations

import dataclasses
import operator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.engine import expressions as ex
from repro.engine.sql.ast import (
    AggregateCall,
    JoinClause,
    OrderItem,
    SelectItem,
    SelectStatement,
)
from repro.engine.table import Schema
from repro.engine.types import DataType, aggregate_type, assignable
from repro.errors import BindError, TypeMismatchError

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.catalog import Database


# -- plan nodes -------------------------------------------------------------------------


@dataclass
class RangeProbe:
    """A single-column range usable by an ordered/adaptive index.

    ``low``/``high`` of None mean unbounded on that side.  Bounds are
    half-open or closed per the ``*_inclusive`` flags.
    """

    column: str
    low: Any = None
    high: Any = None
    low_inclusive: bool = True
    high_inclusive: bool = True

    def describe(self) -> str:
        """Human-readable rendering, as EXPLAIN ANALYZE's index annotation
        prints it; an unbounded side is open."""
        lo = "-inf" if self.low is None else repr(self.low)
        hi = "+inf" if self.high is None else repr(self.high)
        lb = "[" if self.low_inclusive and self.low is not None else "("
        rb = "]" if self.high_inclusive and self.high is not None else ")"
        return f"{self.column} in {lb}{lo}, {hi}{rb}"


@dataclass
class PlanNode:
    """Base class for logical plan nodes.

    ``_children`` names the fields that hold child nodes, outermost
    first; :meth:`children` and the optimizer's bottom-up walk read it.
    """

    _children = ()

    def children(self) -> list["PlanNode"]:
        """Child nodes, outermost first."""
        return [getattr(self, slot) for slot in self._children]

    def label(self) -> str:
        """One-line description used by EXPLAIN."""
        return type(self).__name__


@dataclass
class ScanNode(PlanNode):
    """Scan a base table, optionally filtered by a predicate.

    The optimizer may additionally set ``columns`` (projection pruning:
    only the named columns are gathered; the predicate is still evaluated
    over the columns it reads) and ``empty`` (a provably
    contradictory predicate: the scan returns no rows; the predicate
    stays for EXPLAIN).
    """

    table: str
    predicate: ex.Expression | None = None
    columns: list[str] | None = None
    empty: bool = False

    def label(self) -> str:
        parts = [f"Scan({self.table}"]
        if self.empty:
            parts.append(", empty")
        if self.predicate is not None:
            parts.append(f", filter: {self.predicate.to_sql()}")
        if self.columns is not None:
            parts.append(f", columns: [{', '.join(self.columns)}]")
        return "".join(parts) + ")"


@dataclass
class JoinNode(PlanNode):
    """Hash equi-join of a child plan with the scan of a base table.

    ``right`` is an ordinary :class:`ScanNode`: a filter pushed below the
    join, projection pruning and ``empty`` are that scan's own fields, in
    the right table's own column names.  ``right_names`` maps every
    column of the right table to its name in the join output, as
    :class:`_Binder` decided it; the executor renames by it.
    """

    child: PlanNode
    right: ScanNode
    clause: JoinClause
    right_names: dict[str, str]

    _children = ("child", "right")

    def label(self) -> str:
        return (
            f"HashJoin({self.clause.kind}, {self.clause.table}, "
            f"{self.clause.left_column} = {self.clause.right_column})"
        )


@dataclass
class FilterNode(PlanNode):
    """Residual filter above joins."""

    child: PlanNode
    predicate: ex.Expression

    _children = ("child",)

    def label(self) -> str:
        return f"Filter({self.predicate.to_sql()})"


@dataclass
class AggregateNode(PlanNode):
    """Hash aggregation with optional grouping."""

    child: PlanNode
    group_exprs: list[ex.Expression]
    group_names: list[str]
    aggregates: list[tuple[str, AggregateCall]]

    _children = ("child",)

    def label(self) -> str:
        keys = ", ".join(self.group_names) or "<global>"
        aggs = ", ".join(f"{n}={c.to_sql()}" for n, c in self.aggregates)
        return f"Aggregate(keys: {keys}; aggs: {aggs})"


@dataclass
class ProjectNode(PlanNode):
    """Evaluate a non-aggregate select list."""

    child: PlanNode
    items: list[SelectItem]

    _children = ("child",)

    def label(self) -> str:
        return "Project(" + ", ".join(i.to_sql() for i in self.items) + ")"


@dataclass
class DistinctNode(PlanNode):
    """SELECT DISTINCT: drop duplicate output rows (first wins)."""

    child: PlanNode

    _children = ("child",)

    def label(self) -> str:
        return "Distinct"


@dataclass
class SortNode(PlanNode):
    """ORDER BY."""

    child: PlanNode
    order_by: list[OrderItem]

    _children = ("child",)

    def label(self) -> str:
        return "Sort(" + ", ".join(o.to_sql() for o in self.order_by) + ")"


@dataclass
class LimitNode(PlanNode):
    """LIMIT."""

    child: PlanNode
    count: int

    _children = ("child",)

    def label(self) -> str:
        return f"Limit({self.count})"


@dataclass
class TopNNode(PlanNode):
    """ORDER BY + LIMIT fused by the optimizer: the first ``count`` rows
    of the sorted child, selected without sorting the whole input."""

    child: PlanNode
    order_by: list[OrderItem]
    count: int

    _children = ("child",)

    def label(self) -> str:
        keys = ", ".join(o.to_sql() for o in self.order_by)
        return f"TopN({self.count}: {keys})"


@dataclass
class Plan:
    """A complete logical plan plus planning metadata."""

    root: PlanNode
    notes: list[str] = field(default_factory=list)

    def explain(self) -> str:
        """Indented textual rendering of the plan tree."""
        lines: list[str] = []

        def walk(node: PlanNode, depth: int) -> None:
            lines.append("  " * depth + node.label())
            for child in node.children():
                walk(child, depth + 1)

        walk(self.root, 0)
        return "\n".join(lines)


# -- planning ----------------------------------------------------------------------------


def plan_statement(statement: SelectStatement, database: "Database") -> Plan:
    """Bind and plan a SELECT statement against ``database``."""
    join_names = bind_statement(statement, database)

    conjuncts = split_conjuncts(statement.where) if statement.where is not None else []
    base_columns = set(database.main_table(statement.table).column_names)

    pushed: list[ex.Expression] = []
    residual: list[ex.Expression] = []
    if statement.joins:
        for conj in conjuncts:
            if conj.referenced_columns() <= base_columns:
                pushed.append(conj)
            else:
                residual.append(conj)
    else:
        pushed = conjuncts

    node: PlanNode = ScanNode(table=statement.table, predicate=_conjoin(pushed))
    for clause, names in zip(statement.joins, join_names):
        node = JoinNode(
            child=node, right=ScanNode(table=clause.table), clause=clause, right_names=names
        )
    residual_pred = _conjoin(residual)
    if residual_pred is not None:
        node = FilterNode(child=node, predicate=residual_pred)

    if statement.is_aggregate:
        group_names = [
            _group_output_name(expr, statement.items) for expr in statement.group_by
        ]
        aggregates = statement.aggregates() + statement.having_aggregates
        node = AggregateNode(
            child=node,
            group_exprs=list(statement.group_by),
            group_names=group_names,
            aggregates=aggregates,
        )
        if statement.having is not None:
            node = FilterNode(child=node, predicate=statement.having)
        if statement.order_by:
            node = SortNode(child=node, order_by=list(statement.order_by))
        # project away synthetic HAVING columns and order the output
        wanted = [i.output_name() for i in statement.items if not i.star]
        keep = wanted or group_names
        if keep:
            node = ProjectNode(
                child=node,
                items=[SelectItem(expression=ex.ColumnRef(n), alias=n) for n in keep],
            )
    else:
        sort_uses_aliases = _sorts_output(statement)
        if statement.order_by and not sort_uses_aliases:
            node = SortNode(child=node, order_by=list(statement.order_by))
        node = ProjectNode(child=node, items=list(statement.items))
        if statement.distinct:
            node = DistinctNode(child=node)
        if statement.order_by and sort_uses_aliases:
            node = SortNode(child=node, order_by=list(statement.order_by))
    if statement.limit is not None:
        node = LimitNode(child=node, count=statement.limit)

    return Plan(root=node)


def _sorts_output(statement: SelectStatement) -> bool:
    """True when ORDER BY reads the statement's output rather than the
    scan: always under an aggregate, else when its keys name only select
    items (then the sort runs after the projection)."""
    if statement.is_aggregate:
        return True
    names = {i.output_name() for i in statement.items if not i.star}
    return bool(statement.order_by) and all(
        o.expression.referenced_columns() <= names for o in statement.order_by
    )


def _group_output_name(expr: ex.Expression, items: list[SelectItem]) -> str:
    """Output column name for a group key, honouring select-list aliases.

    Matching must go through :meth:`~repro.engine.expressions.Expression.same_as`
    (never ``==`` or ``in``, which build comparison nodes instead of
    answering membership).
    """
    for item in items:
        if item.expression is not None and item.expression.same_as(expr):
            return item.output_name()
    return ex.strip_outer_parens(expr.to_sql())


def split_conjuncts(predicate: ex.Expression) -> list[ex.Expression]:
    """Flatten nested ANDs into a conjunct list."""
    if isinstance(predicate, ex.And):
        return split_conjuncts(predicate.left) + split_conjuncts(predicate.right)
    return [predicate]


def _conjoin(conjuncts: list[ex.Expression]) -> ex.Expression | None:
    """Rebuild a single predicate from conjuncts (None when empty)."""
    if not conjuncts:
        return None
    result = conjuncts[0]
    for conj in conjuncts[1:]:
        result = ex.And(result, conj)
    return result


def extract_probe(
    conj: ex.Expression, allow_strings: bool = False
) -> RangeProbe | None:
    """Recognise ``col <op> literal`` / ``literal <op> col`` / BETWEEN shapes.

    Returns None for anything else — including NULL or NaN literals, which
    no range can represent, and (unless ``allow_strings``) string
    literals, which ordered numeric indexes cannot probe.  Zone-map
    pruning and the executor's index lookup read a scan predicate's range
    conjuncts through it.
    """
    if isinstance(conj, ex.And):
        left = extract_probe(conj.left, allow_strings)
        right = extract_probe(conj.right, allow_strings)
        if left is not None and right is not None and left.column == right.column:
            return intersect_probes(left, right)
        return None
    if not isinstance(conj, ex.Comparison):
        return None
    left, right, op = conj.left, conj.right, conj.op
    if isinstance(left, ex.Literal) and isinstance(right, ex.ColumnRef):
        left, right, op = right, left, ex.Comparison._FLIPPED[op]
    if not (isinstance(left, ex.ColumnRef) and isinstance(right, ex.Literal)):
        return None
    value = right.value
    if value is None:
        return None
    if isinstance(value, str) and not allow_strings:
        return None
    if isinstance(value, float) and value != value:  # NaN bounds prove nothing
        return None
    name = left.name
    if op == "=":
        return RangeProbe(column=name, low=value, high=value)
    if op == "<":
        return RangeProbe(column=name, high=value, high_inclusive=False)
    if op == "<=":
        return RangeProbe(column=name, high=value)
    if op == ">":
        return RangeProbe(column=name, low=value, low_inclusive=False)
    if op == ">=":
        return RangeProbe(column=name, low=value)
    return None


def intersect_probes(left: RangeProbe, right: RangeProbe) -> RangeProbe | None:
    """Intersect two range probes on the same column.

    Bounds are tightened towards the narrower range.  When two bounds are
    *equal* the exclusive flag wins: ``x >= 5 AND x > 5`` admits 5 only
    through the inclusive conjunct, but the conjunction as a whole excludes
    it, so the merged probe must be exclusive at 5 (a strict max/min over
    the bound values alone would keep whichever inclusivity came first).
    Returns None when the bounds are not mutually orderable (mixed
    str/numeric conjuncts prove nothing about a single column).
    """
    if left.column != right.column:
        return None
    merged = RangeProbe(column=left.column)
    try:
        for part in (left, right):
            if part.low is not None:
                if merged.low is None or part.low > merged.low:
                    merged.low = part.low
                    merged.low_inclusive = part.low_inclusive
                elif part.low == merged.low and not part.low_inclusive:
                    merged.low_inclusive = False
            if part.high is not None:
                if merged.high is None or part.high < merged.high:
                    merged.high = part.high
                    merged.high_inclusive = part.high_inclusive
                elif part.high == merged.high and not part.high_inclusive:
                    merged.high_inclusive = False
    except TypeError:
        # mixed str/numeric bounds are not orderable; no probe
        return None
    return merged


# -- templates ---------------------------------------------------------------------------


def _parts(value: Any) -> Any:
    """What ``value`` — a plan, a plan node, a clause, an expression or a
    list of them — holds, or () for a scalar, a name or a name map."""
    if isinstance(value, ex.Expression):
        return value.children()
    if isinstance(value, (list, tuple)):
        return value
    if dataclasses.is_dataclass(value):
        return [getattr(value, name) for name in value.__dataclass_fields__]
    return ()


def _holders(value: Any, targets: set[int], found: set[int]) -> bool:
    """Whether ``value`` holds one of the ``targets`` (identities); adds
    each target it holds, and every object on the way to one, to ``found``."""
    held = id(value) in targets
    for part in () if held else _parts(value):
        held = _holders(part, targets, found) or held
    if held:
        found.add(id(value))
    return held


def _rebuild(value: Any, swap: dict[int, ex.Literal], path: set[int]) -> Any:
    """``value`` with each object ``swap`` maps replaced, descending only
    along ``path`` and copying only what something below changed in."""
    if id(value) in swap:
        return swap[id(value)]
    if id(value) not in path:
        return value
    if isinstance(value, ex.Expression):
        return value.map_children(lambda part: _rebuild(part, swap, path))
    if isinstance(value, (list, tuple)):
        parts = [_rebuild(part, swap, path) for part in value]
        return value if all(map(operator.is_, parts, value)) else type(value)(parts)
    changed = {}
    for name in value.__dataclass_fields__:
        part = getattr(value, name)
        if id(part) in path:
            new = _rebuild(part, swap, path)
            if new is not part:
                changed[name] = new
    return dataclasses.replace(value, **changed) if changed else value


class Template:
    """An optimized plan that serves every statement of its shape — the
    same tokens, other literal values of the same kinds — once re-bound.

    ``slots`` holds the Literal each slot token became, in token order;
    ``path`` the identities of the slots and of every node, clause, list
    and expression above one.  No plan is changed once optimized, so a
    re-bound plan shares everything off that path with the template.
    """

    __slots__ = ("plan", "slots", "path")

    def __init__(self, plan: Plan, slots: list[ex.Literal], path: set[int]) -> None:
        self.plan = plan
        self.slots = slots
        self.path = path

    @classmethod
    def of(
        cls, statement: SelectStatement, plan: Plan, literals: list[ex.Literal | None]
    ) -> "Template | None":
        """``plan`` — ``statement``'s optimized plan, whose slot tokens
        became ``literals`` — as a template, or None when it is none.

        It is one when each literal is still held by the plan (one the
        optimizer folded, deduplicated or turned into a contradiction is
        not, and the plan then depends on its value) and sits where no
        name is rendered from the SQL text: a WHERE or HAVING predicate or
        an aliased select item, never an unaliased item, a GROUP BY or
        ORDER BY key or an aggregate argument.
        """
        targets = {id(literal) for literal in literals}
        sites = [item.expression for item in statement.items if item.alias] + [
            expr for clause, expr, _ in statement.expressions() if clause in ("where", "having")
        ]
        in_sites: set[int] = set()
        path: set[int] = set()
        _holders(sites, targets, in_sites)
        _holders(plan, targets, path)
        return cls(plan, literals, path) if targets <= in_sites & path else None

    def bind(self, values: list[Any]) -> Plan:
        """The plan over new slot ``values`` (lexed, so each of its slot's
        kind): a slot whose value changed becomes a fresh Literal."""
        swap = {
            id(old): ex.Literal(new) for old, new in zip(self.slots, values) if old.value != new
        }
        return _rebuild(self.plan, swap, self.path) if swap else self.plan


# -- binding ----------------------------------------------------------------------------


def bind_statement(statement, database: "Database") -> list[dict[str, str]]:
    """Bind a SELECT, DELETE or UPDATE in place: every expression it holds
    is rewritten under the statement's scope (the FROM table plus, for a
    SELECT, its joins) and typed over what it is evaluated on — the scan
    or join output; for HAVING and an ORDER BY over the output, the
    aggregate's or projection's; for SET, its column.  Returns each join's
    ``{right column: output name}`` map, in join order."""
    joins = statement.joins if isinstance(statement, SelectStatement) else []
    binder = _Binder(statement.table, joins, database)
    for join in joins:
        binder.bind_join(join)
    scope = binder.scope
    assigned = iter(getattr(statement, "assignments", ()))
    output_sites = []  # typed once the output schema is known
    for clause, expr, replace in statement.expressions():
        # an ORDER BY alias has no qualifier: resolving leaves it alone
        expr = expr.rewrite_columns(binder.resolve)
        replace(expr)
        if isinstance(expr, ex.ColumnRef) and clause not in ("where", "having", "set"):
            continue  # no type rule to check; a missing column raises where it is read
        if clause in ("having", "order"):
            output_sites.append((clause, expr, replace))
        else:
            column = next(assigned)[0] if clause == "set" else None
            replace(bind_expression(expr, scope, clause, column))
    if isinstance(statement, SelectStatement):
        # typing the aggregates raises a SUM or AVG over STRING
        aggregates = []
        for name, call in statement.aggregates() + statement.having_aggregates:
            argument = call.argument and call.argument.output_type(scope)
            aggregates.append((name, aggregate_type(call.function, argument)))
        # HAVING is under an aggregate, so it always reads the output
        output = scope
        if output_sites and _sorts_output(statement):
            output = _output_schema(statement, scope, aggregates)
        for clause, expr, replace in output_sites:
            replace(bind_expression(expr, output, clause))
    return binder.join_names


def bind_expression(
    expr: ex.Expression, schema: Schema, clause: str, column: str | None = None
) -> ex.Expression:
    """``expr`` with its bare NULLs typed — as ``column`` of ``schema`` for a
    SET or VALUES value, BOOL at a WHERE or HAVING root — and checked over
    ``schema``: a predicate must be boolean, a value's type
    :func:`~repro.engine.types.assignable` to its column (whether each
    value fits, a fractional FLOAT64 into INT64, is checked on store)."""
    predicate = clause in ("where", "having")
    target = schema.type_of(column) if column else None
    expr = expr.bind(schema, target or (DataType.BOOL if predicate else DataType.FLOAT64))
    dtype = expr.output_type(schema)
    if predicate:
        ex.expect_boolean(dtype)
    elif target is not None and not assignable(dtype, target):
        raise TypeMismatchError(
            f"cannot assign {dtype.name} values to {target.name} column {column!r}"
        )
    return expr


def _output_schema(
    statement: SelectStatement, scope: Schema, aggregates: list[tuple[str, DataType]]
) -> Schema:
    """What HAVING and an output ORDER BY read: the groups, then the
    ``aggregates`` with their result types — or the projection's columns."""
    if not statement.is_aggregate:
        return Schema([
            field for item in statement.items for field in (
                scope.fields() if item.star
                else [(item.output_name(), item.expression.output_type(scope))]
            )
        ])
    return Schema([
        (_group_output_name(expr, statement.items), expr.output_type(scope))
        for expr in statement.group_by
    ] + aggregates)


class _Binder:
    """Resolves qualified column names against the FROM/JOIN tables.

    The one place join output names are decided: a joined table's column
    keeps its name unless an earlier table of the chain already put that
    name in the output, in which case ``right_`` is prefixed until it is
    unique.  Decided from the full schemas, so neither projection
    pruning nor join reordering can change a name.
    """

    def __init__(
        self, table: str, joins: list[JoinClause], database: "Database"
    ) -> None:
        base = database.main_table(table).schema
        #: table -> {its column: the name it goes by in the scan/join output}
        self._names = {table: {name: name for name in base.names}}
        self.join_names: list[dict[str, str]] = []
        fields = base.fields()
        used = set(base.names)
        for clause in joins:
            names = {}
            for name, dtype in database.main_table(clause.table).schema.fields():
                out = name
                while out in used:
                    out = f"right_{out}"
                used.add(out)
                names[name] = out
                fields.append((out, dtype))
            self.join_names.append(names)
            self._names.setdefault(clause.table, names)
        #: the scan/join output, what every clause but HAVING and an
        #: output ORDER BY is evaluated over
        self.scope = Schema(fields) if joins else base

    def _split(self, name: str) -> tuple[str, str]:
        """``(table, column)`` of a qualified name, checked against the scope."""
        qualifier, column = name.split(".", 1)
        if qualifier not in self._names:
            raise BindError(f"unknown table qualifier {qualifier!r} in {name!r}")
        if column not in self._names[qualifier]:
            raise BindError(f"table {qualifier!r} has no column {column!r}")
        return qualifier, column

    def resolve(self, name: str) -> str:
        """The name ``name`` goes by in the scan/join output."""
        if "." not in name:
            return name
        qualifier, column = self._split(name)
        return self._names[qualifier][column]

    def bind_join(self, clause: JoinClause) -> None:
        """Normalise an ON clause so left_column names a column of the
        probe side's output and right_column one of the joined table."""

        def side_of(name: str) -> tuple[str, str]:
            """Return ('left'|'right', column) for one ON operand."""
            if "." in name:
                qualifier, column = self._split(name)
                if qualifier == clause.table:
                    return "right", column
                return "left", self._names[qualifier][column]
            return ("right" if name in self._names[clause.table] else "left"), name

        left_side, left_col = side_of(clause.left_column)
        right_side, right_col = side_of(clause.right_column)
        if left_side == right_side:
            side = (
                f"joined table {clause.table!r}"
                if left_side == "right"
                else "left input"
            )
            raise BindError(
                f"ambiguous join condition {clause.to_sql()!r}: both operands "
                f"resolve to the {side}; qualify each side of the ON clause "
                f"with its table name"
            )
        if left_side == "right":
            left_col, right_col = right_col, left_col
        clause.left_column, clause.right_column = left_col, right_col

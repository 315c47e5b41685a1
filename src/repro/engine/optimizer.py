"""Rule-based logical plan optimizer.

Sits between :func:`~repro.engine.planner.plan_statement` and the
executor (gated by ``PRAGMA optimizer`` / ``REPRO_OPTIMIZER``, default
on).  The bound plan is already a rewrite-friendly algebra — scans with
residual predicates, join chains, filters, aggregates, projections — so
optimization is a fixpoint of rule passes over that tree followed by
three single-shot physical passes.  Rules 1–3 and 6 are node-local
functions applied by a bottom-up walk (:func:`_bottom_up`: 1–3 in one
walk per iteration, 6 in one):

Fixpoint rules (iterated until no rule fires):

1. **constant folding / tautology & contradiction elimination** —
   literal-only boolean subtrees fold through the kernels and comparisons
   with a NULL operand to NULL (Kleene semantics), conjuncts folded to
   TRUE are dropped, and a conjunct folded to FALSE or NULL marks the
   scan provably empty;
2. **redundant-conjunct dedup** — structurally identical conjuncts
   (via :meth:`~repro.engine.expressions.Expression.same_as`) evaluate
   once;
3. **predicate pushdown** — a residual filter conjunct whose columns all
   come from one input of the join chain moves into that input's scan
   (where zone maps and dictionary filters see it): the driving scan,
   or an inner join's right scan, rewritten into that table's own
   column names through the join's ``right_names``.

Single-shot passes (after the fixpoint):

4. **projection pruning** — every scan gathers only the columns its
   consumer reads (it still reads, and evaluates its predicate over,
   the columns only the predicate reads, but never copies them); a join
   splits the required set between its inputs by its ``right_names``
   (planned names: pruning cannot change one);
5. **statistics-driven join reordering** — under a global
   order-insensitive aggregate (COUNT/MIN/MAX), join inputs are ordered
   by estimated expansion ``rows / NDV(key)`` from
   :mod:`repro.engine.statistics`;
6. **Top-N** — ``Limit -> Sort`` and ``Limit -> Project -> Sort`` become
   a :class:`~repro.engine.planner.TopNNode` (below the row-local
   projection), which sorts only the rows that can reach the first
   ``k`` instead of the whole input.

Every rewrite preserves bit-identity with the unoptimized plan: a plan
arrives bound, so every dtype error has already been raised and a rule
may drop whatever it proves (a folded NULL is BOOL-typed and keeps no
row, like FALSE), pushdown and pruning are row-local, Top-N selects a
superset of the answer under the sort's total order on (keys, row
position), and join reordering fires only where row order is provably
invisible.  No rule reads the table's indexes: an index picks rows at
run time, under the scan's whole predicate, so it cannot change a plan
or an answer.

**Termination.**  Rules 1–2 strictly shrink the predicate (expression
node count or conjunct count); rule 3 moves each conjunct at most once
(scan predicates are never lifted back into a filter).  The
per-iteration measure (total conjuncts not yet at their final site +
total expression nodes) is non-negative and strictly decreases whenever
a rule fires, so the fixpoint terminates; ``_MAX_PASSES`` is a
belt-and-braces bound.

The rewrite trace lands in ``Plan.notes`` (rendered by ``EXPLAIN`` as
``note: optimizer: ...`` lines and carried into ``EXPLAIN ANALYZE``)
and in the ``optimizer.*`` metrics family.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.engine import expressions as ex
from repro.engine.operators import aggregate_columns
from repro.engine.planner import (
    AggregateNode,
    DistinctNode,
    FilterNode,
    JoinNode,
    LimitNode,
    Plan,
    PlanNode,
    ProjectNode,
    ScanNode,
    SortNode,
    TopNNode,
    _conjoin,
    split_conjuncts,
)
from repro.engine.types import DataType
from repro.obs.metrics import get_registry

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.catalog import Database

_MAX_PASSES = 10

#: Aggregate functions whose value cannot depend on input row order
#: (exact, order-insensitive merges) — the join-reorder precondition.
_ORDER_INSENSITIVE = ("COUNT", "MIN", "MAX")

_MISSING = object()


@dataclass
class _Context:
    """Mutable state threaded through the rule passes of one plan."""

    database: "Database"
    notes: list[str] = field(default_factory=list)
    fired: set[str] = field(default_factory=set)
    changed: bool = False

    def record(self, rule: str, detail: str) -> None:
        self.changed = True
        self.fired.add(rule)
        self.notes.append(f"{rule}: {detail}")
        get_registry().counter(f"optimizer.{rule}").inc()


def optimize_plan(plan: Plan, database: "Database") -> Plan:
    """Rewrite ``plan`` in place through the rule passes; returns it."""
    registry = get_registry()
    registry.counter("optimizer.runs").inc()
    ctx = _Context(database=database)
    for _ in range(_MAX_PASSES):
        ctx.changed = False
        plan.root = _bottom_up(plan.root, ctx, (_fold_rule, _pushdown_rule))
        if not ctx.changed:
            break
    _prune_pass(plan.root, None, ctx)
    _reorder_pass(plan, ctx)
    plan.root = _bottom_up(plan.root, ctx, (_topn_rule,))
    if ctx.fired:
        registry.counter("optimizer.rewrites").inc(len(ctx.notes))
    plan.notes.extend(f"optimizer: {note}" for note in ctx.notes)
    return plan


def _bottom_up(node: PlanNode, ctx: _Context, rules) -> PlanNode:
    """Apply each ``rule(node, ctx)`` in turn to every node of the tree,
    children first; a rule returns the node or what replaces it."""
    for slot in node._children:
        setattr(node, slot, _bottom_up(getattr(node, slot), ctx, rules))
    for rule in rules:
        node = rule(node, ctx)
    return node


# -- expression helpers ------------------------------------------------------------------


def _literal_truth(expr: ex.Expression) -> Any:
    """True/False/None of a predicate literal (BOOL-typed when bound),
    ``_MISSING`` for anything else."""
    return expr.value if isinstance(expr, ex.Literal) else _MISSING


#: what a comparison with a NULL operand folds to
_NULL = ex.Literal(None, DataType.BOOL)


def _fold(expr: ex.Expression) -> ex.Expression:
    """Fold a predicate's comparisons and AND/OR/NOT whose operands are
    literals through the kernels (Kleene semantics, exactly what
    evaluating them gives) to TRUE, FALSE or a BOOL-typed NULL, and a
    comparison with a NULL operand to NULL; a subtree nothing folded in
    is returned as the same object."""
    if isinstance(expr, ex.Comparison) and any(
        isinstance(side, ex.Literal) and side.value is None for side in (expr.left, expr.right)
    ):
        return _NULL
    if isinstance(expr, (ex.And, ex.Or, ex.Not)):
        expr = expr.map_children(_fold)
    elif not isinstance(expr, ex.Comparison):
        return expr
    if all(isinstance(operand, ex.Literal) for operand in expr.children()):
        return ex.Literal(ex.fold_constant(expr), DataType.BOOL)
    return expr


def _simplify_predicate(
    predicate: ex.Expression,
) -> tuple[ex.Expression | None, bool, bool, str]:
    """``(new_predicate, changed, contradiction, detail)`` for one predicate.

    Folds each conjunct, drops TRUE conjuncts and duplicates, and flags a
    FALSE or NULL conjunct as a contradiction (the literal is *kept*, so
    EXPLAIN shows what proved it).
    """
    conjuncts = split_conjuncts(predicate)
    folded_conjuncts = [_fold(conj) for conj in conjuncts]
    folded = sum(new is not old for new, old in zip(folded_conjuncts, conjuncts))
    kept: list[ex.Expression] = []
    dropped_true = dropped_dup = 0
    contradiction = False
    for conj in folded_conjuncts:
        truth = _literal_truth(conj)
        if truth is True:
            dropped_true += 1
            continue
        if truth is not _MISSING:
            contradiction = True
        if any(conj.same_as(seen) for seen in kept):
            dropped_dup += 1
            continue
        kept.append(conj)
    counts = {
        "folded": folded, "tautology dropped": dropped_true, "duplicate dropped": dropped_dup
    }
    detail = ", ".join(f"{n} {what}" for what, n in counts.items() if n)
    return _conjoin(kept), any(counts.values()), contradiction, detail


# -- rule 1+2: constant folding, tautology/contradiction, dedup --------------------------


def _fold_rule(node: PlanNode, ctx: _Context) -> PlanNode:
    if isinstance(node, ScanNode) and node.predicate is not None and not node.empty:
        new, changed, contradiction, detail = _simplify_predicate(node.predicate)
        if changed:
            node.predicate = new
            ctx.record("constant_fold", f"scan({node.table}): {detail}")
        if contradiction:
            node.empty = True
            ctx.record("contradiction", f"scan({node.table}) is provably empty")
    elif isinstance(node, FilterNode):
        new, changed, _, detail = _simplify_predicate(node.predicate)
        if changed:
            ctx.record("constant_fold", f"filter: {detail}")
            if new is None:
                return node.child
            node.predicate = new
    return node


# -- rule 3: predicate pushdown ----------------------------------------------------------


def _join_chain(node: PlanNode) -> tuple[list[JoinNode], ScanNode] | None:
    """``(joins bottom-up, scan)`` when ``node`` heads a join chain."""
    joins: list[JoinNode] = []
    cursor = node
    while isinstance(cursor, JoinNode):
        joins.append(cursor)
        cursor = cursor.child
    if not joins or not isinstance(cursor, ScanNode):
        return None
    joins.reverse()
    return joins, cursor


def _pushdown_rule(node: PlanNode, ctx: _Context) -> PlanNode:
    if not (isinstance(node, FilterNode) and isinstance(node.child, JoinNode)):
        return node
    chain = _join_chain(node.child)
    if chain is None:
        return node
    joins, scan = chain
    # where each output column comes from: (input scan, its name there).
    # A right-side filter below a LEFT join would drop padded rows the
    # residual filter keeps, so only inner joins offer their right scan.
    scans = [scan] + [join.right for join in joins]
    home = {
        name: (0, name) for name in ctx.database.main_table(scan.table).column_names
    }
    for j, join in enumerate(joins, 1):
        if join.clause.kind == "inner":
            home.update((out, (j, name)) for name, out in join.right_names.items())
    remaining: list[ex.Expression] = []
    moved = [0] * len(scans)
    for conj in split_conjuncts(node.predicate):
        refs = conj.referenced_columns()
        # a constant conjunct is row-local on the driving scan
        owners = {home[name][0] if name in home else None for name in refs} or {0}
        if len(owners) > 1 or None in owners:
            remaining.append(conj)
            continue
        (j,) = owners
        # phrased in the input's own column names; the statement keeps
        # its bound original
        pushed = conj.rewrite_columns(lambda name: home[name][1])
        target = scans[j]
        target.predicate = (
            pushed if target.predicate is None else ex.And(target.predicate, pushed)
        )
        moved[j] += 1
    if not any(moved):
        return node
    parts = []
    if moved[0]:
        parts.append(f"{moved[0]} conjunct(s) to scan({scan.table})")
    if sum(moved[1:]):
        parts.append(f"{sum(moved[1:])} conjunct(s) below join")
    ctx.record("pushdown", ", ".join(parts))
    if not remaining:
        return node.child
    node.predicate = _conjoin(remaining)
    return node


# -- rule 4: projection pruning ----------------------------------------------------------


def _item_refs(items) -> set[str] | None:
    """Columns a select-item list reads; None when ``*`` needs everything."""
    if any(item.star for item in items):
        return None
    return {
        name
        for item in items
        for _, expr, _ in item.expressions()
        for name in expr.referenced_columns()
    }


def _prune_pass(node: PlanNode, needed: set[str] | None, ctx: _Context) -> None:
    """Thread required-column sets down the tree and prune scans/joins."""
    if isinstance(node, (LimitNode, DistinctNode)):
        _prune_pass(node.child, needed, ctx)
    elif isinstance(node, SortNode):
        if needed is not None:
            needed = set(needed)
            for item in node.order_by:
                needed |= item.expression.referenced_columns()
        _prune_pass(node.child, needed, ctx)
    elif isinstance(node, ProjectNode):
        _prune_pass(node.child, _item_refs(node.items), ctx)
    elif isinstance(node, AggregateNode):
        _prune_pass(node.child, aggregate_columns(node.group_exprs, node.aggregates), ctx)
    elif isinstance(node, FilterNode):
        if needed is not None:
            needed = set(needed) | node.predicate.referenced_columns()
        _prune_pass(node.child, needed, ctx)
    elif isinstance(node, JoinNode):
        left = right = None
        if needed is not None:
            names = node.right_names
            right = {name for name, out in names.items() if out in needed}
            right.add(node.clause.right_column)
            left = (needed - set(names.values())) | {node.clause.left_column}
        _prune_scan(node.right, right, ctx)
        _prune_pass(node.child, left, ctx)
    elif isinstance(node, ScanNode):
        _prune_scan(node, needed, ctx)


def _prune_scan(scan: ScanNode, needed: set[str] | None, ctx: _Context) -> None:
    if needed is None or scan.columns is not None:
        return
    names = list(ctx.database.main_table(scan.table).column_names)
    keep = [name for name in names if name in needed]
    if not keep:  # row count must survive a column-free sink: keep a column read anyway
        read = set() if scan.predicate is None else scan.predicate.referenced_columns()
        keep = [name for name in names if name in read][:1] or names[:1]
    if len(keep) == len(names):
        return
    scan.columns = keep
    ctx.record(
        "prune", f"scan({scan.table}): {len(keep)} of {len(names)} column(s)"
    )


# -- rule 5: statistics-driven join reordering -------------------------------------------


def _reorder_pass(plan: Plan, ctx: _Context) -> None:
    """Order join inputs by estimated expansion where row order is invisible.

    Join output order is observable almost everywhere (projections emit
    it, DISTINCT and GROUP BY keep first appearances, sorts break ties
    stably, float SUM/AVG round in input order), so reordering fires
    only under a global COUNT/MIN/MAX aggregate — the one shape whose
    result provably cannot depend on input row order.
    """
    node: PlanNode = plan.root
    while isinstance(node, (ProjectNode, SortNode, LimitNode, DistinctNode)) or (
        isinstance(node, FilterNode) and not isinstance(node.child, JoinNode)
    ):
        node = node.child
    if not isinstance(node, AggregateNode) or node.group_exprs:
        return
    if any(call.function not in _ORDER_INSENSITIVE for _, call in node.aggregates):
        return
    parent: PlanNode = node
    below = node.child
    if isinstance(below, FilterNode):
        parent = below
        below = below.child
    chain = _join_chain(below)
    if chain is None or len(chain[0]) < 2:
        return
    joins, scan = chain
    database = ctx.database
    base_names = set(database.main_table(scan.table).column_names)
    if any(
        join.clause.kind != "inner" or join.clause.left_column not in base_names
        for join in joins
    ):
        return

    def expansion(join: JoinNode) -> float:
        stats = database.statistics(join.clause.table)
        column = stats.column(join.clause.right_column)
        if column is None or column.distinct_count == 0:
            return float(stats.row_count)
        return stats.row_count / column.distinct_count

    ranked = sorted(range(len(joins)), key=lambda i: (expansion(joins[i]), i))
    if ranked == list(range(len(joins))):
        return
    reordered = [joins[i] for i in ranked]
    cursor: PlanNode = scan
    for join in reordered:
        join.child = cursor
        cursor = join
    parent.child = cursor  # type: ignore[attr-defined]
    order = ", ".join(join.clause.table for join in reordered)
    ctx.record("join_reorder", f"by estimated expansion: {order}")


# -- rule 6: Top-N -----------------------------------------------------------------------


def _topn_rule(node: PlanNode, ctx: _Context) -> PlanNode:
    if not isinstance(node, LimitNode):
        return node
    below = node.child
    if isinstance(below, SortNode):
        fused: PlanNode = TopNNode(below.child, below.order_by, node.count)
    elif isinstance(below, ProjectNode) and isinstance(below.child, SortNode):
        # a non-aggregate select list is row-local, so LIMIT commutes with it
        sort = below.child
        below.child = TopNNode(sort.child, sort.order_by, node.count)
        fused = below
    else:
        return node
    ctx.record("topn", "fused Sort+Limit into TopN")
    return fused

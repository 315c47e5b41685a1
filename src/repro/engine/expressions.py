"""Typed expression trees with vectorised evaluation.

Expressions are built either programmatically (``col("a") > 5``) or by the
SQL parser.  Evaluation is vectorised over a :class:`~repro.engine.table.Table`
and returns a :class:`~repro.engine.column.Column`.

SQL three-valued logic is honoured: comparisons involving NULL yield NULL,
AND/OR follow Kleene logic, and WHERE keeps only rows whose predicate is
strictly TRUE.

Types come from a schema, not from rows: :meth:`Expression.output_type`
raises what :meth:`Expression.evaluate` would without reading a row, and
:meth:`Expression.bind` types each bare ``NULL`` by its context.
"""

from __future__ import annotations

import abc
import functools
import operator
from typing import Any, Callable, Iterable, Iterator

import numpy as np

from repro.engine.column import (
    Column,
    _null_fill_value,
    column_from_parts,
    factorize_sorted,
    merge_dictionaries,
    null_column,
)
from repro.engine.table import Schema, Table
from repro.engine.types import DataType, common_type, python_value
from repro.errors import TypeMismatchError
from repro.obs.metrics import get_registry

#: a node's :meth:`Expression.key`, through its class's override
_KEY = operator.methodcaller("key")


def _map_slot(value: Any, fn: Callable[["Expression"], Any]) -> Any:
    """``fn`` over every expression in one child slot's value, shape kept
    (and the value itself when ``fn`` returned every expression as is)."""
    if type(value) is tuple:
        mapped = tuple([_map_slot(item, fn) for item in value])
        return value if all(map(operator.is_, mapped, value)) else mapped
    return value if value is None else fn(value)


class Expression(abc.ABC):
    """Base class of the expression AST.

    A node class declares once, in ``_children``, which attributes hold
    its sub-expressions (each an expression, ``None``, or a nested tuple
    of expressions); every other public attribute is a scalar field.
    The walk, the column set, the structural key and the rename below
    derive from that declaration and rely on nodes never changing after
    construction: a rewrite builds new nodes through the constructor,
    whose keyword names are the attribute names.
    """

    _children: tuple[str, ...] = ()
    _key: tuple | None = None
    _columns: frozenset[str] | None = None
    _bare_null: bool | None = None
    #: the type a bare NULL operand of this node takes, when the node fixes one
    _null_operand: DataType | None = None

    @abc.abstractmethod
    def evaluate(self, table: Table) -> Column:
        """Evaluate over every row of ``table``."""

    @abc.abstractmethod
    def output_type(self, schema: Schema) -> DataType:
        """Logical type over rows of ``schema``, raising the dtype errors
        :meth:`evaluate` raises (same messages) without reading a row;
        UNKNOWN where only a bare NULL decides it."""

    def _null_type(self, schema: Schema, want: DataType) -> DataType:
        """The type a bare NULL operand of this node takes: the node's
        fixed operand type, else ``want`` — its own context's type."""
        return self._null_operand or want

    def bind(self, schema: Schema, want: DataType = DataType.FLOAT64) -> "Expression":
        """This tree with every bare NULL rebuilt as a NULL of its context's
        type (:meth:`_null_type`; ``want`` where nothing below the root
        decides); a subtree without one comes back as the same object."""
        if not self._has_bare_null():
            return self
        hint = self._null_type(schema, want)
        return self.map_children(lambda child: child.bind(schema, hint))

    def _has_bare_null(self) -> bool:
        """True while a NULL literal in this tree is untyped (cached, like the key)."""
        if self._bare_null is None:
            self._bare_null = any(map(Expression._has_bare_null, self.children()))
        return self._bare_null

    @abc.abstractmethod
    def to_sql(self) -> str:
        """Render back to SQL text (EXPLAIN lines, output column names)."""

    def children(self) -> list["Expression"]:
        """Direct sub-expressions, in declaration order."""
        found: list[Expression] = []
        for slot in self._children:
            _map_slot(getattr(self, slot), found.append)
        return found

    def walk(self) -> Iterator["Expression"]:
        """This node and every node below it, parents first."""
        yield self
        for child in self.children():
            yield from child.walk()

    def referenced_columns(self) -> frozenset[str]:
        """Names of all columns the expression reads, found once per node
        and cached like the key (a :class:`ColumnRef` seeds its own): every
        scan of a cached plan asks its predicate."""
        if self._columns is None:
            self._columns = frozenset().union(*(c.referenced_columns() for c in self.children()))
        return self._columns

    def key(self) -> tuple:
        """Structural identity: the node type followed by its fields in
        constructor order — a scalar as itself, a child slot as its
        children's keys — as one nested tuple, built once per node."""
        if self._key is None:
            key: list[Any] = [type(self).__name__]
            for name, value in vars(self).items():
                if name in self._children:
                    key.append(_map_slot(value, _KEY))
                elif name[0] != "_":
                    key.append(value)
            self._key = tuple(key)
        return self._key

    def rewrite_columns(self, fn: Callable[[str], str]) -> "Expression":
        """This tree with every column name passed through ``fn``.

        Nodes are rebuilt, never edited; a subtree in which no name
        changed is returned as the same object.
        """
        return self.map_children(operator.methodcaller("rewrite_columns", fn))

    def map_children(self, fn: Callable[["Expression"], "Expression"]) -> "Expression":
        """This node over ``fn`` of each child, rebuilt through the
        constructor — or itself when ``fn`` returned every child as is."""
        new = {slot: _map_slot(getattr(self, slot), fn) for slot in self._children}
        if all(value is getattr(self, slot) for slot, value in new.items()):
            return self
        fields = {k: v for k, v in vars(self).items() if k[0] != "_"}
        return type(self)(**fields | new)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.to_sql()})"

    # -- operator sugar ---------------------------------------------------------

    def _binop(self, op: str, other: Any) -> "Expression":
        return Comparison(op, self, _lift(other))

    def __eq__(self, other: Any) -> "Expression":  # type: ignore[override]
        return self._binop("=", other)

    def __ne__(self, other: Any) -> "Expression":  # type: ignore[override]
        return self._binop("<>", other)

    def __lt__(self, other: Any) -> "Expression":
        return self._binop("<", other)

    def __le__(self, other: Any) -> "Expression":
        return self._binop("<=", other)

    def __gt__(self, other: Any) -> "Expression":
        return self._binop(">", other)

    def __ge__(self, other: Any) -> "Expression":
        return self._binop(">=", other)

    def __hash__(self) -> int:
        return hash(self.key())

    def same_as(self, other: Any) -> bool:
        """Structural equality (equal :meth:`key`).

        ``__eq__`` is operator sugar — ``a == b`` builds a
        :class:`Comparison` node rather than answering a boolean — so
        Python's ``in``/``set``/``dict`` membership over expressions is
        meaningless (any containment test is truthy).  Use ``same_as``
        (or ``any(e.same_as(x) for x in xs)``) wherever two expressions
        must be compared for semantic identity.
        """
        return isinstance(other, Expression) and self.key() == other.key()

    def __add__(self, other: Any) -> "Expression":
        return Arithmetic("+", self, _lift(other))

    def __sub__(self, other: Any) -> "Expression":
        return Arithmetic("-", self, _lift(other))

    def __mul__(self, other: Any) -> "Expression":
        return Arithmetic("*", self, _lift(other))

    def __truediv__(self, other: Any) -> "Expression":
        return Arithmetic("/", self, _lift(other))

    def __and__(self, other: Any) -> "Expression":
        return And(self, _lift(other))

    def __or__(self, other: Any) -> "Expression":
        return Or(self, _lift(other))

    def __invert__(self) -> "Expression":
        return Not(self)

    def between(self, low: Any, high: Any) -> "Expression":
        """``self BETWEEN low AND high`` (inclusive on both ends)."""
        return And(self._binop(">=", low), self._binop("<=", high))

    def isin(self, values: Iterable[Any]) -> "Expression":
        """``self IN (values...)``."""
        return InList(self, [_lift(v) for v in values])

    def is_null(self) -> "Expression":
        """``self IS NULL``."""
        return IsNull(self, negated=False)

    def is_not_null(self) -> "Expression":
        """``self IS NOT NULL``."""
        return IsNull(self, negated=True)


def _lift(value: Any) -> Expression:
    """Wrap a plain Python value as a Literal; pass expressions through."""
    if isinstance(value, Expression):
        return value
    return Literal(value)


def col(name: str) -> "ColumnRef":
    """Shorthand constructor for a column reference."""
    return ColumnRef(name)


def lit(value: Any) -> "Literal":
    """Shorthand constructor for a literal."""
    return Literal(value)


def strip_outer_parens(text: str) -> str:
    """Remove balanced outer parenthesis pairs from rendered SQL.

    ``to_sql`` wraps every compound expression in parens; output-column
    names derived from it want those outer pairs gone.  ``str.strip("()")``
    is the wrong tool — it eats paren *characters* from both ends, turning
    ``(a + b) * (c + d)`` into ``a + b) * (c + d``.  Only peel a leading
    ``(`` whose matching ``)`` is the final character.
    """
    while len(text) >= 2 and text[0] == "(" and text[-1] == ")":
        depth = 0
        for position, char in enumerate(text):
            if char == "(":
                depth += 1
            elif char == ")":
                depth -= 1
                if depth == 0 and position != len(text) - 1:
                    return text
        text = text[1:-1]
    return text


class ColumnRef(Expression):
    """Reference to a named column of the input table."""

    _bare_null = False

    def __init__(self, name: str) -> None:
        self.name = name
        self._columns = frozenset((name,))

    def evaluate(self, table: Table) -> Column:
        return table.column(self.name)

    def output_type(self, schema: Schema) -> DataType:
        return schema.type_of(self.name)

    def rewrite_columns(self, fn: Callable[[str], str]) -> "ColumnRef":
        name = fn(self.name)
        return self if name == self.name else ColumnRef(name)

    def to_sql(self) -> str:
        return self.name


_LITERAL_TYPES = {
    bool: DataType.BOOL, int: DataType.INT64, float: DataType.FLOAT64, str: DataType.STRING
}


def _outside_int64(value: int) -> TypeMismatchError:
    """The error for an integer literal that INT64 cannot hold."""
    return TypeMismatchError(f"integer literal {value} is outside the INT64 range")


class Literal(Expression):
    """A constant value (int, float, bool, str, or None).  A NULL's
    ``dtype`` is UNKNOWN until binding types it (:meth:`Expression.bind`);
    evaluated untyped, it is FLOAT64."""

    def __init__(self, value: Any, dtype: DataType | None = None) -> None:
        self.value = python_value(value)
        self.dtype = (dtype or DataType.UNKNOWN) if self.value is None else (
            _LITERAL_TYPES.get(type(self.value))
        )
        if self.dtype is None:
            raise TypeMismatchError(f"unsupported literal {self.value!r}")
        self._bare_null = self.dtype is DataType.UNKNOWN

    def key(self) -> tuple:
        # typed, so 1 / 1.0 / TRUE (equal in Python) and two typed NULLs stay
        # distinct keys; by repr, so NaN equals itself and 0.0 is not -0.0
        if self._key is None:
            self._key = ("Literal", self.dtype.name, repr(self.value))
        return self._key

    def evaluate(self, table: Table) -> Column:
        dtype = DataType.FLOAT64 if self.dtype is DataType.UNKNOWN else self.dtype
        if self.value is None:
            return null_column(dtype, table.num_rows)
        if dtype is DataType.STRING:  # zero codes over a one-value dictionary
            values = np.array([self.value], object)
            return column_from_parts(np.zeros(table.num_rows, np.int32), dtype, None, values)
        try:
            data = np.full(table.num_rows, self.value, dtype.numpy_dtype)
        except OverflowError:
            raise _outside_int64(self.value) from None
        return column_from_parts(data, dtype)

    def output_type(self, schema: Schema) -> DataType:
        return self.dtype

    def bind(self, schema: Schema, want: DataType = DataType.FLOAT64) -> "Literal":
        return Literal(None, want) if self._bare_null else self

    def to_sql(self) -> str:
        if self.value is None:
            return "NULL"
        if isinstance(self.value, bool):
            return "TRUE" if self.value else "FALSE"
        if isinstance(self.value, str):
            escaped = self.value.replace("'", "''")
            return f"'{escaped}'"
        text = repr(self.value)
        return _INFINITIES.get(text, text)


#: how an infinite float reads back as a literal: ``inf`` would be a column
_INFINITIES = {"inf": "1e999", "-inf": "-1e999"}


_COMPARATORS: dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "=": np.equal,
    "<>": np.not_equal,
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
}


def _compare_codes(
    encoded: tuple[np.ndarray, np.ndarray], value: str, op: str
) -> np.ndarray:
    """Compare dictionary codes against a string literal.

    Codes are order-isomorphic to the strings, so the literal's slot in
    the sorted dictionary (via ``searchsorted``) turns every comparison
    into an int32 compare.  Null slots hold code -1 and produce arbitrary
    payload bits, masked out by validity.
    """
    codes, values = encoded
    lo = int(np.searchsorted(values, value, side="left"))
    hi = int(np.searchsorted(values, value, side="right"))
    present = hi > lo
    if op == "=":
        return codes == lo if present else np.zeros(len(codes), dtype=bool)
    if op == "<>":
        return codes != lo if present else np.ones(len(codes), dtype=bool)
    if op == "<":
        return codes < lo
    if op == "<=":
        return codes < hi
    if op == ">":
        return codes >= hi
    return codes >= lo  # >=


def _combined_validity(left: Column, right: Column) -> np.ndarray | None:
    if left.validity is None and right.validity is None:
        return None
    lv = left.validity if left.validity is not None else np.ones(len(left), bool)
    rv = right.validity if right.validity is not None else np.ones(len(right), bool)
    return lv & rv


class Comparison(Expression):
    """Binary comparison: ``left <op> right`` with SQL null semantics."""

    _children = ("left", "right")

    def __init__(self, op: str, left: Expression, right: Expression) -> None:
        if op not in _COMPARATORS:
            raise TypeMismatchError(f"unknown comparison operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    _FLIPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "<>": "<>"}

    def _scalar_operand(self) -> tuple[Expression, "Literal", str] | None:
        """``(column_side, literal, op)`` when exactly one side is a
        non-NULL literal — the shape the scalar fast path handles.  The
        op is flipped when the literal is on the left."""
        if isinstance(self.right, Literal) and not isinstance(self.left, Literal):
            if self.right.value is not None:
                return self.left, self.right, self.op
        elif isinstance(self.left, Literal) and not isinstance(self.right, Literal):
            if self.left.value is not None:
                return self.right, self.left, self._FLIPPED[self.op]
        return None

    def _null_type(self, schema: Schema, want: DataType) -> DataType:
        return _operand_type(schema, (self.left, self.right))

    def evaluate(self, table: Table) -> Column:
        scalar = self._scalar_operand()
        if scalar is not None:
            return self._evaluate_scalar(table, *scalar)
        lcol = self.left.evaluate(table)
        rcol = self.right.evaluate(table)
        target = self._target(lcol.dtype, rcol.dtype)
        if target is DataType.STRING:  # codes into one dictionary compare as the strings
            left, right = merge_dictionaries([lcol, rcol])[0]
        else:
            left = lcol.data.astype(target.numpy_dtype, copy=False)
            right = rcol.data.astype(target.numpy_dtype, copy=False)
        result = _COMPARATORS[self.op](left, right)
        validity = _combined_validity(lcol, rcol)
        return column_from_parts(np.asarray(result, dtype=bool), DataType.BOOL, validity)

    def _evaluate_scalar(
        self, table: Table, side: Expression, literal: "Literal", op: str
    ) -> Column:
        """Column-vs-literal comparison without materialising the literal.

        Produces the same bits as the general path: identical payload at
        valid slots, identical validity.  A STRING column compares its
        int32 codes against the literal's position in its sorted
        dictionary instead of materialising string arrays.
        """
        inner = side.evaluate(table)
        target = self._target(inner.dtype, literal.dtype)
        if target is DataType.STRING:
            result = _compare_codes(inner.dictionary(), literal.value, op)
            get_registry().counter("scan.dict_filters").inc()
        else:
            try:
                value = target.numpy_dtype.type(literal.value)
            except OverflowError:
                raise _outside_int64(literal.value) from None
            result = _COMPARATORS[op](inner.data.astype(target.numpy_dtype, copy=False), value)
        return column_from_parts(
            np.asarray(result, dtype=bool), DataType.BOOL, inner.validity
        )

    def _target(self, left: DataType, right: DataType) -> DataType:
        """The type both sides compare in (flipping the op keeps = / <>)."""
        target = common_type(left, right)
        if not target.is_orderable and self.op not in ("=", "<>"):
            raise TypeMismatchError("booleans only support = and <>")
        return target

    def output_type(self, schema: Schema) -> DataType:
        # the sides in the order the evaluating path unifies them
        side, other = (self._scalar_operand() or (self.left, self.right))[:2]
        self._target(side.output_type(schema), other.output_type(schema))
        return DataType.BOOL

    def to_sql(self) -> str:
        return f"({self.left.to_sql()} {self.op} {self.right.to_sql()})"


def _operand_type(
    schema: Schema, operands: Iterable[Expression], default: DataType = DataType.FLOAT64
) -> DataType:
    """The type a bare NULL among ``operands`` that must agree takes: the
    others' type, ``default`` when there is none, FLOAT64 when they differ
    (a mix other than INT64 + FLOAT64 raises when the tree is typed)."""
    known = {operand.output_type(schema) for operand in operands} - {DataType.UNKNOWN}
    return known.pop() if len(known) == 1 else DataType.FLOAT64 if known else default


_ARITH: dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "/": np.divide,
    "%": np.mod,
}


class Arithmetic(Expression):
    """Binary arithmetic over numeric operands."""

    _children = ("left", "right")

    def __init__(self, op: str, left: Expression, right: Expression) -> None:
        if op not in _ARITH:
            raise TypeMismatchError(f"unknown arithmetic operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def evaluate(self, table: Table) -> Column:
        lcol = self.left.evaluate(table)
        rcol = self.right.evaluate(table)
        target = self._target(lcol.dtype, rcol.dtype)
        ldata = lcol.data.astype(target.numpy_dtype, copy=False)
        rdata = rcol.data.astype(target.numpy_dtype, copy=False)
        validity = _combined_validity(lcol, rcol)
        if self.op in ("/", "%"):
            zero = rdata == 0
            if zero.any():  # x / 0 is NULL
                rdata = np.where(zero, 1, rdata)
                validity = ~zero if validity is None else validity & ~zero
        result = _ARITH[self.op](ldata, rdata)
        return column_from_parts(np.asarray(result, dtype=target.numpy_dtype), target, validity)

    def _target(self, left: DataType, right: DataType) -> DataType:
        """The type the operands compute in, and the result's."""
        target = common_type(left, right)
        if target is DataType.UNKNOWN:
            return target
        if not target.is_numeric:
            raise TypeMismatchError(f"arithmetic requires numeric operands, got {target.name}")
        return DataType.FLOAT64 if self.op == "/" else target

    def _null_type(self, schema: Schema, want: DataType) -> DataType:
        return _operand_type(schema, (self.left, self.right))

    def output_type(self, schema: Schema) -> DataType:
        return self._target(self.left.output_type(schema), self.right.output_type(schema))

    def to_sql(self) -> str:
        return f"({self.left.to_sql()} {self.op} {self.right.to_sql()})"


class Negate(Expression):
    """Unary minus."""

    _children = ("operand",)

    def __init__(self, operand: Expression) -> None:
        self.operand = operand

    def evaluate(self, table: Table) -> Column:
        inner = self.operand.evaluate(table)
        if not inner.dtype.is_numeric:
            raise TypeMismatchError("unary minus requires a numeric operand")
        return column_from_parts(-inner.data, inner.dtype, inner.validity)

    def output_type(self, schema: Schema) -> DataType:
        dtype = self.operand.output_type(schema)
        if not (dtype.is_numeric or dtype is DataType.UNKNOWN):
            raise TypeMismatchError("unary minus requires a numeric operand")
        return dtype

    def to_sql(self) -> str:
        return f"(-{self.operand.to_sql()})"


def _to_kleene(col_: Column) -> tuple[np.ndarray, np.ndarray]:
    """Split a BOOL column into (truth, known) arrays for 3-valued logic."""
    truth = col_.data.astype(bool, copy=False)
    known = col_.validity if col_.validity is not None else np.ones(len(col_), bool)
    return truth & known, known


def _from_kleene(truth: np.ndarray, known: np.ndarray) -> Column:
    validity = None if bool(known.all()) else known
    return column_from_parts(truth, DataType.BOOL, validity)


class _Connective(Expression):
    """AND / OR: Kleene logic over two boolean operands."""

    _children = ("left", "right")
    _null_operand = DataType.BOOL

    def __init__(self, left: Expression, right: Expression) -> None:
        self.left = left
        self.right = right

    def output_type(self, schema: Schema) -> DataType:
        expect_boolean(self.left.output_type(schema))
        return expect_boolean(self.right.output_type(schema))

    def to_sql(self) -> str:
        return f"({self.left.to_sql()} {self._keyword} {self.right.to_sql()})"


class And(_Connective):
    """Kleene-logic conjunction."""

    _keyword = "AND"

    def evaluate(self, table: Table) -> Column:
        lt, lk = _to_kleene(self.left.evaluate(table))
        rt, rk = _to_kleene(self.right.evaluate(table))
        truth = lt & rt
        false_somewhere = (lk & ~lt) | (rk & ~rt)
        known = (lk & rk) | false_somewhere
        return _from_kleene(truth, known)


class Or(_Connective):
    """Kleene-logic disjunction."""

    _keyword = "OR"

    def evaluate(self, table: Table) -> Column:
        lt, lk = _to_kleene(self.left.evaluate(table))
        rt, rk = _to_kleene(self.right.evaluate(table))
        truth = lt | rt
        known = (lk & rk) | lt | rt
        return _from_kleene(truth, known)


class Not(Expression):
    """Kleene-logic negation."""

    _children = ("operand",)
    _null_operand = DataType.BOOL

    def __init__(self, operand: Expression) -> None:
        self.operand = operand

    def evaluate(self, table: Table) -> Column:
        truth, known = _to_kleene(self.operand.evaluate(table))
        return _from_kleene(~truth & known, known)

    def output_type(self, schema: Schema) -> DataType:
        return expect_boolean(self.operand.output_type(schema))

    def to_sql(self) -> str:
        return f"(NOT {self.operand.to_sql()})"


class InList(Expression):
    """``expr IN (v1, v2, ...)`` membership test over literals/expressions."""

    _children = ("operand", "options")

    def __init__(self, operand: Expression, options: Iterable[Expression]) -> None:
        self.operand = operand
        self.options = tuple(options)

    def evaluate(self, table: Table) -> Column:
        inner = self.operand.evaluate(table)
        result = np.zeros(len(inner), dtype=bool)
        for option in self.options:
            eq = Comparison("=", self.operand, option).evaluate(table)
            truth, _ = _to_kleene(eq)
            result |= truth
        validity = inner.validity
        return column_from_parts(result, DataType.BOOL, validity)

    def _null_type(self, schema: Schema, want: DataType) -> DataType:
        return _operand_type(schema, (self.operand, *self.options))

    def output_type(self, schema: Schema) -> DataType:
        for option in self.options:  # the comparisons evaluate runs
            Comparison("=", self.operand, option).output_type(schema)
        return DataType.BOOL

    def to_sql(self) -> str:
        opts = ", ".join(o.to_sql() for o in self.options)
        return f"({self.operand.to_sql()} IN ({opts}))"


class IsNull(Expression):
    """``expr IS [NOT] NULL`` — always yields a non-null boolean."""

    _children = ("operand",)

    def __init__(self, operand: Expression, negated: bool) -> None:
        self.operand = operand
        self.negated = negated

    def evaluate(self, table: Table) -> Column:
        inner = self.operand.evaluate(table)
        nulls = inner.is_null_mask()
        result = ~nulls if self.negated else nulls
        return column_from_parts(result, DataType.BOOL, None)

    def output_type(self, schema: Schema) -> DataType:
        self.operand.output_type(schema)
        return DataType.BOOL

    def to_sql(self) -> str:
        suffix = "IS NOT NULL" if self.negated else "IS NULL"
        return f"({self.operand.to_sql()} {suffix})"


def expect_boolean(dtype: DataType) -> DataType:
    """BOOL, for a predicate or logical operand of type ``dtype`` — BOOL or
    a bare NULL; raises otherwise."""
    if dtype is not DataType.BOOL and dtype is not DataType.UNKNOWN:
        raise TypeMismatchError(f"predicate must be boolean, got {dtype.name}")
    return DataType.BOOL


def truth_mask(predicate: Expression, table: Table) -> np.ndarray:
    """Rows of ``table`` where ``predicate`` is strictly TRUE.

    This implements the SQL WHERE rule: NULL predicate results drop the row.
    """
    result = predicate.evaluate(table)
    expect_boolean(result.dtype)
    truth, known = _to_kleene(result)
    return truth & known


class Like(Expression):
    """SQL ``LIKE`` pattern matching (``%`` = any run, ``_`` = one char)."""

    _children = ("operand",)

    def __init__(self, operand: Expression, pattern: str, negated: bool = False) -> None:
        import re

        self.operand = operand
        self.pattern = pattern
        self.negated = negated
        escaped = re.escape(pattern)
        # re.escape may or may not escape % and _ depending on the Python
        # version; normalise, then translate the SQL wildcards
        escaped = escaped.replace(r"\%", "%").replace(r"\_", "_")
        escaped = escaped.replace("%", ".*").replace("_", ".")
        self._regex = re.compile(escaped, re.DOTALL)

    def evaluate(self, table: Table) -> Column:
        inner = self.operand.evaluate(table)
        if inner.dtype is not DataType.STRING:
            raise TypeMismatchError("LIKE requires a string operand")
        # the whole value: re.match's ``$`` would also match before a final newline
        result = _per_value(inner, lambda v: self._regex.fullmatch(v) is not None, bool, False)
        if self.negated:
            result = ~result & ~inner.is_null_mask()
        return column_from_parts(result, DataType.BOOL, inner.validity)

    def output_type(self, schema: Schema) -> DataType:
        if self.operand.output_type(schema) not in (DataType.STRING, DataType.UNKNOWN):
            raise TypeMismatchError("LIKE requires a string operand")
        return DataType.BOOL

    def to_sql(self) -> str:
        keyword = "NOT LIKE" if self.negated else "LIKE"
        escaped = self.pattern.replace("'", "''")
        return f"({self.operand.to_sql()} {keyword} '{escaped}')"


def _per_value(column: Column, fn: Callable[[str], Any], dtype: Any, fill: Any) -> np.ndarray:
    """``fn`` of every row of a STRING ``column`` as a ``dtype`` array:
    computed once per dictionary value and gathered through the codes,
    ``fill`` at NULLs (whose code −1 reads the last slot)."""
    codes, values = column.dictionary()
    return np.array([fn(v) for v in values.tolist()] + [fill], dtype=dtype)[codes]


def _round_rows(
    values: np.ndarray, digits: Column, validity: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray | None]:
    """``ROUND(values, digits)`` row by row, with the result's validity:
    one ``np.round`` per distinct digits value, NULL where the digits
    are."""
    result = np.zeros(len(values))
    places = digits.data.astype(np.int64)
    known = ~digits.is_null_mask()
    for place in np.unique(places[known]).tolist():
        rows = known & (places == place)
        result[rows] = np.round(values[rows], place)
    if digits.validity is not None:
        validity = known if validity is None else validity & known
    return result, validity


#: Scalar function registry: name -> (apply, input kind, output kind).
#: Kinds: "numeric" or "string"; output "same" preserves the input type.
SCALAR_FUNCTIONS: dict[str, tuple[Callable[..., np.ndarray], str, str]] = {
    "ABS": (np.abs, "numeric", "same"),
    "SQRT": (np.sqrt, "numeric", "float"),
    "FLOOR": (np.floor, "numeric", "float"),
    "CEIL": (np.ceil, "numeric", "float"),
    "ROUND": (np.round, "numeric", "float"),
    "LN": (np.log, "numeric", "float"),
    "EXP": (np.exp, "numeric", "float"),
    "LENGTH": (None, "string", "int"),  # handled specially
    "UPPER": (None, "string", "string"),
    "LOWER": (None, "string", "string"),
}


class FunctionCall(Expression):
    """A scalar function call (see :data:`SCALAR_FUNCTIONS`)."""

    _children = ("arguments",)

    def __init__(self, name: str, arguments: Iterable[Expression]) -> None:
        name = name.upper()
        if name not in SCALAR_FUNCTIONS:
            raise TypeMismatchError(f"unknown function {name!r}")
        self.name = name
        self.arguments = tuple(arguments)

    def _check_arity(self) -> None:
        allowed = (1, 2) if self.name == "ROUND" else (1,)
        if len(self.arguments) not in allowed:
            raise TypeMismatchError(
                f"{self.name} expects {' or '.join(map(str, allowed))} "
                f"argument(s), got {len(self.arguments)}"
            )

    def evaluate(self, table: Table) -> Column:
        self._check_arity()
        inner = self.arguments[0].evaluate(table)
        out = self._result_type(inner.dtype)
        fn, in_kind, _ = SCALAR_FUNCTIONS[self.name]
        if in_kind == "numeric":
            data = inner.data.astype(np.float64, copy=False)
            validity = inner.validity
            if len(self.arguments) == 2:  # ROUND's digits, per row
                result, validity = _round_rows(data, self.arguments[1].evaluate(table), validity)
            else:
                with np.errstate(invalid="ignore", divide="ignore"):
                    result = fn(data)
            invalid = ~np.isfinite(result)
            if invalid.any():
                base = validity if validity is not None else np.ones(len(result), bool)
                validity = base & ~invalid
                result = np.where(invalid, 0.0, result)
            if out is DataType.INT64:
                return column_from_parts(result.astype(np.int64), out, validity)
            return column_from_parts(result, DataType.FLOAT64, validity)
        if self.name == "LENGTH":  # a string function
            return column_from_parts(_per_value(inner, len, np.int64, 0), out, inner.validity)
        codes, values = inner.dictionary()  # the mapped values re-factorized
        transform = str.upper if self.name == "UPPER" else str.lower
        mapped, remap = factorize_sorted(list(map(transform, values.tolist())))
        codes = np.append(remap, np.int32(-1))[codes]  # a NULL's −1 reads the appended −1
        return column_from_parts(codes, out, inner.validity, mapped)

    def _result_type(self, argument: DataType) -> DataType:
        """The call's type over an ``argument`` of that type; raises on the
        wrong kind."""
        _, in_kind, out_kind = SCALAR_FUNCTIONS[self.name]
        if in_kind == "numeric":
            if not (argument.is_numeric or argument is DataType.UNKNOWN):
                raise TypeMismatchError(f"{self.name} requires a numeric argument")
            same = out_kind == "same" and argument is not DataType.FLOAT64
            return argument if same else DataType.FLOAT64
        if argument not in (DataType.STRING, DataType.UNKNOWN):
            raise TypeMismatchError(f"{self.name} requires a string argument")
        return DataType.INT64 if out_kind == "int" else DataType.STRING

    def output_type(self, schema: Schema) -> DataType:
        self._check_arity()
        out = self._result_type(self.arguments[0].output_type(schema))
        for digits in self.arguments[1:]:  # ROUND's
            digits.output_type(schema)
        return out

    def to_sql(self) -> str:
        args = ", ".join(a.to_sql() for a in self.arguments)
        return f"{self.name}({args})"


class Case(Expression):
    """``CASE WHEN cond THEN value ... [ELSE value] END``."""

    _children = ("branches", "default")

    def __init__(
        self,
        branches: Iterable[tuple[Expression, Expression]],
        default: Expression | None = None,
    ) -> None:
        self.branches = tuple((condition, value) for condition, value in branches)
        if not self.branches:
            raise TypeMismatchError("CASE needs at least one WHEN branch")
        self.default = default

    def evaluate(self, table: Table) -> Column:
        n = table.num_rows
        columns = [value.evaluate(table) for value in self._values()]
        out_type = functools.reduce(common_type, [column.dtype for column in columns])
        if out_type is DataType.STRING:  # every branch's codes in one dictionary
            payloads, dictionary = merge_dictionaries(columns)
            data = np.full(n, -1, np.int32)
        else:
            payloads, dictionary = [column.data for column in columns], None
            data = np.full(n, _null_fill_value(out_type), out_type.numpy_dtype)
        valid = np.zeros(n, dtype=bool)
        remaining = np.ones(n, dtype=bool)  # no branch taken yet: the ELSE's, a NULL without one
        for i, (column, payload) in enumerate(zip(columns, payloads)):
            rows = remaining.copy()
            if i < len(self.branches):
                rows &= truth_mask(self.branches[i][0], table)
                remaining &= ~rows
            rows &= ~column.is_null_mask()
            data[rows] = payload[rows]
            valid |= rows
        return column_from_parts(data, out_type, valid, dictionary)

    def _values(self) -> list[Expression]:
        """The branch values and the ELSE value, in evaluation order."""
        values = [value for _, value in self.branches]
        return values if self.default is None else values + [self.default]

    def bind(self, schema: Schema, want: DataType = DataType.FLOAT64) -> "Case":
        if not self._has_bare_null():
            return self
        out = _operand_type(schema, self._values(), want)  # the others', else the CASE's
        return Case(
            [(c.bind(schema, DataType.BOOL), v.bind(schema, out)) for c, v in self.branches],
            None if self.default is None else self.default.bind(schema, out),
        )

    def output_type(self, schema: Schema) -> DataType:
        out = functools.reduce(common_type, [v.output_type(schema) for v in self._values()])
        for condition, _ in self.branches:
            expect_boolean(condition.output_type(schema))
        return out

    def to_sql(self) -> str:
        parts = ["CASE"]
        for condition, value in self.branches:
            parts.append(f"WHEN {condition.to_sql()} THEN {value.to_sql()}")
        if self.default is not None:
            parts.append(f"ELSE {self.default.to_sql()}")
        parts.append("END")
        return "(" + " ".join(parts) + ")"


def fold_constant(expr: Expression) -> Any:
    """The Python value of a column-free expression, evaluated over a
    one-row dummy table: NULL, unary minus, arithmetic and comparisons fold
    through the kernels that run at query time, their errors included."""
    if isinstance(expr, Literal):
        return expr.value
    dummy = Table([("__const__", Column(np.zeros(1, dtype=np.int64)))])
    return expr.evaluate(dummy)[0]

"""Recursive-descent parser for the engine's SQL subset.

Grammar sketch (precedence low → high)::

    statement   := SELECT select_list FROM identifier join* where?
                   group? having? order? limit?
    select_list := '*' | item (',' item)*
    item        := (aggregate | or_expr) (AS? identifier)?
    or_expr     := and_expr (OR and_expr)*
    and_expr    := not_expr (AND not_expr)*
    not_expr    := NOT not_expr | predicate
    predicate   := additive ((cmp additive) | BETWEEN | IN | IS NULL)?
    additive    := multiplic (('+'|'-') multiplic)*
    multiplic   := unary (('*'|'/'|'%') unary)*
    unary       := '-' unary | primary
    primary     := literal | identifier ('.' identifier)? | '(' or_expr ')'

Aggregates inside HAVING are rewritten into references to synthetic
columns that the executor materialises alongside the group keys.

An INSERT's VALUES list reaches the parser in one of two forms.  A
plain list (only NUMBER, STRING, NULL, TRUE and FALSE items) is one
``ROWS`` token the lexer already read into rows of Python values, which
become :attr:`InsertStatement.rows` as they are.  Any other list comes
as tokens, and ``_values_row`` reads it a row at a time: an item that is
a lone literal token skips the expression levels after one token of
lookahead, anything else (``-1``, ``1 + 1``, a CASE) descends them.
"""

from __future__ import annotations

from typing import Any

from repro.engine import expressions as ex
from repro.engine.sql.ast import (
    AGGREGATE_FUNCTIONS,
    AggregateCall,
    JoinClause,
    OrderItem,
    SelectItem,
    SelectStatement,
)
from repro.engine.sql.lexer import VALUE_WORDS, Token, TokenType, literal_value, tokenize
from repro.errors import ParseError

_COMPARISON_OPS = ("=", "<>", "<", "<=", ">", ">=")


def _plain_literal(token: Token) -> ex.Literal | None:
    """The :class:`Literal` a lone NUMBER, STRING, NULL, TRUE or FALSE
    token stands for, else None."""
    if token.type is TokenType.NUMBER or token.type is TokenType.STRING:
        return ex.Literal(token.value)
    if token.type is TokenType.KEYWORD and token.value in VALUE_WORDS:
        return ex.Literal(literal_value("word", token.value, token.position))
    return None


def parse(
    sql: str,
    tokens: list[Token] | None = None,
    literals: dict[int, ex.Literal] | None = None,
) -> SelectStatement:
    """Parse a SELECT string into a :class:`SelectStatement`.

    ``tokens`` is ``tokenize(sql)`` when the caller already has it;
    ``literals``, when given, receives the :class:`Literal` each NUMBER
    or STRING token became, keyed by the token's index.

    Raises:
        ParseError: when the input does not match the dialect grammar.
        LexerError: on invalid characters.
    """
    parser = _Parser(tokens or tokenize(sql), literals)
    statement = parser.parse_select()
    parser.expect_end()
    return statement


def parse_statement(sql: str, tokens: list[Token] | None = None):
    """Parse any supported statement (SELECT or DDL/DML).

    Returns one of the statement dataclasses in
    :mod:`repro.engine.sql.ast`; ``tokens`` is as for :func:`parse`.
    """
    parser = _Parser(tokens or tokenize(sql))
    statement = parser.parse_any()
    parser.expect_end()
    return statement


class _Parser:
    def __init__(
        self, tokens: list[Token], literals: dict[int, ex.Literal] | None = None
    ) -> None:
        self._tokens = tokens
        self._pos = 0
        self._having_counter = 0
        self._literals = {} if literals is None else literals

    # -- token plumbing ----------------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        return self._tokens[min(self._pos + offset, len(self._tokens) - 1)]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.type is not TokenType.EOF:
            self._pos += 1
        return token

    def _check(self, type_: TokenType, value: Any = None) -> bool:
        return self._peek().matches(type_, value)

    def _accept(self, type_: TokenType, value: Any = None) -> Token | None:
        if self._check(type_, value):
            return self._advance()
        return None

    def _expect(self, type_: TokenType, value: Any = None) -> Token:
        token = self._peek()
        if not token.matches(type_, value):
            want = value if value is not None else type_.value
            raise ParseError(
                f"expected {want!r} but found {token.value!r} at position {token.position}"
            )
        return self._advance()

    def expect_end(self) -> None:
        """Require that all tokens (bar a trailing semicolon) were consumed."""
        self._accept(TokenType.PUNCT, ";")
        token = self._peek()
        if token.type is not TokenType.EOF:
            raise ParseError(
                f"unexpected trailing input {token.value!r} at position {token.position}"
            )

    # -- statement ----------------------------------------------------------------

    def parse_any(self):
        """Parse whichever supported statement kind comes next."""
        token = self._peek()
        if token.matches(TokenType.KEYWORD, "SELECT"):
            return self.parse_select()
        if token.matches(TokenType.KEYWORD, "CREATE"):
            return self._parse_create()
        if token.matches(TokenType.KEYWORD, "DROP"):
            return self._parse_drop()
        if token.matches(TokenType.KEYWORD, "INSERT"):
            return self._parse_insert()
        if token.matches(TokenType.KEYWORD, "DELETE"):
            return self._parse_delete()
        if token.matches(TokenType.KEYWORD, "UPDATE"):
            return self._parse_update()
        if token.matches(TokenType.KEYWORD, "EXPLAIN"):
            return self._parse_explain()
        raise ParseError(
            f"expected a statement but found {token.value!r} at position {token.position}"
        )

    def _parse_explain(self):
        from repro.engine.sql.ast import ExplainStatement

        self._expect(TokenType.KEYWORD, "EXPLAIN")
        analyze = bool(self._accept(TokenType.KEYWORD, "ANALYZE"))
        select_offset = self._peek().position
        return ExplainStatement(self.parse_select(), analyze, select_offset)

    def _parse_create(self):
        from repro.engine.sql.ast import CreateTableStatement

        self._expect(TokenType.KEYWORD, "CREATE")
        self._expect(TokenType.KEYWORD, "TABLE")
        table = self._identifier("table name")
        self._expect(TokenType.PUNCT, "(")
        columns: list[tuple[str, str]] = []
        while True:
            name = self._identifier("column name")
            type_word = self._identifier("column type").upper()
            columns.append((name, type_word))
            if not self._accept(TokenType.PUNCT, ","):
                break
        self._expect(TokenType.PUNCT, ")")
        return CreateTableStatement(table=table, columns=columns)

    def _parse_drop(self):
        from repro.engine.sql.ast import DropTableStatement

        self._expect(TokenType.KEYWORD, "DROP")
        self._expect(TokenType.KEYWORD, "TABLE")
        return DropTableStatement(table=self._identifier("table name"))

    def _parse_insert(self):
        from repro.engine.sql.ast import InsertStatement

        self._expect(TokenType.KEYWORD, "INSERT")
        self._expect(TokenType.KEYWORD, "INTO")
        table = self._identifier("table name")
        columns: list[str] = []
        if self._accept(TokenType.PUNCT, "("):
            columns.append(self._identifier("column name"))
            while self._accept(TokenType.PUNCT, ","):
                columns.append(self._identifier("column name"))
            self._expect(TokenType.PUNCT, ")")
        self._expect(TokenType.KEYWORD, "VALUES")
        plain = self._accept(TokenType.ROWS)
        if plain is not None:
            return InsertStatement(table=table, columns=columns, rows=plain.value)
        rows = [self._values_row()]
        while self._accept(TokenType.PUNCT, ","):
            rows.append(self._values_row())
        return InsertStatement(table=table, columns=columns, rows=rows)

    def _values_row(self) -> list[ex.Expression]:
        """One parenthesised row of a VALUES list the lexer did not read
        (not plain, see the module docstring).  An item that is a lone literal
        token — NUMBER, STRING, NULL, TRUE or FALSE — followed by ``,`` or
        ``)`` becomes its :class:`Literal` after one token of lookahead;
        anything else (``-1``, ``1+1``, a CASE, a function call) descends
        the expression grammar."""
        self._expect(TokenType.PUNCT, "(")
        tokens, row = self._tokens, []
        while True:
            token, after = tokens[self._pos], self._peek(1)
            literal = None
            if after.type is TokenType.PUNCT and after.value in (",", ")"):
                literal = _plain_literal(token)
            if literal is None:
                row.append(self._or_expr(allow_aggregates=False))
                if not self._accept(TokenType.PUNCT, ","):
                    self._expect(TokenType.PUNCT, ")")
                    return row
                continue
            row.append(literal)
            self._pos += 2  # the literal and the separator after it
            if after.value == ")":
                return row

    def _parse_delete(self):
        from repro.engine.sql.ast import DeleteStatement

        self._expect(TokenType.KEYWORD, "DELETE")
        self._expect(TokenType.KEYWORD, "FROM")
        table = self._identifier("table name")
        where = None
        if self._accept(TokenType.KEYWORD, "WHERE"):
            where = self._or_expr(allow_aggregates=False)
        return DeleteStatement(table=table, where=where)

    def _parse_update(self):
        from repro.engine.sql.ast import UpdateStatement

        self._expect(TokenType.KEYWORD, "UPDATE")
        table = self._identifier("table name")
        self._expect(TokenType.KEYWORD, "SET")
        assignments: list[tuple[str, ex.Expression]] = []
        while True:
            column = self._identifier("column name")
            self._expect(TokenType.OPERATOR, "=")
            assignments.append((column, self._or_expr(allow_aggregates=False)))
            if not self._accept(TokenType.PUNCT, ","):
                break
        where = None
        if self._accept(TokenType.KEYWORD, "WHERE"):
            where = self._or_expr(allow_aggregates=False)
        return UpdateStatement(table=table, assignments=assignments, where=where)

    def parse_select(self) -> SelectStatement:
        """Parse a full SELECT statement."""
        self._expect(TokenType.KEYWORD, "SELECT")
        distinct = bool(self._accept(TokenType.KEYWORD, "DISTINCT"))
        items = self._select_list()
        self._expect(TokenType.KEYWORD, "FROM")
        table = self._identifier("table name")

        joins: list[JoinClause] = []
        while self._check(TokenType.KEYWORD, "JOIN") or self._check(
            TokenType.KEYWORD, "INNER"
        ) or self._check(TokenType.KEYWORD, "LEFT"):
            joins.append(self._join_clause())

        where = None
        if self._accept(TokenType.KEYWORD, "WHERE"):
            where = self._or_expr(allow_aggregates=False)

        group_by: list[ex.Expression] = []
        if self._accept(TokenType.KEYWORD, "GROUP"):
            self._expect(TokenType.KEYWORD, "BY")
            group_by.append(self._or_expr(allow_aggregates=False))
            while self._accept(TokenType.PUNCT, ","):
                group_by.append(self._or_expr(allow_aggregates=False))

        having = None
        having_aggregates: list[tuple[str, AggregateCall]] = []
        if self._accept(TokenType.KEYWORD, "HAVING"):
            self._having_sink = having_aggregates
            having = self._or_expr(allow_aggregates=True)
            del self._having_sink

        order_by: list[OrderItem] = []
        if self._accept(TokenType.KEYWORD, "ORDER"):
            self._expect(TokenType.KEYWORD, "BY")
            order_by.append(self._order_item())
            while self._accept(TokenType.PUNCT, ","):
                order_by.append(self._order_item())

        limit = None
        if self._accept(TokenType.KEYWORD, "LIMIT"):
            token = self._expect(TokenType.NUMBER)
            if not isinstance(token.value, int) or token.value < 0:
                raise ParseError(f"LIMIT must be a non-negative integer, got {token.value!r}")
            limit = token.value

        return SelectStatement(
            items=items,
            table=table,
            distinct=distinct,
            joins=joins,
            where=where,
            group_by=group_by,
            having=having,
            having_aggregates=having_aggregates,
            order_by=order_by,
            limit=limit,
        )

    def _identifier(self, what: str) -> str:
        token = self._peek()
        if token.type is not TokenType.IDENTIFIER:
            raise ParseError(f"expected {what} at position {token.position}, got {token.value!r}")
        self._advance()
        return str(token.value)

    def _join_clause(self) -> JoinClause:
        kind = "inner"
        if self._accept(TokenType.KEYWORD, "LEFT"):
            kind = "left"
        else:
            self._accept(TokenType.KEYWORD, "INNER")
        self._expect(TokenType.KEYWORD, "JOIN")
        table = self._identifier("join table name")
        self._expect(TokenType.KEYWORD, "ON")
        left = self._qualified_name()
        self._expect(TokenType.OPERATOR, "=")
        right = self._qualified_name()
        return JoinClause(table=table, left_column=left, right_column=right, kind=kind)

    def _qualified_name(self) -> str:
        """``col`` or ``table.col``; the qualifier is kept as a dotted name."""
        first = self._identifier("column name")
        if self._accept(TokenType.PUNCT, "."):
            second = self._identifier("column name")
            return f"{first}.{second}"
        return first

    # -- select list -----------------------------------------------------------------

    def _select_list(self) -> list[SelectItem]:
        items = [self._select_item()]
        while self._accept(TokenType.PUNCT, ","):
            items.append(self._select_item())
        return items

    def _select_item(self) -> SelectItem:
        if self._accept(TokenType.OPERATOR, "*"):
            return SelectItem(star=True)
        aggregate = self._maybe_aggregate()
        expression = None
        if aggregate is None:
            expression = self._or_expr(allow_aggregates=False)
        alias = None
        if self._accept(TokenType.KEYWORD, "AS"):
            alias = self._identifier("alias")
        elif self._check(TokenType.IDENTIFIER):
            alias = self._identifier("alias")
        return SelectItem(expression=expression, aggregate=aggregate, alias=alias)

    def _maybe_aggregate(self) -> AggregateCall | None:
        token = self._peek()
        if token.type is TokenType.KEYWORD and token.value in AGGREGATE_FUNCTIONS:
            if self._peek(1).matches(TokenType.PUNCT, "("):
                return self._aggregate_call()
        return None

    def _aggregate_call(self) -> AggregateCall:
        func = str(self._advance().value)
        self._expect(TokenType.PUNCT, "(")
        if func == "COUNT" and self._accept(TokenType.OPERATOR, "*"):
            self._expect(TokenType.PUNCT, ")")
            return AggregateCall(function="COUNT", argument=None)
        distinct = bool(self._accept(TokenType.KEYWORD, "DISTINCT"))
        argument = self._or_expr(allow_aggregates=False)
        self._expect(TokenType.PUNCT, ")")
        return AggregateCall(function=func, argument=argument, distinct=distinct)

    def _order_item(self) -> OrderItem:
        expression = self._or_expr(allow_aggregates=False)
        ascending = True
        if self._accept(TokenType.KEYWORD, "DESC"):
            ascending = False
        else:
            self._accept(TokenType.KEYWORD, "ASC")
        return OrderItem(expression=expression, ascending=ascending)

    # -- expressions --------------------------------------------------------------------

    def _or_expr(self, allow_aggregates: bool) -> ex.Expression:
        left = self._and_expr(allow_aggregates)
        while self._accept(TokenType.KEYWORD, "OR"):
            left = ex.Or(left, self._and_expr(allow_aggregates))
        return left

    def _and_expr(self, allow_aggregates: bool) -> ex.Expression:
        left = self._not_expr(allow_aggregates)
        while self._accept(TokenType.KEYWORD, "AND"):
            left = ex.And(left, self._not_expr(allow_aggregates))
        return left

    def _not_expr(self, allow_aggregates: bool) -> ex.Expression:
        if self._accept(TokenType.KEYWORD, "NOT"):
            return ex.Not(self._not_expr(allow_aggregates))
        return self._predicate(allow_aggregates)

    def _predicate(self, allow_aggregates: bool) -> ex.Expression:
        left = self._additive(allow_aggregates)
        token = self._peek()
        if token.type is TokenType.OPERATOR and token.value in _COMPARISON_OPS:
            op = str(self._advance().value)
            right = self._additive(allow_aggregates)
            return ex.Comparison(op, left, right)
        if token.matches(TokenType.KEYWORD, "BETWEEN"):
            self._advance()
            low = self._additive(allow_aggregates)
            self._expect(TokenType.KEYWORD, "AND")
            high = self._additive(allow_aggregates)
            return ex.And(ex.Comparison(">=", left, low), ex.Comparison("<=", left, high))
        if token.matches(TokenType.KEYWORD, "NOT") and self._peek(1).matches(
            TokenType.KEYWORD, "IN"
        ):
            self._advance()
            self._advance()
            return ex.Not(ex.InList(left, self._in_options(allow_aggregates)))
        if token.matches(TokenType.KEYWORD, "IN"):
            self._advance()
            return ex.InList(left, self._in_options(allow_aggregates))
        if token.matches(TokenType.KEYWORD, "NOT") and self._peek(1).matches(
            TokenType.KEYWORD, "LIKE"
        ):
            self._advance()
            self._advance()
            pattern = self._expect(TokenType.STRING)
            return ex.Like(left, str(pattern.value), negated=True)
        if token.matches(TokenType.KEYWORD, "LIKE"):
            self._advance()
            pattern = self._expect(TokenType.STRING)
            return ex.Like(left, str(pattern.value))
        if token.matches(TokenType.KEYWORD, "IS"):
            self._advance()
            negated = bool(self._accept(TokenType.KEYWORD, "NOT"))
            self._expect(TokenType.KEYWORD, "NULL")
            return ex.IsNull(left, negated=negated)
        return left

    def _in_options(self, allow_aggregates: bool) -> list[ex.Expression]:
        self._expect(TokenType.PUNCT, "(")
        options = [self._or_expr(allow_aggregates)]
        while self._accept(TokenType.PUNCT, ","):
            options.append(self._or_expr(allow_aggregates))
        self._expect(TokenType.PUNCT, ")")
        return options

    def _additive(self, allow_aggregates: bool) -> ex.Expression:
        left = self._multiplicative(allow_aggregates)
        while True:
            token = self._peek()
            if token.type is TokenType.OPERATOR and token.value in ("+", "-"):
                op = str(self._advance().value)
                left = ex.Arithmetic(op, left, self._multiplicative(allow_aggregates))
            else:
                return left

    def _multiplicative(self, allow_aggregates: bool) -> ex.Expression:
        left = self._unary(allow_aggregates)
        while True:
            token = self._peek()
            if token.type is TokenType.OPERATOR and token.value in ("*", "/", "%"):
                op = str(self._advance().value)
                left = ex.Arithmetic(op, left, self._unary(allow_aggregates))
            else:
                return left

    def _unary(self, allow_aggregates: bool) -> ex.Expression:
        if self._accept(TokenType.OPERATOR, "-"):
            return ex.Negate(self._unary(allow_aggregates))
        return self._primary(allow_aggregates)

    def _primary(self, allow_aggregates: bool) -> ex.Expression:
        token = self._peek()
        literal = _plain_literal(token)
        if literal is not None:
            if token.type is not TokenType.KEYWORD:  # NULL, TRUE, FALSE fill no slot
                self._literals[self._pos] = literal
            self._advance()
            return literal
        if token.type is TokenType.KEYWORD and token.value in AGGREGATE_FUNCTIONS:
            if not allow_aggregates:
                raise ParseError(
                    f"aggregate {token.value} is not allowed here (position {token.position})"
                )
            call = self._aggregate_call()
            name = f"__having_{self._having_counter}"
            self._having_counter += 1
            self._having_sink.append((name, call))
            return ex.ColumnRef(name)
        if token.matches(TokenType.KEYWORD, "CASE"):
            return self._case_expression(allow_aggregates)
        if token.matches(TokenType.PUNCT, "("):
            self._advance()
            inner = self._or_expr(allow_aggregates)
            self._expect(TokenType.PUNCT, ")")
            return inner
        if token.type is TokenType.IDENTIFIER:
            if (
                self._peek(1).matches(TokenType.PUNCT, "(")
                and str(token.value).upper() in ex.SCALAR_FUNCTIONS
            ):
                return self._function_call(allow_aggregates)
            return ex.ColumnRef(self._qualified_name())
        raise ParseError(
            f"unexpected token {token.value!r} at position {token.position}"
        )

    def _function_call(self, allow_aggregates: bool) -> ex.Expression:
        name = str(self._advance().value)
        self._expect(TokenType.PUNCT, "(")
        arguments = [self._or_expr(allow_aggregates)]
        while self._accept(TokenType.PUNCT, ","):
            arguments.append(self._or_expr(allow_aggregates))
        self._expect(TokenType.PUNCT, ")")
        return ex.FunctionCall(name, arguments)

    def _case_expression(self, allow_aggregates: bool) -> ex.Expression:
        self._expect(TokenType.KEYWORD, "CASE")
        branches: list[tuple[ex.Expression, ex.Expression]] = []
        while self._accept(TokenType.KEYWORD, "WHEN"):
            condition = self._or_expr(allow_aggregates)
            self._expect(TokenType.KEYWORD, "THEN")
            value = self._or_expr(allow_aggregates)
            branches.append((condition, value))
        if not branches:
            raise ParseError("CASE needs at least one WHEN branch")
        default = None
        if self._accept(TokenType.KEYWORD, "ELSE"):
            default = self._or_expr(allow_aggregates)
        self._expect(TokenType.KEYWORD, "END")
        return ex.Case(branches, default)

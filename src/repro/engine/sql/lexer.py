"""The tokenizer for the engine's SQL subset: one compiled master regex."""

from __future__ import annotations

import enum
import re
from typing import Any, NamedTuple

from repro.errors import LexerError


class TokenType(enum.Enum):
    """Lexical token categories."""

    KEYWORD = "keyword"
    IDENTIFIER = "identifier"
    NUMBER = "number"
    STRING = "string"
    OPERATOR = "operator"
    PUNCT = "punct"
    EOF = "eof"


KEYWORDS = frozenset(
    {
        "SELECT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER", "LIMIT",
        "AND", "OR", "NOT", "AS", "ASC", "DESC", "BETWEEN", "IN", "IS",
        "NULL", "TRUE", "FALSE", "JOIN", "INNER", "LEFT", "ON", "DISTINCT",
        "COUNT", "SUM", "AVG", "MIN", "MAX",
        "LIKE", "CASE", "WHEN", "THEN", "ELSE", "END",
        "INSERT", "INTO", "VALUES", "CREATE", "TABLE", "DELETE", "UPDATE",
        "SET", "DROP", "EXPLAIN", "ANALYZE",
    }
)

#: one alternative per token kind, tried in order at each position: a
#: word is an identifier or keyword, a number is ``1``, ``1.5``, ``.5`` or
#: ``1e5``, a string doubles ``''`` to escape a quote (so its closing
#: quote is never followed by another), ``--`` comments run to the end
#: of the line, and a lone character nothing else matched is an error (an
#: unterminated string when it is a quote)
_TOKEN = re.compile(
    r"(?P<space>\s+|--[^\n]*\n?)"
    r"|(?P<word>[^\W\d]\w*)"
    r"|(?P<number>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d*)?)"
    r"|(?P<string>'(?:[^']|'')*'(?!'))"
    r"|(?P<operator><=|>=|<>|!=|[=<>+\-*/%])"
    r"|(?P<punct>[(),.;])"
    r"|(?P<error>.)",
    re.DOTALL,
)


class Token(NamedTuple):
    """A single lexical token.

    Attributes:
        type: token category.
        value: normalised token text (keywords upper-cased) or parsed value
            for numbers/strings.
        position: character offset in the source string.
    """

    type: TokenType
    value: Any
    position: int

    def matches(self, type_: TokenType, value: Any = None) -> bool:
        """True if the token has the given type (and value, when provided)."""
        if self.type is not type_:
            return False
        return value is None or self.value == value


def tokenize(sql: str) -> list[Token]:
    """Tokenize a SQL string.

    Returns the token list terminated by a single EOF token.

    Raises:
        LexerError: on characters outside the dialect.
    """
    tokens: list[Token] = []
    for match in _TOKEN.finditer(sql):
        kind = match.lastgroup
        if kind == "space":
            continue
        text, start = match.group(), match.start()
        if kind == "word":
            upper = text.upper()
            if upper in KEYWORDS:
                tokens.append(Token(TokenType.KEYWORD, upper, start))
            else:
                tokens.append(Token(TokenType.IDENTIFIER, text, start))
        elif kind == "number":
            value = int(text) if text.isdigit() else float(text)
            tokens.append(Token(TokenType.NUMBER, value, start))
        elif kind == "string":
            tokens.append(Token(TokenType.STRING, text[1:-1].replace("''", "'"), start))
        elif kind == "operator":
            tokens.append(Token(TokenType.OPERATOR, "<>" if text == "!=" else text, start))
        elif kind == "punct":
            tokens.append(Token(TokenType.PUNCT, text, start))
        elif text == "'":
            raise LexerError("unterminated string literal", start)
        else:
            raise LexerError(f"unexpected character {text!r}", start)
    tokens.append(Token(TokenType.EOF, None, len(sql)))
    return tokens


#: keywords whose next token the parser reads as a plain value (a LIMIT
#: count, a LIKE pattern), never as a Literal
_VALUE_AFTER = ("LIMIT", "LIKE")


def shape(tokens: list[Token]) -> tuple[tuple, list[int]]:
    """``(key, slots)``: a statement's tokens with their literals masked,
    and the indexes of the masked tokens.

    Each NUMBER or STRING token is a *slot*, keyed by its value's Python
    kind (``int``, ``float`` or ``str`` — the bound ``Literal.dtype``), so
    ``5`` and ``5.0`` are two shapes; the token after LIMIT or LIKE stays
    verbatim, as ``(kind, value)``.  Every other token is keyed by its
    value: keyword, identifier and symbol values never coincide (an
    identifier is never a keyword's spelling), and NULL, TRUE and FALSE
    are keywords.  Two statements with one key differ only in the values
    of their slots.
    """
    key: list = []
    slots: list[int] = []
    for index, token in enumerate(tokens):
        value = token.value
        if token.type is TokenType.NUMBER or token.type is TokenType.STRING:
            if key and key[-1] in _VALUE_AFTER:
                value = (type(value), value)
            else:
                slots.append(index)
                value = type(value)
        key.append(value)
    return tuple(key), slots

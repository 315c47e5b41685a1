"""The tokenizer for the engine's SQL subset: one compiled master regex.

An INSERT's VALUES list is read in one step when it is *plain*: after
the ``VALUES`` keyword, one ``fullmatch`` checks that the rest of the
text is parenthesised rows of plain literals (a NUMBER, a STRING, NULL,
TRUE or FALSE), comma-separated, with one optional ``;``, and one
``findall`` reads their values (:func:`literal_value`) into a single
``ROWS`` token.  Anything else in the list (``-1``, ``1 + 1``, a
comment, a call) is tokenized like any other statement, and a batch
that is plain but holds a word other than the three or a malformed
number is too, so the token path names the error.
"""

from __future__ import annotations

import enum
import re
import sys
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
    #: a plain VALUES list's rows of Python values (only ever after VALUES)
    ROWS = "rows"
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

#: the text of a number (``1``, ``1.``, ``1.5``, ``.5``, ``1e5``; an
#: exponent without digits is matched whole, so ``1e`` is a malformed
#: number and not ``1`` followed by a name), of a string (``''`` escapes
#: a quote, so its closing quote is never followed by another) and of a
#: word, shared by the master regex and the VALUES reader
_NUMBER = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d*)?"
_STRING = r"'(?:[^']|'')*'(?!')"
_WORD = r"[^\W\d]\w*"

#: one alternative per token kind, tried in order at each position: a
#: word is an identifier or keyword, ``--`` comments run to the end of
#: the line, and a lone character nothing else matched is an error (an
#: unterminated string when it is a quote)
_TOKEN = re.compile(
    r"(?P<space>\s+|--[^\n]*\n?)"
    rf"|(?P<word>{_WORD})"
    rf"|(?P<number>{_NUMBER})"
    rf"|(?P<string>{_STRING})"
    r"|(?P<operator><=|>=|<>|!=|[=<>+\-*/%])"
    r"|(?P<punct>[(),.;])"
    r"|(?P<error>.)",
    re.DOTALL,
)

_ITEM = rf"(?:{_NUMBER}|{_STRING}|{_WORD})"
_ROW = rf"\(\s*{_ITEM}\s*(?:,\s*{_ITEM}\s*)*\)"
#: a plain VALUES list: all the text after an INSERT's VALUES keyword,
#: its rows the group (no two ``\s*`` touch, so a match backtracks in
#: linear time)
_PLAIN_ROWS = re.compile(rf"\s*({_ROW}(?:\s*,\s*{_ROW})*)\s*(?:;\s*)?")
#: one item of a list :data:`_PLAIN_ROWS` matched, by kind, and the ``)``
#: that ends its row when it is the row's last
_ROW_ITEM = re.compile(rf"[\s,(]*(?:({_NUMBER})|({_STRING})|({_WORD}))\s*(\)?)")

#: the keywords that are literal values on their own
VALUE_WORDS = {"NULL": None, "TRUE": True, "FALSE": False}


def literal_value(kind: str, text: str, position: int) -> Any:
    """The Python value of a plain literal's text, by its :data:`_TOKEN`
    group — the one rule for both the token path and the VALUES reader:
    a ``number`` is an ``int`` when its text is all digits, else a
    ``float``; a ``string`` drops its quotes and un-doubles ``''``, and
    is interned, so a batch that repeats a label stores one object for
    it, not one per row; a ``word`` is NULL, TRUE or FALSE in any case.

    Raises:
        LexerError: a number ``float`` cannot read (``1e``, ``.5e-``).
        KeyError: a word that is not one of the three.
    """
    if kind == "number":
        try:
            return int(text) if text.isdigit() else float(text)
        except ValueError:
            raise LexerError(f"malformed number {text!r}", position) from None
    if kind == "string":
        return sys.intern(text[1:-1].replace("''", "'"))
    return VALUE_WORDS[text.upper()]


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

    Returns the token list terminated by a single EOF token; an INSERT
    whose VALUES list is plain ends ``VALUES, ROWS, EOF``
    (:func:`_read_rows`).

    Raises:
        LexerError: on characters outside the dialect, or a malformed number.
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
                if upper == "VALUES" and tokens[0].matches(TokenType.KEYWORD, "INSERT"):
                    rows = _read_rows(sql, match.end())
                    if rows is not None:
                        tokens.append(Token(TokenType.ROWS, rows, match.end()))
                        break
            else:
                tokens.append(Token(TokenType.IDENTIFIER, text, start))
        elif kind == "number":
            tokens.append(Token(TokenType.NUMBER, literal_value(kind, text, start), start))
        elif kind == "string":
            tokens.append(Token(TokenType.STRING, literal_value(kind, text, start), start))
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


def _read_rows(sql: str, start: int) -> tuple[tuple[Any, ...], ...] | None:
    """The rows of the plain VALUES list that is all of ``sql`` from
    ``start`` on, as tuples of Python values (a token value is hashable,
    as :func:`shape` needs), or None when the text is anything else or
    holds a value :func:`literal_value` rejects (the token path then
    raises, or parses, at its position)."""
    plain = _PLAIN_ROWS.fullmatch(sql, start)
    if plain is None:
        return None
    rows: list[tuple[Any, ...]] = []
    row: list[Any] = []
    try:
        for number, string, word, close in _ROW_ITEM.findall(sql, start, plain.end(1)):
            if number:
                row.append(literal_value("number", number, start))
            elif string:
                row.append(literal_value("string", string, start))
            else:
                row.append(literal_value("word", word, start))
            if close:
                rows.append(tuple(row))
                row = []
    except (LexerError, KeyError):
        return None
    return tuple(rows)


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

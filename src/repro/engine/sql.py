"""A tiny SQL dialect for ranked queries.

The paper's point about deployability is that once layers are
materialized as a column, a robust-index top-k query is *plain SQL*::

    SELECT TOP k FROM D WHERE layer <= k ORDER BY f_rank

This module parses exactly that shape (plus an index hint) into a
:class:`ParsedQuery`:

    [EXPLAIN] SELECT TOP <k> FROM <table>
        [USING INDEX <name>]
        [WHERE layer <= <c>]
        ORDER BY <linear expression>

``EXPLAIN`` asks the executor for the cost-ranked plan alternatives
instead of the rows.

where the linear expression is a ``+``/``-`` combination of optionally
scaled attributes, e.g. ``2*price + distance - 0.5*age``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

__all__ = ["ParsedQuery", "parse", "SqlError"]


class SqlError(ValueError):
    """Raised on any malformed statement, with position context."""


@dataclass(frozen=True)
class ParsedQuery:
    """Structured form of a ranked top-k statement."""

    k: int
    table: str
    order_by: dict[str, float]  # attribute -> weight
    index_hint: str | None = None
    layer_bound: int | None = None
    explain: bool = False
    extra: dict = field(default_factory=dict)


#: One token and the whitespace before it per match.  ``bad`` takes any
#: other non-space character; trailing whitespace matches nothing.
_TOKEN_RE = re.compile(
    r"""
    \s*
    (?:
      (?P<number>\d+\.\d*|\.\d+|\d+)
    | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
    | (?P<op><=|[*+\-(),])
    | (?P<bad>\S)
    )
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    for number, ident, op, bad in _TOKEN_RE.findall(text):
        if number:
            tokens.append(("number", number))
        elif ident:
            tokens.append(("ident", ident))
        elif op:
            tokens.append(("op", op))
        else:
            position = next(
                m.start("bad") for m in _TOKEN_RE.finditer(text) if m["bad"]
            )
            raise SqlError(
                f"unexpected character {bad!r} at position {position}"
            )
    return tokens


class _Parser:
    def __init__(self, text: str):
        self._text = text
        # The parser raises as soon as it consumes the end marker, so
        # it never reads past it.
        self._tokens = _tokenize(text) + [("eof", "")]
        self._pos = 0

    def _peek(self):
        return self._tokens[self._pos]

    def _next(self):
        token = self._tokens[self._pos]
        self._pos += 1
        return token

    def _expect_keyword(self, *words: str) -> str:
        kind, value = self._next()
        if kind != "ident" or value.upper() not in words:
            raise SqlError(
                f"expected {'/'.join(words)}, got {value!r} in {self._text!r}"
            )
        return value.upper()

    def _expect_op(self, op: str) -> None:
        kind, value = self._next()
        if kind != "op" or value != op:
            raise SqlError(f"expected {op!r}, got {value!r} in {self._text!r}")

    def _expect_int(self) -> int:
        kind, value = self._next()
        if kind != "number" or "." in value:
            raise SqlError(f"expected an integer, got {value!r}")
        return int(value)

    def _expect_ident(self) -> str:
        kind, value = self._next()
        if kind != "ident":
            raise SqlError(f"expected an identifier, got {value!r}")
        return value

    def parse(self) -> ParsedQuery:
        explain = False
        kind, value = self._peek()
        if kind == "ident" and value.upper() == "EXPLAIN":
            self._next()
            explain = True
        self._expect_keyword("SELECT")
        self._expect_keyword("TOP")
        k = self._expect_int()
        self._expect_keyword("FROM")
        table = self._expect_ident()

        index_hint = None
        layer_bound = None
        kind, value = self._peek()
        if kind == "ident" and value.upper() == "USING":
            self._next()
            self._expect_keyword("INDEX")
            index_hint = self._expect_ident()
            kind, value = self._peek()
        if kind == "ident" and value.upper() == "WHERE":
            self._next()
            column = self._expect_ident()
            if column.lower() != "layer":
                raise SqlError(
                    f"only 'layer <= c' predicates are supported, got {column!r}"
                )
            self._expect_op("<=")
            layer_bound = self._expect_int()

        self._expect_keyword("ORDER")
        self._expect_keyword("BY")
        weights = self._parse_linear_expression()
        kind, value = self._peek()
        if kind != "eof":
            raise SqlError(f"trailing input starting at {value!r}")
        if k < 0:
            raise SqlError("TOP k must be non-negative")
        return ParsedQuery(
            k=k,
            table=table,
            order_by=weights,
            index_hint=index_hint,
            layer_bound=layer_bound,
            explain=explain,
        )

    def _parse_linear_expression(self) -> dict[str, float]:
        weights: dict[str, float] = {}
        sign = 1.0
        kind, value = self._peek()
        if kind == "op" and value in "+-":
            self._next()
            sign = -1.0 if value == "-" else 1.0
        while True:
            coefficient, attribute = self._parse_term()
            weights[attribute] = weights.get(attribute, 0.0) + sign * coefficient
            kind, value = self._peek()
            if kind == "op" and value in "+-":
                self._next()
                sign = -1.0 if value == "-" else 1.0
                continue
            break
        if not weights:
            raise SqlError("ORDER BY needs at least one attribute term")
        return weights

    def _parse_term(self) -> tuple[float, str]:
        kind, value = self._peek()
        if kind == "number":
            self._next()
            coefficient = float(value)
            kind, value = self._peek()
            if kind == "op" and value == "*":
                self._next()
            attribute = self._expect_ident()
            return coefficient, attribute
        if kind == "ident":
            self._next()
            return 1.0, value
        raise SqlError(f"expected a term, got {value!r}")


def parse(statement: str) -> ParsedQuery:
    """Parse one ranked top-k statement.

    Examples
    --------
    >>> q = parse("SELECT TOP 5 FROM houses ORDER BY 2*price + distance")
    >>> q.k, q.table, sorted(q.order_by.items())
    (5, 'houses', [('distance', 1.0), ('price', 2.0)])
    >>> parse("SELECT TOP 3 FROM d WHERE layer <= 3 ORDER BY a").layer_bound
    3
    """
    return _Parser(statement).parse()

"""The SQL dialect's tokenizer as one ``finditer`` match per token or
whitespace run.

Reads each token's kind from ``match.lastgroup`` and its position from
``match.start()``.  :func:`repro.engine.sql._tokenize` must return the
same tokens and raise the same :class:`SqlError` text.
"""

from __future__ import annotations

import re

from repro.engine.sql import SqlError

_TOKEN_RE = re.compile(
    r"""
    (?P<number>\d+\.\d*|\.\d+|\d+)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op><=|[*+\-(),])
  | (?P<ws>\s+)
  | (?P<bad>.)
    """,
    re.VERBOSE,
)


def tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        if kind == "ws":
            continue
        if kind == "bad":
            raise SqlError(
                f"unexpected character {match.group()!r} at position {match.start()}"
            )
        tokens.append((kind, match.group()))
    return tokens

"""Tests for the ranked-query SQL dialect."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.sql import SqlError, _tokenize, parse

from ..reference.sql_tokenize import tokenize as reference_tokenize

#: Statement fragments plus characters no token accepts, so generated
#: text mixes valid tokens, whitespace runs and bad characters.
_FRAGMENTS = st.sampled_from([
    "SELECT", "TOP", "FROM", "USING", "INDEX", "WHERE", "layer", "ORDER",
    "BY", "EXPLAIN", "a0", "_x", "5", "0.25", ".5", "7.", "<=", "<", "=",
    "*", "+", "-", "(", ")", ",", " ", "  ", "\t", "\n", ";", "!", "é",
    "\u0663", "\u00a0",
])


class TestHappyPath:
    def test_minimal(self):
        q = parse("SELECT TOP 5 FROM houses ORDER BY price")
        assert (q.k, q.table) == (5, "houses")
        assert q.order_by == {"price": 1.0}
        assert q.index_hint is None
        assert q.layer_bound is None

    def test_paper_statement(self):
        q = parse("SELECT TOP 10 FROM D WHERE layer <= 10 ORDER BY 2*a + b")
        assert q.layer_bound == 10
        assert q.order_by == {"a": 2.0, "b": 1.0}

    def test_index_hint(self):
        q = parse("SELECT TOP 3 FROM t USING INDEX robust ORDER BY a")
        assert q.index_hint == "robust"

    def test_hint_and_layer_bound_together(self):
        q = parse(
            "SELECT TOP 3 FROM t USING INDEX r WHERE layer <= 3 ORDER BY a"
        )
        assert q.index_hint == "r"
        assert q.layer_bound == 3

    def test_case_insensitive_keywords(self):
        q = parse("select top 2 from t order by a + b")
        assert q.k == 2

    def test_float_coefficients(self):
        q = parse("SELECT TOP 1 FROM t ORDER BY 0.5*a + 1.25 * b")
        assert q.order_by == {"a": 0.5, "b": 1.25}

    def test_negative_terms(self):
        q = parse("SELECT TOP 1 FROM t ORDER BY a - 2*b - c")
        assert q.order_by == {"a": 1.0, "b": -2.0, "c": -1.0}

    def test_leading_sign(self):
        q = parse("SELECT TOP 1 FROM t ORDER BY -a + b")
        assert q.order_by == {"a": -1.0, "b": 1.0}

    def test_repeated_attribute_accumulates(self):
        q = parse("SELECT TOP 1 FROM t ORDER BY a + 2*a")
        assert q.order_by == {"a": 3.0}

    def test_implicit_multiplication(self):
        q = parse("SELECT TOP 1 FROM t ORDER BY 3 a")
        assert q.order_by == {"a": 3.0}


class TestErrors:
    @pytest.mark.parametrize(
        "statement",
        [
            "SELECT 5 FROM t ORDER BY a",               # missing TOP
            "SELECT TOP five FROM t ORDER BY a",        # non-integer k
            "SELECT TOP 5 FROM t ORDER BY",             # empty expression
            "SELECT TOP 5 FROM t",                      # no ORDER BY
            "SELECT TOP 5 FROM t ORDER BY a extra",     # trailing tokens
            "SELECT TOP 5 FROM t WHERE price <= 3 ORDER BY a",  # bad column
            "SELECT TOP 5 FROM t WHERE layer <= x ORDER BY a",  # bad bound
            "SELECT TOP 5 FROM t ORDER BY 3.5",         # constant only
            "SELECT TOP 2.5 FROM t ORDER BY a",         # fractional k
            "SELECT TOP 5 FROM t USING robust ORDER BY a",  # missing INDEX
        ],
    )
    def test_malformed_statements(self, statement):
        with pytest.raises(SqlError):
            parse(statement)

    def test_unexpected_character(self):
        with pytest.raises(SqlError, match="unexpected character"):
            parse("SELECT TOP 5 FROM t ORDER BY a ; drop")


class TestTokenizer:
    @given(st.one_of(
        st.lists(_FRAGMENTS, max_size=30).map("".join),
        st.text(max_size=40),
    ))
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_tokens_and_errors(self, text):
        try:
            expected = reference_tokenize(text)
        except SqlError as exc:
            with pytest.raises(SqlError) as raised:
                _tokenize(text)
            assert str(raised.value) == str(exc)
        else:
            assert _tokenize(text) == expected

    def test_error_reports_the_first_bad_position(self):
        text = "SELECT TOP 5\nFROM t ORDER BY a ; b !"
        with pytest.raises(SqlError, match="';' at position 31$"):
            _tokenize(text)

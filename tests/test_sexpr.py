"""Lexer / s-expression reader tests."""

import pytest
from hypothesis import given, strategies as st

from sygus.sexpr import (
    HexTok,
    IntTok,
    LexError,
    ParseError,
    SList,
    StrTok,
    Symbol,
    parse_sexprs,
    to_text,
    tokenize,
)


def test_tokenize_basic():
    toks = [t for t, _pos in tokenize("(+ x 12)")]
    assert toks[0] == "(" and toks[-1] == ")"
    assert toks[1].name == "+" and toks[2].name == "x"
    assert isinstance(toks[3], IntTok) and toks[3].value == 12


def test_a_string_that_spans_lines_moves_the_line_count():
    assert [pos for _tok, pos in tokenize('(f "a\nb" y)')] == [(1, 1), (1, 2), (1, 4), (2, 4), (2, 5)]


def test_comments_ignored():
    (sx,) = parse_sexprs("; header\n(a b) ; trailing\n")
    assert isinstance(sx, SList)
    assert [i.name for i in sx.items] == ["a", "b"]


def test_negative_int_and_symbol_minus():
    (sx,) = parse_sexprs("(- -3 x)")
    op, lit, x = sx.items
    assert isinstance(op, Symbol) and op.name == "-"
    assert isinstance(lit, IntTok) and lit.value == -3
    assert isinstance(x, Symbol)


def test_string_with_escaped_quote():
    # SMT-LIB escapes a quote by doubling it.
    (sx,) = parse_sexprs('(f "a""b")')
    assert isinstance(sx.items[1], StrTok)
    assert sx.items[1].value == 'a"b'


def test_hex_literal_keeps_width():
    (sx,) = parse_sexprs("#x00ff")
    assert isinstance(sx, HexTok)
    assert sx.value == 0xFF
    assert sx.digits == 4


def test_positions_point_at_offender():
    with pytest.raises(ParseError) as ei:
        parse_sexprs("(a (b c)")
    assert "1" in str(ei.value)  # line number surfaces in the message


def test_unbalanced_close():
    with pytest.raises(ParseError):
        parse_sexprs("a) b")


def test_unterminated_string():
    with pytest.raises(LexError):
        parse_sexprs('(f "abc)')


def test_to_text_round_trip():
    text = '(define-fun f ((x Int)) Int (+ x #x0001 "hi ""q"""))'
    (sx,) = parse_sexprs(text)
    again = parse_sexprs(to_text(sx))
    assert again == [sx]


_atom = st.one_of(
    st.integers(-999, 999).map(lambda v: IntTok(v)),
    st.text(st.sampled_from("abcxyz+-<="), min_size=1, max_size=4).map(Symbol),
    st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=6).map(StrTok),
)
_sexpr = st.recursive(_atom, lambda inner: st.lists(inner, max_size=4).map(lambda xs: SList(tuple(xs))), max_leaves=12)


@given(_sexpr)
def test_print_parse_inverse(sx):
    assert parse_sexprs(to_text(sx)) == [sx]

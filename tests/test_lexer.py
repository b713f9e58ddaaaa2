"""The regex lexer against the character-at-a-time reference, and its errors."""

import pytest
from hypothesis import given, settings, strategies as st

from helpers import reference_tokenize
from vulnvet.jx import ParseError, parse_unit
from vulnvet.jx.lexer import Token, tokenize

# Pieces of well-formed JX: words, numbers, punctuation, layout, whole
# comments and text literals.
_JX = st.sampled_from([
    *"abzXY_09 \t\r\n(){};,.=+-*/<>", "é", "٣", "==", "!=", "class", "int", "true",
    "/* c\n */", "// c\n", '"t"', '"a\\"b\\\\"',
])
# The JX alphabet plus the pieces that start or end comments, literals and
# escapes, and characters no token takes (stray ASCII, non-decimal digits).
_ANY = st.one_of(_JX, st.sampled_from([
    *"!\"\\#@$~'\f", "²", "½", "//", "/*", "*/", '\\"', "\\\\",
]))


def _lex(fn, source):
    try:
        return [tuple(tok) for tok in fn(source, "p.jx")]
    except ParseError as exc:
        return ("error", str(exc), exc.line, exc.col, exc.origin)


@settings(max_examples=1000, deadline=None)
@given(st.one_of(st.lists(_JX, max_size=60), st.lists(_ANY, max_size=40)).map("".join))
def test_tokenize_agrees_with_the_reference(source):
    assert _lex(tokenize, source) == _lex(reference_tokenize, source)


def test_tokens_are_named_tuples_ending_in_eof():
    tokens = tokenize('package p; /* c */\n  x = "a\\"b";  // end', "p.jx")
    assert [tuple(t) for t in tokens] == [
        ("package", "package", 1, 1), ("ID", "p", 1, 9), (";", ";", 1, 10),
        ("ID", "x", 2, 3), ("=", "=", 2, 5), ("TEXT", 'a"b', 2, 7), (";", ";", 2, 13),
        ("EOF", "", 2, 22),
    ]
    assert isinstance(tokens[0], Token) and tokens[3].value == "x" and tokens[3].col == 3


@pytest.mark.parametrize("source, message, line, col", [
    ("package p;\n  /* never closed", "unterminated block comment", 2, 3),
    ('x = "abc', "unterminated text literal", 1, 5),
    ('x = "ab\\"cd', "unterminated text literal", 1, 5),
    ('x =\n "ab\ncd"', "newline in text literal", 2, 5),
    ('x = "a\\q"', "unknown escape in text literal", 1, 7),
    ('x = "a\\', "unknown escape in text literal", 1, 7),
    ("a\n\tb # c", "unexpected character '#'", 2, 4),
    ("a = 1²;", "unexpected character '²'", 1, 6),
])
def test_lexer_errors_carry_their_position(source, message, line, col):
    with pytest.raises(ParseError) as info:
        tokenize(source, "bad.jx")
    err = info.value
    assert (str(err), err.line, err.col, err.origin) == (
        "bad.jx:%d:%d: %s" % (line, col, message), line, col, "bad.jx")


def test_non_decimal_digit_is_a_parse_error():
    # "²" is a digit to str.isdigit but not a number int() reads
    with pytest.raises(ParseError, match="unexpected character"):
        parse_unit("package p; class A { static int m() { return ²; } }", "p.jx")

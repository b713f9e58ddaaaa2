"""The regex lexer against the character-at-a-time reference, and its errors."""

import pytest
from hypothesis import given, settings, strategies as st

from helpers import reference_tokenize
from vulnvet.jx.errors import ParseError
from vulnvet.jx.lexer import Token, tokenize
from vulnvet.jx.parser import parse_unit

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


# Pieces of a member body: braces, quotes and slashes inside text literals and
# comments (with \" and \\ escapes), division beside comments, CRLF and tabs,
# non-ASCII identifiers; nested blocks come from _BODY itself.
_BODY_PIECE = st.sampled_from([
    *"ab_09 \t\n();,.=+-*<>", "\r\n", "é", "ñame", "x / y", "/", "a/", "//", "/*",
    "// {\n", "// } \"\n", "/* { } \" */", "/*}*/", '"{"', '"}"', '"\\"}"', '"\\\\"',
    '"a\\"{\\\\"', '"/*"', '"//"',
])
# and pieces that no body skip closes: the eager lexer rejects each
_BAD_PIECE = st.sampled_from(['"', '"a\\q"', "/* open", '"a\nb"'])
_BODY = st.recursive(
    st.lists(_BODY_PIECE, max_size=12).map("".join),
    lambda inner: st.lists(inner, max_size=3).map(lambda parts: "{" + " ".join(parts) + "}"),
    max_leaves=8)


@st.composite
def _units(draw):
    """A unit whose member bodies are drawn from _BODY, each opening mid-line."""
    bodies = draw(st.lists(_BODY, min_size=1, max_size=3))
    if draw(st.booleans()):
        bodies[-1] += draw(_BAD_PIECE)
    layout = draw(st.sampled_from([" ", "\n", "\r\n\t", " /* { */ "]))
    members = ["int f = 1 / 2;", "A() {%s}" % bodies[0]]
    members += ["static int m%d(int a, text b)%s{%s}" % (i, layout, b)
                for i, b in enumerate(bodies[1:])]
    return ("package p; // {\nclass A extends B {" + layout + layout.join(members)
            + layout + "}\ninterface I { int g(int a); }\n")


def _lexed_on_entry(source, origin):
    """The declarations-mode tokens of source, each body token replaced by the
    tokens of its range lexed alone at its position."""
    tokens = []
    for tok in tokenize(source, origin, bodies=False):
        if tok.kind == "BODY":
            start, stop = tok.value
            assert source[start] == "{" and source[stop - 1] == "}"
            tokens += tokenize(source[start:stop], origin, tok.line, tok.col)[:-1]
        else:
            tokens.append(tok)
    return tokens


@settings(max_examples=300, deadline=None)
@given(_units())
def test_a_body_lexed_on_entry_gives_its_eager_tokens(source):
    assert _lex(_lexed_on_entry, source) == _lex(tokenize, source)


@pytest.mark.parametrize("source", [
    "package p; class A { int m() { if (a) { b(); }",  # the body never closes
    'package p; class A { int m() { x = "} } }\n',  # nor its text literal
    "package p; class A { int m() { /* } } }",  # nor its comment
])
def test_a_body_the_skip_cannot_close_is_lexed_eagerly(source):
    assert _lex(lambda s, o: tokenize(s, o, bodies=False), source) == _lex(tokenize, source)

"""Regex lexer for JX.

One compiled pattern, driven by ``finditer``, matches each token together with
the whitespace and comments (``//`` and ``/* */``) before it, so the gap is
skipped inside the regex engine. Line and column come from counting the
newlines in each skipped gap. Columns count code points from 1.

Input that no token alternative takes (an unterminated block comment or text
literal, a newline or unknown escape in a text literal, a stray character)
falls to the last alternative, and ``_error`` names the fault and its exact
position. Identifiers start with a letter or ``_`` and go on with letters,
digits and ``_`` (``str.isalpha``/``str.isalnum``); integers are runs of
decimal digits.

In declarations mode (``bodies`` False) a member body, the one ``{`` that the
grammar puts after a ``)`` outside bodies, is one BODY token holding its
character range up to its closing brace; ``_SKIP`` steps over the text
literals and comments inside. A body it cannot close, and all after it, is
lexed eagerly, so any error is the eager lexer's own.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import ParseError

KEYWORDS = frozenset({
    "package", "class", "interface", "extends", "implements", "static",
    "int", "boolean", "text", "void", "if", "else", "while", "return",
    "new", "this", "true", "false",
})

_TOKEN = re.compile(r"""
    (?: [ \t\r\n]+ | //[^\n]* | /\*(?s:.*?)\*/ )*
    (?:
        (?P<P> [=!]= | [();,.=+\-*<>] | /(?!\*) )
      | (?P<B> [{}] )
      | (?P<ID> [A-Za-z_]\w* )
      | (?P<INT> \d+ )
      | (?P<TEXT> "[^"\\\n]*(?:\\["\\][^"\\\n]*)*" )
      | (?P<WORD> [^\W\d]\w* )  # starts outside ASCII: an ID if str.isalpha
      | (?P<EOF> \Z )
      | (?P<BAD> (?s:.) )
    )""", re.VERBOSE)

_ESCAPE = re.compile(r"\\(.)")
# a run of text literals, comments, slashes that open none and any character
# but a brace or a quote; then the brace after the run, if any (see _body_end)
_SKIP = re.compile(r"""
    [^{}"/]* (?: (?: "[^"\\\n]*(?:\\["\\][^"\\\n]*)*" | //[^\n]* | /\*(?s:.*?)\*/ | /(?![/*]) )
    [^{}"/]* )* ([{}]?)""", re.VERBOSE)


class Token(NamedTuple):
    kind: str  # ID, INT, TEXT, keyword text, or punctuation text; BODY; EOF
    value: str  # a BODY's is its (start, stop) range in the source
    line: int
    col: int


def tokenize(source: str, origin: str = "<source>", line: int = 1, col: int = 1,
             bodies: bool = True) -> list:
    """The tokens of ``source``, ending in EOF, where its first character is
    at ``line`` and ``col``; a ParseError names the origin, line and column
    of the first input that is not a token. With ``bodies`` False, a member
    body is one BODY token (see the module doc)."""
    tokens = []
    append = tokens.append
    new = tuple.__new__  # builds a Token without its Python-level __new__
    line_start = 1 - col  # index of the first character of the current line
    end = 0  # end of the previous token
    resume = 0  # where to lex on after a skipped body
    while True:
        for m in _TOKEN.finditer(source, resume):
            kind = m.lastgroup
            start, stop = m.span(kind)
            if start != end:
                newlines = source.count("\n", end, start)
                if newlines:
                    line += newlines
                    line_start = source.rindex("\n", end, start) + 1
            if kind == "P":
                value = kind = source[start:stop]
            elif kind == "ID":
                value = source[start:stop]
                kind = value if value in KEYWORDS else "ID"
            elif kind == "INT":
                value = source[start:stop]
            elif kind == "TEXT":
                value = source[start + 1:stop - 1]
                if "\\" in value:
                    value = _ESCAPE.sub(r"\1", value)
            elif kind == "B":
                value = kind = source[start:stop]
                if not bodies and value == "{" and tokens and tokens[-1][0] == ")":
                    resume = _body_end(source, start)
                    if resume is None:
                        bodies = True  # lex it and all after it eagerly
                    else:
                        append(new(Token, ("BODY", (start, resume), line, start - line_start + 1)))
                        end = start  # the next gap counts the body's newlines
                        break
            elif kind == "EOF":
                append(new(Token, ("EOF", "", line, start - line_start + 1)))
                return tokens
            elif kind == "WORD" and source[start].isalpha():
                kind = "ID"
                value = source[start:stop]
            else:
                _error(source, start, line, line_start, origin)
            append(new(Token, (kind, value, line, start - line_start + 1)))
            end = stop


def _body_end(source, i):
    """The index after the brace that closes the one at ``source[i]``, or
    None where ``_SKIP`` cannot get there."""
    depth = 0
    for m in _SKIP.finditer(source, i):
        if not m[1]:
            return None
        depth += 1 if m[1] == "{" else -1
        if not depth:
            return m.end()


def _error(source, i, line, line_start, origin):
    """Raise the ParseError for the input at ``source[i]`` that no token takes."""
    if source.startswith("/*", i):
        raise ParseError("unterminated block comment", line, i - line_start + 1, origin)
    if source[i] != '"':
        raise ParseError("unexpected character %r" % source[i], line, i - line_start + 1, origin)
    quote = i
    i += 1
    while i < len(source):
        c = source[i]
        if c == "\n":
            raise ParseError("newline in text literal", line, i - line_start + 1, origin)
        if c == "\\":
            if source[i + 1:i + 2] not in ('"', "\\"):
                raise ParseError("unknown escape in text literal", line, i - line_start + 1, origin)
            i += 2
            continue
        i += 1  # a closing quote here would have matched the TEXT alternative
    raise ParseError("unterminated text literal", line, quote - line_start + 1, origin)

"""Canonical text: the one form of a construct body that is fingerprinted,
stored and compared.

A body is lowered (see constructs) straight to its canonical text, a
pre-order s-expression over labeled nodes free of whitespace and comments: a
leaf is its escaped label, and an inner node ``(label child ...)`` with one
space before each child. Equal bodies have equal texts, so a digest of the
text is a content fingerprint. A ``CTree``, the ordered labeled tree of a
text, is decoded (see deserialize) only where tree differencing reads one.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .workspace import sha256


class CTree(NamedTuple):
    label: str
    children: tuple["CTree", ...] = ()

    def size(self) -> int:
        count, stack = 0, [self]
        while stack:
            node = stack.pop()
            count += 1
            stack.extend(node.children)
        return count


def escape(label: str) -> str:
    """A label as canonical text spells it: backslash, parentheses and space
    escaped."""
    return label.replace("\\", "\\\\").replace("(", "\\(").replace(")", "\\)").replace(" ", "\\s")


def fingerprint(text: str) -> str:
    """256-bit content hash of a canonical text, as hex."""
    return sha256(text.encode("utf-8")).hexdigest()


_ESCAPE = re.compile(r"\\(.)")
# a node: a space before it unless it is the root, then a leaf's label, an
# opening parenthesis and an inner node's label, or a closing parenthesis
_TOKENS = re.compile(r"( ?)(?:(\()?((?:\\[\\()s]|[^ ()\\])+)|\))")


def _unescape(tok: str) -> str:
    if "\\" not in tok:
        return tok
    return _ESCAPE.sub(lambda m: " " if m.group(1) == "s" else m.group(1), tok)


def deserialize(text: str) -> CTree:
    """The CTree of a canonical text. Raises ValueError on any other text,
    such as one with a space that does not come before a child, a node in
    parentheses without children, or an escape pair other than ``\\\\``,
    ``\\(``, ``\\)`` and ``\\s``.

    Iterative, so nesting depth is bounded by memory only.
    """
    stack = []        # (label, children) of the open nodes
    root, end = None, 0
    for m in _TOKENS.finditer(text):
        space, opens, label = m.groups()
        if m.start() != end or root is not None \
                or bool(space) != (label is not None and bool(stack)) \
                or label is None and not (stack and stack[-1][1]):
            raise ValueError("not canonical text at offset %d" % m.start())
        end = m.end()
        if opens:
            stack.append((_unescape(label), []))
            continue
        if label is None:
            label, kids = stack.pop()
            node = CTree(label, tuple(kids))
        else:
            node = CTree(_unescape(label))
        if stack:
            stack[-1][1].append(node)
        else:
            root = node
    if root is None or end != len(text):
        raise ValueError("not canonical text at offset %d" % end)
    return root


def lazy_tree(name: str, slot: str, undecodable=None) -> property:
    """A read-only property: the CTree of the canonical text that the
    attribute ``name`` holds (None for none), decoded on the first read and
    kept in the attribute ``slot``, so that only the trees read are built.
    ``undecodable(obj, exc)``, if given, is the error raised in place of the
    ValueError of a text that does not decode."""
    def read(self):
        tree = getattr(self, slot)
        if tree is None and getattr(self, name) is not None:
            try:
                tree = deserialize(getattr(self, name))
            except ValueError as exc:
                if undecodable is None:
                    raise
                raise undecodable(self, exc) from None
            setattr(self, slot, tree)
        return tree
    return property(read)

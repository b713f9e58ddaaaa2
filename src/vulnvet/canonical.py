"""Canonical tree form shared by fingerprinting and tree differencing.

Every construct body is lowered to a ``CTree``: an ordered, labeled tree
whose serialization is whitespace- and comment-free. Equal trees serialize
identically, so a digest over the serialization is a content fingerprint.
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


def _escape(label: str) -> str:
    return label.replace("\\", "\\\\").replace("(", "\\(").replace(")", "\\)").replace(" ", "\\s")


def serialize(tree: CTree) -> str:
    """Pre-order s-expression serialization; injective on trees."""
    if not tree.children:
        return _escape(tree.label)
    return "(%s %s)" % (_escape(tree.label), " ".join(serialize(c) for c in tree.children))


_ESCAPE = re.compile(r"\\(.)", re.S)
# A label runs to the next unescaped space or parenthesis; an escape pair
# takes any second character, and a backslash that ends the text stands for
# itself. Spaces between tokens match nothing and are skipped.
_TOKENS = re.compile(r"\(|\)|(?:\\.|\\\Z|[^ ()\\])+", re.S)


def _unescape_token(tok: str) -> str:
    return _ESCAPE.sub(lambda m: " " if m.group(1) == "s" else m.group(1), tok)


def deserialize(text: str) -> CTree:
    """Inverse of :func:`serialize`. Raises ValueError on malformed input.

    Iterative, so nesting depth is bounded by memory only.
    """
    stack = []        # (label, children) of the open nodes
    root = None
    opened = False    # an opening parenthesis waits for its label
    for m in _TOKENS.finditer(text):
        tok = m.group()
        if root is not None:
            raise ValueError("trailing data in canonical form")
        if opened and tok in ("(", ")"):
            raise ValueError("empty label at offset %d" % m.start())
        if tok == "(":
            opened = True
            continue
        if tok == ")":
            if not stack:
                raise ValueError("unbalanced ')' at offset %d" % m.start())
            label, kids = stack.pop()
            node = CTree(label, tuple(kids))
        elif opened:
            stack.append((_unescape_token(tok), []))
            opened = False
            continue
        else:
            node = CTree(_unescape_token(tok))
        if stack:
            stack[-1][1].append(node)
        else:
            root = node
    if opened or stack:
        raise ValueError("unterminated canonical node")
    if root is None:
        raise ValueError("unexpected end of canonical form")
    return root


def lazy_tree(slot: str) -> property:
    """A read-only property over the attribute ``slot``, which holds a CTree,
    None, or a function of no arguments that returns the tree: the function
    is called on the first read and its tree kept in the slot."""
    def read(self):
        tree = getattr(self, slot)
        if callable(tree):  # a CTree is a tuple, never callable
            tree = tree()
            setattr(self, slot, tree)
        return tree
    return property(read)


def digest(tree: CTree) -> str:
    """256-bit content hash of the canonical serialization, as hex."""
    return sha256(serialize(tree).encode("utf-8")).hexdigest()

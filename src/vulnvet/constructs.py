"""Construct identity and fingerprinting.

A construct is a package, class, interface, constructor, or method with a
globally unique qualified name (methods and constructors carry their parameter
type list as jx.ast.type_text spells it, e.g. ``foo.Bar.baz(int)``). Bodies are
lowered straight to canonical text (see canonical) by one walk over the
syntax tree, so that textually different but token-identical code
fingerprints identically, while any literal or identifier change is visible.
No tree is built on the way: a CTree is decoded from the text only where
tree differencing reads one. A body the parser skipped (jx.ast.Unparsed) is
parsed for each lowering and not kept, so an inventory holds no body.
"""

from __future__ import annotations

from functools import partial
from typing import NamedTuple, Optional

from .canonical import escape, fingerprint, lazy_tree
from .jx import ast
from .workspace import one_of

PACKAGE = "PACKAGE"
CLASS = "CLASS"
INTERFACE = "INTERFACE"
CONSTRUCTOR = "CONSTRUCTOR"
METHOD = "METHOD"

CTYPES = (PACKAGE, CLASS, INTERFACE, CONSTRUCTOR, METHOD)
CTYPE = one_of(*CTYPES)  # the shape check of a ctype in JSON input
CALLABLE_CTYPES = (METHOD, CONSTRUCTOR)


class ConstructId(NamedTuple):
    ctype: str
    qname: str

    def __str__(self):
        return "%s:%s" % (self.ctype, self.qname)


def member_id(ctype: str, owner: str, sig: str) -> ConstructId:
    """The id of a METHOD or CONSTRUCTOR: its owner's qname, a dot, and its
    signature ``name(types)``."""
    return ConstructId(ctype, "%s.%s" % (owner, sig))


def split_member(qname: str) -> tuple:
    """(owner qname, signature) of a member qname. A name without a
    parameter list is taken to have none, and one without a dot to have an
    empty owner."""
    head, paren, params = qname.partition("(")
    owner, _, name = head.rpartition(".")
    return owner, name + (paren + params if paren else "()")


def guess_ctype(qname: str) -> str:
    """A member whose name equals its class simple name is a constructor.
    Exact for every METHOD and CONSTRUCTOR qname a build can produce, since
    the parser rejects a method named like its type."""
    head = qname.split("(", 1)[0]
    parts = head.rsplit(".", 2)
    if len(parts) >= 2 and parts[-1] == parts[-2]:
        return CONSTRUCTOR
    return METHOD


class Construct:
    """A construct's body and fingerprint, the 256-bit digest of the body's
    canonical text. Its ConstructId is the key it is stored under. The body
    is given as its text or as a function of no arguments that lowers the
    declaration when ``text`` is first read, so an inventory holds the
    body's range, parsed again when read;
    ``body`` is its CTree (see canonical.lazy_tree). Both are kept once
    read."""

    __slots__ = ("fingerprint", "_body", "_tree")

    def __init__(self, fingerprint: Optional[str], body):
        self.fingerprint = fingerprint  # hex digest; None for PACKAGE
        self._body = body               # None for PACKAGE
        self._tree = None

    @property
    def has_body(self) -> bool:
        """Whether there is a body, told without lowering it."""
        return self._body is not None

    @property
    def text(self) -> Optional[str]:
        if callable(self._body):
            self._body = self._body()
        return self._body

    body = lazy_tree("text", "_tree")


# --- lowering to canonical text -------------------------------------------
#
# Each _LOWER function appends a node's text, a space first, to a list that
# canonical_text joins. A str is a leaf's label and a (label, kids) pair a
# node (see _node). Only a text literal's label can hold a character that
# escape changes: the others are identifiers, numbers and operators.


def _node(label: str, kids, out: list):
    """The node ``label`` over one child per item of kids but None; a leaf
    if kids is empty."""
    if not kids:
        out.append(" " + label)
        return
    out.append(" (" + label)
    for k in kids:
        if k is not None:
            _LOWER[type(k)](k, out)
    out.append(")")


def _type(t, out: list):
    out.append(" type:" + t.text())


_LOWER = {
    str: lambda label, out: out.append(" " + label),
    tuple: lambda node, out: _node(*node, out),
    ast.PrimType: _type,
    ast.NamedType: _type,
    ast.Param: lambda p, out: _node("param:" + p.name, (p.type,), out),
    ast.IntLit: lambda e, out: out.append(" int:%d" % e.value),
    ast.TextLit: lambda e, out: out.append(" text:" + escape(e.value)),
    ast.BoolLit: lambda e, out: out.append(" bool:true" if e.value else " bool:false"),
    ast.Var: lambda e, out: out.append(" var:" + e.name),
    ast.This: lambda e, out: out.append(" this"),
    ast.FieldAccess: lambda e, out: _node("get:" + e.name, (e.obj,), out),
    ast.New: lambda e, out: _node("new:" + e.type.text(), e.args, out),
    ast.MethodCall: lambda e, out: _node("call:" + e.name, (e.recv, *e.args), out),
    ast.ReflectInvoke: lambda e, out: _node("reflect", e.args, out),
    ast.Binary: lambda e, out: _node("op:" + e.op, (e.left, e.right), out),
    ast.Block: lambda s, out: _node("block", s.stmts, out),
    ast.LocalDecl: lambda s, out: _node("local:" + s.name, (s.type, s.init), out),
    ast.Assign: lambda s, out: _node("assign", (s.target, s.value), out),
    ast.ExprStmt: lambda s, out: _node("expr", (s.expr,), out),
    ast.If: lambda s, out: _node("if", (s.cond, s.then, s.els), out),
    ast.While: lambda s, out: _node("while", (s.cond, s.body), out),
    ast.Return: lambda s, out: _node("return", () if s.value is None else (s.value,), out),
}


def _signature(m: ast.MethodDecl) -> tuple:
    # Signature only: parameter names of nested constructs are excluded.
    return ("msig:" + m.name, ("static:true" if m.static else "static:false", m.rettype,
                               *(p.type for p in m.params)))


def _decl_node(decl) -> tuple:
    """The (label, kids) pair of a declaration's root node."""
    if isinstance(decl, ast.InterfaceDecl):
        return "interface:" + decl.name, [_signature(m) for m in decl.methods]
    if isinstance(decl, ast.ClassDecl):
        return "class:" + decl.name, [
            "extends:" + (decl.extends.text() if decl.extends else "-"),
            ("implements", ["iface:" + t.text() for t in decl.implements]) if decl.implements
            else None,
            *(("field:" + f.name, (f.type, f.init)) for f in decl.fields),
            *(("csig:" + c.name, [p.type for p in c.params]) for c in decl.ctors
              if not c.synthetic),
            *map(_signature, decl.methods)]
    body = decl.body
    if isinstance(body, ast.Unparsed):  # parsed for this lowering alone
        from .jx.parser import parse_body  # here, so that importing constructs loads no parser
        body = parse_body(body)
    block = None if body is None else ("block", body.stmts)
    if isinstance(decl, ast.CtorDecl):
        return "ctor:" + decl.name, (*decl.params, block)
    return "method:" + decl.name, ("static:true" if decl.static else "static:false",
                                   decl.rettype, *decl.params, block)


def canonical_text(decl) -> str:
    """The canonical text of a declaration. A method's or constructor's
    holds its parameter names and body; a class's or interface's the
    signatures of its members, their bodies elided."""
    out = []
    _node(*_decl_node(decl), out)
    out[0] = out[0][1:]  # the root has no space before it
    return "".join(out)


def member_fingerprint(decl) -> str:
    """The fingerprint of a method or constructor declaration."""
    return fingerprint(canonical_text(decl))


# --- extraction ------------------------------------------------------------


def extract_constructs(units, fingerprints=None) -> dict:
    """Inventory all constructs of a set of parsed units from their
    declarations alone, as an ordered map ConstructId -> Construct. As in the
    resolver's tables, of types sharing a qname the first in (package,
    origin) order counts, and of a type's members sharing a signature the last.
    Every declaration is lowered to its canonical text once, so every body is
    parsed, and the text of each that counts is kept; ``fingerprints`` maps
    member declarations already lowered to their fingerprints (see
    member_fingerprint), whose bodies are not lowered again until read."""
    known = fingerprints or {}

    def construct(decl):
        if decl in known:
            return Construct(known[decl], partial(canonical_text, decl))
        text = canonical_text(decl)
        return Construct(fingerprint(text), text)

    units = sorted(units, key=lambda u: (u.package, u.origin))
    out = {ConstructId(PACKAGE, u.package): Construct(None, None) for u in units}
    types = {}  # qname -> the constructs of its first type, in id order
    for u in units:
        for d in u.decls:
            qname = u.package + "." + d.name
            members = {member_id(ctype, qname, ast.signature(
                m.name, [ast.type_text(p.type, u.package) for p in m.params])): construct(m)
                for ctype, decls in ((CONSTRUCTOR, getattr(d, "ctors", ())), (METHOD, d.methods))
                for m in decls}
            ctype = INTERFACE if isinstance(d, ast.InterfaceDecl) else CLASS
            types.setdefault(qname, {ConstructId(ctype, qname): construct(d),
                                     **dict(sorted(members.items()))})
    for qname in sorted(types):
        out.update(types[qname])
    return out


# --- version ordering ------------------------------------------------------


def version_key(version: str) -> tuple:
    """Order key for dot-separated numeric versions; trailing zeros ignored."""
    try:
        parts = [int(p) for p in version.split(".")]
    except ValueError:
        raise ValueError("not a dot-separated numeric version: %r" % version)
    while parts and parts[-1] == 0:
        parts.pop()
    return tuple(parts)


def is_version(value) -> bool:
    """Whether value is text version_key orders."""
    try:
        version_key(value)
    except (ValueError, AttributeError):  # not numbers, or not text
        return False
    return True


def version_newer(a: str, b: str) -> bool:
    """True when version a is strictly newer than b."""
    return version_key(a) > version_key(b)

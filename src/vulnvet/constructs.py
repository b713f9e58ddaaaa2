"""Construct identity and fingerprinting.

A construct is a package, class, interface, constructor, or method with a
globally unique qualified name (methods and constructors carry their parameter
type list as jx.ast.type_text spells it, e.g. ``foo.Bar.baz(int)``). Bodies are
lowered to canonical trees so that textually different but token-identical code
fingerprints identically, while any literal or identifier change is visible.
"""

from __future__ import annotations

from functools import partial
from typing import NamedTuple, Optional

from .canonical import CTree, digest, lazy_tree
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
    canonical serialization. Its ConstructId is the key it is stored under.
    The body is given as a CTree or as a function of no arguments that
    lowers the declaration when ``body`` is first read (see
    canonical.lazy_tree), so an inventory holds its parse, not a tree per
    construct."""

    __slots__ = ("fingerprint", "_body")

    def __init__(self, fingerprint: Optional[str], body):
        self.fingerprint = fingerprint  # hex digest; None for PACKAGE
        self._body = body               # None for PACKAGE

    body = lazy_tree("_body")


# --- lowering to canonical trees ------------------------------------------


def _type_leaf(t) -> CTree:
    return CTree("type:" + t.text())


def expr_ctree(e) -> CTree:
    if isinstance(e, ast.IntLit):
        return CTree("int:%d" % e.value)
    if isinstance(e, ast.TextLit):
        return CTree("text:" + e.value)
    if isinstance(e, ast.BoolLit):
        return CTree("bool:%s" % ("true" if e.value else "false"))
    if isinstance(e, ast.Var):
        return CTree("var:" + e.name)
    if isinstance(e, ast.This):
        return CTree("this")
    if isinstance(e, ast.FieldAccess):
        return CTree("get:" + e.name, (expr_ctree(e.obj),))
    if isinstance(e, ast.New):
        return CTree("new:" + e.type.text(), tuple(expr_ctree(a) for a in e.args))
    if isinstance(e, ast.MethodCall):
        return CTree("call:" + e.name,
                     (expr_ctree(e.recv),) + tuple(expr_ctree(a) for a in e.args))
    if isinstance(e, ast.ReflectInvoke):
        return CTree("reflect", tuple(expr_ctree(a) for a in e.args))
    if isinstance(e, ast.Binary):
        return CTree("op:" + e.op, (expr_ctree(e.left), expr_ctree(e.right)))
    raise TypeError("unknown expression node: %r" % (e,))


def stmt_ctree(s) -> CTree:
    if isinstance(s, ast.Block):
        return CTree("block", tuple(stmt_ctree(x) for x in s.stmts))
    if isinstance(s, ast.LocalDecl):
        kids = [_type_leaf(s.type)]
        if s.init is not None:
            kids.append(expr_ctree(s.init))
        return CTree("local:" + s.name, tuple(kids))
    if isinstance(s, ast.Assign):
        return CTree("assign", (expr_ctree(s.target), expr_ctree(s.value)))
    if isinstance(s, ast.ExprStmt):
        return CTree("expr", (expr_ctree(s.expr),))
    if isinstance(s, ast.If):
        kids = [expr_ctree(s.cond), stmt_ctree(s.then)]
        if s.els is not None:
            kids.append(stmt_ctree(s.els))
        return CTree("if", tuple(kids))
    if isinstance(s, ast.While):
        return CTree("while", (expr_ctree(s.cond), stmt_ctree(s.body)))
    if isinstance(s, ast.Return):
        kids = (expr_ctree(s.value),) if s.value is not None else ()
        return CTree("return", kids)
    raise TypeError("unknown statement node: %r" % (s,))


def method_ctree(m: ast.MethodDecl) -> CTree:
    """Full method body tree; the method's own parameter names are retained."""
    kids = [CTree("static:%s" % ("true" if m.static else "false")),
            _type_leaf(m.rettype)]
    kids.extend(CTree("param:" + p.name, (_type_leaf(p.type),)) for p in m.params)
    if m.body is not None:
        kids.append(stmt_ctree(m.body))
    return CTree("method:" + m.name, tuple(kids))


def ctor_ctree(c: ast.CtorDecl) -> CTree:
    kids = [CTree("param:" + p.name, (_type_leaf(p.type),)) for p in c.params]
    kids.append(stmt_ctree(c.body))
    return CTree("ctor:" + c.name, tuple(kids))


def _method_sig_ctree(m: ast.MethodDecl) -> CTree:
    # Signature only: parameter names of nested constructs are excluded.
    kids = [CTree("static:%s" % ("true" if m.static else "false")),
            _type_leaf(m.rettype)]
    kids.extend(_type_leaf(p.type) for p in m.params)
    return CTree("msig:" + m.name, tuple(kids))


def class_ctree(decl: ast.ClassDecl) -> CTree:
    """Class declaration with member bodies elided, signatures retained."""
    kids = [CTree("extends:" + (decl.extends.text() if decl.extends else "-"))]
    if decl.implements:
        kids.append(CTree("implements", tuple(CTree("iface:" + t.text())
                                              for t in decl.implements)))
    for f in decl.fields:
        fk = [_type_leaf(f.type)]
        if f.init is not None:
            fk.append(expr_ctree(f.init))
        kids.append(CTree("field:" + f.name, tuple(fk)))
    for c in decl.ctors:
        if c.synthetic:
            continue
        kids.append(CTree("csig:" + c.name, tuple(_type_leaf(p.type) for p in c.params)))
    for m in decl.methods:
        kids.append(_method_sig_ctree(m))
    return CTree("class:" + decl.name, tuple(kids))


def interface_ctree(decl: ast.InterfaceDecl) -> CTree:
    return CTree("interface:" + decl.name,
                 tuple(_method_sig_ctree(m) for m in decl.methods))


# --- extraction ------------------------------------------------------------


def extract_constructs(units) -> dict:
    """Inventory all constructs of a set of parsed units from their
    declarations alone, as an ordered map ConstructId -> Construct. As in the
    resolver's tables, of types sharing a qname the first in (package,
    origin) order counts, and of a type's members sharing a signature the last.
    Each body is lowered once for its fingerprint, and again when read."""
    units = sorted(units, key=lambda u: (u.package, u.origin))
    # the first type of a qname is written last, so it stays
    types = {u.package + "." + d.name: (u.package, d) for u in reversed(units) for d in u.decls}
    out = {ConstructId(PACKAGE, u.package): Construct(None, None) for u in units}

    def put(cid, lower, decl):
        out[cid] = Construct(digest(lower(decl)), partial(lower, decl))

    for qname in sorted(types):
        pkg, decl = types[qname]
        kinds = [(METHOD, decl.methods, method_ctree)]
        if isinstance(decl, ast.InterfaceDecl):
            put(ConstructId(INTERFACE, qname), interface_ctree, decl)
        else:
            put(ConstructId(CLASS, qname), class_ctree, decl)
            kinds.insert(0, (CONSTRUCTOR, decl.ctors, ctor_ctree))
        for ctype, decls, ctree in kinds:
            sigs = {ast.signature(d.name, [ast.type_text(p.type, pkg) for p in d.params]): d
                    for d in decls}
            for sig in sorted(sigs):
                put(member_id(ctype, qname, sig), ctree, sigs[sig])
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

"""Reference lowering: construct bodies to CTrees, and CTrees to canonical text.

The builders below lower a declaration into a tree of ``CTree`` nodes, one
``isinstance`` chain per node, and ``serialize`` writes a tree's canonical
text recursively. ``constructs.canonical_text`` writes the same text in one
walk without building the tree; the tests hold it to ``serialize`` of these
trees, and ``canonical.deserialize`` to their inverse.
"""

from __future__ import annotations

from vulnvet.canonical import CTree, fingerprint
from vulnvet.jx import ast
from vulnvet.jx.parser import parse_body


def _escape(label: str) -> str:
    return label.replace("\\", "\\\\").replace("(", "\\(").replace(")", "\\)").replace(" ", "\\s")


def serialize(tree: CTree) -> str:
    """Pre-order s-expression serialization; injective on trees."""
    if not tree.children:
        return _escape(tree.label)
    return "(%s %s)" % (_escape(tree.label), " ".join(serialize(c) for c in tree.children))


def digest(tree: CTree) -> str:
    """256-bit content hash of the canonical serialization, as hex."""
    return fingerprint(serialize(tree))


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


def _block(body) -> ast.Block:
    return parse_body(body) if isinstance(body, ast.Unparsed) else body


def method_ctree(m: ast.MethodDecl) -> CTree:
    """Full method body tree; the method's own parameter names are retained."""
    kids = [CTree("static:%s" % ("true" if m.static else "false")),
            _type_leaf(m.rettype)]
    kids.extend(CTree("param:" + p.name, (_type_leaf(p.type),)) for p in m.params)
    if m.body is not None:
        kids.append(stmt_ctree(_block(m.body)))
    return CTree("method:" + m.name, tuple(kids))


def ctor_ctree(c: ast.CtorDecl) -> CTree:
    kids = [CTree("param:" + p.name, (_type_leaf(p.type),)) for p in c.params]
    kids.append(stmt_ctree(_block(c.body)))
    return CTree("ctor:" + c.name, tuple(kids))


def decl_ctree(decl) -> CTree:
    """The tree of any declaration: class, interface, constructor or method."""
    if isinstance(decl, ast.ClassDecl):
        return class_ctree(decl)
    if isinstance(decl, ast.InterfaceDecl):
        return interface_ctree(decl)
    return ctor_ctree(decl) if isinstance(decl, ast.CtorDecl) else method_ctree(decl)


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


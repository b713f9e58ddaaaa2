"""Canonical pretty-printer. parse(pretty_print(parse(s))) == parse(s)."""

from __future__ import annotations

from vulnvet.jx import ast

_PREC = {"==": 1, "!=": 1, "<": 2, ">": 2, "+": 3, "-": 3, "*": 4, "/": 4}


def _type(t) -> str:
    return t.text()


def _escape_text(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"')


def print_expr(e, parent_prec: int = 0) -> str:
    if isinstance(e, ast.IntLit):
        return str(e.value)
    if isinstance(e, ast.TextLit):
        return '"%s"' % _escape_text(e.value)
    if isinstance(e, ast.BoolLit):
        return "true" if e.value else "false"
    if isinstance(e, ast.Var):
        return e.name
    if isinstance(e, ast.This):
        return "this"
    if isinstance(e, ast.FieldAccess):
        return "%s.%s" % (print_expr(e.obj, 5), e.name)
    if isinstance(e, ast.New):
        return "new %s(%s)" % (_type(e.type), ", ".join(print_expr(a) for a in e.args))
    if isinstance(e, ast.MethodCall):
        return "%s.%s(%s)" % (print_expr(e.recv, 5), e.name,
                              ", ".join(print_expr(a) for a in e.args))
    if isinstance(e, ast.ReflectInvoke):
        return "Reflect.invoke(%s)" % ", ".join(print_expr(a) for a in e.args)
    if isinstance(e, ast.Binary):
        prec = _PREC[e.op]
        body = "%s %s %s" % (print_expr(e.left, prec), e.op, print_expr(e.right, prec + 1))
        return "(%s)" % body if prec < parent_prec else body
    raise TypeError("unknown expression node: %r" % (e,))


def _stmt(s, indent: int, out: list):
    pad = "    " * indent
    if isinstance(s, ast.Block):
        out.append(pad + "{")
        for inner in s.stmts:
            _stmt(inner, indent + 1, out)
        out.append(pad + "}")
    elif isinstance(s, ast.LocalDecl):
        if s.init is None:
            out.append("%s%s %s;" % (pad, _type(s.type), s.name))
        else:
            out.append("%s%s %s = %s;" % (pad, _type(s.type), s.name, print_expr(s.init)))
    elif isinstance(s, ast.Assign):
        out.append("%s%s = %s;" % (pad, print_expr(s.target), print_expr(s.value)))
    elif isinstance(s, ast.ExprStmt):
        out.append("%s%s;" % (pad, print_expr(s.expr)))
    elif isinstance(s, ast.If):
        out.append("%sif (%s)" % (pad, print_expr(s.cond)))
        _stmt(s.then, indent + 1, out)
        if s.els is not None:
            out.append(pad + "else")
            _stmt(s.els, indent + 1, out)
    elif isinstance(s, ast.While):
        out.append("%swhile (%s)" % (pad, print_expr(s.cond)))
        _stmt(s.body, indent + 1, out)
    elif isinstance(s, ast.Return):
        if s.value is None:
            out.append(pad + "return;")
        else:
            out.append("%sreturn %s;" % (pad, print_expr(s.value)))
    else:
        raise TypeError("unknown statement node: %r" % (s,))


def _params(params) -> str:
    return ", ".join("%s %s" % (_type(p.type), p.name) for p in params)


def _body(block: ast.Block, indent: int, header: str, out: list):
    pad = "    " * indent
    out.append("%s%s {" % (pad, header))
    for s in block.stmts:
        _stmt(s, indent + 1, out)
    out.append(pad + "}")


def pretty_print(unit: ast.SourceUnit) -> str:
    out = ["package %s;" % unit.package, ""]
    for decl in unit.decls:
        if isinstance(decl, ast.InterfaceDecl):
            out.append("interface %s {" % decl.name)
            for m in decl.methods:
                out.append("    %s %s(%s);" % (_type(m.rettype), m.name, _params(m.params)))
            out.append("}")
        else:
            header = "class " + decl.name
            if decl.extends is not None:
                header += " extends " + decl.extends.text()
            if decl.implements:
                header += " implements " + ", ".join(t.text() for t in decl.implements)
            out.append(header + " {")
            for f in decl.fields:
                if f.init is None:
                    out.append("    %s %s;" % (_type(f.type), f.name))
                else:
                    out.append("    %s %s = %s;" % (_type(f.type), f.name, print_expr(f.init)))
            for c in decl.ctors:
                if not c.synthetic:
                    _body(c.body, 1, "%s(%s)" % (c.name, _params(c.params)), out)
            for m in decl.methods:
                prefix = "static " if m.static else ""
                _body(m.body, 1, "%s%s %s(%s)" % (prefix, _type(m.rettype), m.name,
                                                  _params(m.params)), out)
            out.append("}")
        out.append("")
    return "\n".join(out).rstrip() + "\n"

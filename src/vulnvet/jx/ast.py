"""Syntax tree for JX.

Nodes carry a (line, col) position for diagnostics and call-site provenance.
Comments and whitespace are discarded by the lexer and never reach the tree.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Union

Pos = tuple  # (line, col)

PRIMITIVES = ("int", "boolean", "text", "void")


class PrimType(NamedTuple):
    name: str  # int | boolean | text | void

    def text(self) -> str:
        return self.name


class NamedType(NamedTuple):
    parts: tuple  # dotted name components

    def text(self) -> str:
        return ".".join(self.parts)


Type = Union[PrimType, NamedType]


def type_text(t: Type, pkg: str) -> str:
    """A type as ids spell it from its declaration in package pkg alone: a
    primitive's name, a one-part name qualified with pkg, a dotted one as is."""
    if isinstance(t, PrimType):
        return t.name
    return pkg + "." + t.parts[0] if len(t.parts) == 1 else t.text()


def signature(name: str, types) -> str:  # the member part of a construct id
    return "%s(%s)" % (name, ",".join(types))


class Param:
    __slots__ = ("type", "name")

    def __init__(self, type: Type, name: str):
        self.type = type
        self.name = name


# --- expressions -----------------------------------------------------------

INT_MIN, INT_MAX = -2 ** 63, 2 ** 63 - 1  # JX ints are signed 64-bit


class IntLit:
    __slots__ = ("value", "pos")

    def __init__(self, value: int, pos: Pos):
        self.value = value
        self.pos = pos


class TextLit:
    __slots__ = ("value", "pos")

    def __init__(self, value: str, pos: Pos):
        self.value = value
        self.pos = pos


class BoolLit:
    __slots__ = ("value", "pos")

    def __init__(self, value: bool, pos: Pos):
        self.value = value
        self.pos = pos


class Var:
    __slots__ = ("name", "pos")

    def __init__(self, name: str, pos: Pos):
        self.name = name
        self.pos = pos


class This:
    __slots__ = ("pos",)

    def __init__(self, pos: Pos):
        self.pos = pos


class FieldAccess:
    __slots__ = ("obj", "name", "pos")

    def __init__(self, obj: Expr, name: str, pos: Pos):
        self.obj = obj
        self.name = name
        self.pos = pos


class New:
    __slots__ = ("type", "args", "pos", "call")

    def __init__(self, type: NamedType, args: list, pos: Pos):
        self.type = type
        self.args = args
        self.pos = pos
        self.call = None  # its resolver.CallSite once its body is bound


class MethodCall:
    __slots__ = ("recv", "name", "args", "pos", "call")

    def __init__(self, recv: Expr, name: str, args: list, pos: Pos):
        self.recv = recv  # receiver expression or dotted name chain (Var/FieldAccess)
        self.name = name
        self.args = args
        self.pos = pos
        self.call = None  # as New.call


class ReflectInvoke:
    __slots__ = ("args", "pos", "call")

    def __init__(self, args: list, pos: Pos):
        self.args = args  # first arg is the target name expression
        self.pos = pos
        self.call = None  # as New.call


class Binary:
    __slots__ = ("op", "left", "right", "pos")

    def __init__(self, op: str, left: Expr, right: Expr, pos: Pos):
        self.op = op  # + - * / == != < >
        self.left = left
        self.right = right
        self.pos = pos


Expr = Union[IntLit, TextLit, BoolLit, Var, This, FieldAccess, New, MethodCall,
             ReflectInvoke, Binary]


# --- statements ------------------------------------------------------------

class Block:
    __slots__ = ("stmts", "pos")

    def __init__(self, stmts: list, pos: Pos):
        self.stmts = stmts
        self.pos = pos


class LocalDecl:
    __slots__ = ("type", "name", "init", "pos")

    def __init__(self, type: Type, name: str, init: Optional[Expr], pos: Pos):
        self.type = type
        self.name = name
        self.init = init
        self.pos = pos


class Assign:
    __slots__ = ("target", "value", "pos")

    def __init__(self, target: Expr, value: Expr, pos: Pos):
        self.target = target  # Var or FieldAccess
        self.value = value
        self.pos = pos


class ExprStmt:
    __slots__ = ("expr", "pos")

    def __init__(self, expr: Expr, pos: Pos):
        self.expr = expr
        self.pos = pos


class If:
    __slots__ = ("cond", "then", "els", "pos")

    def __init__(self, cond: Expr, then: Stmt, els: Optional[Stmt], pos: Pos):
        self.cond = cond
        self.then = then
        self.els = els
        self.pos = pos


class While:
    __slots__ = ("cond", "body", "pos")

    def __init__(self, cond: Expr, body: Stmt, pos: Pos):
        self.cond = cond
        self.body = body
        self.pos = pos


class Return:
    __slots__ = ("value", "pos")

    def __init__(self, value: Optional[Expr], pos: Pos):
        self.value = value
        self.pos = pos


Stmt = Union[Block, LocalDecl, Assign, ExprStmt, If, While, Return]


# --- declarations ----------------------------------------------------------

class Unparsed:
    """A member body the lexer skipped: the source of its unit, the range
    ``start:stop`` from the body's opening brace to after its closing one,
    and that brace's (line, col) (see parser.parse_body)."""
    __slots__ = ("source", "start", "stop", "pos", "origin")

    def __init__(self, source: str, start: int, stop: int, pos: Pos, origin: str):
        self.source = source
        self.start = start
        self.stop = stop
        self.pos = pos
        self.origin = origin


class FieldDecl:
    __slots__ = ("type", "name", "init", "pos")

    def __init__(self, type: Type, name: str, init: Optional[Expr], pos: Pos):
        self.type = type
        self.name = name
        self.init = init
        self.pos = pos


class MethodDecl:
    __slots__ = ("static", "rettype", "name", "params", "body", "pos")

    def __init__(self, static: bool, rettype: Type, name: str, params: list,
                 body: Union[Block, Unparsed, None], pos: Pos):
        self.static = static
        self.rettype = rettype
        self.name = name
        self.params = params
        self.body = body  # None for interface signatures
        self.pos = pos


class CtorDecl:
    __slots__ = ("name", "params", "body", "pos", "synthetic")

    def __init__(self, name: str, params: list, body: Union[Block, Unparsed], pos: Pos,
                 synthetic: bool = False):
        self.name = name  # equals the class simple name
        self.params = params
        self.body = body
        self.pos = pos
        self.synthetic = synthetic


class ClassDecl:
    __slots__ = ("name", "extends", "implements", "fields", "ctors", "methods", "pos")

    def __init__(self, name: str, extends: Optional[NamedType], implements: list,
                 fields: list, ctors: list, methods: list, pos: Pos):
        self.name = name
        self.extends = extends
        self.implements = implements
        self.fields = fields
        self.ctors = ctors
        self.methods = methods
        self.pos = pos


class InterfaceDecl:
    __slots__ = ("name", "methods", "pos")

    def __init__(self, name: str, methods: list, pos: Pos):
        self.name = name
        self.methods = methods  # MethodDecl with body=None
        self.pos = pos


Decl = Union[ClassDecl, InterfaceDecl]


class SourceUnit:
    __slots__ = ("origin", "package", "decls")

    def __init__(self, origin: str, package: str, decls: Optional[list] = None):
        self.origin = origin
        self.package = package
        self.decls = [] if decls is None else decls

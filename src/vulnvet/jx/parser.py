"""Recursive-descent parser for JX.

Grammar:
    unit      := "package" qname ";" {typedecl}
    typedecl  := "class" ID ["extends" qname] ["implements" qname {"," qname}]
                 "{" {member} "}"
               | "interface" ID "{" {methodsig ";"} "}"
    member    := field | ctor | method
    method    := ["static"] type ID "(" params ")" block
    ctor      := ID "(" params ")" block            -- ID = class name
    field     := type ID ["=" expr] ";"
    type      := "int" | "boolean" | "text" | "void" | qname

A class that declares no constructor gets an empty one marked ``synthetic``.
A type name is read alone (``ast.type_text``): in package ``p``, ``Foo`` names
``p.Foo`` and a dotted name is fully qualified: ``a.Foo`` never names ``p.a.Foo``.

Statements: block, local decl, assignment, expression, if/else, while, return.
Expressions: literals, variable, field access, this, new, instance/static call,
binary + - * / == != < >, and Reflect.invoke(target, args...).

Nesting deeper than MAX_NESTING levels is a ParseError, and so are an integer
literal above ast.INT_MAX and a method named like its type, whose qualified
name could equal a constructor's.

``parse_unit`` parses declarations only. It lexes in the lexer's
declarations mode, which skips each method and constructor body by its
braces alone, and keeps the body as an ``ast.Unparsed`` character range,
which ``parse_body`` lexes and parses when it is needed: every command
parses each body once, as the resolver binds it or an inventory lowers it.
Parsed so, a unit need not meet first the error that a whole parse meets
first, since the whole lexer takes a file at once and so reports a lexical
error anywhere in it before a syntax error. ``check_unit``, reached only
once a parse has failed, runs that whole parse to name its first error.

The parser does not distinguish static calls from instance calls on a field
chain; `a.b.c(x)` is parsed as a method call whose receiver is a name chain,
and the resolver decides whether the prefix names a type.
"""

from __future__ import annotations

from . import ast
from .errors import ParseError
from .lexer import Token, tokenize


MAX_NESTING = 100
"""Deepest level a node may sit at in a member body or field initializer, which
is level 1. A statement or expression is one level below the one enclosing it,
and an expression in parentheses one below the parentheses, so ``((x))`` takes
three levels. Operator and member-access chains count as the left-deep trees
the parser builds: in ``a + b + c``, read ``(a + b) + c``, ``a`` sits two levels
below the outer ``+``. Deeper input is a ParseError, so the recursive walks
over the tree (resolver, lowering, printer, interpreter) stay well inside
Python's stack."""

# Binary operator precedence, loosest first; every level is left-associative.
_PRECEDENCE = {"==": 1, "!=": 1, "<": 2, ">": 2, "+": 3, "-": 3, "*": 4, "/": 4}


class _Parser:
    def __init__(self, tokens, origin, source=""):
        self.tokens = tokens  # ends with EOF, so the token after any other exists
        self.origin = origin
        self.source = source  # the text of any BODY token's range
        self.i = 0
        self.depth = 0  # nesting depth of the node being parsed
        self.deepest = 0  # deepest expression node of the innermost open expression

    # --- token plumbing ---

    def peek(self) -> Token:
        return self.tokens[self.i]

    def at(self, kind) -> bool:
        return self.tokens[self.i].kind == kind

    def advance(self) -> Token:
        tok = self.tokens[self.i]
        if tok.kind != "EOF":
            self.i += 1
        return tok

    def expect(self, kind) -> Token:
        """Consume the current token, which must be of ``kind`` (never EOF)."""
        tok = self.tokens[self.i]
        if tok.kind != kind:
            self.fail("expected %s, found %r" % (kind, tok.value or "end of input"))
        self.i += 1
        return tok

    def fail(self, msg, tok=None):
        tok = tok or self.tokens[self.i]
        raise ParseError(msg, tok.line, tok.col, self.origin)

    def pos(self):
        return self.tokens[self.i][2:]  # (line, col)

    def nest(self, depth):
        """Fail unless a node at ``depth`` is within MAX_NESTING."""
        if depth > MAX_NESTING:
            self.fail("nesting deeper than %d levels" % MAX_NESTING)

    # --- declarations ---

    def unit(self) -> ast.SourceUnit:
        self.expect("package")
        pkg = ".".join(self.qname())
        self.expect(";")
        unit = ast.SourceUnit(origin=self.origin, package=pkg)
        while not self.at("EOF"):
            unit.decls.append(self.typedecl())
        seen = set()
        for d in unit.decls:
            if d.name in seen:
                raise ParseError("duplicate type %s in unit" % d.name, d.pos[0], d.pos[1], self.origin)
            seen.add(d.name)
        return unit

    def qname(self) -> tuple:
        tokens = self.tokens
        parts = [self.expect("ID").value]
        while tokens[self.i].kind == "." and tokens[self.i + 1].kind == "ID":
            parts.append(tokens[self.i + 1].value)
            self.i += 2
        return tuple(parts)

    def typedecl(self):
        if self.at("class"):
            return self.classdecl()
        if self.at("interface"):
            return self.interfacedecl()
        self.fail("expected class or interface")

    def classdecl(self) -> ast.ClassDecl:
        pos = self.pos()
        self.expect("class")
        name = self.expect("ID").value
        extends = None
        implements = []
        if self.at("extends"):
            self.advance()
            extends = ast.NamedType(self.qname())
        if self.at("implements"):
            self.advance()
            implements.append(ast.NamedType(self.qname()))
            while self.at(","):
                self.advance()
                implements.append(ast.NamedType(self.qname()))
        self.expect("{")
        decl = ast.ClassDecl(name, extends, implements, [], [], [], pos)
        while not self.at("}"):
            self.member(decl)
        self.expect("}")
        if not decl.ctors:  # the default constructor
            decl.ctors.append(ast.CtorDecl(name, [], ast.Block([], pos), pos, synthetic=True))
        return decl

    def interfacedecl(self) -> ast.InterfaceDecl:
        pos = self.pos()
        self.expect("interface")
        name = self.expect("ID").value
        self.expect("{")
        methods = []
        while not self.at("}"):
            mpos = self.pos()
            rettype = self.type_()
            mname = self.method_name(self.expect("ID"), name)
            params = self.params()
            self.expect(";")
            methods.append(ast.MethodDecl(False, rettype, mname, params, None, mpos))
        self.expect("}")
        return ast.InterfaceDecl(name, methods, pos)

    def member(self, decl: ast.ClassDecl):
        pos = self.pos()
        if self.at("static"):
            self.advance()
            rettype = self.type_()
            name = self.method_name(self.expect("ID"), decl.name)
            params = self.params()
            body = self.body()
            decl.methods.append(ast.MethodDecl(True, rettype, name, params, body, pos))
            return
        # constructor: class-name "("
        tok = self.peek()
        if tok.kind == "ID" and tok.value == decl.name and self.tokens[self.i + 1].kind == "(":
            name = self.advance().value
            params = self.params()
            body = self.body()
            decl.ctors.append(ast.CtorDecl(name, params, body, pos))
            return
        rettype = self.type_()
        tok = self.expect("ID")
        name = tok.value
        if self.at("("):
            self.method_name(tok, decl.name)
            params = self.params()
            body = self.body()
            decl.methods.append(ast.MethodDecl(False, rettype, name, params, body, pos))
        else:
            init = None
            if self.at("="):
                self.advance()
                init = self.expr()
            self.expect(";")
            decl.fields.append(ast.FieldDecl(rettype, name, init, pos))

    def body(self):
        """A member body: its Block, or for a BODY token, its Unparsed range."""
        tok = self.tokens[self.i]
        if tok.kind != "BODY":
            return self.block()
        self.i += 1
        return ast.Unparsed(self.source, *tok.value, tok[2:], self.origin)

    def method_name(self, tok: Token, type_name: str) -> str:
        """The name ``tok`` gives a method of ``type_name``, unless it is
        that type's name and so a constructor's."""
        if tok.value == type_name:
            self.fail("method %s has the name of its type" % tok.value, tok)
        return tok.value

    def params(self) -> list:
        self.expect("(")
        out = []
        if not self.at(")"):
            out.append(self.param())
            while self.at(","):
                self.advance()
                out.append(self.param())
        self.expect(")")
        return out

    def param(self) -> ast.Param:
        t = self.type_()
        name = self.expect("ID").value
        return ast.Param(t, name)

    def type_(self):
        tok = self.peek()
        if tok.kind in ast.PRIMITIVES:
            self.advance()
            return ast.PrimType(tok.kind)
        if tok.kind == "ID":
            return ast.NamedType(self.qname())
        self.fail("expected a type")

    # --- statements ---

    def block(self) -> ast.Block:
        depth = self.depth = self.depth + 1
        self.nest(depth)
        pos = self.pos()
        self.expect("{")
        stmts = []
        while not self.at("}"):
            stmts.append(self.stmt())
        self.expect("}")
        self.depth = depth - 1
        return ast.Block(stmts, pos)

    def stmt(self):
        kind = self.peek().kind
        if kind == "{":
            return self.block()
        depth = self.depth = self.depth + 1
        self.nest(depth)
        pos = self.pos()
        if kind == "if":
            self.advance()
            self.expect("(")
            cond = self.expr()
            self.expect(")")
            then = self.stmt()
            els = None
            if self.at("else"):
                self.advance()
                els = self.stmt()
            node = ast.If(cond, then, els, pos)
        elif kind == "while":
            self.advance()
            self.expect("(")
            cond = self.expr()
            self.expect(")")
            node = ast.While(cond, self.stmt(), pos)
        elif kind == "return":
            self.advance()
            value = None
            if not self.at(";"):
                value = self.expr()
            self.expect(";")
            node = ast.Return(value, pos)
        elif self.at_local_decl():
            t = self.type_()
            name = self.advance().value
            init = None
            if self.at("="):
                self.advance()
                init = self.expr()
            self.expect(";")
            node = ast.LocalDecl(t, name, init, pos)
        else:
            expr = self.expr()
            if self.at("="):
                if not isinstance(expr, (ast.Var, ast.FieldAccess)):
                    self.fail("assignment target must be a variable or field")
                self.advance()
                value = self.expr()
                self.expect(";")
                node = ast.Assign(expr, value, pos)
            else:
                self.expect(";")
                node = ast.ExprStmt(expr, pos)
        self.depth = depth - 1
        return node

    def at_local_decl(self) -> bool:
        """True when the tokens ahead read `type ID` followed by "=" or ";".

        No expression can start that way, so a statement that does is a local
        declaration or a syntax error in one.
        """
        tokens = self.tokens
        j = self.i
        kind = tokens[j].kind
        if kind == "ID":
            while tokens[j + 1].kind == "." and tokens[j + 2].kind == "ID":
                j += 2
        elif kind not in ("int", "boolean", "text"):
            return False
        return tokens[j + 1].kind == "ID" and tokens[j + 2].kind in ("=", ";")

    # --- expressions (precedence climbing) ---

    def expr(self, min_prec=1):
        """Parse operators of precedence >= min_prec into a left-deep tree.

        The expression's root sits one below the node being parsed. Each
        operator applied to ``left`` pushes every node of ``left`` one level
        down; ``self.deepest`` tracks the deepest of them for the bound.
        """
        depth = self.depth = self.depth + 1
        self.nest(depth)
        outer = self.deepest
        self.deepest = depth
        tokens = self.tokens
        left = self.postfix()
        while True:
            tok = tokens[self.i]
            prec = _PRECEDENCE.get(tok.kind)
            if prec is None or prec < min_prec:
                break
            self.deepest += 1
            self.nest(self.deepest)
            self.i += 1
            left = ast.Binary(tok.kind, left, self.expr(prec + 1), tok[2:])
        self.depth = depth - 1
        if self.deepest < outer:
            self.deepest = outer
        return left

    def postfix(self):
        tokens = self.tokens
        expr = self.primary()
        while tokens[self.i].kind == "." and tokens[self.i + 1].kind == "ID":
            self.deepest += 1
            self.nest(self.deepest)
            pos = self.pos()
            name = tokens[self.i + 1].value
            self.i += 2
            if self.at("("):
                args = self.args()
                if isinstance(expr, ast.Var) and expr.name == "Reflect" and name == "invoke":
                    if not args:
                        self.fail("Reflect.invoke requires a target argument")
                    expr = ast.ReflectInvoke(args, pos)
                else:
                    expr = ast.MethodCall(expr, name, args, pos)
            else:
                expr = ast.FieldAccess(expr, name, pos)
        return expr

    def primary(self):
        tok = self.peek()
        kind = tok.kind
        pos = tok[2:]
        if kind == "ID":
            self.i += 1
            return ast.Var(tok.value, pos)
        if kind == "INT":
            digits = tok.value.lstrip("0") or "0"
            # int() refuses more than 4,300 digits, far above the bound
            if len(digits) > len(str(ast.INT_MAX)) or int(digits) > ast.INT_MAX:
                self.fail("integer literal out of range")
            self.i += 1
            return ast.IntLit(int(digits), pos)
        if kind == "TEXT":
            self.i += 1
            return ast.TextLit(tok.value, pos)
        if kind in ("true", "false"):
            self.i += 1
            return ast.BoolLit(kind == "true", pos)
        if kind == "this":
            self.i += 1
            return ast.This(pos)
        if kind == "new":
            self.i += 1
            t = ast.NamedType(self.qname())
            args = self.args()
            return ast.New(t, args, pos)
        if kind == "(":
            self.i += 1
            inner = self.expr()
            self.expect(")")
            return inner
        self.fail("expected an expression, found %r" % (tok.value or "end of input"))

    def args(self) -> list:
        self.expect("(")
        out = []
        if not self.at(")"):
            out.append(self.expr())
            while self.at(","):
                self.advance()
                out.append(self.expr())
        self.expect(")")
        return out


def parse_unit(source: str, origin: str = "<source>") -> ast.SourceUnit:
    """Parse the declarations of one JX compilation unit, its member bodies
    left Unparsed (see the module doc); raises ParseError with line/column."""
    return _Parser(tokenize(source, origin, bodies=False), origin, source).unit()


def parse_body(body: ast.Unparsed) -> ast.Block:
    """The Block of a body that parse_unit left unparsed, lexed from its range
    with the positions of the whole unit."""
    tokens = tokenize(body.source[body.start:body.stop], body.origin, *body.pos)
    return _Parser(tokens, body.origin).block()


def check_unit(source: str, origin: str = "<source>"):
    """Raise the ParseError that a whole parse of the unit meets first, if
    it meets one: the file lexed whole, then parsed. The tree is dropped."""
    _Parser(tokenize(source, origin), origin).unit()

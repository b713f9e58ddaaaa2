"""Name resolution, class hierarchy, and call binding for a closed JX corpus.

One object, ResolvedProgram, does all three: it resolves the declarations
when built and binds each body when it is first asked for it.

Types are represented as strings: the four primitives or a class/interface
name as ast.type_text spells it. Method signatures are ``name(type,...)``
(ast.signature), also the member part of construct identifiers.

Binding a body decides, once, what each of its calls does and where it is:
every New, MethodCall and ReflectInvoke node gets one CallSite record as its
``call``, its site spelled ``origin:line``. The call graph and the interpreter
read these records, so a CHA edge and a traced call name a site alike.
"""

from __future__ import annotations

import sys
from typing import NamedTuple, Optional

from . import ast
from .parser import MAX_NESTING, parse_body

# what a call does: the three kinds of a call graph edge, or a reflective call
STATIC_DISPATCH = "STATIC_DISPATCH"
VIRTUAL_DISPATCH = "VIRTUAL_DISPATCH"
CONSTRUCTOR_CALL = "CONSTRUCTOR_CALL"
REFLECTION = "REFLECTION"
ERROR_TYPE = "?"  # poisons downstream checks without cascading diagnostics
# Python frames that parsing or binding one body may take: parsing takes the
# most, up to three per nesting level (an expression in parentheses)
_BODY_FRAMES = 4 * MAX_NESTING


class MethodInfo:
    """A method or a constructor; a constructor is not static and returns void."""

    __slots__ = ("owner", "sig", "static", "rettype", "param_types", "decl", "calls")

    def __init__(self, owner: str, sig: str, static: bool, rettype: str, param_types: list,
                 decl):
        self.owner = owner
        self.sig = sig
        self.static = static
        self.rettype = rettype
        self.param_types = param_types
        self.decl = decl  # ast.MethodDecl or ast.CtorDecl
        self.calls = []  # a CallSite per New/MethodCall/ReflectInvoke of the body


class TypeInfo:
    __slots__ = ("qname", "package", "is_interface", "decl", "unit", "supertypes",
                 "superclass", "fields", "methods", "ctors", "init_calls")

    def __init__(self, qname: str, package: str, is_interface: bool, decl,
                 unit: ast.SourceUnit):
        self.qname = qname
        self.package = package
        self.is_interface = is_interface
        self.decl = decl
        self.unit = unit
        self.supertypes = []    # direct, resolved, cycle-free qnames
        self.superclass = None  # the class among supertypes
        self.fields = {}        # name -> type
        self.methods = {}       # sig -> MethodInfo
        self.ctors = {}         # sig -> MethodInfo
        self.init_calls = []    # CallSites of field initializers


class CallSite(NamedTuple):
    """A call node of a bound body: its site, its kind and what it names. A
    static or virtual call names a type and a method signature, a
    constructor call a class and a constructor signature; a reflective
    call, and one a diagnostic left unbound (kind None), neither."""
    site: str  # "origin:line"
    kind: Optional[str]
    owner: Optional[str] = None
    sig: Optional[str] = None


class ResolvedProgram:
    """A resolved corpus, and the resolver that binds its bodies. Its tables:

    - ``symbols``: qname -> TypeInfo, whose ``supertypes`` are cycle-free and
      whose ``superclass`` records the hierarchy, and whose per-member
      ``calls`` and class ``init_calls`` list the CallSites of the bodies
      bound so far, in the order binding meets them: a call after the
      calls in its arguments; each is also the ``call`` of its node, an
      unbound call's too (kind None);
    - ``direct_subtypes``: qname -> the corpus types that name it among
      their ``supertypes``; ``subtypes_of`` closes it on demand and keeps
      the closure of each type it was asked about;
    - ``diagnostics`` and ``warnings``: error and non-fatal (shadowing) text.

    The constructor resolves the declarations (types, members, hierarchy)
    and binds no body. ``body`` parses (where the parser skipped it) and
    binds one member's body at its first request, ``bind_all`` every body
    not bound yet; the ``calls`` lists and ``diagnostics`` grow as they do,
    each member's once. A call node's record outlives its body: the call
    graph is built with each body dropped once bound (see bind_all) from
    the ``calls`` lists.
    """

    def __init__(self, units, precedence=None):
        # Deterministic processing order regardless of input enumeration.
        self.units = sorted(units, key=lambda u: (u.package, u.origin))
        self._precedence = precedence or {}
        self.symbols = {}
        self.diagnostics = []
        self.warnings = []
        self._calls = None  # the CallSite list of the body being bound
        self._bound = set()  # the members and classes (initializers) bound
        self._collect()
        self._build_members()
        self._check_acyclic()
        self._check_hidden_fields()
        # direct edges only: every transitive closure would cost k*k/2
        # entries on a k-class inheritance chain
        self.direct_subtypes = {q: [] for q in self.symbols}
        for q, info in self.symbols.items():
            for s in info.supertypes:
                self.direct_subtypes[s].append(q)
        self._subtypes = {}

    def body(self, m: MethodInfo) -> ast.Block:
        """The bound body of m, a method or constructor of a class; a
        constructor's construction is bound first."""
        if m not in self._bound:
            limit = sys.getrecursionlimit()
            # a body first entered deep in a run is parsed and bound on the
            # stack the run holds; the headroom keeps that from failing where
            # a parse and bind on a shallow stack would not
            sys.setrecursionlimit(limit + _BODY_FRAMES)
            try:
                if isinstance(m.decl, ast.CtorDecl):
                    self.construction(m)
                self._bind_member(m)
            finally:
                sys.setrecursionlimit(limit)
        return m.decl.body

    def construction(self, ctor: MethodInfo) -> list:
        """What constructing an object of ctor's class runs before ctor's
        body: the TypeInfos of the class chain, root class first, whose
        field defaults and then initializers it runs, each class's in turn.
        Their initializers are bound, each class's once."""
        chain = list(self.class_chain(ctor.owner))[::-1]
        for info in chain:
            self._bind_inits(info)
        return chain

    def bind_all(self, visit=None) -> "ResolvedProgram":
        """Bind every body not bound yet: classes in qname order, in each
        the field initializers, then the constructors, then the methods.

        With ``visit``, each body the parser skipped is parsed, bound,
        passed to ``visit(m)`` with its member, and set back to its range
        (ast.Unparsed), so one parsed body is alive at a time. Its calls stay
        listed; ``body`` must not be asked for it again. A command that
        builds the call graph from source releases them."""
        for qname in sorted(self.symbols):
            info = self.symbols[qname]
            if not info.is_interface:
                self._bind_inits(info)
                for m in (*info.ctors.values(), *info.methods.values()):
                    skipped = m.decl.body
                    self._bind_member(m)
                    if visit is not None and m.decl.body is not skipped:
                        visit(m)
                        m.decl.body = skipped
        return self

    # --- hierarchy queries ---

    def _ancestry(self, qname: str):
        """The TypeInfo of qname, then those of its transitive supertypes,
        breadth first and each once: a superclass before the interfaces."""
        order = [qname] if qname in self.symbols else []
        seen = set(order)
        for q in order:  # the loop reaches the types it appends
            info = self.symbols[q]
            yield info
            for s in info.supertypes:
                if s not in seen:
                    seen.add(s)
                    order.append(s)

    def is_subtype(self, sub: str, sup: str) -> bool:
        """Whether sub is sup or a corpus type with sup among its transitive
        supertypes."""
        return sub == sup or any(info.qname == sup for info in self._ancestry(sub))

    def subtypes_of(self, qname: str) -> frozenset:
        """All corpus types that are qname or a transitive subtype of it."""
        subs = self._subtypes.get(qname)
        if subs is None:
            found = {qname} if qname in self.symbols else set()
            work = list(found)
            while work:
                for s in self.direct_subtypes[work.pop()]:
                    if s not in found:
                        found.add(s)
                        work.append(s)
            subs = self._subtypes[qname] = frozenset(found)
        return subs

    def class_chain(self, qname: str):
        """The TypeInfo of qname, then those of its superclasses in order."""
        info = self.symbols.get(qname)
        while info is not None:
            yield info
            info = self.symbols.get(info.superclass)

    # --- member lookup ---

    def lookup_field(self, type_qname: str, name: str) -> Optional[str]:
        for info in self.class_chain(type_qname):
            if name in info.fields:
                return info.fields[name]
        return None

    def lookup_method(self, type_qname: str, sig: str) -> Optional[MethodInfo]:
        """Instance-method lookup along the class chain, then interfaces."""
        for info in self._ancestry(type_qname):
            m = info.methods.get(sig)
            if m is not None and not m.static:
                return m
        return None

    def resolve_impl(self, runtime_class: str, sig: str) -> Optional[MethodInfo]:
        """Dynamic-dispatch target: nearest class-chain implementation with a body."""
        for info in self.class_chain(runtime_class):
            m = info.methods.get(sig)
            if m is not None and not m.static and m.decl.body is not None:
                return m
        return None

    def err(self, msg, pos=None, unit=None):
        where = ""
        if unit is not None and pos is not None:
            where = "%s:%d:%d: " % (unit.origin, pos[0], pos[1])
        self.diagnostics.append(where + msg)

    # --- pass 1: symbol collection ---

    def _collect(self):
        for unit in self.units:
            for decl in unit.decls:
                qname = unit.package + "." + decl.name
                if qname in self.symbols:
                    other = self.symbols[qname]
                    mine = self._precedence.get(unit.origin, 0)
                    theirs = self._precedence.get(other.unit.origin, 0)
                    if mine == theirs:
                        self.err("duplicate qualified name %s (also in %s)"
                                 % (qname, other.unit.origin), decl.pos, unit)
                        continue
                    if mine < theirs:
                        self.warnings.append(
                            "type %s from %s shadows the declaration in %s"
                            % (qname, unit.origin, other.unit.origin))
                    else:
                        self.warnings.append(
                            "type %s from %s is shadowed by the declaration in %s"
                            % (qname, unit.origin, other.unit.origin))
                        continue
                self.symbols[qname] = TypeInfo(
                    qname=qname, package=unit.package,
                    is_interface=isinstance(decl, ast.InterfaceDecl),
                    decl=decl, unit=unit)

    def resolve_type_name(self, named: ast.NamedType, pkg: str) -> Optional[str]:
        """The corpus type named in package pkg (see ast.type_text), or None."""
        qname = ast.type_text(named, pkg)
        return qname if qname in self.symbols else None

    # --- pass 2: supertypes and members ---

    def _build_members(self):
        for info in self.symbols.values():
            decl, unknown = info.decl, []  # (member position, name) of unknown signature types
            if info.is_interface:
                for m in decl.methods:
                    self._add_method(info, m, unknown)
            else:
                supers = []
                if decl.extends is not None:
                    sup = self.resolve_type_name(decl.extends, info.package)
                    if sup is None:
                        self.err("unknown supertype %s" % decl.extends.text(), decl.pos, info.unit)
                    elif self.symbols[sup].is_interface:
                        self.err("class %s extends interface %s" % (info.qname, sup),
                                 decl.pos, info.unit)
                    else:
                        supers.append(sup)
                for iface in decl.implements:
                    it = self.resolve_type_name(iface, info.package)
                    if it is None:
                        self.err("unknown interface %s" % iface.text(), decl.pos, info.unit)
                    elif not self.symbols[it].is_interface:
                        self.err("class %s implements non-interface %s" % (info.qname, it),
                                 decl.pos, info.unit)
                    else:
                        supers.append(it)
                info.supertypes = supers
                for f in decl.fields:
                    if f.name in info.fields:
                        self.err("duplicate field %s" % f.name, f.pos, info.unit)
                    info.fields[f.name] = self._type(f.type, info, f.pos, unknown)
                for m in decl.methods:
                    self._add_method(info, m, unknown)
                for c in decl.ctors:
                    ptypes = [self._type(p.type, info, c.pos, unknown) for p in c.params]
                    sig = ast.signature(c.name, ptypes)
                    if sig in info.ctors:
                        self.err("duplicate constructor %s" % sig, c.pos, info.unit)
                    info.ctors[sig] = MethodInfo(info.qname, sig, False, "void", ptypes, c)
            for pos, name in sorted(unknown, key=lambda u: u[0]):  # in source order
                self.err("unknown type %s" % name, pos, info.unit)

    def _add_method(self, info: TypeInfo, m: ast.MethodDecl, unknown: list):
        rettype = self._type(m.rettype, info, m.pos, unknown)
        ptypes = [self._type(p.type, info, m.pos, unknown) for p in m.params]
        sig = ast.signature(m.name, ptypes)
        if sig in info.methods:
            self.err("duplicate method %s in %s" % (sig, info.qname), m.pos, info.unit)
        info.methods[sig] = MethodInfo(info.qname, sig, m.static, rettype, ptypes, m)

    def _type(self, t, info: TypeInfo, pos, unknown: list) -> str:
        """Type t as info's package spells it; if unknown, it joins ``unknown``."""
        text = ast.type_text(t, info.package)
        if isinstance(t, ast.NamedType) and text not in self.symbols:
            unknown.append((pos, t.text()))
        return text

    def _check_acyclic(self):
        """Report and drop every supertype edge that closes an inheritance
        cycle, then set superclasses. One depth-first walk over the types in
        qname order: an edge to a type still on the walk's path closes a
        cycle."""
        on_path = {}  # qname -> True while on the walk's path, False when done
        for root in sorted(self.symbols):
            if root in on_path:
                continue
            on_path[root] = True
            path = [(root, iter(self.symbols[root].supertypes), [])]  # with kept edges
            while path:
                q, supers, kept = path[-1]
                s = next(supers, None)
                if s is None:
                    path.pop()
                    self.symbols[q].supertypes = kept
                    on_path[q] = False
                elif on_path.get(s):
                    names = [p[0] for p in path]
                    cycle = names[names.index(s):] + [s]
                    self.err("inheritance cycle: %s" % " -> ".join(cycle))
                else:
                    kept.append(s)
                    if s not in on_path:
                        on_path[s] = True
                        path.append((s, iter(self.symbols[s].supertypes), []))
        for info in self.symbols.values():
            info.superclass = next((s for s in info.supertypes
                                    if not self.symbols[s].is_interface), None)

    def _check_hidden_fields(self):
        """Report each field named like a field of a superclass: an object
        keys its fields by name alone, so the two would share one slot."""
        for info in self.symbols.values():
            if info.superclass is None:
                continue
            for f in info.decl.fields:
                hidden = next((s for s in self.class_chain(info.superclass)
                               if f.name in s.fields), None)
                if hidden is not None:
                    self.err("field %s of %s hides field %s of %s"
                             % (f.name, info.qname, f.name, hidden.qname), f.pos, info.unit)

    # --- body binding, on request ---

    def _bind_member(self, m: MethodInfo):
        """Bind the body of m, parsing it first if the parser skipped it,
        unless it is bound. A body that fails to parse stays unbound."""
        if m in self._bound:
            return
        info, decl = self.symbols[m.owner], m.decl
        if isinstance(decl.body, ast.Unparsed):
            decl.body = parse_body(decl.body)
        self._calls = m.calls
        env = {} if m.static else {"this": info.qname}
        for p, t in zip(decl.params, m.param_types):
            env[p.name] = t
        self.bind_block(decl.body, env, info, m.rettype)
        self._bound.add(m)

    def _bind_inits(self, info: TypeInfo):
        """Bind the field initializers of the class info, unless they are."""
        if info in self._bound:
            return
        self._bound.add(info)
        self._calls = info.init_calls
        for f in info.decl.fields:
            if f.init is not None:
                self.bind_expr(f.init, {"this": info.qname}, info)

    def assignable(self, target: str, value: str) -> bool:
        if ERROR_TYPE in (target, value):
            return True
        if target == value:
            return True
        if target in self.symbols and value in self.symbols:
            return self.is_subtype(value, target)
        return False

    def bind_block(self, block, env, info, rettype):
        scope = dict(env)
        for s in block.stmts:
            self.bind_stmt(s, scope, info, rettype)

    def bind_stmt(self, s, env, info, rettype):
        unit = info.unit
        if isinstance(s, ast.Block):
            self.bind_block(s, env, info, rettype)
        elif isinstance(s, ast.LocalDecl):
            t = ast.type_text(s.type, info.package)
            if isinstance(s.type, ast.NamedType) and t not in self.symbols:
                self.err("unknown type %s" % s.type.text(), s.pos, unit)
                t = ERROR_TYPE
            if s.init is not None:
                vt = self.bind_expr(s.init, env, info)
                if not self.assignable(t, vt):
                    self.err("cannot initialize %s %s with %s" % (t, s.name, vt), s.pos, unit)
            env[s.name] = t
        elif isinstance(s, ast.Assign):
            tt = self.bind_expr(s.target, env, info)
            vt = self.bind_expr(s.value, env, info)
            if not self.assignable(tt, vt):
                self.err("cannot assign %s to %s" % (vt, tt), s.pos, unit)
        elif isinstance(s, ast.ExprStmt):
            self.bind_expr(s.expr, env, info)
        elif isinstance(s, ast.If):
            ct = self.bind_expr(s.cond, env, info)
            if ct not in ("boolean", ERROR_TYPE):
                self.err("if condition must be boolean, got %s" % ct, s.pos, unit)
            self.bind_stmt(s.then, dict(env), info, rettype)
            if s.els is not None:
                self.bind_stmt(s.els, dict(env), info, rettype)
        elif isinstance(s, ast.While):
            ct = self.bind_expr(s.cond, env, info)
            if ct not in ("boolean", ERROR_TYPE):
                self.err("while condition must be boolean, got %s" % ct, s.pos, unit)
            self.bind_stmt(s.body, dict(env), info, rettype)
        elif isinstance(s, ast.Return):
            if s.value is None:
                if rettype not in ("void", ERROR_TYPE):
                    self.err("missing return value (expected %s)" % rettype, s.pos, unit)
            else:
                vt = self.bind_expr(s.value, env, info)
                if rettype == "void":
                    self.err("void member returns a value", s.pos, unit)
                elif not self.assignable(rettype, vt):
                    self.err("return type mismatch: %s vs %s" % (vt, rettype), s.pos, unit)

    def _type_name(self, e, env, info) -> Optional[ast.NamedType]:
        """A Var/FieldAccess chain read as a type name, or None: a simple
        name is a variable before it is a type (JLS 6.5.2), so a chain
        whose head is a local, a parameter or a field of this is a value."""
        parts = []
        while isinstance(e, ast.FieldAccess):
            parts.append(e.name)
            e = e.obj
        if (not isinstance(e, ast.Var) or e.name in env
                or ("this" in env and self.lookup_field(info.qname, e.name) is not None)):
            return None
        parts.append(e.name)
        return ast.NamedType(tuple(reversed(parts)))

    def bind_expr(self, e, env, info) -> str:
        unit = info.unit
        if isinstance(e, ast.IntLit):
            return "int"
        if isinstance(e, ast.TextLit):
            return "text"
        if isinstance(e, ast.BoolLit):
            return "boolean"
        if isinstance(e, ast.This):
            if "this" not in env:
                self.err("this used in a static context", e.pos, unit)
                return ERROR_TYPE
            return env["this"]
        if isinstance(e, ast.Var):
            if e.name in env:
                return env[e.name]
            ft = self.lookup_field(info.qname, e.name)
            if ft is not None and "this" in env:
                return ft
            self.err("unknown name %s" % e.name, e.pos, unit)
            return ERROR_TYPE
        if isinstance(e, ast.FieldAccess):
            named = self._type_name(e, env, info)
            tq = named and self.resolve_type_name(named, info.package)
            if tq is not None:
                self.err("type %s used as a value" % tq, e.pos, unit)
                return ERROR_TYPE
            ot = self.bind_expr(e.obj, env, info)
            if ot == ERROR_TYPE:
                return ERROR_TYPE
            if ot not in self.symbols:
                self.err("type %s has no fields" % ot, e.pos, unit)
                return ERROR_TYPE
            ft = self.lookup_field(ot, e.name)
            if ft is None:
                self.err("unknown field %s.%s" % (ot, e.name), e.pos, unit)
                return ERROR_TYPE
            return ft
        if isinstance(e, ast.New):
            tq = self.resolve_type_name(e.type, info.package)
            if tq is None:
                self.err("unknown type %s" % e.type.text(), e.pos, unit)
            elif self.symbols[tq].is_interface:
                self.err("cannot instantiate interface %s" % tq, e.pos, unit)
                tq = None
            argts = [self.bind_expr(a, env, info) for a in e.args]
            if tq is None or ERROR_TYPE in argts:
                self._call(e, unit, None)
                return tq or ERROR_TYPE
            sig = ast.signature(self.symbols[tq].decl.name, argts)
            if sig in self.symbols[tq].ctors:
                self._call(e, unit, CONSTRUCTOR_CALL, tq, sig)
            else:
                self.err("no constructor %s in %s" % (sig, tq), e.pos, unit)
                self._call(e, unit, None)
            return tq
        if isinstance(e, ast.ReflectInvoke):
            argts = [self.bind_expr(a, env, info) for a in e.args]
            self._call(e, unit, REFLECTION)
            if argts[0] not in ("text", ERROR_TYPE):
                self.err("Reflect.invoke target must be text", e.pos, unit)
            return "void"
        if isinstance(e, ast.Binary):
            lt = self.bind_expr(e.left, env, info)
            rt = self.bind_expr(e.right, env, info)
            if e.op in ("+", "-", "*", "/", "<", ">"):
                if not {lt, rt} <= {"int", ERROR_TYPE}:
                    self.err("operator %s requires int operands" % e.op, e.pos, unit)
                return "boolean" if e.op in ("<", ">") else "int"
            if ERROR_TYPE not in (lt, rt) and lt != rt:
                self.err("operator %s requires equal types, got %s and %s"
                         % (e.op, lt, rt), e.pos, unit)
            return "boolean"
        if isinstance(e, ast.MethodCall):
            t, *binding = self._bind_call(e, env, info)
            self._call(e, unit, *binding)
            return t
        raise TypeError("unknown expression node: %r" % (e,))

    def _call(self, e, unit, *binding):
        """Bind call node e, its arguments bound, to a CallSite of its kind,
        owner and signature (``binding``), and list it in the body's calls."""
        e.call = CallSite("%s:%d" % (unit.origin, e.pos[0]), *binding)
        self._calls.append(e.call)

    def _bind_call(self, e: ast.MethodCall, env, info) -> tuple:
        """The type of e, and the kind, owner and signature it is bound to
        unless a diagnostic leaves it unbound (kind None)."""
        unit = info.unit
        named = self._type_name(e.recv, env, info)
        as_type = named and self.resolve_type_name(named, info.package)
        if named is not None and as_type is None:
            self.err("unknown name %s" % named.text(), e.pos, unit)
            for a in e.args:
                self.bind_expr(a, env, info)
            return ERROR_TYPE, None
        argts = [self.bind_expr(a, env, info) for a in e.args]
        if ERROR_TYPE in argts:
            if as_type is None:  # a receiver that is not a type may hold calls
                self.bind_expr(e.recv, env, info)
            return ERROR_TYPE, None
        sig = ast.signature(e.name, argts)
        if as_type is not None:
            tinfo = self.symbols[as_type]
            m = tinfo.methods.get(sig)
            if m is None or not m.static:
                self.err("no static method %s in %s" % (sig, as_type), e.pos, unit)
                return ERROR_TYPE, None
            return m.rettype, STATIC_DISPATCH, as_type, sig
        rt = self.bind_expr(e.recv, env, info)
        if rt == ERROR_TYPE:
            return ERROR_TYPE, None
        if rt not in self.symbols:
            self.err("type %s has no methods" % rt, e.pos, unit)
            return ERROR_TYPE, None
        m = self.lookup_method(rt, sig)
        if m is None:
            self.err("no method %s in %s" % (sig, rt), e.pos, unit)
            return ERROR_TYPE, None
        return m.rettype, VIRTUAL_DISPATCH, rt, sig


def resolve(units, precedence=None) -> ResolvedProgram:
    """Resolve the declarations of a closed set of units into one program:
    types, members and the class hierarchy. It binds no body: the program
    does when asked (see ResolvedProgram).

    precedence: optional map origin -> depth (0 = application) used to pick a
    winner for duplicate qualified names across archives; ties are errors.
    """
    return ResolvedProgram(list(units), precedence)

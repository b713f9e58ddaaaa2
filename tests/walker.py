"""Tree-walking JX interpreter, kept as an oracle for the closure compiler.

``Walker`` is an ``Interpreter`` whose ``_call`` walks the member's syntax
tree on every step, dispatching each node through an ``isinstance`` chain
and binding locals in a chain of dictionaries. It enters, traces and
resolves reflective targets through the shared ``Interpreter`` routines, so
it should give the same value, error, step count and events as the compiled
form on any program, except where it exhausts Python's stack first: it takes
more Python frames per JX call.
"""

from __future__ import annotations

from vulnvet.constructs import CONSTRUCTOR, METHOD, member_id
from vulnvet.interp import DivisionByZero, IntegerOverflow, Interpreter, Obj, RuntimeTypeError
from vulnvet.jx import ast
from vulnvet.jx.resolver import CONSTRUCTOR_CALL, STATIC_DISPATCH, VIRTUAL_DISPATCH

_DEFAULTS = {"int": 0, "boolean": False, "text": ""}
_MISSING = object()


class _Return(Exception):
    def __init__(self, value):
        self.value = value


class _Env:
    """Lexical scope chain; assignment writes to the declaring frame."""

    __slots__ = ("vars", "parent")

    def __init__(self, parent=None, initial=None):
        self.vars = dict(initial or {})
        self.parent = parent

    def get(self, name):
        env = self
        while env is not None:
            if name in env.vars:
                return env.vars[name]
            env = env.parent
        return _MISSING

    def set(self, name, value) -> bool:
        env = self
        while env is not None:
            if name in env.vars:
                env.vars[name] = value
                return True
            env = env.parent
        return False

    def declare(self, name, value):
        self.vars[name] = value


class Walker(Interpreter):
    def _tick(self):
        next(self.clock)

    # --- invocation ---

    def _entry(self, member):  # run_entry's only: a static method
        return lambda args, this, caller, site: self._call(METHOD, member, args, this,
                                                           caller, site)

    def _call(self, ctype, member, args, this, caller, site):
        cid = member_id(ctype, member.owner, member.sig)
        self._enter(cid, caller, site)
        body = self.program.body(member)  # binds a constructor's initializers too
        if ctype == CONSTRUCTOR:
            for tinfo in reversed(list(self.program.class_chain(member.owner))):
                for f in tinfo.decl.fields:
                    this.fields[f.name] = _DEFAULTS.get(tinfo.fields[f.name], None)
                for f in tinfo.decl.fields:
                    if f.init is not None:
                        this.fields[f.name] = self._eval(f.init, _Env(), this, cid,
                                                         tinfo.unit.origin)
        env = _Env(initial={p.name: v for p, v in zip(member.decl.params, args)})
        value = self._run_body(body, env, this, cid,
                               self.program.symbols[member.owner].unit.origin)
        self.depth -= 1
        return value

    def _run_body(self, block, env, this, current_cid, origin):
        try:
            self._exec_block(block, env, this, current_cid, origin)
        except _Return as r:
            return r.value
        return None

    # --- statements ---

    def _exec_block(self, block, env, this, cid, origin):
        scope = _Env(parent=env)
        for s in block.stmts:
            self._exec(s, scope, this, cid, origin)

    def _exec(self, s, env, this, cid, origin):
        self._tick()
        if isinstance(s, ast.Block):
            self._exec_block(s, env, this, cid, origin)
        elif isinstance(s, ast.LocalDecl):
            if s.init is not None:
                env.declare(s.name, self._eval(s.init, env, this, cid, origin))
            else:
                env.declare(s.name, _DEFAULTS.get(s.type.text(), None))
        elif isinstance(s, ast.Assign):
            value = self._eval(s.value, env, this, cid, origin)
            if isinstance(s.target, ast.Var):
                if env.set(s.target.name, value):
                    pass
                elif this is not None and s.target.name in this.fields:
                    this.fields[s.target.name] = value
                else:
                    raise RuntimeTypeError("unbound assignment target %s" % s.target.name)
            else:  # field access
                obj = self._eval(s.target.obj, env, this, cid, origin)
                if not isinstance(obj, Obj):
                    raise RuntimeTypeError("field assignment on a non-object")
                obj.fields[s.target.name] = value
        elif isinstance(s, ast.ExprStmt):
            self._eval(s.expr, env, this, cid, origin)
        elif isinstance(s, ast.If):
            if self._truth(self._eval(s.cond, env, this, cid, origin)):
                self._exec(s.then, _Env(parent=env), this, cid, origin)
            elif s.els is not None:
                self._exec(s.els, _Env(parent=env), this, cid, origin)
        elif isinstance(s, ast.While):
            while self._truth(self._eval(s.cond, env, this, cid, origin)):
                self._exec(s.body, _Env(parent=env), this, cid, origin)
        elif isinstance(s, ast.Return):
            value = None
            if s.value is not None:
                value = self._eval(s.value, env, this, cid, origin)
            raise _Return(value)
        else:
            raise RuntimeTypeError("unknown statement %r" % (s,))

    def _truth(self, value):
        if not isinstance(value, bool):
            raise RuntimeTypeError("condition did not evaluate to boolean")
        return value

    # --- expressions ---

    def _eval(self, e, env, this, cid, origin):
        self._tick()
        if isinstance(e, ast.IntLit):
            return e.value
        if isinstance(e, ast.TextLit):
            return e.value
        if isinstance(e, ast.BoolLit):
            return e.value
        if isinstance(e, ast.This):
            return this
        if isinstance(e, ast.Var):
            value = env.get(e.name)
            if value is not _MISSING:
                return value
            if this is not None and e.name in this.fields:
                return this.fields[e.name]
            raise RuntimeTypeError("unbound name %s" % e.name)
        if isinstance(e, ast.FieldAccess):
            obj = self._eval(e.obj, env, this, cid, origin)
            if not isinstance(obj, Obj):
                raise RuntimeTypeError("field access on a non-object")
            if e.name not in obj.fields:
                raise RuntimeTypeError("object of %s has no field %s" % (obj.cls, e.name))
            return obj.fields[e.name]
        if isinstance(e, ast.Binary):
            left = self._eval(e.left, env, this, cid, origin)
            right = self._eval(e.right, env, this, cid, origin)
            return self._binary(e.op, left, right)
        site = "%s:%d" % (origin, e.pos[0])
        if isinstance(e, ast.New):
            binding = e.call
            if binding.kind != CONSTRUCTOR_CALL:
                raise RuntimeTypeError("unresolved constructor call at %s" % site)
            args = [self._eval(a, env, this, cid, origin) for a in e.args]
            obj = Obj(binding.owner)
            self._call(CONSTRUCTOR, self.program.symbols[binding.owner].ctors[binding.sig],
                       args, obj, cid, site)
            return obj
        if isinstance(e, ast.ReflectInvoke):
            args = [self._eval(a, env, this, cid, origin) for a in e.args]
            target = args[0]
            if not isinstance(target, str):
                raise RuntimeTypeError("Reflect.invoke target must be text")
            return self._call(METHOD, self._resolve_reflect(target, len(args) - 1),
                              args[1:], None, cid, site)
        if isinstance(e, ast.MethodCall):
            binding = e.call
            if binding.kind == STATIC_DISPATCH:
                args = [self._eval(a, env, this, cid, origin) for a in e.args]
                return self._call(METHOD, self.program.symbols[binding.owner].methods[binding.sig],
                                  args, None, cid, site)
            if binding.kind == VIRTUAL_DISPATCH:
                recv = self._eval(e.recv, env, this, cid, origin)
                if not isinstance(recv, Obj):
                    raise RuntimeTypeError("instance call on a non-object")
                args = [self._eval(a, env, this, cid, origin) for a in e.args]
                impl = self.program.resolve_impl(recv.cls, binding.sig)
                if impl is None:
                    raise RuntimeTypeError("no implementation of %s for %s"
                                           % (binding.sig, recv.cls))
                return self._call(METHOD, impl, args, recv, cid, site)
            raise RuntimeTypeError("unresolved call at %s" % site)
        raise RuntimeTypeError("unknown expression %r" % (e,))

    def _binary(self, op, left, right):
        if op in ("+", "-", "*", "/", "<", ">"):
            if isinstance(left, bool) or isinstance(right, bool) \
                    or not isinstance(left, int) or not isinstance(right, int):
                raise RuntimeTypeError("operator %s requires int operands" % op)
            if op == "<":
                return left < right
            if op == ">":
                return left > right
            if op == "+":
                value = left + right
            elif op == "-":
                value = left - right
            elif op == "*":
                value = left * right
            else:
                if right == 0:
                    raise DivisionByZero("division by zero")
                q = abs(left) // abs(right)  # truncate toward zero
                value = q if (left < 0) == (right < 0) else -q
            if not ast.INT_MIN <= value <= ast.INT_MAX:  # ints are signed 64-bit
                raise IntegerOverflow("%d %s %d is outside signed 64-bit" % (left, op, right))
            return value
        if op == "==":
            return self._same(left, right)
        if op == "!=":
            return not self._same(left, right)
        raise RuntimeTypeError("unknown operator %s" % op)

    def _same(self, left, right):
        if isinstance(left, Obj) or isinstance(right, Obj):
            return left is right
        return left == right

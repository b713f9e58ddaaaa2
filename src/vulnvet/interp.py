"""Tree-walking interpreter for JX with construct-level execution tracing.

Every method/constructor entry appends a trace event, so a run's TraceLog is
the dynamic analog of bytecode instrumentation. Reflect.invoke resolves its
target by fully-qualified construct name at run time; the resulting call is
traced like any other, which is what gives the combined analysis its extra
edges.
"""

from __future__ import annotations

from typing import Optional

from .constructs import CONSTRUCTOR, METHOD, ConstructId, member_id, split_member
from .errors import NoTestsMatched
from .jx import ast
from .jx.resolver import CtorCall, ResolvedProgram, StaticCall, VirtualCall
from .traces import TraceEvent, TraceLog, normalize

STEP_BUDGET = 1_000_000  # statements and expressions evaluated per run
# JX calls active at once. Each one holds five Python frames and up to three
# more per block its call site is nested in. Up to two such blocks, the
# budget is spent well within Python's default limit of 1,000 frames, under a
# test runner or a tracer's wrappers too; deeper nesting exhausts the stack
# first, which run_entry reports as the same failure.
CALL_DEPTH_BUDGET = 64


class JxRuntimeError(Exception):
    pass


class RuntimeTypeError(JxRuntimeError):
    pass


class DivisionByZero(JxRuntimeError):
    pass


class UnknownReflectTarget(JxRuntimeError):
    pass


class StepBudgetExceeded(JxRuntimeError):
    pass


class CallDepthExceeded(JxRuntimeError):
    pass


class Obj:
    __slots__ = ("cls", "fields")

    def __init__(self, cls: str):
        self.cls = cls
        self.fields = {}


class _Return(Exception):
    def __init__(self, value):
        self.value = value


_DEFAULTS = {"int": 0, "boolean": False, "text": ""}


class RunResult:
    __slots__ = ("value", "error", "log")

    def __init__(self, value, error: Optional[str], log: TraceLog):
        self.value = value
        self.error = error
        self.log = log


_MISSING = object()


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


def static_method(program: ResolvedProgram, qname: str):
    """The MethodInfo of the static method qname names, or None."""
    owner, sig = split_member(qname)
    info = program.symbols.get(owner)
    m = info.methods.get(sig) if info else None
    return m if m is not None and m.static else None


class Interpreter:
    def __init__(self, program: ResolvedProgram):
        self.program = program
        self.steps = 0
        self.depth = 0
        self.ts = 0
        self.events = []
        self.test_name = ""

    # --- tracing ---

    def _enter(self, callee: ConstructId, caller: Optional[ConstructId],
               site: Optional[str]):
        """Count one more active call and trace its entry; the caller
        decrements ``depth`` when the call returns."""
        self.depth += 1
        if self.depth > CALL_DEPTH_BUDGET:
            raise CallDepthExceeded("call depth of %d exceeded" % CALL_DEPTH_BUDGET)
        self.ts += 1
        self.events.append(TraceEvent(callee, caller, site, self.ts, self.test_name))

    def _tick(self):
        self.steps += 1
        if self.steps > STEP_BUDGET:
            raise StepBudgetExceeded("step budget of %d exceeded" % STEP_BUDGET)

    # --- entry points ---

    def run_entry(self, entry: ConstructId, args=None, test_name: str = "") -> RunResult:
        """Execute a static method as program entry; always returns the
        (possibly partial) trace log, whose events are in ``ts`` order under
        one test name, as ``normalize`` would leave them."""
        m = static_method(self.program, entry.qname)
        if m is None:
            raise RuntimeTypeError("no static method %s" % entry.qname)
        call_args = list(args or [])
        if len(call_args) != len(m.param_types):
            raise RuntimeTypeError("entry %s expects %d argument(s)"
                                   % (entry.qname, len(m.param_types)))
        self.test_name = test_name
        self.depth = 0
        error = None
        value = None
        try:
            value = self._call(METHOD, m, call_args, None, None, None)
        except JxRuntimeError as exc:
            error = "%s: %s" % (type(exc).__name__, exc)
        except RecursionError:
            # blocks nested deeply enough exhaust Python's stack before the
            # call depth budget
            error = ("CallDepthExceeded: Python stack exhausted at call depth %d"
                     % self.depth)
        return RunResult(value, error, TraceLog(self.events))

    # --- invocation ---

    def _call(self, ctype, member, args, this, caller, site):
        """Enter a method or constructor (a MethodInfo or CtorInfo), bind its
        parameters, run its body and leave. A constructor first sets the
        fields of ``this``, supertypes' first, to their defaults and then to
        their initializers."""
        cid = member_id(ctype, member.owner, member.sig)
        self._enter(cid, caller, site)
        if ctype == CONSTRUCTOR:
            for tinfo in reversed(list(self.program.class_chain(member.owner))):
                for f in tinfo.decl.fields:
                    this.fields[f.name] = _DEFAULTS.get(tinfo.fields[f.name], None)
                for f in tinfo.decl.fields:
                    if f.init is not None:
                        this.fields[f.name] = self._eval(f.init, _Env(), this, cid,
                                                         tinfo.unit.origin)
        env = _Env(initial={p.name: v for p, v in zip(member.decl.params, args)})
        value = self._run_body(member.decl.body, env, this, cid,
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
            binding = self.program.bindings.get(id(e))
            if not isinstance(binding, CtorCall):
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
            binding = self.program.bindings.get(id(e))
            if isinstance(binding, StaticCall):
                args = [self._eval(a, env, this, cid, origin) for a in e.args]
                return self._call(METHOD, self.program.symbols[binding.owner].methods[binding.sig],
                                  args, None, cid, site)
            if isinstance(binding, VirtualCall):
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
            if op == "+":
                return left + right
            if op == "-":
                return left - right
            if op == "*":
                return left * right
            if op == "/":
                if right == 0:
                    raise DivisionByZero("division by zero")
                q = abs(left) // abs(right)  # truncate toward zero
                return q if (left < 0) == (right < 0) else -q
            return left < right if op == "<" else left > right
        if op == "==":
            return self._same(left, right)
        if op == "!=":
            return not self._same(left, right)
        raise RuntimeTypeError("unknown operator %s" % op)

    def _same(self, left, right):
        if isinstance(left, Obj) or isinstance(right, Obj):
            return left is right
        return left == right

    def _resolve_reflect(self, target: str, nargs: int):
        """Resolve a reflective target name to a static method's MethodInfo.

        Accepts the full construct name with parameter list, or a dotted name
        disambiguated by argument count."""
        if "(" in target:
            m = static_method(self.program, target)
            if m is None:
                raise UnknownReflectTarget(target)
            return m
        owner, name = target.rsplit(".", 1) if "." in target else (None, target)
        if owner is None or owner not in self.program.symbols:
            raise UnknownReflectTarget(target)
        candidates = [m for m in self.program.symbols[owner].methods.values()
                      if m.static and m.decl.name == name and len(m.param_types) == nargs]
        if len(candidates) != 1:
            raise UnknownReflectTarget("%s (%d candidate(s))" % (target, len(candidates)))
        return candidates[0]


def run_entry(program: ResolvedProgram, entry: ConstructId, args=None,
              test_name: str = "") -> RunResult:
    return Interpreter(program).run_entry(entry, args, test_name)


def find_tests(bom, program: ResolvedProgram, pattern: str) -> list:
    """Zero-argument static application methods whose simple name starts with
    the pattern, in qname order."""
    out = []
    for cid in sorted(bom.application.constructs):
        if cid.ctype != METHOD or not cid.qname.endswith("()"):
            continue
        m = static_method(program, cid.qname)
        if m is not None and m.decl.name.startswith(pattern):
            out.append(cid)
    return out


def run_tests(bom, program: ResolvedProgram, pattern: str) -> tuple:
    """Run each matching test in isolation on a fresh heap; failing tests keep
    their partial traces. Returns (TraceLog, {test qname: error}).

    The log holds every test's events ordered by (test, ts) with ``ts``
    renumbered from 1, as ``TraceLog.merge`` leaves it. Test names are
    unique within a run, so the events are normalised once; the tests run in
    name order, so that one sort meets ordered input and takes linear time."""
    tests = find_tests(bom, program, pattern)
    if not tests:
        raise NoTestsMatched("no static test method matches pattern %r" % pattern)
    events = []
    failures = {}
    for cid in tests:
        result = Interpreter(program).run_entry(cid, [], cid.qname)
        events.extend(result.log.events)
        if result.error is not None:
            failures[cid.qname] = result.error
    return normalize(TraceLog(events)), failures

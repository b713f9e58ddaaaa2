"""JX interpreter with construct-level execution tracing.

Every method/constructor entry appends a trace event, so a run's TraceLog is
the dynamic analog of bytecode instrumentation. Reflect.invoke resolves its
target by fully-qualified construct name at run time; the resulting call is
traced like any other, which is what gives the combined analysis its extra
edges.

Each member body is compiled at its first entry into Python closures, one
per statement and expression (Feeley & Lapalme, "Using closures for code
generation", 1987). It reads the body through ``ResolvedProgram.body``,
which parses (where the parser skipped it) and binds the body then.
Call targets, literals, operators, field initializers and the frame slots of
locals are fixed then. Virtual dispatch, reflective targets and every check
of a value's type stay at run time, because ``trace run`` also runs programs
with resolver diagnostics. Each closure counts one step, so ``STEP_BUDGET``
stops a run at the node where a walk of the tree would stop.

Ints are signed 64-bit: an arithmetic result outside that range raises
IntegerOverflow, so no run can grow a number without bound.
"""

from __future__ import annotations

import operator
from typing import Optional

from .constructs import CONSTRUCTOR, METHOD, ConstructId, member_id, split_member
from .errors import NoTestsMatched
from .jx import ast
from .jx.ast import INT_MAX, INT_MIN
from .jx.resolver import (CONSTRUCTOR_CALL, REFLECTION, STATIC_DISPATCH, VIRTUAL_DISPATCH,
                          ResolvedProgram)
from .traces import TraceEvent, TraceLog, normalize

STEP_BUDGET = 1_000_000  # statements and expressions evaluated per run
# JX calls active at once. Each holds four Python frames (its call's closure,
# the member's entry and body, the statement making the next call), one more
# per expression or argument list around that call, and two per block the
# statement sits in (the if or while, and the block). Up to three such
# blocks, the budget is spent well within Python's default limit of 1,000
# frames, under a test runner or a tracer's wrappers too; deeper nesting
# exhausts the stack first, which run_entry reports as the same failure.
CALL_DEPTH_BUDGET = 64


class JxRuntimeError(Exception):
    pass


class RuntimeTypeError(JxRuntimeError):
    pass


class DivisionByZero(JxRuntimeError):
    pass


class UnknownReflectTarget(JxRuntimeError):
    pass


class CallDepthExceeded(JxRuntimeError):
    pass


class IntegerOverflow(JxRuntimeError):
    pass


class Obj:
    __slots__ = ("cls", "fields")

    def __init__(self, cls: str):
        self.cls = cls
        self.fields = {}


_DEFAULTS = {"int": 0, "boolean": False, "text": ""}


class RunResult:
    __slots__ = ("value", "error", "log")

    def __init__(self, value, error: Optional[str], log: TraceLog):
        self.value = value
        self.error = error
        self.log = log


def static_method(program: ResolvedProgram, qname: str):
    """The MethodInfo of the static method qname names, or None."""
    owner, sig = split_member(qname)
    info = program.symbols.get(owner)
    m = info.methods.get(sig) if info else None
    return m if m is not None and m.static else None


def _divide(left, right):
    if right == 0:
        raise DivisionByZero("division by zero")
    q = abs(left) // abs(right)  # truncate toward zero
    return q if (left < 0) == (right < 0) else -q


_INT_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": _divide,
            "<": operator.lt, ">": operator.gt}
_ARITHMETIC = ("+", "-", "*", "/")


class Interpreter:
    """Runs entries of one program; compiled members serve every run."""

    def __init__(self, program: ResolvedProgram):
        self.program = program
        self.steps = self.depth = self.ts = 0
        self.clock = iter(())  # one item per step the run may still take
        self.events = []
        self.test_name = ""
        self._entries = {}  # MethodInfo -> its entry closure

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

    # --- entry points ---

    def run_entry(self, entry: ConstructId, args=None, test_name: str = "") -> RunResult:
        """Execute a static method as program entry; always returns the
        (possibly partial) trace log, whose events are in ``ts`` order under
        one test name, as ``normalize`` would leave them. Afterwards
        ``steps`` and the log cover this run only."""
        m = static_method(self.program, entry.qname)
        if m is None:
            raise RuntimeTypeError("no static method %s" % entry.qname)
        call_args = list(args or [])
        if len(call_args) != len(m.param_types):
            raise RuntimeTypeError("entry %s expects %d argument(s)"
                                   % (entry.qname, len(m.param_types)))
        self.clock = iter(range(STEP_BUDGET))
        self.depth = self.ts = over = 0
        self.events = []
        self.test_name = test_name
        error = value = None
        try:
            value = self._entry(m)(call_args, None, None, None)
        except JxRuntimeError as exc:
            error = "%s: %s" % (type(exc).__name__, exc)
        except StopIteration:  # the clock ran out: STEP_BUDGET + 1 steps were taken
            over, error = 1, "StepBudgetExceeded: step budget of %d exceeded" % STEP_BUDGET
        except RecursionError:
            # blocks nested deeply enough exhaust Python's stack before the
            # call depth budget
            error = ("CallDepthExceeded: Python stack exhausted at call depth %d"
                     % self.depth)
        self.steps = STEP_BUDGET - operator.length_hint(self.clock) + over
        return RunResult(value, error, TraceLog(self.events))

    # --- invocation ---

    def _entry(self, member):
        """The closure of (args, this, caller, site) that enters member, a
        MethodInfo, compiling its body the first time. A failed
        call leaves ``depth`` as it was at the failure, for run_entry."""
        entry = self._entries.get(member)
        if entry is None:
            ctype = CONSTRUCTOR if isinstance(member.decl, ast.CtorDecl) else METHOD
            cid, body = member_id(ctype, member.owner, member.sig), None

            def entry(args, this, caller, site):
                nonlocal body
                self._enter(cid, caller, site)
                if body is None:
                    body = self._compile(member, cid)
                value = body(this, args)
                self.depth -= 1
                return value
            self._entries[member] = entry
        return entry

    def _compile(self, member, cid):
        """member's body as a closure of (this, args). A constructor's sets the
        fields of each class of its construction to defaults, then initializers."""
        block = self.program.body(member)
        chain = []
        if cid.ctype == CONSTRUCTOR:
            for tinfo in self.program.construction(member):
                fields, init = tinfo.decl.fields, _Compiler(self, cid)
                chain.append(({f.name: _DEFAULTS.get(tinfo.fields[f.name]) for f in fields},
                              [(f.name, init.expr(f.init, {}))
                               for f in fields if f.init is not None]))
        params = member.decl.params
        comp = _Compiler(self, cid, len(params) + 1)
        stmts = comp.block(block.stmts, {p.name: i for i, p in enumerate(params, 1)})
        pad = (None,) * (comp.slots - len(params) - 1)

        def body(this, args):
            for defaults, inits in chain:
                this.fields.update(defaults)
                for name, init in inits:
                    this.fields[name] = init([this])
            frame = [this, *args, *pad]
            for step in stmts:
                r = step(frame)
                if r is not None:
                    return r[0]
            return None
        return body

    def _resolve_reflect(self, target: str, nargs: int):
        """Resolve a reflective target name to a static method's MethodInfo.

        Accepts the full construct name with parameter list, whose arity must
        match, or a dotted name disambiguated by argument count."""
        if "(" in target:
            m = static_method(self.program, target)
            if m is None:
                raise UnknownReflectTarget(target)
            if len(m.param_types) != nargs:
                raise RuntimeTypeError("Reflect.invoke target %s expects %d argument(s), got %d"
                                       % (target, len(m.param_types), nargs))
            return m
        owner, name = target.rsplit(".", 1) if "." in target else (None, target)
        if owner is None or owner not in self.program.symbols:
            raise UnknownReflectTarget(target)
        candidates = [m for m in self.program.symbols[owner].methods.values()
                      if m.static and m.decl.name == name and len(m.param_types) == nargs]
        if len(candidates) != 1:
            raise UnknownReflectTarget("%s (%d candidate(s))" % (target, len(candidates)))
        return candidates[0]


class _Compiler:
    """Compiles one member body, or one class's field initializers, to
    closures of a frame: a list of ``this``, the parameters and each local
    declared. ``scope`` maps the local names in scope to slots (JX scoping
    is lexical). A statement returns None to fall through, or a 1-tuple of
    the value of the ``return`` it ran. Each closure first takes a step from
    the clock, which raises StopIteration when it runs out, so none may run
    inside ``map``, a generator or the like, which would end quietly."""

    def __init__(self, vm: Interpreter, cid: ConstructId, slots: int = 1):
        self.vm, self.cid, self.slots = vm, cid, slots

    def block(self, stmts, scope) -> list:
        scope = dict(scope)
        return [self.stmt(s, scope) for s in stmts]

    def fail(self, msg: str):
        vm = self.vm
        def run(frame):
            next(vm.clock)
            raise RuntimeTypeError(msg)
        return run

    def store(self, slot: int, value):
        vm = self.vm
        def run(frame):
            next(vm.clock)
            frame[slot] = value(frame)
        return run

    def stmt(self, s, scope):
        vm = self.vm
        if isinstance(s, ast.Block):
            stmts = self.block(s.stmts, scope)
            def run(frame):
                next(vm.clock)
                for step in stmts:
                    r = step(frame)
                    if r is not None:
                        return r
        elif isinstance(s, ast.LocalDecl):
            value = _DEFAULTS.get(s.type.text())
            run = self.store(self.slots, self.expr(s.init, scope) if s.init is not None
                             else lambda frame: value)
            scope[s.name] = self.slots
            self.slots += 1
        elif isinstance(s, ast.Assign):
            value, name = self.expr(s.value, scope), s.target.name
            if isinstance(s.target, ast.Var) and name in scope:
                return self.store(scope[name], value)
            if isinstance(s.target, ast.Var):  # a field of this
                def run(frame):
                    next(vm.clock)
                    v, this = value(frame), frame[0]
                    if this is None or name not in this.fields:
                        raise RuntimeTypeError("unbound assignment target %s" % name)
                    this.fields[name] = v
            else:  # a field access
                obj = self.expr(s.target.obj, scope)
                def run(frame):
                    next(vm.clock)
                    v, o = value(frame), obj(frame)
                    if not isinstance(o, Obj):
                        raise RuntimeTypeError("field assignment on a non-object")
                    o.fields[name] = v
        elif isinstance(s, ast.ExprStmt):
            expr = self.expr(s.expr, scope)
            def run(frame):
                next(vm.clock)
                expr(frame)
        elif isinstance(s, ast.If):
            cond, then = self.expr(s.cond, scope), self.stmt(s.then, dict(scope))
            els = self.stmt(s.els, dict(scope)) if s.els is not None else lambda frame: None
            def run(frame):
                next(vm.clock)
                c = cond(frame)
                if c is not True and c is not False:
                    raise RuntimeTypeError("condition did not evaluate to boolean")
                return then(frame) if c else els(frame)
        elif isinstance(s, ast.While):
            cond, body = self.expr(s.cond, scope), self.stmt(s.body, dict(scope))
            def run(frame):
                next(vm.clock)
                while (c := cond(frame)) is True:
                    r = body(frame)
                    if r is not None:
                        return r
                if c is not False:
                    raise RuntimeTypeError("condition did not evaluate to boolean")
        elif isinstance(s, ast.Return):
            value = self.expr(s.value, scope) if s.value is not None else lambda frame: None
            def run(frame):
                next(vm.clock)
                return (value(frame),)
        else:
            return self.fail("unknown statement %r" % (s,))
        return run

    def expr(self, e, scope):
        vm = self.vm
        if isinstance(e, (ast.IntLit, ast.TextLit, ast.BoolLit)):
            value = e.value
            def run(frame):
                next(vm.clock)
                return value
        elif isinstance(e, ast.This) or isinstance(e, ast.Var) and e.name in scope:
            slot = scope[e.name] if isinstance(e, ast.Var) else 0
            def run(frame):
                next(vm.clock)
                return frame[slot]
        elif isinstance(e, ast.Var):
            name = e.name
            def run(frame):
                next(vm.clock)
                this = frame[0]
                if this is None or name not in this.fields:
                    raise RuntimeTypeError("unbound name %s" % name)
                return this.fields[name]
        elif isinstance(e, ast.FieldAccess):
            obj, name = self.expr(e.obj, scope), e.name
            def run(frame):
                next(vm.clock)
                o = obj(frame)
                if not isinstance(o, Obj):
                    raise RuntimeTypeError("field access on a non-object")
                if name not in o.fields:
                    raise RuntimeTypeError("object of %s has no field %s" % (o.cls, name))
                return o.fields[name]
        elif isinstance(e, ast.Binary):
            return self.binary(e.op, self.expr(e.left, scope), self.expr(e.right, scope))
        else:  # a call: the resolver refuses any other kind of node
            return self.call(e, [self.expr(a, scope) for a in e.args], scope)
        return run

    def binary(self, op: str, left, right):
        vm, fn, negate = self.vm, _INT_OPS.get(op), op == "!="
        msg = "operator %s requires int operands" % op
        if op in _ARITHMETIC:
            def run(frame):
                next(vm.clock)
                a, b = left(frame), right(frame)
                if type(a) is not int or type(b) is not int:
                    raise RuntimeTypeError(msg)
                if INT_MIN <= (r := fn(a, b)) <= INT_MAX:
                    return r
                raise IntegerOverflow("%d %s %d is outside signed 64-bit" % (a, op, b))
        elif fn is not None:
            def run(frame):
                next(vm.clock)
                a, b = left(frame), right(frame)
                if type(a) is not int or type(b) is not int:
                    raise RuntimeTypeError(msg)
                return fn(a, b)
        else:  # == or !=: the parser builds no other operator
            def run(frame):
                next(vm.clock)
                a, b = left(frame), right(frame)
                if isinstance(a, Obj) or isinstance(b, Obj):
                    return (a is b) is not negate
                return (a == b) is not negate
        return run

    def call(self, e, args: list, scope):
        vm, cid, program = self.vm, self.cid, self.vm.program
        call = e.call
        site, kind = call.site, call.kind
        if kind == REFLECTION:
            def run(frame):
                next(vm.clock)
                values = [a(frame) for a in args]
                if not isinstance(values[0], str):
                    raise RuntimeTypeError("Reflect.invoke target must be text")
                target = vm._resolve_reflect(values[0], len(values) - 1)
                return vm._entry(target)(values[1:], None, cid, site)
        elif kind == CONSTRUCTOR_CALL:
            owner = call.owner
            enter = vm._entry(program.symbols[owner].ctors[call.sig])
            def run(frame):
                next(vm.clock)
                values = [a(frame) for a in args]
                obj = Obj(owner)
                enter(values, obj, cid, site)
                return obj
        elif kind == STATIC_DISPATCH:
            enter = vm._entry(program.symbols[call.owner].methods[call.sig])
            def run(frame):
                next(vm.clock)
                return enter([a(frame) for a in args], None, cid, site)
        elif kind == VIRTUAL_DISPATCH:
            recv, sig = self.expr(e.recv, scope), call.sig
            def run(frame):
                next(vm.clock)
                obj = recv(frame)
                if not isinstance(obj, Obj):
                    raise RuntimeTypeError("instance call on a non-object")
                values = [a(frame) for a in args]
                impl = program.resolve_impl(obj.cls, sig)
                if impl is None:
                    raise RuntimeTypeError("no implementation of %s for %s" % (sig, obj.cls))
                return vm._entry(impl)(values, obj, cid, site)
        elif isinstance(e, ast.New):
            return self.fail("unresolved constructor call at %s" % site)
        else:
            return self.fail("unresolved call at %s" % site)
        return run


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

    The tests share one Interpreter, so each member is compiled once. The
    log holds every test's events ordered by (test, ts) with ``ts``
    renumbered from 1, as ``TraceLog.merge`` leaves it. Test names are
    unique within a run, so the events are normalised once; the tests run in
    name order, so that one sort meets ordered input and takes linear time."""
    tests = find_tests(bom, program, pattern)
    if not tests:
        raise NoTestsMatched("no static test method matches pattern %r" % pattern)
    events = []
    failures = {}
    interpreter = Interpreter(program)
    for cid in tests:
        result = interpreter.run_entry(cid, [], cid.qname)
        events.extend(result.log.events)
        if result.error is not None:
            failures[cid.qname] = result.error
    return normalize(TraceLog(events)), failures

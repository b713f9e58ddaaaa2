"""The compiled interpreter against the tree-walking oracle in walker.py, and
traced edges against the CHA call graph, on generated and hand-built
programs."""

import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (deep_bodies, jx_class_chains, parse_whole, reference_call_graph,
                     small_workload, whole_sources)
from vulnvet import interp
from vulnvet.bom import Sources, build_bom, corpus_program
from vulnvet.callgraph import build_call_graph
from vulnvet.combined import dynamic_edges
from vulnvet.constructs import METHOD, ConstructId
from vulnvet.interp import Interpreter, Obj, find_tests, run_tests
from vulnvet.jx.parser import MAX_NESTING, parse_unit
from vulnvet.jx.resolver import resolve
from vulnvet.traces import TraceLog
from walker import Walker


def _plain(value):
    return ("object", value.cls) if isinstance(value, Obj) else value


def _agree(program, entries):
    """Run each (qname, args) with the walker and the compiled form, each
    interpreter serving all runs as in run_tests, and compare value, error,
    steps and events. Where the walker exhausts Python's stack, which it
    does at a smaller call depth, the compiled form must fail on the call
    depth too, after the same events. Returns the compiled runs' events."""
    walker, compiled = Walker(program), Interpreter(program)
    events = []
    for qname, args in entries:
        cid = ConstructId(METHOD, qname)
        w = walker.run_entry(cid, args, qname)
        c = compiled.run_entry(cid, args, qname)
        if w.error is not None and "Python stack exhausted" in w.error:
            assert c.error.startswith("CallDepthExceeded"), (qname, c.error)
            assert c.log.events[:len(w.log.events)] == w.log.events, qname
        else:
            assert ((_plain(c.value), c.error, compiled.steps, c.log.events)
                    == (_plain(w.value), w.error, walker.steps, w.log.events)), qname
        events.extend(c.log.events)
    return events


# --- generated workspaces ---

_SIZES = st.fixed_dictionaries({
    "libs": st.integers(2, 3), "classes": st.integers(1, 2), "methods": st.integers(1, 3),
    "stmts": st.integers(1, 8), "fanout": st.integers(1, 2), "tests": st.integers(2, 3),
    "loop": st.tuples(st.integers(1, 3), st.integers(0, 2)).map(lambda t: (t[0], t[0] + t[1])),
})
_WORKLOADS = st.tuples(st.sampled_from(["corpus", "kb-drift", "trace-heavy"]),
                       st.integers(0, 2 ** 16), _SIZES)


def _generated(workload, bodies=True):
    """The BOM and program of a drawn workspace, parsed whole; with bodies
    False, the program parses each body when it is first entered."""
    name, seed, sizes = workload
    with tempfile.TemporaryDirectory() as tmp:
        ws = small_workload(Path(tmp), name, seed, **sizes)
        src = whole_sources(ws) if bodies else Sources(ws / "app.json", ws)
        return build_bom(src), corpus_program(src)


def _int_entries(program, seed):
    """Every static method that takes only ints, with arguments from seed:
    the tests reach few of the generated bodies, these run all of them."""
    return [("%s.%s" % (q, sig), [seed % 7 + i for i in range(len(m.param_types))])
            for q, info in sorted(program.symbols.items())
            for sig, m in sorted(info.methods.items())
            if m.static and all(t == "int" for t in m.param_types)]


@pytest.mark.parametrize("bodies", [True, False])
@settings(max_examples=15, deadline=None)
@given(workload=_WORKLOADS)
def test_compiled_runs_agree_with_the_walker_on_generated_workspaces(bodies, workload):
    bom, program = _generated(workload, bodies)
    tests = [cid.qname for cid in find_tests(bom, program, "test")]
    assert tests
    _agree(program, [(q, []) for q in tests] + _int_entries(program, workload[1]))


@settings(max_examples=15, deadline=None)
@given(_WORKLOADS)
def test_traced_edges_of_generated_workspaces_are_explained_by_the_cha_graph(workload):
    # as test_combined's test of that name, on drawn workspaces and on runs of
    # every static int method besides the tests
    bom, program = _generated(workload)
    graph = build_call_graph(program)
    observed = dynamic_edges(TraceLog(run_tests(bom, program, "test")[0].events
                                      + _agree(program, _int_entries(program, workload[1]))))
    static = {(e.caller, e.callee) for e in graph.edges}
    reflective = {caller for caller, _site, why in graph.unresolved if why == "reflection"}
    assert observed
    assert [e for e in observed
            if (e.caller, e.callee) not in static and e.caller not in reflective] == []


# --- generated class chains ---

def _chains(units, bodies=True):
    return resolve([(parse_whole if bodies else parse_unit)(source, origin)
                    for origin, source in units])


@settings(max_examples=40, deadline=None)
@given(jx_class_chains(), st.booleans())
def test_generated_class_chains_run_alike_and_trace_only_cha_edges(units, bodies):
    # the compiled form agrees with the walker, each traced call with a caller
    # is a CHA edge at its site, and the CHA graph is the reference walk's
    assume(not _chains(units).bind_all().diagnostics)
    program = _chains(units, bodies)
    events = _agree(program, [("c.T.testAll()", [])])
    graph = build_call_graph(program)
    assert graph == reference_call_graph(program)
    static = {(e.caller, e.callee, e.site) for e in graph.edges}
    called = [e for e in events if e.caller is not None]
    assert called and [e for e in called if (e.caller, e.callee, e.site) not in static] == []


# --- hand-built programs, resolved with whatever diagnostics they have ---

def _unclean(src, bodies=True):
    return resolve([(parse_whole if bodies else parse_unit)(src, "u.jx")])


def _methods(body, decls="", bodies=True):
    return _unclean("package p; %s class M { static int go() { %s } }" % (decls, body), bodies)


_BODIES = [
    # reflection: unknown, ambiguous and ill-typed targets, and arity mismatches
    'Reflect.invoke("p.Gone.x"); return 0;',
    'Reflect.invoke("nodot()"); return 0;',
    'Reflect.invoke("p.T.f", 1); return 0;',
    'Reflect.invoke("p.T.f(int)", 1, 2); return 0;',
    'Reflect.invoke("p.T.g(int)"); return 0;',
    'Reflect.invoke(1); return 0;',
    'Reflect.invoke("p.T.g(int)", 2); Reflect.invoke("p.T.g", 3); return 1;',
    # arithmetic and run-time type checks
    "return 7 / (3 - 3);",
    "int a = 0 - 7; return a / 2 + 7 / (0 - 2) * 3;",
    "int x = true; return x + 1;",
    'return "a" < 1;',
    "if (1) { return 1; } return 0;",
    "int i = 0; while (i) { } return 0;",
    "return (1 == true) == (2 != 2);",
    'if ("a" == "a") { return 1; } return 0;',
    # names: unbound, declared later, shadowed, out of scope
    "return y;",
    "y = 1; return 0;",
    "int x = 1; { int x = x + 1; x = x * 10; } return x;",
    "int x = 1; int y = x; int x = 5; return x + y;",
    "int i = 0; int s = 0; while (i < 3) { s = s + i; int s = 100; i = i + 1; } return s;",
    "{ int z = 1; } return z;",
    "if (true) int z = 1; return z;",
    "int i = 0; while (i < 3) { if (i == 2) { return i * 100; } i = i + 1; } return 0;",
    # objects: fields, initializers, dispatch, null fields
    "p.B b = new p.B(4); return b.get() + b.k;",
    "p.A a = new p.B(1); return a.get();",
    "p.H h = new p.H(); return h.ref.get();",
    "p.H h = new p.H(); return h.ref.k;",
    "p.H h = new p.H(); h.ref.k = 1; return 0;",
    "p.H h = new p.H(); if (h.ref == h.ref) { return 1; } return 0;",
    "p.A a = new p.A(2); p.A b = a; if (a == b) { return a.k; } return 0;",
    "p.A a = new p.A(2); return a.nosuch;",
    "p.A a = new p.Nope(); return 0;",
    "return p.T.nope(1);",
    "p.H h = new p.H(); return h.missing();",
    "p.I i = new p.C(); return i.m();",
    "return p.T.fact(10) + p.T.g(3);",
]
_DECLS = """
class T {
    static int f(int n) { return 1; }
    static int f(text s) { return 2; }
    static int g(int x) { return x + 1; }
    static int fact(int n) { if (n < 2) { return 1; } return n * p.T.fact(n - 1); }
}
class A {
    int k = p.T.g(1);
    int seen = k * 2;
    A(int v) { k = k + v; }
    int get() { int k = 100; return k + this.k + seen; }
}
class B extends A {
    int j = 7;
    B(int v) { this.j = v; }
    int get() { j = j + 1; return j * 1000 + this.k; }
}
class H { p.A ref; }
interface I { int m(); }
class C implements I { }
"""


@pytest.mark.parametrize("bodies", [True, False])
@pytest.mark.parametrize("body", _BODIES)
def test_compiled_runs_agree_with_the_walker_on_hand_built_bodies(body, bodies):
    _agree(_methods(body, _DECLS, bodies), [("p.M.go()", [])])


def test_compiled_runs_agree_with_the_walker_on_a_small_step_budget(monkeypatch):
    monkeypatch.setattr(interp, "STEP_BUDGET", 500)
    program = _unclean("""
package p;
class M {
    static int spin(int n) { while (true) { n = n + p.M.one(n); } return n; }
    static int one(int n) { return 1; }
    static int go() { return p.M.spin(0); }
    static int fits() { int i = 0; while (i < 40) { i = i + 1; } return i; }
}
""")
    _agree(program, [("p.M.go()", []), ("p.M.fits()", []), ("p.M.go()", [])])
    compiled = Interpreter(program)
    assert compiled.run_entry(ConstructId(METHOD, "p.M.go()")).error \
        == "StepBudgetExceeded: step budget of 500 exceeded"
    assert compiled.steps == 501


@pytest.mark.parametrize("nesting", [0, 1, 3, 4, 6, 12])
def test_compiled_runs_agree_with_the_walker_on_deep_recursion(nesting):
    call = "r = p.M.down(n - 1);"
    for _ in range(nesting):
        call = "if (n > 0) { %s }" % call
    program = _unclean("""
package p;
class M {
    static int down(int n) { int r = 0; %s return r; }
    static int go() { return p.M.down(300); }
    static int near() { return p.M.down(40); }
}
""" % call)
    _agree(program, [("p.M.go()", []), ("p.M.near()", [])])


def test_compiled_runs_agree_with_the_walker_at_the_nesting_bound():
    bodies = deep_bodies(MAX_NESTING)
    methods = "".join("    int %s() { %s }\n" % item for item in sorted(bodies.items()))
    calls = " ".join("x.%s();" % name for name in sorted(bodies))
    program = _unclean(
        "package p;\nclass A {\n    A a;\n    int v;\n    A() { this.a = this; this.v = 1; }\n"
        "    static int f(int n) { return n; }\n%s"
        "    static void go() { p.A x = new p.A(); %s }\n}\n" % (methods, calls))
    assert not program.bind_all().diagnostics
    _agree(program, [("p.A.go()", [])])


@pytest.mark.parametrize("depth", [40, 50, 58])
@pytest.mark.parametrize("shape", sorted(deep_bodies(MAX_NESTING)))
def test_a_body_at_the_nesting_bound_first_entered_deep_in_a_run_runs_as_if_eager(shape, depth):
    # parsing a body takes up to three Python frames per nesting level,
    # compiling it fewer: m() is parsed and bound on the stack that a descent
    # of depth calls holds, each made from inside two blocks and three calls
    src = """
package p;
class A {
    A a;
    int v;
    A() { this.a = this; this.v = 1; }
    static int f(int n) { return n; }
    int m() { %s }
    static int down(int n) {
        if (n > 0) { { return p.A.f(p.A.f(p.A.f(p.A.down(n - 1)))); } }
        p.A x = new p.A();
        return x.m();
    }
    static int go() { return p.A.down(%d); }
}
""" % (deep_bodies(MAX_NESTING)[shape], depth)
    eager, lazy = Interpreter(_unclean(src).bind_all()), Interpreter(_unclean(src, False))
    entry = ConstructId(METHOD, "p.A.go()")
    ran, again = eager.run_entry(entry), lazy.run_entry(entry)
    assert ((_plain(again.value), again.error, lazy.steps, again.log.events)
            == (_plain(ran.value), ran.error, eager.steps, ran.log.events))

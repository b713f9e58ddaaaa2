"""Tracing interpreter semantics."""

import pytest

from vulnvet.bom import APPLICATION, Archive, BOM
from vulnvet.constructs import METHOD, ConstructId, extract_constructs
from vulnvet.errors import NoTestsMatched
from vulnvet import interp, traces
from vulnvet.interp import CALL_DEPTH_BUDGET, Interpreter, find_tests, run_tests
from vulnvet.jx.parser import parse_unit
from vulnvet.jx.resolver import resolve


def _program(src):
    program = resolve([parse_unit(src, "u.jx")])
    assert program.bind_all().diagnostics == []
    return program


def _run(src, entry, args=None):
    return Interpreter(_program(src)).run_entry(ConstructId(METHOD, entry), args or [])


def _eval(body, decls="") -> object:
    src = "package p; %s class M { static int go() { %s } }" % (decls, body)
    result = _run(src, "p.M.go()")
    assert result.error is None, result.error
    return result.value


def test_arithmetic_and_comparison():
    assert _eval("return 2 + 3 * 4;") == 14
    assert _eval("return (2 + 3) * 4;") == 20
    assert _eval("return 7 - 10;") == -3


def test_division_truncates_toward_zero():
    assert _eval("return 7 / 2;") == 3
    assert _eval("return 0 - 7 / 2;") == -3
    assert _eval("return (0 - 7) / 2;") == -3


def test_division_by_zero():
    src = "package p; class M { static int go() { return 1 / 0; } }"
    result = _run(src, "p.M.go()")
    assert result.error.startswith("DivisionByZero")


def test_doubling_stops_at_the_64_bit_bound():
    src = """
package p;
class M {
    static int go() {
        int x = 1;
        int n = 0;
        while (true) { x = x * 2; n = n + 1; }
        return n;
    }
}
"""
    result = _run(src, "p.M.go()")
    assert result.error == ("IntegerOverflow: 4611686018427387904 * 2 is outside "
                            "signed 64-bit")


@pytest.mark.parametrize("expr, error", [
    ("9223372036854775807 + 1", "9223372036854775807 + 1"),
    ("0 - 9223372036854775807 - 2", "-9223372036854775807 - 2"),
    ("(0 - 9223372036854775807 - 1) / (0 - 1)", "-9223372036854775808 / -1"),
])
def test_arithmetic_outside_64_bits_overflows(expr, error):
    result = _run("package p; class M { static int go() { return %s; } }" % expr, "p.M.go()")
    assert result.error == "IntegerOverflow: %s is outside signed 64-bit" % error


def test_the_64_bit_extremes_are_ints():
    assert _eval("return 0 - 9223372036854775807 - 1;") == -2 ** 63
    assert _eval("return 9223372036854775806 + 1;") == 2 ** 63 - 1
    assert _eval("return 3037000499 * 3037000499;") == 3037000499 ** 2


def test_while_loop_mutates_outer_scope():
    assert _eval("""
        int i;
        int acc;
        i = 0;
        acc = 0;
        while (i < 5) {
            acc = acc + i;
            i = i + 1;
        }
        return acc;
    """) == 10


def test_objects_fields_and_virtual_dispatch():
    src = """
package p;
class Base {
    int v;
    Base() { this.v = 1; }
    int get() { return this.v; }
}
class Derived extends Base {
    Derived() { this.v = 2; }
    int get() { return this.v * 10; }
}
class M {
    static int go() {
        Base b;
        b = new Derived();
        return b.get();
    }
}
"""
    result = _run(src, "p.M.go()")
    assert result.value == 20


def test_field_initializers_run_before_ctor_body():
    src = """
package p;
class A {
    int v = 5;
    A() { this.v = this.v + 1; }
    int get() { return this.v; }
}
class M { static int go() { return new A().get(); } }
"""
    assert _run(src, "p.M.go()").value == 6


def test_reflect_invoke_by_dotted_name():
    src = """
package p;
class T { static int hit(int n) { return n + 100; } }
class M { static void go() { Reflect.invoke("p.T.hit", 1); } }
"""
    result = _run(src, "p.M.go()")
    assert result.error is None
    assert "p.T.hit(int)" in [e.callee.qname for e in result.log.events]


def test_reflect_invoke_by_full_signature():
    src = """
package p;
class T {
    static int f(int n) { return 1; }
    static int f(text s) { return 2; }
}
class M { static void go() { Reflect.invoke("p.T.f(text)", "x"); } }
"""
    result = _run(src, "p.M.go()")
    assert result.error is None
    callees = [e.callee.qname for e in result.log.events]
    assert "p.T.f(text)" in callees and "p.T.f(int)" not in callees


def test_reflect_unknown_target():
    for target in ("p.Gone.x", "nodot()"):
        src = 'package p; class M { static void go() { Reflect.invoke("%s"); } }' % target
        result = _run(src, "p.M.go()")
        assert result.error.startswith("UnknownReflectTarget"), target


def test_reflect_invoke_by_full_signature_refuses_an_arity_mismatch():
    # before the target is entered, so no event is traced for it
    src = """
package p;
class T {
    static int f(int n) { return 1; }
    static int g(int x) { return x + 1; }
}
class M {
    static void tooMany() { Reflect.invoke("p.T.f(int)", 1, 2); }
    static void tooFew() { Reflect.invoke("p.T.g(int)"); }
}
"""
    for entry, target, got in (("tooMany", "p.T.f(int)", 2), ("tooFew", "p.T.g(int)", 0)):
        result = _run(src, "p.M.%s()" % entry)
        assert result.error == ("RuntimeTypeError: Reflect.invoke target %s expects "
                                "1 argument(s), got %d" % (target, got))
        assert [e.callee.qname for e in result.log.events] == ["p.M.%s()" % entry]


def test_reflect_invoke_by_dotted_name_filters_by_argument_count():
    src = """
package p;
class T { static int f(int n) { return 1; } }
class M { static void go() { Reflect.invoke("p.T.f", 1, 2); } }
"""
    result = _run(src, "p.M.go()")
    assert result.error == "UnknownReflectTarget: p.T.f (0 candidate(s))"
    assert [e.callee.qname for e in result.log.events] == ["p.M.go()"]


def test_step_budget_stops_infinite_loop(monkeypatch):
    monkeypatch.setattr(interp, "STEP_BUDGET", 500)
    result = _run("package p; class M { static void go() { while (true) { } } }", "p.M.go()")
    assert result.error == "StepBudgetExceeded: step budget of 500 exceeded"


def _descend(nesting: int) -> str:
    """A program whose go() recurses 300 calls deep, each call made from
    inside ``nesting`` nested if blocks."""
    call = "r = p.M.down(n - 1);"
    for _ in range(nesting):
        call = "if (n > 0) { %s }" % call
    return """
package p;
class M {
    static int down(int n) { int r = 0; %s return r; }
    static int go() { return p.M.down(300); }
}
""" % call


def test_call_depth_budget_stops_deep_recursion():
    result = _run(_descend(1), "p.M.go()")
    assert result.error.startswith("CallDepthExceeded")
    # the partial trace holds every call that started: go() and 63 down()s
    assert len(result.log.events) == CALL_DEPTH_BUDGET


def test_deeply_nested_recursion_fails_without_a_recursion_error():
    # twelve nested blocks per call exhaust Python's stack before the budget
    result = _run(_descend(12), "p.M.go()")
    assert result.error.startswith("CallDepthExceeded")
    assert 0 < len(result.log.events) < CALL_DEPTH_BUDGET


def test_trace_records_caller_and_site():
    src = """
package p;
class T { static int hit() { return 1; } }
class M { static int go() { return p.T.hit(); } }
"""
    result = _run(src, "p.M.go()")
    events = result.log.events
    assert [e.callee.qname for e in events] == ["p.M.go()", "p.T.hit()"]
    hit = events[1]
    assert hit.caller.qname == "p.M.go()"
    assert hit.site == "u.jx:4"


def test_failed_run_keeps_partial_trace():
    src = """
package p;
class T { static int boom() { return 1 / 0; } }
class M { static int go() { return p.T.boom(); } }
"""
    result = _run(src, "p.M.go()")
    assert result.error.startswith("DivisionByZero")
    assert [e.callee.qname for e in result.log.events] == [
        "p.M.go()", "p.T.boom()"]


def _bom_for(src):
    unit = parse_unit(src, "app.jx")
    program = resolve([unit])
    assert program.bind_all().diagnostics == []
    app = Archive("a", "1.0", APPLICATION, extract_constructs([unit]))
    return BOM(app, []), program


def test_find_and_run_tests():
    src = """
package p;
class M {
    static void testOne() { p.M.helper(); }
    static void testTwo() { }
    static int helper() { return 1; }
    static void other() { }
}
"""
    bom, program = _bom_for(src)
    tests = find_tests(bom, program, "test")
    assert [t.qname for t in tests] == ["p.M.testOne()", "p.M.testTwo()"]
    log, failures = run_tests(bom, program, "test")
    assert failures == {}
    assert {e.test for e in log.events} == {"p.M.testOne()", "p.M.testTwo()"}
    with pytest.raises(NoTestsMatched):
        run_tests(bom, program, "nothing")


def test_run_tests_normalizes_each_event_at_most_twice(monkeypatch):
    helpers = "".join("static int h%d(int x) { return x + %d; }\n" % (i, i)
                      for i in range(5))
    calls = "".join("p.M.h%d(%d);" % (i, i) for i in range(5))
    tests = "".join("static void test%02d() { %s }\n" % (i, calls) for i in range(19))
    failing = "static void test19() { p.M.h0(1); p.M.h1(1 / 0); p.M.h2(2); }\n"
    bom, program = _bom_for("package p; class M {\n%s%s%s}" % (helpers, tests, failing))
    seen = []
    original = traces.normalize

    def counting(log):
        seen.append(len(log.events))
        return original(log)

    monkeypatch.setattr(traces, "normalize", counting)
    monkeypatch.setattr(interp, "normalize", counting)
    log, failures = run_tests(bom, program, "test")
    assert list(failures) == ["p.M.test19()"]
    assert len(log.events) == 19 * 6 + 2
    assert sum(seen) <= 2 * len(log.events)


def test_an_overflow_is_recorded_as_a_test_failure():
    bom, program = _bom_for("""
package p;
class M {
    static void testGrow() { int x = 3; while (x > 0) { x = x * x; } }
    static void testFine() { }
}
""")
    log, failures = run_tests(bom, program, "test")
    assert failures == {"p.M.testGrow()": "IntegerOverflow: 1853020188851841 * 1853020188851841 "
                                          "is outside signed 64-bit"}
    assert {e.test for e in log.events} == {"p.M.testGrow()", "p.M.testFine()"}


def test_call_through_unassigned_field_is_a_runtime_error():
    src = """
package p;
class A { int get() { return 1; } }
class Holder { A ref; }
class M {
    static int go() {
        Holder h;
        h = new Holder();
        return h.ref.get();
    }
}
"""
    result = _run(src, "p.M.go()")
    assert result.error.startswith("RuntimeTypeError")

"""Lexer, parser, printer, and name resolution."""

import random
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (deep_bodies, jx_declarations, jx_hierarchies, naive_ancestors,
                     random_program, reference_call_nodes)
from printer import pretty_print
from vulnvet.jx import ast, parser
from vulnvet.jx.errors import ParseError
from vulnvet.jx.parser import MAX_NESTING, parse_unit
from vulnvet.jx.resolver import STATIC_DISPATCH, VIRTUAL_DISPATCH, resolve

FULL = """
package zoo;

interface Animal {
    text speak();
    int legs();
}

class Base implements Animal {
    int count;
    text tag;

    Base(int count) {
        this.count = count;
        this.tag = "base";
    }

    text speak() {
        return "...";
    }

    int legs() {
        return 4;
    }

    static Base make() {
        return new Base(1);
    }
}

class Dog extends Base {
    Dog() {
        this.count = 1;
    }

    text speak() {
        return "woof";
    }
}
"""


def test_parse_full_surface():
    unit = parse_unit(FULL, "zoo.jx")
    assert unit.package == "zoo"
    assert len(unit.decls) == 3


def test_comments_are_discarded():
    src = "package p; // line comment\nclass A { /* block\ncomment */ }\n"
    unit = parse_unit(src, "p.jx")
    assert unit.decls[0].name == "A"


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as info:
        parse_unit("package p;\nclass { }", "bad.jx")
    assert info.value.line == 2
    assert info.value.origin == "bad.jx"


def test_missing_package_is_an_error():
    with pytest.raises(ParseError):
        parse_unit("class A { }", "x.jx")


def test_text_literal_escapes():
    src = 'package p; class A { static text m() { return "a\\"b\\\\c"; } }'
    unit = parse_unit(src, "p.jx")
    printed = pretty_print(unit)
    assert '"a\\"b\\\\c"' in printed


def _normalize(src, origin="u.jx"):
    return pretty_print(parse_unit(src, origin))


def test_print_parse_round_trip_fixed():
    once = _normalize(FULL)
    assert _normalize(once) == once


def test_print_parse_round_trip_random():
    rng = random.Random(31)
    for _ in range(50):
        src = random_program(rng, n_classes=3, n_methods=4).render()
        once = _normalize(src)
        assert _normalize(once) == once


def test_operator_precedence_shape():
    src = "package p; class A { static int m() { return 1 + 2 * 3 == 7; } }"
    printed = _normalize(src)
    # multiplicative binds tighter than additive, equality loosest
    assert "1 + 2 * 3 == 7" in printed


def test_resolver_binds_clean_program():
    program = resolve([parse_unit(FULL, "zoo.jx")]).bind_all()
    assert program.diagnostics == []
    assert program.is_subtype("zoo.Dog", "zoo.Base")
    assert program.is_subtype("zoo.Dog", "zoo.Animal")
    assert "zoo.Dog" in program.subtypes_of("zoo.Animal")


def test_resolver_virtual_dispatch_to_override():
    program = resolve([parse_unit(FULL, "zoo.jx")])
    impl = program.resolve_impl("zoo.Dog", "speak()")
    assert impl.owner == "zoo.Dog"
    inherited = program.resolve_impl("zoo.Dog", "legs()")
    assert inherited.owner == "zoo.Base"


def test_resolver_unknown_name_diagnostic():
    src = "package p; class A { static void m() { p.Missing.run(); } }"
    program = resolve([parse_unit(src, "p.jx")])
    assert program.diagnostics == []  # the declarations are clean
    assert program.bind_all().diagnostics == ["p.jx:1:49: unknown name p.Missing"]


def test_a_dotted_name_whose_head_is_a_field_of_this_is_a_value():
    # a simple name is read as a variable before it is read as a type (JLS
    # 6.5.2), in a field read as in a call; a static member has no this
    lib = "package a; class b { int b; int f() { return b; } }"
    src = ("package p;\nclass H {\n  a.b a;\n  int get() { return a.b; }\n"
           "  int call() { return a.f(); }\n  static int s() { return a.b; }\n}\n")
    program = resolve([parse_unit(lib, "a.jx"), parse_unit(src, "p.jx")]).bind_all()
    assert program.diagnostics == ["p.jx:6:28: type a.b used as a value"]
    call = program.symbols["p.H"].methods["call()"].calls[0]
    assert (call.kind, call.owner, call.sig) == (VIRTUAL_DISPATCH, "a.b", "f()")


def test_unknown_types_in_signatures_are_reported_at_their_members():
    src = "package p; class B { a.Foo x; static a.Foo run(a.Foo f) { return f; } }"
    program = resolve([parse_unit(src, "b.jx")])
    assert program.diagnostics == ["b.jx:1:22: unknown type a.Foo"] + 2 * [
        "b.jx:1:31: unknown type a.Foo"]
    # constructors and interface methods too, in source order; a known type
    # is not reported, and the ids keep the declaration's spelling
    src = ("package p;\nclass C {\n  int m(Z z) { return 1; }\n  C(B b, x.Y y) { }\n"
           "  B b;\n}\ninterface I { q.R f(int a, C c); }\nclass B { }\n")
    program = resolve([parse_unit(src, "c.jx")])
    assert program.bind_all().diagnostics == [
        "c.jx:3:3: unknown type Z", "c.jx:4:3: unknown type x.Y", "c.jx:7:15: unknown type q.R"]
    assert list(program.symbols["p.C"].ctors) == ["C(p.B,x.Y)"]


@settings(max_examples=100, deadline=None)
@given(jx_declarations())
def test_each_signature_type_resolves_or_has_one_diagnostic(sources):
    program = resolve([parse_unit(src, origin) for origin, src in sources])
    expected = []
    for info in program.symbols.values():
        decl = info.decl
        for m in sorted([*getattr(decl, "fields", ()), *decl.methods, *getattr(decl, "ctors", ())],
                        key=lambda m: m.pos):
            types = [getattr(m, "type", None) or getattr(m, "rettype", None)]
            types += [p.type for p in getattr(m, "params", ())]
            expected += ["%s:%d:%d: unknown type %s" % (info.unit.origin, *m.pos, t.text())
                         for t in types if isinstance(t, ast.NamedType)
                         and ast.type_text(t, info.package) not in program.symbols]
    assert [d for d in program.diagnostics if "unknown type" in d] == expected


def test_overloads_by_exact_types_only():
    src = """
package p;
class A {
    static int f(int a) { return a; }
    static text f(text a) { return a; }
    static int use() { return p.A.f(3); }
}
"""
    program = resolve([parse_unit(src, "p.jx")]).bind_all()
    assert program.diagnostics == []


def test_inheritance_cycle_is_reported():
    src = "package p; class A extends B { } class B extends A { }"
    program = resolve([parse_unit(src, "p.jx")])
    assert any("cycle" in d for d in program.diagnostics)


@settings(max_examples=300, deadline=None)
@given(jx_hierarchies())
def test_hierarchy_tables_match_a_naive_closure(src):
    unit = parse_unit(src, "h.jx")
    program = resolve([unit])
    symbols = program.symbols
    anc = naive_ancestors(symbols)
    declared = {}
    for decl in unit.decls:
        named = [decl.extends] if getattr(decl, "extends", None) else []
        named += getattr(decl, "implements", [])
        declared["h." + decl.name] = {"h." + n.parts[-1] for n in named}
    for q, info in symbols.items():
        assert q not in anc[q]  # cycles are broken
        assert set(info.supertypes) <= declared[q]
        classes = [s for s in info.supertypes if not symbols[s].is_interface]
        assert len(classes) <= 1 and info.superclass == (classes[0] if classes else None)
        if info.superclass is not None:
            assert info.superclass == "h." + info.decl.extends.parts[-1]
        assert [t.qname for t in program.class_chain(q)][1:2] == classes
    for sup in list(symbols) + ["h.Missing"]:
        subs = {q for q in symbols if q == sup or sup in anc[q]}
        assert program.subtypes_of(sup) == subs
        for sub in list(symbols) + ["h.Missing"]:
            assert program.is_subtype(sub, sup) == (sub == sup or sub in subs)


def _hierarchy_entries(program):
    return (sum(len(subs) for subs in program.direct_subtypes.values())
            + sum(len(subs) for subs in program._subtypes.values()))


def test_a_long_inheritance_chain_stores_linear_hierarchy_tables():
    k = 2500
    src = "\n".join(["package h;", "class K%d { }" % k]
                    + ["class K%d extends K%d { }" % (i, i + 1) for i in range(k)])
    program = resolve([parse_unit(src, "h.jx")])
    assert program.diagnostics == []
    # one entry per extends clause; the transitive closure would hold k*k/2
    assert _hierarchy_entries(program) == k
    assert program.is_subtype("h.K0", "h.K%d" % k)
    assert not program.is_subtype("h.K%d" % k, "h.K0")
    assert program.subtypes_of("h.K%d" % (k - 2)) == {"h.K%d" % i for i in range(k - 1)}
    assert _hierarchy_entries(program) == k + (k - 1)


@pytest.mark.parametrize("src, col", [
    ("class A {\n    A(int n) { }\n    static int A() { return 1; }\n}", 16),
    ("class A {\n    A(int n) { }\n    int A(int n) { return n; }\n}", 9),
    ("class A {\n    A(int n) { }\n    A A() { return this; }\n}", 7),
    ("interface A {\n    int m();\n    int A();\n}", 9),
])
def test_method_named_like_its_type_is_a_parse_error(src, col):
    with pytest.raises(ParseError, match="method A has the name of its type") as info:
        parse_unit("package p;\n" + src, "a.jx")
    assert str(info.value).startswith("a.jx:4:%d: " % col)


def test_field_may_share_its_type_name():
    # a field names no construct, so its qname cannot collide
    parse_unit("package p; class A { A A; int a() { return 1; } }", "a.jx")


def test_duplicate_qname_nearest_archive_wins():
    a = parse_unit("package p; class A { static int m() { return 1; } }", "near.jx")
    b = parse_unit("package p; class A { static int m() { return 2; } }", "far.jx")
    program = resolve([a, b], precedence={"near.jx": 0, "far.jx": 2})
    assert program.warnings
    info = program.symbols["p.A"]
    assert info.unit.origin == "near.jx"


def test_duplicate_qname_tie_is_an_error():
    a = parse_unit("package p; class A { }", "x.jx")
    b = parse_unit("package p; class A { }", "y.jx")
    program = resolve([a, b])
    assert program.diagnostics


def test_malformed_local_declaration_is_reported_where_it_breaks():
    src = "package p; class A { static int m() {\n    int x = 1 + ;\n} }"
    with pytest.raises(ParseError) as info:
        parse_unit(src, "p.jx")
    assert (info.value.line, info.value.col) == (2, 17)
    assert "expected an expression, found ';'" in str(info.value)


# --- nesting bound ---------------------------------------------------------

def _unit_with(body: str) -> str:
    return "package p; class A { A a; int v; static int f(int n) { return n; } int m() { %s } }" % body


@pytest.mark.parametrize("shape", sorted(deep_bodies(MAX_NESTING)))
def test_nesting_bound_is_exact(shape):
    program = resolve([parse_unit(_unit_with(deep_bodies(MAX_NESTING)[shape]), "p.jx")])
    assert program.bind_all().diagnostics == []
    with pytest.raises(ParseError, match="nesting deeper than %d levels" % MAX_NESTING) as info:
        parse_unit(_unit_with(deep_bodies(MAX_NESTING + 1)[shape]), "p.jx")
    assert info.value.origin == "p.jx" and info.value.line == 1


# An expression as (text, height, level): height counts the levels from its
# root to its deepest node, a pair of parentheses counting as one, and level
# is the precedence of its top operator (5 for a primary or postfix form).
_OPERATORS = {1: ("==", "!="), 2: ("<", ">"), 3: ("+", "-"), 4: ("*", "/")}
_ATOMS = st.sampled_from(["1", "x", "true", '"t"', "this"]).map(lambda t: (t, 1, 5))


def _parens(e):
    return "(" + e[0] + ")", e[1] + 1, 5


def _operand(e, level):
    return e if e[2] > level else _parens(e)


def _chain(level, operands, picks):
    operands = [_operand(e, level) for e in operands]
    n = len(operands)
    text = operands[0][0]
    for e, pick in zip(operands[1:], picks):
        text += " %s %s" % (_OPERATORS[level][pick], e[0])
    height = max([n - 1 + operands[0][1]] + [n - i + h for i, (_t, h, _l) in enumerate(operands) if i])
    return text, height, level


def _call(args):
    return "x.f(%s)" % ", ".join(a[0] for a in args), max([2] + [1 + a[1] for a in args]), 5


def _member(e):
    e = _operand(e, 4)
    return e[0] + ".g", e[1] + 1, 5


def _extend(children):
    return st.one_of(
        children.map(_parens),
        children.map(_member),
        st.lists(children, max_size=3).map(_call),
        st.builds(_chain, st.integers(1, 4), st.lists(children, min_size=2, max_size=4),
                  st.lists(st.integers(0, 1), min_size=3, max_size=3)),
    )


_EXPRESSIONS = st.recursive(_ATOMS, _extend, max_leaves=25)


@settings(max_examples=300, deadline=None)
@given(_EXPRESSIONS, st.integers(0, 3), st.integers(3, 16))
def test_nesting_bound_counts_every_level(expression, blocks, bound):
    text, height, _level = expression
    depth = 2 + blocks + height  # body, blocks, return, then the expression
    src = "package p; class A { int m() { %sreturn %s; %s} }" % ("{" * blocks, text, "}" * blocks)
    with patch.object(parser, "MAX_NESTING", bound):
        if depth > bound:
            with pytest.raises(ParseError, match="nesting deeper"):
                parse_unit(src, "p.jx")
            return
        unit = parse_unit(src, "p.jx")
    body = unit.decls[0].methods[0].body
    assert _tree_depth(body) <= depth


def _tree_depth(node) -> int:
    """Levels of syntax-tree nodes below and including ``node``."""
    children = []
    for name in type(node).__slots__:
        value = getattr(node, name)
        for v in value if isinstance(value, list) else [value]:
            if hasattr(type(v), "__slots__") and not isinstance(v, (ast.NamedType, ast.PrimType)):
                children.append(v)
    return 1 + max(map(_tree_depth, children), default=0)


# --- integer literals --------------------------------------------------------

@pytest.mark.parametrize("digits, value", [
    (str(ast.INT_MAX), ast.INT_MAX), ("0" * 5000 + "7", 7), ("000", 0)])
def test_integer_literals_up_to_the_64_bit_bound_parse(digits, value):
    unit = parse_unit("package p; class A { int f = %s; }" % digits, "p.jx")
    assert unit.decls[0].fields[0].init.value == value


@pytest.mark.parametrize("digits", [str(ast.INT_MAX + 1), "9" * 20, "1" * 5000])
def test_an_integer_literal_above_the_bound_is_a_parse_error(digits):
    # 5,000 digits are past what int() converts: no ValueError escapes
    line = "    static int m() { return 1 + %s; }" % digits
    with pytest.raises(ParseError, match="integer literal out of range") as info:
        parse_unit("package p;\nclass A {\n%s\n}\n" % line, "p.jx")
    assert (info.value.line, info.value.col) == (3, line.index(digits) + 1)


# --- declarations only, bodies on request ----------------------------------

LAZY = """
package q;

class Base {
    q.Base next = q.Base.make(1);
    int n = q.Base.count(next) + nosuch;
    Base(int n) { this.n = n; }
    Base() { this.n = q.Base.count(this); }
    static q.Base make(int k) { if (k > 0) { return new q.Base(k); } return new q.Base(); }
    static int count(q.Base b) { { int k = 0; } return "x"; }
    int twice() { return this.n * q.Base.count(this.next); }
}

class Kid extends q.Base {
    text tag = "t";
    int m() { return this.twice() + this.missing(); }
}
"""


def _members(program):
    for q, info in sorted(program.symbols.items()):
        for m in (*info.ctors.values(), *info.methods.values()):
            if m.decl.body is not None:
                yield q, m


def _call_nodes(program):
    """The call nodes of every parsed body and every field initializer."""
    walked = [n for _q, m in _members(program) for n in reference_call_nodes(m.decl.body, [])]
    walked += [n for info in program.symbols.values() if not info.is_interface
               for f in info.decl.fields if f.init is not None
               for n in reference_call_nodes(f.init, [])]
    return walked


def _resolution(program):
    """Each member's and each class's call nodes, by position, with their
    bindings, the diagnostics in sorted order, and the count of bound nodes."""
    node = {id(n.call): n for n in _call_nodes(program) if n.call is not None}  # of each CallSite

    def calls(sites):
        return [(type(node[id(c)]).__name__, node[id(c)].pos, tuple(c)) for c in sites]
    table = {(q, m.sig): calls(m.calls) for q, m in _members(program)}
    table.update({q: calls(info.init_calls) for q, info in program.symbols.items()})
    return table, sorted(program.diagnostics), len(node)


@pytest.mark.parametrize("bodies", [True, False])
@pytest.mark.parametrize("src", [FULL, LAZY])
def test_bodies_parsed_and_bound_on_request_match_an_eager_resolve(src, bodies):
    eager = resolve([parse_unit(src, "u.jx")]).bind_all()
    lazy = resolve([parse_unit(src, "u.jx", bodies=bodies)])
    members = [m for _q, m in _members(lazy)]
    assert all(n.call is None for n in _call_nodes(lazy)) and not any(m.calls for m in members)
    unparsed = [m for m in members if isinstance(m.decl.body, ast.Unparsed)]
    declared = [m for m in members if not getattr(m.decl, "synthetic", False)]
    assert len(unparsed) == (0 if bodies else len(declared)) and declared
    # some members on request first, a constructor of a subclass among them
    # for LAZY, then bind_all, which binds none of them again
    for m in members[-2::-2]:
        assert lazy.body(m) is lazy.body(m) is m.decl.body
        assert isinstance(m.decl.body, ast.Block)
    assert lazy.bind_all() is lazy.bind_all() is lazy
    for m in members:
        assert lazy.body(m) is m.decl.body and isinstance(m.decl.body, ast.Block)
    assert pretty_print(lazy.units[0]) == pretty_print(eager.units[0])
    assert _resolution(lazy) == _resolution(eager)


def test_a_constructor_binds_the_initializers_of_its_class_chain_alone():
    program = resolve([parse_unit(LAZY, "u.jx", bodies=False)])
    declared = list(program.diagnostics)
    assert declared == []  # every diagnostic of LAZY is in a body or an initializer
    kid = program.symbols["q.Kid"]
    program.body(kid.ctors["Kid()"])
    base = program.symbols["q.Base"]
    assert [c.kind for c in base.init_calls] == [STATIC_DISPATCH, STATIC_DISPATCH]
    inits = [n for f in base.decl.fields if f.init is not None
             for n in reference_call_nodes(f.init, [])]
    assert list(map(id, base.init_calls)) == [id(n.call) for n in inits]
    assert program.diagnostics == ["u.jx:6:34: unknown name nosuch"]
    # no other body was parsed, and Base's own constructors find its
    # initializers bound
    assert all(isinstance(m.decl.body, ast.Unparsed)
               for m in (*base.ctors.values(), *base.methods.values(), kid.methods["m()"]))
    program.body(base.ctors["Base()"])
    assert len(program.diagnostics) == 1 and len(base.init_calls) == 2


def test_a_declaration_error_is_reported_without_bodies():
    # the declarations are parsed as before; only a body's inside is skipped
    with pytest.raises(ParseError, match="method A has the name of its type"):
        parse_unit("package p; class A { int A() { ((( } }", "p.jx", bodies=False)
    unit = parse_unit("package p; class A { int m() { ((( } }", "p.jx", bodies=False)
    with pytest.raises(ParseError, match="expected an expression"):
        parser.parse_body(unit.decls[0].methods[0].body)


def test_a_body_that_fails_to_parse_stays_unbound_and_fails_each_time():
    # a member is marked bound only once its parse and bind succeed
    src = ("package p; class A { int ok() { return B.two(); } int bad() { return ((1; } }\n"
           "class B { static int two() { return 2; } }")
    program = resolve([parse_unit(src, "p.jx", bodies=False)])
    a, b = program.symbols["p.A"], program.symbols["p.B"]
    ok, bad = a.methods["ok()"], a.methods["bad()"]
    errors = []
    for bind in (lambda: program.body(bad), program.bind_all, lambda: program.body(bad)):
        with pytest.raises(ParseError) as raised:
            bind()
        errors.append(str(raised.value))
        assert isinstance(bad.decl.body, ast.Unparsed)
    assert len(errors) == 3 and len(set(errors)) == 1
    # bind_all bound the members before bad and stopped there; the rest
    # bind on request, and none is bound twice
    assert len(ok.calls) == 1 and ok.calls[0].kind == STATIC_DISPATCH
    assert reference_call_nodes(ok.decl.body, [])[0].call is ok.calls[0]
    assert isinstance(b.methods["two()"].decl.body, ast.Unparsed)
    for m in (ok, b.methods["two()"], *a.ctors.values(), *b.ctors.values()):
        assert isinstance(program.body(m), ast.Block)
    assert len(ok.calls) == 1 and sum(n.call is not None for n in _call_nodes(program)) == 1
    assert program.diagnostics == []

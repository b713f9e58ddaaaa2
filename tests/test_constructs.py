"""Construct extraction, fingerprints, and version ordering."""

import json
import random
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from helpers import GOLDEN, UPDATE, jx_declarations, random_program
from lowering import (class_ctree, ctor_ctree, decl_ctree, digest, interface_ctree,
                      method_ctree, serialize)
from printer import pretty_print
from vulnvet.bom import Sources, build_bom
from vulnvet.callgraph import Edge
from vulnvet.canonical import CTree, deserialize, fingerprint
from vulnvet.constructs import (CALLABLE_CTYPES, CLASS, CONSTRUCTOR, INTERFACE, METHOD,
                                PACKAGE, ConstructId, canonical_text, extract_constructs,
                                guess_ctype, member_fingerprint, member_id, split_member,
                                version_key, version_newer)
from vulnvet.jx import ast
from vulnvet.jx.parser import parse_unit
from vulnvet.jx.resolver import resolve
from vulnvet.traces import TraceEvent


def _extract(src, origin="u.jx"):
    return extract_constructs([parse_unit(src, origin)])


def test_minimal_class_enumeration():
    cons = _extract("package p; class A { void m() { } }")
    assert set(cons) == {
        ConstructId(PACKAGE, "p"),
        ConstructId(CLASS, "p.A"),
        ConstructId(CONSTRUCTOR, "p.A.A()"),
        ConstructId(METHOD, "p.A.m()"),
    }


def test_interface_signatures_become_method_constructs():
    cons = _extract("package p; interface I { int f(int a); text g(); }")
    assert ConstructId(INTERFACE, "p.I") in cons
    assert ConstructId(METHOD, "p.I.f(int)") in cons
    assert ConstructId(METHOD, "p.I.g()") in cons
    # no constructor for interfaces
    assert not any(c.ctype == CONSTRUCTOR for c in cons)


def test_declared_constructor_suppresses_default():
    cons = _extract("package p; class A { A(int n) { } }")
    ctors = [c for c in cons if c.ctype == CONSTRUCTOR]
    assert [c.qname for c in ctors] == ["p.A.A(int)"]


def test_param_types_are_resolved_in_qnames():
    src = "package p; class A { } class B { void m(A a, int k) { } }"
    cons = _extract(src)
    assert ConstructId(METHOD, "p.B.m(p.A,int)") in cons


def test_package_construct_has_no_body():
    cons = _extract("package p; class A { }")
    pkg = cons[ConstructId(PACKAGE, "p")]
    assert pkg.body is None and pkg.fingerprint is None


def test_fingerprint_ignores_whitespace_and_comments():
    a = _extract("package p; class A { int m() { return 1+2; } }")
    b = _extract("package p; class A { int m() {\n  // note\n  return 1 + 2 ;\n} }")
    mid = ConstructId(METHOD, "p.A.m()")
    assert a[mid].fingerprint == b[mid].fingerprint


def test_fingerprint_is_literal_sensitive():
    a = _extract("package p; class A { int m() { return 1; } }")
    b = _extract("package p; class A { int m() { return 2; } }")
    mid = ConstructId(METHOD, "p.A.m()")
    assert a[mid].fingerprint != b[mid].fingerprint


def test_class_fingerprint_elides_member_bodies():
    a = _extract("package p; class A { int m() { return 1; } }")
    b = _extract("package p; class A { int m() { return 2; } }")
    ccls = ConstructId(CLASS, "p.A")
    assert a[ccls].fingerprint == b[ccls].fingerprint
    # a signature change does alter the class fingerprint
    c = _extract("package p; class A { int m(int k) { return 1; } }")
    assert a[ccls].fingerprint != c[ccls].fingerprint


def test_declaration_count_oracle():
    rng = random.Random(8)
    for _ in range(30):
        model = random_program(rng, n_classes=3, n_methods=4)
        cons = _extract(model.render())
        methods = sum(len(ms) for ms in model.classes.values())
        classes = len(model.classes)
        # one package + one class, one synthesized ctor, and every method
        assert len(cons) == 1 + classes * 2 + methods


def _resolved_inventory(program):
    """Construct id -> fingerprint, read off the resolver's tables."""
    out = {ConstructId(PACKAGE, u.package): None for u in program.units}
    for qname, info in program.symbols.items():
        if info.is_interface:
            out[ConstructId(INTERFACE, qname)] = digest(interface_ctree(info.decl))
        else:
            out[ConstructId(CLASS, qname)] = digest(class_ctree(info.decl))
        for sig, m in info.ctors.items():
            out[member_id(CONSTRUCTOR, qname, sig)] = digest(ctor_ctree(m.decl))
        for sig, m in info.methods.items():
            out[member_id(METHOD, qname, sig)] = digest(method_ctree(m.decl))
    return out


@settings(max_examples=150, deadline=None)
@given(jx_declarations())
def test_inventory_from_declarations_equals_the_resolved_one(sources):
    # ids from the declarations alone are those the resolver derives: the
    # same types, members (the last of a repeated signature) and spellings
    units = [parse_unit(src, origin) for origin, src in sources]

    def trees():  # the printer leaves out default constructors
        return [(pretty_print(u), [len(getattr(d, "ctors", ())) for d in u.decls])
                for u in units]
    parsed = trees()
    inventory = extract_constructs(units)
    program = resolve(units)
    assert trees() == parsed  # resolve changed no tree
    assert {cid: c.fingerprint for cid, c in inventory.items()} == \
        _resolved_inventory(program)
    assert list(inventory) == list(extract_constructs(list(reversed(units))))


def test_a_dotted_type_is_fully_qualified_and_a_plain_one_is_the_packages():
    units = [parse_unit("package p.a; class Foo { }", "foo.jx"),
             parse_unit("package p; class Foo { } class B { static int run(a.Foo f, "
                        "Foo g, p.a.Foo h) { return 1; } }", "b.jx")]
    run = "p.B.run(a.Foo,p.Foo,p.a.Foo)"
    assert ConstructId(METHOD, run) in extract_constructs(units)
    assert ConstructId(METHOD, run) in extract_constructs(units[1:])
    program = resolve(units)
    assert list(program.symbols["p.B"].methods) == ["run(a.Foo,p.Foo,p.a.Foo)"]


def _assert_bodies_are_their_fingerprints(bom):
    for arc, _depth in bom.archives():
        for cid, c in arc.constructs.items():
            if cid.ctype == PACKAGE:
                assert c.body is None and c.fingerprint is None
                continue
            text, body = c.text, c.body  # lowered and decoded now, then kept
            assert c.text is text and c.body is body, cid
            # the tree decoded from the text that the fingerprint digests
            assert digest(body) == c.fingerprint == fingerprint(text), cid


def test_a_body_read_is_the_tree_its_fingerprint_digests_on_the_fixtures():
    for fixture in (GOLDEN, UPDATE):
        ws = fixture / "workspace"
        _assert_bodies_are_their_fingerprints(build_bom(Sources(ws / "app.json", ws)))


@settings(max_examples=50, deadline=None)
@given(jx_declarations())
def test_a_body_read_is_the_tree_its_fingerprint_digests(sources):
    with tempfile.TemporaryDirectory() as tmp:
        ws = Path(tmp)
        (ws / "app.json").write_text(json.dumps({"name": "app", "version": "1.0",
                                                 "sourceRoot": "src"}))
        (ws / "src").mkdir()
        for origin, src in sources:
            (ws / "src" / origin).write_text(src)
        _assert_bodies_are_their_fingerprints(build_bom(Sources(ws / "app.json", ws)))


# --- the text lowering against the reference tree lowering ---

_AT = (1, 1)
_NAMES = st.sampled_from(["a", "b", "x1", "_t"])
_CLASS_TYPES = st.sampled_from([ast.NamedType(("A",)), ast.NamedType(("p", "q", "B"))])
_TYPES = st.sampled_from([ast.PrimType(n) for n in ast.PRIMITIVES]) | _CLASS_TYPES
_OPS = st.sampled_from(["+", "-", "*", "/", "==", "!=", "<", ">"])


def _expressions():
    leaves = st.one_of(
        st.integers(ast.INT_MIN, ast.INT_MAX).map(lambda v: ast.IntLit(v, _AT)),
        st.text(alphabet="a() \\\t", max_size=5).map(lambda v: ast.TextLit(v, _AT)),
        st.booleans().map(lambda v: ast.BoolLit(v, _AT)),
        _NAMES.map(lambda n: ast.Var(n, _AT)),
        st.just(_AT).map(ast.This))

    def grow(kids):
        args = st.lists(kids, max_size=3)
        return st.one_of(
            st.builds(lambda o, n: ast.FieldAccess(o, n, _AT), kids, _NAMES),
            st.builds(lambda t, a: ast.New(t, a, _AT), _CLASS_TYPES, args),
            st.builds(lambda r, n, a: ast.MethodCall(r, n, a, _AT), kids, _NAMES, args),
            args.map(lambda a: ast.ReflectInvoke(a, _AT)),
            st.builds(lambda op, x, y: ast.Binary(op, x, y, _AT), _OPS, kids, kids))
    return st.recursive(leaves, grow, max_leaves=5)


_EXPRS = _expressions()
_OPTIONAL = st.none() | _EXPRS


def _statements():
    simple = st.one_of(
        st.builds(lambda t, n, e: ast.LocalDecl(t, n, e, _AT), _TYPES, _NAMES, _OPTIONAL),
        st.builds(lambda o, n, v: ast.Assign(ast.FieldAccess(o, n, _AT), v, _AT),
                  _EXPRS, _NAMES, _EXPRS),
        st.builds(lambda n, v: ast.Assign(ast.Var(n, _AT), v, _AT), _NAMES, _EXPRS),
        _EXPRS.map(lambda e: ast.ExprStmt(e, _AT)),
        _OPTIONAL.map(lambda e: ast.Return(e, _AT)))

    def grow(kids):
        return st.one_of(
            st.lists(kids, max_size=3).map(lambda ss: ast.Block(ss, _AT)),
            st.builds(lambda c, t, e: ast.If(c, t, e, _AT), _EXPRS, kids, st.none() | kids),
            st.builds(lambda c, b: ast.While(c, b, _AT), _EXPRS, kids))
    return st.recursive(simple, grow, max_leaves=6)


_BODIES = st.lists(_statements(), max_size=4).map(lambda ss: ast.Block(ss, _AT))
_PARAMS = st.lists(st.builds(ast.Param, _TYPES, _NAMES), max_size=3)
_METHODS = st.builds(lambda s, t, n, ps, b: ast.MethodDecl(s, t, n, ps, b, _AT),
                     st.booleans(), _TYPES, _NAMES, _PARAMS, _BODIES)
_CTORS = st.builds(lambda ps, b, syn: ast.CtorDecl("K", ps, b, _AT, syn),
                   _PARAMS, _BODIES, st.booleans())
_SIGNATURES = _METHODS.map(lambda m: ast.MethodDecl(m.static, m.rettype, m.name, m.params,
                                                    None, _AT))
_CLASSES = st.builds(
    lambda e, i, fs, cs, ms: ast.ClassDecl("K", e, i, fs, cs, ms, _AT),
    st.none() | _CLASS_TYPES, st.lists(_CLASS_TYPES, max_size=2),
    st.lists(st.builds(lambda t, n, e: ast.FieldDecl(t, n, e, _AT), _TYPES, _NAMES, _OPTIONAL),
             max_size=2),
    st.lists(_CTORS, max_size=2), st.lists(_SIGNATURES | _METHODS, max_size=2))
_INTERFACES = st.lists(_SIGNATURES, max_size=2).map(lambda ms: ast.InterfaceDecl("I", ms, _AT))


@settings(max_examples=200, deadline=None)
@given(_METHODS | _CTORS | _CLASSES | _INTERFACES)
def test_the_text_lowering_is_the_reference_serialization_of_the_reference_tree(decl):
    tree = decl_ctree(decl)
    text = canonical_text(decl)
    assert text == serialize(tree)
    assert deserialize(text) == tree
    if not isinstance(decl, (ast.ClassDecl, ast.InterfaceDecl)):
        assert member_fingerprint(decl) == digest(tree)


def test_version_ordering():
    assert version_key("1.2") == version_key("1.2.0")
    assert version_newer("1.10", "1.9")
    assert version_newer("2.0", "1.99.99")
    assert not version_newer("1.2", "1.2.0")
    versions = ["2.0", "1.10", "1.2", "1.9.1"]
    assert sorted(versions, key=version_key) == ["1.2", "1.9.1", "1.10", "2.0"]


# Small alphabets, so that equal values and shared prefixes are common.
_texts = st.sampled_from(["", "a", "b", "p.A.m()"])
_cids = st.builds(ConstructId, st.sampled_from([METHOD, CONSTRUCTOR]), _texts)
_VALUE_TYPES = {
    ConstructId: (_cids, ("ctype", "qname")),
    Edge: (st.builds(Edge, _cids, _cids, _texts, _texts), ("caller", "callee", "site", "kind")),
    TraceEvent: (st.builds(TraceEvent, _cids, st.none() | _cids, st.none() | _texts,
                           st.integers(-2, 2), _texts),
                 ("callee", "caller", "site", "ts", "test")),
    CTree: (st.recursive(st.builds(CTree, _texts), lambda kids: st.builds(
                CTree, _texts, st.lists(kids, max_size=2).map(tuple)), max_leaves=4),
            ("label", "children")),
}


def _outcome(f):
    try:
        return f()
    except TypeError:  # None against a ConstructId, as in a tuple of the fields
        return TypeError


@given(st.sampled_from(list(_VALUE_TYPES)).flatmap(
    lambda t: st.tuples(st.just(t), st.lists(_VALUE_TYPES[t][0], min_size=2, max_size=6))))
def test_value_types_hash_compare_and_sort_like_their_field_tuples(case):
    vtype, values = case

    def row(v):
        return tuple(getattr(v, name) for name in _VALUE_TYPES[vtype][1])

    rows = [row(v) for v in values]
    a, b, ta, tb = values[0], values[1], rows[0], rows[1]
    assert [hash(v) for v in values] == [hash(r) for r in rows]
    assert (a == b, a != b) == (ta == tb, ta != tb)
    assert _outcome(lambda: (a < b, a <= b, a > b)) \
        == _outcome(lambda: (ta < tb, ta <= tb, ta > tb))
    assert _outcome(lambda: [row(v) for v in sorted(values)]) == _outcome(lambda: sorted(rows))
    assert [row(v) for v in set(values)] == list(set(rows))


def test_member_names_round_trip_on_the_fixtures():
    members = []
    for fixture in (GOLDEN, UPDATE):
        ws = fixture / "workspace"
        for arc, _depth in build_bom(Sources(ws / "app.json", ws)).archives():
            members.extend(c for c in arc.constructs if c.ctype in CALLABLE_CTYPES)
    assert {c.ctype for c in members} == {METHOD, CONSTRUCTOR}
    for cid in members:
        assert guess_ctype(cid.qname) == cid.ctype, cid
        assert member_id(cid.ctype, *split_member(cid.qname)) == cid

"""Construct extraction, fingerprints, and version ordering."""

import random

from hypothesis import given, strategies as st

from helpers import GOLDEN, UPDATE, random_program
from vulnvet.bom import Sources, build_bom
from vulnvet.callgraph import Edge
from vulnvet.canonical import CTree
from vulnvet.constructs import (CALLABLE_CTYPES, CLASS, CONSTRUCTOR, INTERFACE, METHOD,
                                PACKAGE, ConstructId, extract_constructs, guess_ctype,
                                member_id, split_member, version_key, version_newer)
from vulnvet.jx import parse_unit, resolve
from vulnvet.traces import TraceEvent


def _extract(src, origin="u.jx"):
    return extract_constructs(resolve([parse_unit(src, origin)]))


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

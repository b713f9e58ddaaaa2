"""Change-set derivation and vulnerable/fixed classification."""

import pytest

from vulnvet import canonical, ted
from lowering import digest, serialize
from vulnvet.canonical import CTree
from vulnvet.constructs import (CLASS, CONSTRUCTOR, METHOD, Construct,
                                ConstructId, extract_constructs)
from vulnvet.diffing import (ADD, CLOSER_TO_FIXED, CLOSER_TO_VULNERABLE, DEL,
                             EQUALS_FIXED, EQUALS_VULNERABLE, MOD, TIE,
                             ConstructChange, classify, construct_changes)
from vulnvet.errors import EmptyRange
from vulnvet.jx.parser import parse_unit


def _inv(src):
    return extract_constructs([parse_unit(src, "u.jx")])


def _construct(tree):
    return Construct(digest(tree), serialize(tree))


BEFORE = "package p; class A { int m() { return 1; } int k() { return 9; } }"


def test_no_change_yields_empty_set():
    assert construct_changes(_inv(BEFORE), _inv(BEFORE)) == []


def test_body_edit_yields_mod_plus_outer_class():
    after = BEFORE.replace("return 1", "return 2")
    changes = construct_changes(_inv(BEFORE), _inv(after))
    by_id = {c.construct: c for c in changes}
    mid = ConstructId(METHOD, "p.A.m()")
    cid = ConstructId(CLASS, "p.A")
    assert set(by_id) == {mid, cid}
    assert by_id[mid].op == MOD and by_id[mid].informative
    # the outer entry only records containment: both sides fingerprint alike
    assert by_id[cid].op == MOD and not by_id[cid].informative


def test_removed_method_yields_del():
    after = "package p; class A { int m() { return 1; } }"
    changes = {c.construct: c for c in construct_changes(_inv(BEFORE), _inv(after))}
    assert changes[ConstructId(METHOD, "p.A.k()")].op == DEL


def test_added_method_yields_add():
    after = BEFORE.replace("}  ", "").replace(
        "int k() { return 9; }", "int k() { return 9; } int n() { return 3; }")
    changes = {c.construct: c for c in construct_changes(_inv(BEFORE), _inv(after))}
    entry = changes[ConstructId(METHOD, "p.A.n()")]
    assert entry.op == ADD and entry.ast_vuln is None


def test_new_class_yields_adds_for_every_construct():
    after = BEFORE + " class B { }"
    changes = {c.construct: c for c in construct_changes(_inv(BEFORE), _inv(after))}
    assert changes[ConstructId(CLASS, "p.B")].op == ADD
    assert changes[ConstructId(CONSTRUCTOR, "p.B.B()")].op == ADD


def _mod_change():
    vuln = CTree("block", (CTree("lit 1"),))
    fixed = CTree("block", (CTree("lit 2"),))
    change = ConstructChange(ConstructId(METHOD, "p.A.m()"), MOD, serialize(vuln),
                             serialize(fixed), digest(vuln), digest(fixed))
    return vuln, fixed, change


def test_classify_digest_equality_wins():
    vuln, fixed, change = _mod_change()
    assert classify(_construct(vuln), change).verdict == EQUALS_VULNERABLE
    assert classify(_construct(fixed), change).verdict == EQUALS_FIXED


def test_classify_by_distance():
    change = _mod_change()[2]
    near_vuln = CTree("block", (CTree("lit 1"), CTree("extra")))
    c = classify(_construct(near_vuln), change)
    assert c.verdict == CLOSER_TO_VULNERABLE
    assert c.dist_vuln < c.dist_fixed


def test_classify_tie_when_equidistant():
    change = _mod_change()[2]
    other = CTree("block", (CTree("lit 3"),))
    c = classify(_construct(other), change)
    assert c.verdict == TIE and c.dist_vuln == c.dist_fixed


# A ~110-node body of assignments, branches and a loop, as a drifted library
# method is: the fix inserts a guard statement, and the library's copy has
# two literals changed (and the guard, on the fixed side).
DRIFT_LINES = ["int a = x * 3 + x;",
               "if (a > 17) { a = a - 17; } else { x = x + 1; }",
               "int b = a * 5 + x;",
               "int i = 0;", "while (i < 3) { b = b + i; i = i + 1; }",
               "int c = b * 7 + a;",
               "if (c > 42) { c = c - 42; } else { b = b + 1; }",
               "int d = c * 4 + b;",
               "int e = d * 6 + c;",
               "if (e > 99) { e = e - 99; } else { d = d + 1; }",
               "return e + a;"]
GUARD = "if (x < 0 - 321) { x = 0; }"


def test_drifted_bodies_are_classified_without_zhang_shasha(monkeypatch):
    mid = ConstructId(METHOD, "p.D.run(int)")

    def method(lines):
        return _inv("package p; class D { static int run(int x) { %s } }"
                    % " ".join(lines))[mid]
    vuln, fixed = method(DRIFT_LINES), method([GUARD] + DRIFT_LINES)
    change = ConstructChange(mid, MOD, vuln.text, fixed.text,
                             vuln.fingerprint, fixed.fingerprint)
    drifted = [line.replace("* 3 +", "* 4 +").replace("* 7 +", "* 8 +")
               for line in DRIFT_LINES]
    near_vuln, near_fixed = method(drifted), method([GUARD] + drifted)
    assert 100 <= vuln.body.size() <= 120
    assert fixed.body.size() == vuln.body.size() + 10

    def refuse(*_):
        raise AssertionError("Zhang-Shasha ran")
    monkeypatch.setattr(ted, "_zhang_shasha", refuse)
    c = classify(near_vuln, change)
    assert (c.verdict, c.dist_vuln, c.dist_fixed) == (CLOSER_TO_VULNERABLE, 2, 12)
    c = classify(near_fixed, change)
    assert (c.verdict, c.dist_vuln, c.dist_fixed) == (CLOSER_TO_FIXED, 12, 2)


def test_classify_del_and_add():
    cid = ConstructId(METHOD, "p.A.m()")
    body = CTree("block")
    dele = ConstructChange(cid, DEL, text_vuln=serialize(body), fp_vuln=digest(body))
    assert classify(_construct(body), dele).verdict == EQUALS_VULNERABLE
    add = ConstructChange(cid, ADD, text_fixed=serialize(body), fp_fixed=digest(body))
    assert classify(_construct(body), add).verdict == EQUALS_FIXED
    other = CTree("block", (CTree("x"),))
    assert classify(_construct(other), add).verdict == TIE


def test_a_body_is_lowered_and_decoded_once_however_many_changes_read_it(monkeypatch):
    vuln, fixed, _ = _mod_change()
    other = CTree("block", (CTree("lit 3"),))
    lowered, decoded = [], []
    observed = Construct(digest(other), lambda: lowered.append(1) or serialize(other))
    real = canonical.deserialize
    monkeypatch.setattr(canonical, "deserialize", lambda t: decoded.append(t) or real(t))
    cid = ConstructId(METHOD, "p.A.m()")
    add = ConstructChange(cid, ADD, text_fixed=serialize(fixed), fp_fixed=digest(fixed))
    assert classify(observed, add).verdict == TIE and lowered == []  # presence alone
    changes = [ConstructChange(cid, MOD, serialize(vuln), serialize(fixed), digest(vuln),
                               digest(fixed)) for _ in range(3)]
    for change in changes * 2:
        assert classify(observed, change).verdict == TIE
    assert lowered == [1]
    assert decoded == [serialize(other)] + [serialize(vuln), serialize(fixed)] * 3
    assert observed.body is observed.body and changes[0].ast_vuln is changes[0].ast_vuln


def test_classify_containment_only_returns_none():
    cid = ConstructId(CLASS, "p.A")
    tree = CTree("class")
    change = ConstructChange(cid, MOD, serialize(tree), serialize(tree), digest(tree),
                             digest(tree))
    assert classify(_construct(tree), change) is None


def test_consolidate_needs_two_revisions(tmp_path):
    from vulnvet.diffing import consolidate_commits
    with pytest.raises(EmptyRange):
        consolidate_commits([tmp_path])

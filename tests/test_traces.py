"""Trace log model and JSON-lines persistence."""

import json
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from vulnvet.combined import dynamic_edges
from vulnvet.constructs import CONSTRUCTOR, METHOD, ConstructId
from vulnvet.errors import MalformedTraceLine
from vulnvet.metrics import touch_points
from vulnvet.traces import (TraceEvent, TraceLog, event_json, guess_ctype, ingest_traces,
                            normalize, summarize, to_jsonl, unknown_names)


def _ev(callee, ts, test, caller=None, site=None):
    return TraceEvent(ConstructId(METHOD, callee),
                      ConstructId(METHOD, caller) if caller else None,
                      site, ts, test)


def test_executed_and_edges():
    log = TraceLog([_ev("p.A.a()", 1, "t"),
                    _ev("p.B.b()", 2, "t", caller="p.A.a()", site="u.jx:3")])
    assert {c.qname for c in log.executed} == {"p.A.a()", "p.B.b()"}
    assert [(e.caller.qname, e.callee.qname, e.site) for e in dynamic_edges(log)] == [
        ("p.A.a()", "p.B.b()", "u.jx:3")]


def test_normalize_orders_and_renumbers():
    log = normalize(TraceLog([_ev("p.A.a()", 9, "t2"), _ev("p.B.b()", 4, "t1")]))
    assert [(e.test, e.ts) for e in log.events] == [("t1", 1), ("t2", 2)]


def test_merge_replaces_rerun_tests():
    old = TraceLog([_ev("p.A.a()", 1, "t1"), _ev("p.B.b()", 2, "t2")])
    new = TraceLog([_ev("p.C.c()", 1, "t2")])
    merged = old.merge(new)
    assert {(e.test, e.callee.qname) for e in merged.events} == {
        ("t1", "p.A.a()"), ("t2", "p.C.c()")}


# per-test logs under distinct test names, in random name order, with
# unordered and repeated timestamps
_PER_TEST_LOGS = st.dictionaries(
    st.text(alphabet="abt", max_size=3),
    st.lists(st.tuples(st.sampled_from(["p.A.a()", "p.B.b()", "p.C.c()"]),
                       st.integers(0, 9)), max_size=6),
    max_size=6)


@settings(max_examples=300, deadline=None)
@given(_PER_TEST_LOGS)
def test_one_normalize_equals_a_fold_of_merges(runs):
    logs = [TraceLog([_ev(callee, ts, test) for callee, ts in events])
            for test, events in runs.items()]
    folded = TraceLog()
    for log in logs:
        folded = folded.merge(log)
    assert normalize(TraceLog([e for log in logs for e in log.events])) == folded


def test_jsonl_round_trip(tmp_path):
    log = normalize(TraceLog([
        _ev("p.A.a()", 1, "t"),
        _ev("p.B.b()", 2, "t", caller="p.A.a()", site="u.jx:7"),
    ]))
    path = tmp_path / "traces.jsonl"
    path.write_text(to_jsonl(log))
    loaded = ingest_traces(path)
    assert loaded == log
    assert unknown_names(loaded, log.executed) == []


def test_ingest_warns_about_unknown_constructs(tmp_path):
    log = TraceLog([_ev("p.A.a()", 1, "t")])
    path = tmp_path / "traces.jsonl"
    path.write_text(to_jsonl(normalize(log)))
    loaded = ingest_traces(path)
    assert len(loaded.events) == 1
    assert unknown_names(loaded, {ConstructId(METHOD, "q.Q.q()")}) == ["p.A.a()"]


def test_ingest_warns_once_per_unknown_name(tmp_path):
    path = tmp_path / "traces.jsonl"
    path.write_text(to_jsonl(normalize(TraceLog([
        _ev("p.B.b()", 1, "t"), _ev("p.A.a()", 2, "t", caller="p.B.b()", site="u.jx:1"),
        _ev("p.A.a()", 3, "t", caller="p.B.b()", site="u.jx:2"), _ev("q.Q.q()", 4, "t")]))))
    assert unknown_names(ingest_traces(path), {ConstructId(METHOD, "q.Q.q()")}) == [
        "p.A.a()", "p.B.b()"]


def test_a_line_names_its_construct_by_its_qualified_name(tmp_path):
    # a line's ctype field is not read: the same file gives the same log
    # whatever it holds
    path = tmp_path / "traces.jsonl"
    lines = ['{"callee": "p.A.A()", "ctype": "METHOD", "ts": 1, "test": "t"}',
             '{"callee": "p.A.a()", "caller": "p.A.A()", "ctype": "CLASS", "ts": 2, "test": "t"}',
             '{"callee": "p.A.b()", "ts": 3, "test": "t"}']
    path.write_text("\n".join(lines) + "\n")
    log = ingest_traces(path)
    assert [(e.callee.ctype, e.caller and e.caller.ctype) for e in log.events] == [
        (CONSTRUCTOR, None), (METHOD, CONSTRUCTOR), (METHOD, None)]


def test_ingest_rejects_malformed_lines(tmp_path):
    path = tmp_path / "traces.jsonl"
    path.write_text('{"callee": "p.A.a()"}\n')
    with pytest.raises(MalformedTraceLine):
        ingest_traces(path)
    for line in ("not json", '{"callee": ["p.A.a()"], "ts": 1}',
                 '{"callee": "p.A.a()", "ts": 1, "test": null}',
                 '{"callee": "p.A.a()", "ts": 1, "caller": 7}',
                 '{"callee": "p.A.a()", "ts": true}'):
        path.write_text('{"callee": "p.A.a()", "ts": 1}\n\n' + line + "\n")
        with pytest.raises(MalformedTraceLine, match="trace line 3:"):
            ingest_traces(path)


def test_guess_ctype_spots_constructors():
    assert guess_ctype("p.A.A()") == CONSTRUCTOR
    assert guess_ctype("p.A.A(int)") == CONSTRUCTOR
    assert guess_ctype("p.A.make()") == METHOD


APP = ["p.A.a()", "p.A.A()", "p.B.b()"]
LIB = ["q.L.x()", "q.L.y(int)"]

# events over application and library constructs, with and without callers
# and sites, under a few test names and repeated timestamps
_EVENTS = st.lists(st.tuples(st.sampled_from(APP + LIB),
                             st.one_of(st.none(), st.sampled_from(APP + LIB)),
                             st.sampled_from([None, "a.jx:1", "a.jx:2", "l.jx:5"]),
                             st.integers(0, 5), st.sampled_from(["t1", "t2", "t3"])),
                   max_size=40)


def _first_per_callee(log):
    first = {}
    for e in log.events:
        first.setdefault(e.callee.qname, e)
    return first


def _archive(names):
    return SimpleNamespace(constructs={ConstructId(guess_ctype(q), q): None for q in names})


def _touch_points(log):
    app, lib = _archive(APP), _archive(LIB)
    bom = SimpleNamespace(application=app, archive_named=lambda name: lib)
    return [(tp.app_construct, tp.lib_callee, tp.sites)
            for tp in touch_points(bom, SimpleNamespace(edges=set()), log, "q")]


@settings(max_examples=300, deadline=None)
@given(_EVENTS)
def test_a_summary_answers_what_the_whole_log_answers(events):
    log = normalize(TraceLog([
        TraceEvent(ConstructId(guess_ctype(callee), callee),
                   ConstructId(guess_ctype(caller), caller) if caller else None,
                   site, ts, test)
        for callee, caller, site, ts, test in events]))
    summary = summarize(log)
    assert len({(e.callee, e.caller, e.site) for e in summary.events}) == len(summary.events)
    assert summary.executed == log.executed
    assert dynamic_edges(summary) == dynamic_edges(log)
    assert _touch_points(summary) == _touch_points(log)
    assert _first_per_callee(summary) == _first_per_callee(log)
    assert summarize(summary) == summary


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.text(), st.one_of(st.none(), st.text()),
                          st.one_of(st.none(), st.text()), st.integers(), st.text())))
def test_jsonl_lines_are_what_json_dumps_writes_with_sorted_keys(events):
    log = TraceLog([TraceEvent(ConstructId(METHOD, callee),
                               ConstructId(METHOD, caller) if caller is not None else None,
                               site, ts, test)
                    for callee, caller, site, ts, test in events])
    assert to_jsonl(log) == "".join(json.dumps(event_json(e), sort_keys=True) + "\n"
                                    for e in log.events)

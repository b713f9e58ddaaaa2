"""Trace log model and JSON-lines persistence."""

import hashlib
import json
import re
import tracemalloc
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import trace_reference
from helpers import copy_workspace, small_workload, whole_sources
from vulnvet.bom import build_bom, corpus_program
from vulnvet.cli import main as vet
from vulnvet.combined import dynamic_edges
from vulnvet.constructs import CONSTRUCTOR, METHOD, ConstructId
from vulnvet.errors import MalformedTraceLine, NoTestsMatched
from vulnvet.interp import run_tests
from vulnvet import traces
from vulnvet.metrics import touch_points
from vulnvet.traces import (CHUNK, EVENT, SUMMARY, TraceEvent, TraceLog, event_json,
                            guess_ctype, ingest_traces, normalize, summarize, to_jsonl,
                            unknown_names, write_traces)
from vulnvet.workspace import Workspace, json_text


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
    bom = SimpleNamespace(application=app, dependency=lambda name: (lib, 1))
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


def test_a_line_ends_at_a_newline_only(tmp_path):
    # U+2028 and U+0085 are line breaks to str.splitlines, text to JSON
    path = tmp_path / "traces.jsonl"
    lines = ['{"callee": "p.A.a()", "site": "u\u2028.jx:1", "ts": 1, "test": "t"}',
             '{"callee": "p.A.a()", "site": "u\u0085.jx:2", "ts": 2, "test": "t"}']
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert [e.site for e in ingest_traces(path).events] == ["u\u2028.jx:1", "u\u0085.jx:2"]


_KEYS = ["callee", "caller", "ctype", "site", "test", "ts"]


def _canonical_reference(line):
    """The dict json decodes from a line in the exact form to_jsonl writes,
    with no escape in its strings and a ts of at most 19 digits; else None."""
    try:
        data = json.loads(line)
    except ValueError:
        return None
    if (type(data) is dict and sorted(data) == _KEYS and EVENT(data) is None
            and type(data["ctype"]) is str and "test" in data and "\\" not in line
            and len(str(abs(data["ts"]))) <= 19 and json.dumps(data, sort_keys=True) == line):
        return data
    return None


def canonical_decoder():
    """The fast path of ``ingest_traces``: the dict of the groups its regex
    takes from a line, ``ts`` as an integer, or None for a line it leaves to
    ``json``."""
    match = re.compile(traces._CANONICAL).fullmatch
    return lambda line: (m := match(line)) and {**m.groupdict(), "ts": int(m["ts"])}


def _typed(data):
    return None if data is None else [(k, type(v), v) for k, v in data.items()]


# texts of printable ASCII, some with characters json escapes or non-ASCII ones
_ASCII = st.characters(min_codepoint=32, max_codepoint=126)
_TEXT = st.one_of(st.text(_ASCII), st.text(st.one_of(
    _ASCII, st.sampled_from('"\\\n\t\x00\x1f\x7f\u00e9\u2028\U0001f600'))))
_LINE_DICT = st.fixed_dictionaries({
    "callee": _TEXT, "caller": st.one_of(st.none(), st.just(""), _TEXT),
    "ctype": st.one_of(st.sampled_from(["METHOD", "CONSTRUCTOR"]), _TEXT),
    "site": st.one_of(st.none(), st.just(""), _TEXT), "test": _TEXT,
    "ts": st.one_of(st.integers(-3, 3), st.integers(), st.sampled_from([
        10 ** 18, 10 ** 19 - 1, 10 ** 19, -(10 ** 19 - 1), -(10 ** 19), 2 ** 63, -(2 ** 63)]))})


def _near_misses(line, event):
    """Lines json decodes to the same event, or nearly, that to_jsonl
    would not write."""
    ts = '"ts": %d}' % event["ts"]
    rest = {k: v for k, v in event.items() if k != "test"}
    return [
        json.dumps(dict(reversed(list(event.items())))),  # another key order
        json.dumps(event, sort_keys=True, separators=(",", ":")),  # other spacing
        json.dumps(event, sort_keys=True, separators=(", ", ":  ")),
        json.dumps({**event, "test": event["test"] + "\u00e9"}, sort_keys=True,
                   ensure_ascii=False),  # raw non-ASCII
        line[:-len(ts)] + '"ts": %d.0}' % event["ts"],
        line[:-len(ts)] + '"ts": true}',
        line[:-len(ts)] + '"ts": -0}',
        line[:-len(ts)] + '"ts": 0%d}' % abs(event["ts"]),
        line[:-len(ts)] + '"ts": \u0661}',  # a digit json does not read
        line[:-1] + ', "ts": %d}' % event["ts"],  # a duplicate key
        '{"callee": "x", ' + line[1:],
        line + " ", " " + line, line + "\r",
        line.replace('"test": "', '"test": "\t', 1),  # a raw control character
        json.dumps(rest, sort_keys=True),  # no test
        json.dumps({**event, "ctype": None}, sort_keys=True),
        json.dumps({**event, "x": 1}, sort_keys=True),
    ]


@settings(max_examples=300, deadline=None)
@given(_LINE_DICT)
def test_the_fast_path_decodes_what_json_decodes_or_declines(event):
    fast = canonical_decoder()
    line = json.dumps(event, sort_keys=True)
    for each in [line] + _near_misses(line, event):
        assert _typed(fast(each)) == _typed(_canonical_reference(each)), each
    texts = [v for v in event.values() if type(v) is str]
    if all(json.dumps(v) == '"%s"' % v for v in texts) and abs(event["ts"]) < 10 ** 19:
        assert fast(line) == event  # no escape: the fast path takes it


_EXAMPLE = '{"callee": "p.A.a()", "caller": "p.B.b()", "ctype": "METHOD", "site": "u.jx:3", ' \
           '"test": "t", "ts": 7}'


@pytest.mark.parametrize("line", [
    _EXAMPLE.replace('"caller": "p.B.b()", ', ""),
    _EXAMPLE.replace('"caller": "p.B.b()"', '"caller":"p.B.b()"'),
    _EXAMPLE.replace('"ts": 7', '"ts": 7.0'),
    _EXAMPLE.replace('"ts": 7', '"ts": true'),
    _EXAMPLE.replace('"ts": 7', '"ts": -0'),
    _EXAMPLE.replace('"ts": 7', '"ts": 07'),
    _EXAMPLE.replace('"ts": 7', '"ts": 1' + "0" * 19),
    _EXAMPLE.replace('"test": "t", ', ""),
    _EXAMPLE.replace('"test": "t"', '"test": "t", "test": "t"'),
    _EXAMPLE.replace('"ctype": "METHOD"', '"ctype": null'),
    _EXAMPLE.replace("p.A.a()", "p.A.\\u0061()"),
    _EXAMPLE.replace("p.A.a()", "p.A.é()"),
    _EXAMPLE.replace("u.jx", "u\x7f.jx"),
    _EXAMPLE.replace("u.jx", "u\t.jx"),
    '{"caller": "p.B.b()", ' + _EXAMPLE[1:].replace('"caller": "p.B.b()", ', ""),
    _EXAMPLE + " ",
    " " + _EXAMPLE,
    _EXAMPLE + "}",
    "",
])
def test_the_fast_path_declines_each_near_miss(line):
    assert canonical_decoder()(line) is None


@pytest.mark.parametrize("line", [
    _EXAMPLE,
    _EXAMPLE.replace('"caller": "p.B.b()"', '"caller": null').replace('"u.jx:3"', "null"),
    _EXAMPLE.replace('"p.B.b()"', '""').replace('"u.jx:3"', '""').replace('"t"', '""'),
    _EXAMPLE.replace('"ts": 7', '"ts": 0'),
    _EXAMPLE.replace('"ts": 7', '"ts": -9223372036854775808'),
    _EXAMPLE.replace('"ts": 7', '"ts": 9999999999999999999'),
])
def test_the_fast_path_reads_each_canonical_line_as_json_does(line):
    assert _typed(canonical_decoder()(line)) == _typed(json.loads(line))


# --- the codec against the reference (tests/trace_reference.py) ---------------

# names, sites and tests with and without characters that json escapes
_QNAMES = st.sampled_from(["p.A.a()", "p.A.A()", "q.L.y(int)", "p.\u00e9.b()",
                           'p."Q".c()', "p.B\\b()"])
_CALLERS = st.one_of(st.none(), st.just(""), _QNAMES)
_SITES = st.one_of(st.none(), st.just(""),
                   st.sampled_from(["a.jx:1", "l.jx:5", "u\u2028.jx:2", "t\t.jx:3"]))
_TESTS = st.sampled_from(["t1", "t2", "t\u00e9", ""])
# repeated (test, ts) pairs, and a few large timestamps
_TS = st.one_of(st.integers(0, 4), st.sampled_from([10 ** 19, -(2 ** 63)]))
# how a line is written: as to_jsonl writes it, or in a form only json reads
_FORMS = {
    "canonical": lambda d: json.dumps(d, sort_keys=True),
    "compact": lambda d: json.dumps(d, sort_keys=True, separators=(",", ":")),
    "reversed": lambda d: json.dumps(dict(reversed(list(d.items())))),
    "raw": lambda d: json.dumps(d, sort_keys=True, ensure_ascii=False),
    "sparse": lambda d: json.dumps({k: v for k, v in d.items()
                                    if k != "ctype" and v is not None}),
    "blank": lambda d: "  ",
}
_BAD_LINES = ["not json", '{"callee": "p.A.a()"}', '{"callee": 1, "ts": 1, "test": "t"}',
              '{"callee": "p.A.a()", "ts": 1, "caller": 7}', "[" * 5000]
_LINES = st.lists(st.tuples(_QNAMES, _CALLERS, _SITES, _TESTS, _TS,
                            st.sampled_from(sorted(_FORMS))), max_size=30)


def _outcome(ingest, path):
    try:
        return ingest(path)
    except MalformedTraceLine as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(_LINES, st.one_of(st.none(), st.tuples(st.integers(0, 30), st.sampled_from(_BAD_LINES))))
def test_ingest_equals_the_json_reference(tmp_path_factory, lines, bad):
    text = [_FORMS[form]({"callee": callee, "caller": caller, "ctype": guess_ctype(callee),
                          "site": site, "test": test, "ts": ts})
            for callee, caller, site, test, ts, form in lines]
    if bad is not None:
        text.insert(min(bad[0], len(text)), bad[1])
    path = tmp_path_factory.mktemp("codec") / "traces.jsonl"
    path.write_text("\n".join(text) + "\n", encoding="utf-8")
    assert _outcome(ingest_traces, path) == _outcome(trace_reference.ingest, path)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(_QNAMES, _CALLERS, _SITES), min_size=1, max_size=4),
       st.lists(_TESTS, min_size=1, max_size=3, unique=True),
       st.lists(st.integers(0, 5), min_size=1, max_size=12),
       st.integers(CHUNK - 3, 2 * CHUNK + 3))
def test_a_write_is_json_dumps_per_line_where_heads_straddle_chunks(tmp_path_factory, calls,
                                                                    tests, picks, n):
    # a few calls made by a few tests, over more than a chunk of events: a
    # head repeats within a chunk and across the boundaries between chunks,
    # and a call made by two tests has a head in each
    log = normalize(TraceLog([
        trace_reference.event({"callee": callee, "caller": caller, "site": site,
                               "test": tests[i % len(tests)], "ts": i})
        for i in range(n)
        for callee, caller, site in [calls[picks[i % len(picks)] % len(calls)]]]))
    ws = Workspace(tmp_path_factory.mktemp("ws"))
    write_traces(ws, log)
    # compared as lists of lines: pytest reports the first that differs
    lines = trace_reference.jsonl(log).splitlines(keepends=True)
    assert ws.artifact("traces.jsonl").read_text(encoding="utf-8").splitlines(True) == lines
    assert to_jsonl(log).splitlines(True) == lines
    assert ws.artifact(SUMMARY).read_text(encoding="utf-8") == trace_reference.summary(log)


def _log(n, tests=7):
    """A normalised log of n events of a few tests, over 60 calls: as a
    test suite repeats its calls, the summary is small beside the log."""
    return normalize(TraceLog([
        _ev("p.C%d.m%d()" % (i % 12, i % 5), i, "test%d" % (i % tests),
            caller="p.C%d.m()" % (i % 12) if i % 60 else None,
            site="src/p/C%d.jx:%d" % (i % 12, i % 5) if i % 60 else None)
        for i in range(n)]))


@pytest.mark.parametrize("n", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5])
def test_the_streamed_log_is_to_jsonl_stamped_with_its_digest(tmp_path, n):
    ws = Workspace(tmp_path)
    log = _log(n)
    write_traces(ws, log)
    data = ws.artifact("traces.jsonl").read_bytes()
    assert data == to_jsonl(log).encode("utf-8")
    stamp = json.loads(ws.artifact(SUMMARY).read_text(encoding="utf-8"))["inputs"]
    assert stamp == hashlib.sha256(data).hexdigest()
    assert ingest_traces(ws.artifact("traces.jsonl")) == log


def test_a_write_that_fails_midway_leaves_the_previous_log(tmp_path, monkeypatch):
    ws = Workspace(tmp_path)
    write_traces(ws, _log(10))
    before = {name: ws.artifact(name).read_bytes() for name in ("traces.jsonl", SUMMARY)}
    chunks = []

    def failing(log):
        chunks.append(log)
        if len(chunks) == 2:
            raise OSError("disk full")
        return to_jsonl(log)

    monkeypatch.setattr(traces, "to_jsonl", failing)
    with pytest.raises(OSError, match="disk full"):
        write_traces(ws, _log(3 * CHUNK))
    assert {name: ws.artifact(name).read_bytes() for name in before} == before
    assert sorted(p.name for p in ws.artifact_dir.iterdir()) == sorted(before)


# 10,000 tests of one event each: no line shares its head with another
@pytest.mark.parametrize("tests", [100, 10_000])
def test_the_streamed_write_holds_less_than_half_the_text(tmp_path, tests):
    ws = Workspace(tmp_path)
    log = _log(10_000, tests=tests)
    size = len(to_jsonl(log))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        write_traces(ws, log)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert ws.artifact("traces.jsonl").stat().st_size == size
    assert peak < size / 2, (peak, size)


# --- trace runs through the CLI against a fold of merges ---------------------

PATTERNS = ["test", "testA", "testB", "testA0", "testA1", "testB1", "testC"]


@pytest.fixture(scope="module")
def trace_workload(tmp_path_factory):
    """A small trace-heavy workspace with one test that fails, after scan,
    and for each pattern the log and failures of run_tests, or None where no
    test matches."""
    ws = small_workload(tmp_path_factory.mktemp("trace-heavy"), "trace-heavy")
    (ws / "src/app/Deep.jx").write_text("""package app;
class Deep {
    static int down(int n) { if (n > 0) { return app.Deep.down(n - 1); } return 0; }
    static void testA9() { app.Deep.down(300); }
}
""")
    assert vet(["--workspace", str(ws), "scan"]) in (0, 1)
    src = whole_sources(ws)
    bom, program = build_bom(src), corpus_program(src)
    runs = {}
    for pattern in PATTERNS:
        try:
            runs[pattern] = run_tests(bom, program, pattern)
        except NoTestsMatched:
            runs[pattern] = None
    assert list(runs["testA"][1]) == ["app.Deep.testA9()"]
    return ws, runs


def _vet_files(ws) -> dict:
    return {p.name: p.read_text(encoding="utf-8") for p in (ws / ".vet").iterdir()}


@pytest.mark.parametrize("shuffle", [False, True])
@settings(max_examples=15, deadline=None)
@given(runs=st.lists(st.tuples(st.sampled_from(PATTERNS), st.randoms(use_true_random=False)),
                     min_size=1, max_size=4))
def test_trace_runs_write_what_a_fold_of_merges_writes(trace_workload, tmp_path_factory,
                                                       shuffle, runs):
    base, expected = trace_workload
    ws = copy_workspace(base, tmp_path_factory.mktemp("runs") / "ws")
    log, latest = TraceLog(), {}
    for pattern, rng in runs:
        before = _vet_files(ws)
        code = vet(["--workspace", str(ws), "trace", "run", "--pattern", pattern])
        if expected[pattern] is None:
            assert code == 3 and _vet_files(ws) == before
            continue
        new_log, failed = expected[pattern]
        assert code == 0
        log = log.merge(new_log)
        latest.update((test, failed.get(test)) for test in {e.test for e in new_log.events})
        files = _vet_files(ws)
        assert files["traces.jsonl"] == trace_reference.jsonl(log)
        assert files[SUMMARY] == trace_reference.summary(log)
        assert files["test-failures.json"] == json_text(
            {test: error for test, error in latest.items() if error is not None})
        if shuffle:  # lines in any order, one of them in a form only json reads
            lines = files["traces.jsonl"].splitlines()
            rng.shuffle(lines)
            lines[0] = json.dumps(json.loads(lines[0]), separators=(",", ":"))
            (ws / ".vet/traces.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")

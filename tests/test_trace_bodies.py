"""``trace run`` after ``scan``: bodies parsed and bound on first entry.

While bom.json carries the digest of the current inputs, ``trace run``
parses declarations only and each body when a test first enters it; without
that stamp it first builds the BOM, whose inventory parses every body once.
Both paths must give the same runs."""

import io
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import GOLDEN, copy_workspace, small_workload, written_bodies
from vulnvet.bom import Sources, corpus_program
from vulnvet.cli import main as vet
from vulnvet.constructs import split_member
from vulnvet.jx import parser, resolver
from vulnvet.traces import ingest_traces

TRACE_OUTPUTS = ("traces.jsonl", "trace-summary.json", "test-failures.json")
GOLDEN_PATTERNS = ("test", "itest")
WORKLOAD_PATTERNS = ("testA", "testB")


def _vet(ws, *argv):
    """(exit code, stdout, stderr) of one vet command on ws."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = vet(["--workspace", str(ws), *argv])
    return code, out.getvalue(), err.getvalue()


def _traced(ws, patterns):
    """The exit code and stdout of a trace run per pattern, then the bytes of
    the trace artifacts."""
    runs = [_vet(ws, "trace", "run", "--pattern", p)[:2] for p in patterns]
    return runs, {name: (ws / ".vet" / name).read_bytes() for name in TRACE_OUTPUTS}


def _lazy_and_eager(ws, patterns):
    """The trace runs of ws after scan (stamped: bodies on demand) and of a
    copy without bom.json (unstamped: every body parsed first, by the inventory)."""
    assert _vet(ws, "scan")[0] in (0, 1)
    eager = shutil.copytree(ws, ws.parent / "eager")
    (eager / ".vet/bom.json").unlink()
    return _traced(ws, patterns), _traced(eager, patterns)


def test_stamped_and_unstamped_trace_runs_agree_on_the_golden_workspace(tmp_path):
    ws = copy_workspace(GOLDEN / "workspace", tmp_path / "ws")
    lazy, eager = _lazy_and_eager(ws, GOLDEN_PATTERNS)
    assert lazy == eager
    assert lazy[1]["traces.jsonl"] == (GOLDEN / "expected/traces.jsonl").read_bytes()


_SIZES = st.fixed_dictionaries({
    "libs": st.integers(2, 3), "classes": st.integers(1, 2), "methods": st.integers(1, 3),
    "stmts": st.integers(1, 6), "fanout": st.integers(1, 2), "tests": st.integers(2, 3),
})


@settings(max_examples=10, deadline=None)
@given(st.sampled_from(["corpus", "kb-drift", "trace-heavy"]), st.integers(0, 2 ** 16), _SIZES)
def test_stamped_and_unstamped_trace_runs_agree_on_generated_workspaces(name, seed, sizes):
    with tempfile.TemporaryDirectory() as tmp:
        ws = small_workload(Path(tmp), name, seed, **sizes)
        lazy, eager = _lazy_and_eager(ws, WORKLOAD_PATTERNS)
    assert lazy == eager
    assert [code for code, _out in lazy[0]] == [0, 0]


@pytest.fixture
def parsed_bodies(monkeypatch):
    """(origin, character index) of each body that parse_body parses, for the
    resolver or for lowering."""
    parsed = []
    real = parser.parse_body

    def parse_body(body):
        parsed.append((body.origin, body.start))
        return real(body)
    monkeypatch.setattr(resolver, "parse_body", parse_body)
    monkeypatch.setattr(parser, "parse_body", parse_body)
    return parsed


@pytest.mark.parametrize("workspace, pattern", [("golden", "test"), ("golden", "itest"),
                                                ("trace-heavy", "testA")])
def test_a_stamped_trace_run_parses_the_bodies_it_enters_once_each(tmp_path, parsed_bodies,
                                                                   workspace, pattern):
    if workspace == "golden":
        ws = copy_workspace(GOLDEN / "workspace", tmp_path / "ws")
    else:
        ws = small_workload(tmp_path, workspace, 3)
    assert _vet(ws, "scan")[0] in (0, 1)
    # scan parses each written body once, as it binds and fingerprints it
    assert sorted(parsed_bodies) == written_bodies(ws) != []
    parsed_bodies.clear()
    assert _vet(ws, "trace", "run", "--pattern", pattern)[0] == 0
    eager = corpus_program(Sources(ws / "app.json", ws))
    entered = {e.callee for e in ingest_traces(ws / ".vet/traces.jsonl").events}
    # a class without a constructor gets an empty one, which has no tokens
    written = set()
    for cid in entered:
        owner, sig = split_member(cid.qname)
        info = eager.symbols[owner]
        m = info.ctors[sig] if sig in info.ctors else info.methods[sig]
        if not getattr(m.decl, "synthetic", False):
            written.add(cid)
    assert len(set(parsed_bodies)) == len(parsed_bodies) == len(written) > 0


def test_a_stale_stamp_reports_a_syntax_error_in_a_body_no_test_enters(tmp_path):
    ws = copy_workspace(GOLDEN / "workspace", tmp_path / "ws")
    assert _vet(ws, "scan")[0] == 0
    for pattern in GOLDEN_PATTERNS:
        assert _vet(ws, "trace", "run", "--pattern", pattern)[0] == 0
    (ws / "src/Never.jx").write_text("package app;\n\nclass Never {\n"
                                     "    static int never() { int x = ; return x; }\n}\n")
    code, out, err = _vet(ws, "trace", "run", "--pattern", "test")
    assert (code, out) == (3, "")
    assert err == "vet: error: src/Never.jx:4:34: expected an expression, found ';'\n"
    assert _vet(ws, "scan") == (3, "", err)


def test_a_stamped_trace_run_lexes_the_declarations_and_the_bodies_it_enters(
        tmp_path, monkeypatch, parsed_bodies):
    calls = []  # (mode, origin, tokens returned) of each tokenize call
    real = parser.tokenize

    def tokenize(source, origin, *position, bodies=True):
        tokens = real(source, origin, *position, bodies=bodies)
        mode = "body" if position else "eager" if bodies else "declarations"
        calls.append((mode, origin, len(tokens)))
        return tokens
    monkeypatch.setattr(parser, "tokenize", tokenize)

    def lexed(ws, *argv):
        calls.clear()
        assert _vet(ws, *argv)[0] in (0, 1)
        return sorted(calls)

    ws = copy_workspace(GOLDEN / "workspace", tmp_path / "ws")
    unstamped_ws = shutil.copytree(ws, tmp_path / "unstamped")
    scanned = lexed(ws, "scan")
    # scan lexes each file once in declarations mode, and each written body
    # once in body mode, where it parses it
    files = [origin for mode, origin, _n in scanned if mode == "declarations"]
    bodies = [origin for mode, origin, _n in scanned if mode == "body"]
    assert len(set(files)) == len(files) > 1 and len(files) + len(bodies) == len(scanned)
    assert bodies == [origin for origin, _start in written_bodies(ws)]
    parsed_bodies.clear()
    stamped = lexed(ws, "trace", "run", "--pattern", "test")
    assert [origin for mode, origin, _n in stamped if mode == "declarations"] == files
    # a body is lexed where parse_body parses it: once per written body entered
    entered = [origin for mode, origin, _n in stamped if mode == "body"]
    assert len(entered) + len(files) == len(stamped)
    assert entered == sorted(origin for origin, _start in parsed_bodies) != []
    # without the stamp, the inventory lexes every written body once more,
    # and nothing is lexed whole
    unstamped = lexed(unstamped_ws, "trace", "run", "--pattern", "test")
    assert [origin for mode, origin, _n in unstamped if mode == "declarations"] == files
    assert sorted(origin for mode, origin, _n in unstamped if mode == "body") == sorted(
        bodies + entered)
    assert sum(n for *_key, n in stamped) < sum(n for *_key, n in unstamped)

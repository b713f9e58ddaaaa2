"""Text reading, file listing, the shape check of JSON inputs, and corrupted JSON inputs."""

import json
import os
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import listing_reference
from helpers import (GOLDEN, build_golden_kb, copy_workspace, flipped_or_truncated, json_near,
                     mutate_json, reference_bad_at, reference_fits, shapes_of)
from vulnvet import bom, callgraph, cli, kb, report, traces
from vulnvet.cli import main as vet
from vulnvet.errors import MalformedArtifact
from vulnvet.workspace import check, json_text, read_text, regular_files, shape


def _reference(root, pattern) -> list:
    return [(p.relative_to(root).as_posix(), str(p))
            for p in listing_reference.regular_files(root, pattern)]


def test_regular_files_are_in_the_order_of_sorted_paths(tmp_path):
    # "a-b.json" < "a.json" < "a/b.json" as text, but a/b.json comes first as a path
    for name in ("a.json", "a-b.json", "a/b.json", "a/a.json", "a b.json", "A.json", "a0/x.json",
                 "a/c/d.json", "b.json"):
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text("{}")
    (tmp_path / "c.json").mkdir()  # not a regular file
    for deep, pattern in ((True, "**/*.json"), (False, "*.json")):
        assert regular_files(tmp_path, ".json", deep) == _reference(tmp_path, pattern)
    assert [rel for rel, _ in regular_files(tmp_path, ".json", deep=True)][:5] == [
        "A.json", "a/a.json", "a/b.json", "a/c/d.json", "a b.json"]
    assert regular_files(tmp_path / "nosuch", ".json", deep=True) == []
    assert regular_files(tmp_path / "b.json", ".json") == []


def test_regular_files_spell_paths_under_the_current_directory_as_pathlib(tmp_path, monkeypatch):
    (tmp_path / "q").mkdir()
    (tmp_path / "q/a.jx").write_text("")
    (tmp_path / "b.jx").write_text("")
    monkeypatch.chdir(tmp_path)
    for root in (Path("."), Path("q"), Path("./q/"), tmp_path):
        assert regular_files(root, ".jx", deep=True) == _reference(root, "**/*.jx")
    assert bom.source_files(Path("."), Path("q")) == [
        (origin, str(path)) for origin, path in listing_reference.source_files(Path("."), Path("q"))]
    assert regular_files(Path("/"), ".no-such-suffix") == []


# names that sort apart as text and as parts, hidden ones, one that is not
# UTF-8, and names of files that are directories or symlinks
_NAMES = st.sampled_from(["a", "a-b", "a b", "A", ".h", "x.jx", ".jx", "b.jx", "b.JX", "y.json",
                          ".z.json", "jx", os.fsdecode(b"\xff.jx"), "\u00e9.json"])
_KINDS = st.sampled_from(["file", "dir", "dir", "link to file", "link to dir",
                          "dangling link", "self link"])


@settings(max_examples=150, deadline=None, database=None)
@given(st.lists(st.tuples(st.integers(0, 30), _NAMES, _KINDS), max_size=30))
def test_regular_files_list_what_glob_lists(ops):
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        dirs, files = [base / "root"], []
        dirs[0].mkdir()
        for at, name, kind in ops:
            path = dirs[at % len(dirs)] / name
            if os.path.lexists(path):
                continue
            if kind == "file":
                path.write_bytes(b"")
                files.append(path)
            elif kind == "dir":
                path.mkdir()
                dirs.append(path)
            elif kind == "link to file" and files:
                path.symlink_to(files[at % len(files)])
            elif kind == "link to dir":  # maybe an ancestor: a cycle if followed
                path.symlink_to(dirs[at % len(dirs)])
            elif kind in ("dangling link", "self link"):
                path.symlink_to(path if kind == "self link" else base / "nosuch")
        for root in dirs[:4]:
            for deep, suffix in ((True, ".jx"), (True, ".json"), (False, ".json")):
                assert regular_files(root, suffix, deep) == _reference(
                    root, ("**/*" if deep else "*") + suffix)
            for origin_base in (None, base, dirs[-1]):
                assert bom.source_files(root, origin_base) == [
                    (origin, str(path))
                    for origin, path in listing_reference.source_files(root, origin_base)]


def test_read_text_translates_every_newline_to_lf(tmp_path):
    path = tmp_path / "a.txt"
    for raw, text in ((b"a\r\nb\r\n", "a\nb\n"), (b"a\rb\r", "a\nb\n"),
                      (b"a\r\n\rb\n", "a\n\nb\n"), (b"a\nb", "a\nb")):
        path.write_bytes(raw)
        assert read_text(path, MalformedArtifact) == text


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=4), kids,
                                                              max_size=4),
    max_leaves=30)


@given(_JSON)
def test_json_text_is_the_indented_sorted_json_and_a_newline(data):
    assert json_text(data) == json.dumps(data, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("data", [
    {"a\u00e9\u2028\U0001f600": ["\u00e9t\u00e9", "\x00\n\"", "\ud800"], "": {}, "b": []},
    [], {}, "", [[], {}, [{}]],
    [[[[[[[[[[[[[[[[[[[[[[[[[[[[[[1]]]]]]]]]]]]]]]]]]]]]]]]]]]]]],
    {"k%05d" % i: [i, "v\u00e9%d" % i, {"n": None, "f": i / 7}] for i in range(3000)},
])
def test_json_text_of_non_ascii_empty_deep_and_many_piece_documents(data):
    assert json_text(data) == json.dumps(data, indent=2, sort_keys=True) + "\n"


SHAPES = shapes_of(bom, callgraph, cli, kb, report, traces)


def test_every_json_input_has_a_shape():
    assert sorted(SHAPES) == [
        "vulnvet.bom._BOM", "vulnvet.bom._MANIFEST", "vulnvet.callgraph._GRAPH",
        "vulnvet.callgraph._REACH", "vulnvet.cli._FAILURES", "vulnvet.kb.INDEX",
        "vulnvet.kb.RECORD", "vulnvet.kb._KB_INDEX", "vulnvet.report._FINDINGS",
        "vulnvet.report._MITIGATION",
        "vulnvet.traces.EVENT", "vulnvet.traces._SUMMARY"]


@pytest.mark.parametrize("name", sorted(SHAPES))
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_planned_checks_agree_with_the_reference(name, data):
    planned = SHAPES[name]
    value = data.draw(json_near(planned.spec))
    bad = planned(value)
    assert (bad is None) == reference_fits(value, planned.spec)
    if bad is not None:
        assert reference_bad_at(value, planned.spec, bad[0]), bad


def test_a_missing_key_is_not_a_null_one():
    event = traces.EVENT
    assert event({"callee": "p.A.a()", "ts": 1}) is None
    assert event({"callee": "p.A.a()", "ts": 1, "test": None}) == (("test",), (
        "expected text, found null"))
    entry = shape({"fingerprint": (None, str)})
    assert entry({"fingerprint": None}) is None
    assert entry({}) == (("fingerprint",), "missing")


def test_check_names_the_file_and_the_json_path():
    record = {"vulnId": "V", "kind": "CODE_CHANGE",
              "changes": [{"ctype": "METHOD", "qname": "p.A.a()", "op": "CHANGE"}]}
    with pytest.raises(MalformedArtifact) as exc:
        check(record, kb.RECORD, "kb/vulns/V.json", MalformedArtifact)
    assert str(exc.value) == ("kb/vulns/V.json: ['changes'][0]['op']: expected one of "
                              'ADD, DEL, MOD, found "CHANGE"')


def test_an_artifact_reader_names_the_json_path(tmp_path):
    ws = copy_workspace(GOLDEN / "workspace", tmp_path / "ws")
    data = bom.bom_to_json(bom.build_bom(bom.Sources(ws / "app.json", ws)))
    data["archives"][1]["constructs"][2]["ctype"] = "FIELD"
    with pytest.raises(MalformedArtifact) as exc:
        bom.bom_from_json(data, "bom.json")
    assert str(exc.value) == ("bom.json: ['archives'][1]['constructs'][2]['ctype']: expected "
                              'one of PACKAGE, CLASS, INTERFACE, CONSTRUCTOR, METHOD, found "FIELD"')


# --- corrupted JSON inputs (seeded mutations) --------------------------------

LIB1_SRC = GOLDEN / "workspace/libs/lib1/1.0/src"
SCAN, STATIC, COMBINED = ["scan"], ["reach", "static"], ["reach", "combined"]
TRACE, MITIGATE = ["trace", "run", "--pattern", "test"], ["mitigate", "--lib", "lib1"]
REPORT = ["report", "--format", "html"]

# each JSON input and the commands that read it
READERS = {
    "app.json": (SCAN,),
    "libs/lib1/1.0/lib.json": (SCAN,),
    "kb/vulns/VULN-J1.json": (SCAN,),
    "kb/libs/lib1.json": (MITIGATE, ["kb", "list"]),
    ".vet/bom.json": (STATIC, TRACE, REPORT),
    ".vet/graph.json": (STATIC,),
    ".vet/findings.json": (REPORT,),
    ".vet/reach-static.json": (REPORT,),
    ".vet/reach-combined.json": (REPORT,),
    ".vet/mitigation-lib1.json": (REPORT,),
    ".vet/trace-summary.json": (COMBINED, REPORT),
    ".vet/test-failures.json": (TRACE,),
    ".vet/traces.jsonl": (COMBINED,),
    ".vet/kb-index.json": (SCAN, MITIGATE),
}


def _golden_pass(tmp_path, *more):
    """The golden workspace, with lib1 indexed, after a whole pass and more steps."""
    ws = copy_workspace(GOLDEN / "workspace", tmp_path / "ws")
    build_golden_kb(ws / "kb").index_library("lib1", [("1.0", LIB1_SRC), ("2.0", LIB1_SRC)])
    for step in (SCAN, TRACE, ["trace", "run", "--pattern", "itest"], STATIC, COMBINED,
                 MITIGATE, ["report"], *more):
        assert vet(["--workspace", str(ws), *step]) in (0, 1, 2)
    return ws


def _snapshot(ws) -> dict:
    return {p: p.read_bytes() for p in ws.rglob("*") if p.is_file()}


def _restore(ws, files: dict):
    for p in ws.rglob("*"):
        if p.is_file() and p not in files:
            p.unlink()
    for p, data in files.items():
        if p.read_bytes() != data:
            p.write_bytes(data)


def _mutated(rng, text: str, name: str) -> str:
    if not name.endswith(".jsonl"):
        return json.dumps(mutate_json(rng, json.loads(text)))
    lines = text.splitlines()
    i = rng.randrange(len(lines))
    lines[i] = json.dumps(mutate_json(rng, json.loads(lines[i])))
    return "\n".join(lines) + "\n"


def test_mutated_json_inputs_exit_cleanly(tmp_path, capsys):
    ws = _golden_pass(tmp_path)
    # an entry of a test that the trace run below does not run, so it is kept
    (ws / ".vet/test-failures.json").write_text('{"app.Main.testGone()": "error"}')
    files = _snapshot(ws)
    rng = random.Random(11)
    codes = set()
    for name, steps in READERS.items():
        text = (ws / name).read_text()
        for _ in range(45):
            (ws / name).write_text(_mutated(rng, text, name))
            for step in steps:
                capsys.readouterr()
                code = vet(["--workspace", str(ws), *step])
                err = capsys.readouterr().err
                assert code in (0, 1, 2, 3) and "Traceback" not in err, (name, step)
                codes.add(code)
            _restore(ws, files)
    assert 3 in codes and codes - {3}


# each file a golden pass reads or writes and the commands that read it; a
# file that no command reads goes with the command that writes it again
FILE_READERS = {
    "src/*.jx": (SCAN, TRACE, STATIC),
    "libs/*/1.0/src/*.jx": (SCAN, STATIC),
    "app.json": (SCAN, STATIC),
    "libs/*/1.0/lib.json": (SCAN, STATIC),
    "kb/vulns/*.json": (SCAN, ["kb", "list"]),
    "kb/libs/*.json": (MITIGATE, ["kb", "list"]),
    ".vet/bom.json": (STATIC, TRACE, REPORT),
    ".vet/graph.json": (STATIC, MITIGATE),
    ".vet/findings.json": (REPORT,),
    ".vet/reach-*.json": (REPORT,),
    ".vet/mitigation-lib1.json": (REPORT,),
    ".vet/mitigation-lib1.csv": (MITIGATE,),
    ".vet/trace-summary.json": (COMBINED, REPORT),
    ".vet/test-failures.json": (TRACE,),
    ".vet/traces.jsonl": (TRACE, COMBINED),
    ".vet/kb-index.json": (SCAN, MITIGATE),
    ".vet/report.json": (["report"],),
    ".vet/report.html": (REPORT,),
}


def test_flipped_or_truncated_files_exit_cleanly(tmp_path, capsys):
    ws = _golden_pass(tmp_path, REPORT)
    files = _snapshot(ws)
    readers = {p: steps for pattern, steps in FILE_READERS.items() for p in ws.glob(pattern)}
    assert sorted(readers) == sorted(files)
    rng = random.Random(13)
    codes = set()
    for path, steps in sorted(readers.items()):
        for _ in range(8):
            path.write_bytes(flipped_or_truncated(rng, files[path]))
            for step in steps:
                capsys.readouterr()
                code = vet(["--workspace", str(ws), *step])
                err = capsys.readouterr().err
                assert code in (0, 1, 2, 3, 64) and "Traceback" not in err, (path, step)
                codes.add(code)
            _restore(ws, files)
    assert 3 in codes and codes - {3}


@pytest.mark.parametrize("name, steps", [
    (".vet/findings.json", (REPORT,)),
    (".vet/test-failures.json", (TRACE,)),
    ("kb/libs/lib1.json", (MITIGATE,)),
])
def test_json_nested_too_deep_or_with_a_huge_number_exits_cleanly(tmp_path, capsys, name, steps):
    ws = copy_workspace(GOLDEN / "workspace", tmp_path / "ws")
    build_golden_kb(ws / "kb").index_library("lib1", [("1.0", LIB1_SRC), ("2.0", LIB1_SRC)])
    for step in (SCAN, TRACE, STATIC, COMBINED, MITIGATE):
        assert vet(["--workspace", str(ws), *step]) in (0, 1, 2)
    for text, codes in (("[" * 100000, (3,)), ('{"a": %s}' % ("1" * 5000), (0, 1, 2, 3))):
        (ws / name).write_text(text)
        for step in steps:
            capsys.readouterr()
            assert vet(["--workspace", str(ws), *step]) in codes
            err = capsys.readouterr().err
            assert "Traceback" not in err and name in err


# --- something in the way of a .vet/ write ------------------------------------

@pytest.mark.parametrize("name, step", [
    ("traces.jsonl", TRACE),
    ("trace-summary.json", TRACE),
    ("test-failures.json", TRACE),
    ("reach-static.json", STATIC),
    ("report.json", ["report"]),
])
def test_a_directory_at_an_output_path_is_refused_by_name(tmp_path, capsys, name, step):
    ws = _golden_pass(tmp_path)
    path = ws / ".vet" / name
    path.unlink()
    path.mkdir()
    files = _snapshot(ws)
    capsys.readouterr()
    assert vet(["--workspace", str(ws), *step]) == 3
    err = capsys.readouterr().err
    assert err == ("vet: error: %s is not a regular file; vet neither reads nor replaces it\n"
                   % path)
    assert "[Errno" not in err and "Traceback" not in err
    # trace run checks its three outputs before its first write
    assert _snapshot(ws) == files and path.is_dir()


def test_a_file_at_vet_is_refused_by_name(tmp_path, capsys):
    ws = copy_workspace(GOLDEN / "workspace", tmp_path / "ws")
    build_golden_kb(ws / "kb")
    (ws / ".vet").write_text("not a directory\n")
    for step in (SCAN, ["report"], TRACE, STATIC):
        capsys.readouterr()
        assert vet(["--workspace", str(ws), *step]) == 3, step
        err = capsys.readouterr().err
        assert err == "vet: error: %s is not a directory\n" % (ws / ".vet"), step
    assert (ws / ".vet").read_text() == "not a directory\n"

"""Knowledge base persistence, version screening and the record index."""

import contextlib
import io
import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from helpers import GOLDEN, build_golden_kb, copy_workspace, small_workload
from vulnvet import kb as kb_module
from vulnvet.cli import main as vet
from vulnvet.canonical import CTree, digest, serialize
from vulnvet.constructs import CLASS, METHOD, ConstructId
from vulnvet.detection import non_vulnerable_versions
from vulnvet.diffing import ADD, DEL, ConstructChange
from vulnvet.errors import (DuplicateVuln, EmptyChangeSet, MalformedArtifact, MalformedRecord,
                            UnknownLibrary)
from vulnvet.kb import (CODE_CHANGE, WHOLE_LIBRARY, KnowledgeBase, LibraryIndex,
                        VulnerabilityRecord)
from vulnvet.workspace import Workspace, framed_digest


def _screen(kb, lib):
    return non_vulnerable_versions(kb.load_index(lib), kb.records())


def test_import_fix_round_trips_asts(tmp_path):
    kb = build_golden_kb(tmp_path / "kb")
    record = kb.load_record("VULN-J1")
    assert record.kind == CODE_CHANGE
    by_id = {c.construct: c for c in record.changes}
    mid = ConstructId(METHOD, "fw.Engine.renderError()")
    ch = by_id[mid]
    assert ch.fp_vuln == digest(ch.ast_vuln)
    assert ch.fp_fixed == digest(ch.ast_fixed)
    assert serialize(ch.ast_vuln) != serialize(ch.ast_fixed)
    # nested rule recorded the enclosing class as containment evidence
    assert ConstructId(CLASS, "fw.Engine") in by_id


def test_import_fix_is_duplicate_safe(tmp_path):
    kb = build_golden_kb(tmp_path / "kb")
    with pytest.raises(DuplicateVuln):
        kb.import_fix("VULN-J1", GOLDEN / "fixes/j1/before",
                      GOLDEN / "fixes/j1/after")
    kb.import_fix("VULN-J1", GOLDEN / "fixes/j1/before",
                  GOLDEN / "fixes/j1/after", overwrite=True)


def test_import_fix_exclusions(tmp_path):
    kb = KnowledgeBase(tmp_path / "kb")
    excl = {ConstructId(CLASS, "fw.Engine")}
    record = kb.import_fix("VULN-X", GOLDEN / "fixes/j1/before",
                           GOLDEN / "fixes/j1/after", exclusions=excl)
    assert {c.construct.qname for c in record.changes} == {"fw.Engine.renderError()"}


def test_identical_roots_reject_empty_change_set(tmp_path):
    kb = KnowledgeBase(tmp_path / "kb")
    with pytest.raises(EmptyChangeSet):
        kb.import_fix("VULN-E", GOLDEN / "fixes/j1/before",
                      GOLDEN / "fixes/j1/before")


def test_whole_library_record_covers_closed_range(tmp_path):
    kb = KnowledgeBase(tmp_path / "kb")
    kb.add_whole_library("VULN-W", [("libX", "1.0", "1.4")])
    record = kb.load_record("VULN-W")
    assert record.kind == WHOLE_LIBRARY
    assert record.covers_version("libX", "1.0")
    assert record.covers_version("libX", "1.4")
    assert record.covers_version("libX", "1.3.9")
    assert not record.covers_version("libX", "1.5")
    assert not record.covers_version("other", "1.2")


def test_index_and_screening(tmp_path):
    kb = build_golden_kb(tmp_path / "kb")
    kb.index_library("lib3", [
        ("1.0", GOLDEN / "workspace/libs/lib3/1.0/src"),  # vulnerable bodies
        ("2.0", GOLDEN / "fixes/j2/after"),               # fixed bodies
    ])
    assert _screen(kb, "lib3") == ["2.0"]
    with pytest.raises(UnknownLibrary):
        kb.load_index("nope")


def test_a_write_shows_in_the_next_screening(tmp_path):
    kb = build_golden_kb(tmp_path / "kb")
    fixed = GOLDEN / "fixes/j2/after"
    kb.index_library("lib3", [("1.0", GOLDEN / "workspace/libs/lib3/1.0/src"), ("2.0", fixed)])
    assert _screen(kb, "lib3") == ["2.0"]
    kb.add_whole_library("VULN-W", [("lib3", "2.0", "2.0")])
    assert _screen(kb, "lib3") == []
    kb.index_library("lib3", [("3.0", fixed)])
    assert _screen(kb, "lib3") == ["3.0"]


def test_screening_classifies_index_digests_as_detection_does(tmp_path):
    # the fix deletes X and adds Y; an added body equal to neither side gives
    # no signal, so a version holding X and another Y stays vulnerable
    kb = KnowledgeBase(tmp_path / "kb")
    x, y = ConstructId(METHOD, "z.A.x()"), ConstructId(METHOD, "z.A.y()")
    old, new = CTree("method:x"), CTree("method:y")
    kb.save_record(VulnerabilityRecord("VULN-Z", "", CODE_CHANGE, changes=[
        ConstructChange(x, DEL, ast_vuln=old, fp_vuln=digest(old)),
        ConstructChange(y, ADD, ast_fixed=new, fp_fixed=digest(new))]))
    kb.save_index(LibraryIndex("libZ", {
        "1.0": {x: digest(old), y: "other"},  # DEL matches, ADD tells nothing
        "2.0": {x: digest(old), y: digest(new)},  # one side each: review
        "3.0": {y: digest(new)},                 # fixed
        "4.0": {y: "other"},                     # nothing informative
    }))
    assert _screen(kb, "libZ") == ["2.0", "3.0", "4.0"]


def test_kb_digest_tracks_content(tmp_path):
    kb = build_golden_kb(tmp_path / "kb")
    first = kb.digest()
    assert kb.digest() == first
    kb.add_whole_library("VULN-W", [("libX", "1.0", "1.4")])
    assert kb.digest() != first


def test_kb_digest_frames_each_path_and_its_bytes(tmp_path):
    # unframed, both sets hash the bytes libs/a.jsonAvulns/b.jsonB
    one, two = tmp_path / "one", tmp_path / "two"
    (one / "libs").mkdir(parents=True)
    (one / "libs/a.json").write_bytes(b"Avulns/b.jsonB")
    for path, data in (("libs/a.json", b"A"), ("vulns/b.json", b"B")):
        (two / path).parent.mkdir(parents=True, exist_ok=True)
        (two / path).write_bytes(data)
    assert KnowledgeBase(one).digest() != KnowledgeBase(two).digest()


def test_documents_are_stable_json(tmp_path):
    kb = build_golden_kb(tmp_path / "kb")
    path = tmp_path / "kb/vulns/VULN-J1.json"
    data = json.loads(path.read_text())
    before = path.read_bytes()
    kb.save_record(kb.load_record("VULN-J1"))
    assert path.read_bytes() == before
    assert data["vulnId"] == "VULN-J1"


def test_a_document_is_stored_only_if_it_would_be_read(tmp_path):
    # the rules load_record and load_index keep hold when saving too
    kb = KnowledgeBase(tmp_path / "kb")
    gone = ConstructChange(ConstructId(METHOD, "p.A.f()"), DEL, fp_vuln="aa")
    with pytest.raises(MalformedRecord, match="construct METHOD:p.A.f\\(\\) changes more than once"):
        kb.save_record(VulnerabilityRecord("V", "", CODE_CHANGE, changes=[gone, gone]))
    with pytest.raises(MalformedRecord, match="low is above high"):
        kb.save_record(VulnerabilityRecord("V", "", WHOLE_LIBRARY, affected=[("l", "2.0", "1.0")]))
    with pytest.raises(MalformedRecord, match="version 2.0.0 repeats version 2.0"):
        kb.save_index(LibraryIndex("l", {"2.0": {}, "2.0.0": {}}))
    assert not (tmp_path / "kb").exists()


# --- the record index, .vet/kb-index.json -------------------------------------

SCAN, MITIGATE = ["scan"], ["mitigate", "--lib", "lib1"]


def _vet(ws, argv) -> tuple:
    """Exit code, stdout and stderr of one command, the workspace path taken out."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = vet(["--workspace", str(ws), *argv])
    return code, out.getvalue().replace(str(ws), "WS"), err.getvalue().replace(str(ws), "WS")


def _results(ws) -> dict:
    """Every .vet/ file but the index."""
    return {p.name: p.read_bytes() for p in sorted((ws / ".vet").iterdir())
            if p.name != "kb-index.json"}


def _golden(dst):
    """The golden workspace with its knowledge base and an index of lib1."""
    ws = copy_workspace(GOLDEN / "workspace", dst)
    kb = build_golden_kb(ws / "kb")
    lib1 = ws / "libs/lib1/1.0/src"
    kb.index_library("lib1", [("1.0", lib1), ("2.0", lib1)])
    return ws


def test_scan_writes_what_each_record_names_and_reads_only_what_can_match(tmp_path,
                                                                         monkeypatch):
    ws = _golden(tmp_path / "ws")
    kb = KnowledgeBase(ws / "kb")
    kb.add_whole_library("RANGE-X", [("nosuch", "1.0", "2.0"), ("fw", "0.1", "0.2")])
    kb.add_whole_library("RANGE-Y", [("other", "1.0", "2.0")])
    assert _vet(ws, SCAN)[0] == 1
    index = json.loads((ws / ".vet/kb-index.json").read_text())
    files = sorted((ws / "kb/vulns").iterdir())
    assert index["inputs"] == framed_digest(
        part for p in files for part in (p.name.encode(), p.read_bytes()))
    assert index["records"]["RANGE-X"] == {"constructs": [], "libraries": ["fw", "nosuch"]}
    assert index["records"]["VULN-J1"] == {"constructs": [
        "CLASS:fw.Engine", "METHOD:fw.Engine.renderError()"], "libraries": []}
    findings = (ws / ".vet/findings.json").read_bytes()
    decoded = []
    real = kb_module.decode_json
    monkeypatch.setattr(kb_module, "decode_json",
                        lambda data, path, *args: decoded.append(path.name) or real(
                            data, path, *args))
    assert _vet(ws, SCAN)[0] == 1
    # RANGE-X names the archive fw; RANGE-Y names no archive
    assert decoded == ["RANGE-X.json", "VULN-J1.json", "VULN-J2.json"]
    assert (ws / ".vet/findings.json").read_bytes() == findings


@pytest.fixture(scope="module")
def drift(tmp_path_factory):
    """A small kb-drift workspace with its knowledge base built."""
    root = tmp_path_factory.mktemp("kb-drift")
    ws = small_workload(root, "kb-drift")
    setup = json.loads((root / "answers.json").read_text())["setup"]
    cwd = os.getcwd()
    os.chdir(ws)  # the set-up names its fix trees relative to the workspace
    try:
        for argv in setup:
            assert _vet(ws, argv)[0] == 0
    finally:
        os.chdir(cwd)
    return ws


def _edit(vulns, kind: str, i: int, j: int):
    """Remove, copy, re-describe, re-target, add or break a record file."""
    files = sorted(vulns.glob("*.json"))
    path, other = files[i % len(files)], files[j % len(files)]
    data = json.loads(path.read_text())
    if kind == "remove":
        path.unlink()
        return
    if kind == "copy":  # another record that changes the same constructs
        path = vulns / ("COPY-%d.json" % j)
        data["vulnId"] = path.stem
    elif kind == "describe":  # other bytes, the same meaning
        data["description"] = "edited %d" % j
    elif kind == "retarget":  # the constructs of another record
        for mine, theirs in zip(data.get("changes", []),
                                json.loads(other.read_text()).get("changes", [])):
            mine.update(ctype=theirs["ctype"], qname=theirs["qname"])
    elif kind == "range":
        path = vulns / ("RANGE-%d.json" % j)
        data = {"vulnId": path.stem, "kind": WHOLE_LIBRARY,
                "affected": [{"library": "l%d" % (j % 4), "low": "1.0", "high": "2.0"}]}
    else:  # refused, naming the file
        data["kind"] = "BROKEN"
    path.write_text(json.dumps(data))


_STEPS = st.sampled_from([SCAN, ["mitigate", "--lib", "l0"]])
_EDITS = st.lists(st.tuples(st.sampled_from(["remove", "copy", "describe", "retarget", "range",
                                             "break"]),
                            st.integers(0, 999), st.integers(0, 999)), max_size=3)


@settings(max_examples=15, deadline=None)
@given(first=_STEPS, second=_STEPS, edits=_EDITS)
def test_results_with_the_index_equal_those_without(drift, tmp_path_factory, first, second,
                                                    edits):
    # the first step writes the index; the KB then changes, and the second step
    # runs twice: on a stale index, then on the one it wrote, if it wrote one
    root = tmp_path_factory.mktemp("run")
    runs = []
    for kept in (True, False):
        ws = copy_workspace(drift, root / str(kept))
        assert _vet(ws, first)[0] in (0, 1)
        for edit in edits:
            _edit(ws / "kb/vulns", *edit)
        outcomes = []
        for _ in range(2):
            if not kept:
                (ws / ".vet/kb-index.json").unlink(missing_ok=True)
            outcomes.append((_vet(ws, second), _results(ws)))
        runs.append(outcomes)
    assert runs[0] == runs[1]


def test_a_record_edited_after_scan_is_refused_by_mitigate(tmp_path):
    ws = _golden(tmp_path / "ws")
    assert _vet(ws, SCAN)[0] == 1
    assert _vet(ws, MITIGATE)[0] == 0  # no record names lib1: the index selects none
    path = ws / "kb/vulns/VULN-J2.json"
    data = json.loads(path.read_text())
    data["changes"][0]["op"] = "CHANGE"
    path.write_text(json.dumps(data))
    code, _out, err = _vet(ws, MITIGATE)
    assert code == 3 and "VULN-J2.json" in err and "['op']" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("edit", [
    lambda d: d.pop("records"),
    lambda d: d["records"].update({"VULN-J1": {"constructs": [["CLASS", "x"]],
                                               "libraries": []}}),
    lambda d: d["records"]["VULN-J2"].update(libraries="fw"),
    lambda d: d["records"]["VULN-J2"].pop("constructs"),
])
def test_a_stamped_index_of_another_shape_exits_three(tmp_path, edit):
    ws = _golden(tmp_path / "ws")
    assert _vet(ws, SCAN)[0] == 1
    path = ws / ".vet/kb-index.json"
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))
    for step in (SCAN, MITIGATE):
        code, _out, err = _vet(ws, step)
        assert code == 3 and "kb-index.json" in err and "Traceback" not in err
    with pytest.raises(MalformedArtifact, match="kb-index.json"):
        KnowledgeBase(ws / "kb", Workspace(ws)).records(set(), set())


def test_a_directory_at_the_index_path_is_no_index(tmp_path):
    runs = []
    for name in ("file", "dir"):
        ws = _golden(tmp_path / name)
        if name == "dir":
            (ws / ".vet/kb-index.json").mkdir(parents=True)
        runs.append([_vet(ws, step) for step in (SCAN, MITIGATE, SCAN)] + [_results(ws)])
        assert (ws / ".vet/kb-index.json").is_dir() == (name == "dir")
    assert runs[0] == runs[1]

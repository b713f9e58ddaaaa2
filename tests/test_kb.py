"""Knowledge base persistence and version screening."""

import json

import pytest

from helpers import GOLDEN, build_golden_kb
from vulnvet.canonical import CTree, digest, serialize
from vulnvet.constructs import CLASS, METHOD, ConstructId
from vulnvet.detection import non_vulnerable_versions
from vulnvet.diffing import ADD, DEL, ConstructChange
from vulnvet.errors import DuplicateVuln, EmptyChangeSet, MalformedRecord, UnknownLibrary
from vulnvet.kb import (CODE_CHANGE, WHOLE_LIBRARY, KnowledgeBase, LibraryIndex,
                        VulnerabilityRecord)


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

"""Construct-intersection detection and verdicts."""

from pathlib import Path

from helpers import GOLDEN, build_golden_kb, copy_workspace
from lowering import digest, serialize
from vulnvet import canonical
from vulnvet.bom import APPLICATION, Archive, BOM, Sources, build_bom
from vulnvet.canonical import CTree, deserialize
from vulnvet.constructs import METHOD, ConstructId
from vulnvet.detection import (FIXED, MANUAL_REVIEW, VULNERABLE,
                               WHOLE_LIBRARY_AFFECTED, aggregate_verdict,
                               detect, finding_to_json, non_vulnerable_versions)
from vulnvet.diffing import (CLOSER_TO_FIXED, CLOSER_TO_VULNERABLE,
                             EQUALS_FIXED, EQUALS_VULNERABLE, MOD, TIE,
                             Classification, ConstructChange)
from vulnvet.kb import CODE_CHANGE, VulnerabilityRecord


def _c(v):
    return Classification(v)


def test_aggregate_all_vulnerable_side():
    assert aggregate_verdict([_c(EQUALS_VULNERABLE), _c(CLOSER_TO_VULNERABLE)]) == VULNERABLE


def test_aggregate_all_fixed_side():
    assert aggregate_verdict([_c(EQUALS_FIXED), _c(CLOSER_TO_FIXED)]) == FIXED


def test_aggregate_mixed_or_tied_needs_review():
    assert aggregate_verdict([_c(EQUALS_FIXED), _c(EQUALS_VULNERABLE)]) == MANUAL_REVIEW
    assert aggregate_verdict([_c(TIE)]) == MANUAL_REVIEW
    assert aggregate_verdict([]) == MANUAL_REVIEW
    # containment-only entries carry no signal
    assert aggregate_verdict([None, None]) == MANUAL_REVIEW
    assert aggregate_verdict([None, _c(EQUALS_VULNERABLE)]) == VULNERABLE


def test_golden_detection_verdicts(tmp_path):
    ws = copy_workspace(GOLDEN / "workspace", tmp_path / "ws")
    kb = build_golden_kb(tmp_path / "kb")
    findings = detect(build_bom(Sources(ws / "app.json", ws)), kb)
    assert {(f.vuln_id, f.archive_name, f.verdict) for f in findings} == {
        ("VULN-J1", "fw", VULNERABLE),
        ("VULN-J2", "lib3", VULNERABLE),
    }


def test_fixed_archive_is_reported_fixed(tmp_path):
    ws = copy_workspace(GOLDEN / "workspace", tmp_path / "ws")
    # ship the post-fix framework sources instead
    eng = ws / "libs/fw/1.0/src/engine.jx"
    eng.write_text((GOLDEN / "fixes/j1/after/engine.jx").read_text())
    kb = build_golden_kb(tmp_path / "kb")
    findings = detect(build_bom(Sources(ws / "app.json", ws)), kb)
    f1 = next(f for f in findings if f.vuln_id == "VULN-J1")
    assert f1.verdict == FIXED


def test_whole_library_match_by_range(tmp_path):
    ws = copy_workspace(GOLDEN / "workspace", tmp_path / "ws")
    kb = build_golden_kb(tmp_path / "kb")
    kb.add_whole_library("VULN-W", [("lib2", "1.0", "1.9")])
    findings = detect(build_bom(Sources(ws / "app.json", ws)), kb)
    fw = next(f for f in findings if f.vuln_id == "VULN-W")
    assert fw.archive_name == "lib2"
    assert fw.verdict == WHOLE_LIBRARY_AFFECTED


def test_finding_json_shape(tmp_path):
    ws = copy_workspace(GOLDEN / "workspace", tmp_path / "ws")
    kb = build_golden_kb(tmp_path / "kb")
    findings = detect(build_bom(Sources(ws / "app.json", ws)), kb)
    data = finding_to_json(findings[0])
    assert set(data) == {"vulnId", "archive", "verdict", "evidence", "matched"}
    for entry in data["matched"]:
        assert {"ctype", "qname", "change", "contained",
                "classification"} <= set(entry)


def test_application_archive_is_scanned_too(tmp_path):
    # an application bundling the vulnerable class is flagged like a library
    ws = copy_workspace(GOLDEN / "workspace", tmp_path / "ws")
    vuln_src = (GOLDEN / "workspace/libs/lib3/1.0/src/scan.jx").read_text()
    (ws / "src/scan.jx").write_text(vuln_src)
    kb = build_golden_kb(tmp_path / "kb")
    findings = detect(build_bom(Sources(ws / "app.json", ws)), kb)
    hits = {(f.vuln_id, f.archive_name) for f in findings}
    assert ("VULN-J2", "demo-app") in hits
    assert ("VULN-J2", "lib3") in hits


def test_scan_decodes_only_the_trees_it_measures(tmp_path, monkeypatch):
    ws = copy_workspace(GOLDEN / "workspace", tmp_path / "ws")
    eng = ws / "libs/fw/1.0/src/engine.jx"
    eng.write_text(eng.read_text().replace("width = 640;", "width = 642;"))
    kb = build_golden_kb(tmp_path / "kb")
    body = CTree("block", (CTree("lit 1"),))
    fixed = CTree("block", (CTree("lit 2"),))
    for k in range(40):  # records whose constructs no archive holds
        cid = ConstructId(METHOD, "nomatch%d.A.m()" % k)
        kb.save_record(VulnerabilityRecord("NOISE-%d" % k, "", CODE_CHANGE, changes=[
            ConstructChange(cid, MOD, serialize(body), serialize(fixed), digest(body),
                            digest(fixed))]))
    decoded = []

    def counting(text):
        decoded.append(text)
        return deserialize(text)
    monkeypatch.setattr(canonical, "deserialize", counting)

    findings = detect(build_bom(Sources(ws / "app.json", ws)), kb)
    measured = [m for f in findings for m in f.matched
                if m.classification is not None and m.classification.dist_vuln is not None]
    assert [m.change.construct.qname for m in measured] == ["fw.Engine.renderError()"]
    change = measured[0].change
    observed = next(arc for arc, _ in build_bom(Sources(ws / "app.json", ws)).archives()
                    if change.construct in arc.constructs).constructs[change.construct]
    # the observed body and both sides of its change, each once
    assert sorted(decoded) == sorted([observed.text, change.text_vuln, change.text_fixed])

    decoded.clear()
    kb.index_library("lib3", [("1.0", GOLDEN / "workspace/libs/lib3/1.0/src")])
    assert non_vulnerable_versions(kb.load_index("lib3"), kb.records()) == []
    assert decoded == []

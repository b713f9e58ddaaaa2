"""Command line behavior, exit codes, and artifact handling."""

import json
import os

import pytest

from helpers import GOLDEN, UPDATE, copy_workspace, deep_bodies
from vulnvet.cli import main as vet
from vulnvet.jx.parser import MAX_NESTING


def _import_golden_kb(ws):
    fx = GOLDEN / "fixes"
    assert vet(["--workspace", str(ws), "kb", "import-fix", "--id", "VULN-J1",
                "--before", str(fx / "j1/before"), "--after", str(fx / "j1/after")]) == 0
    assert vet(["--workspace", str(ws), "kb", "import-fix", "--id", "VULN-J2",
                "--before", str(fx / "j2/before"), "--after", str(fx / "j2/after")]) == 0


def test_scan_clean_project_exits_zero(tmp_path):
    ws = copy_workspace(UPDATE / "workspace", tmp_path / "ws")
    assert vet(["--workspace", str(ws), "scan"]) == 0
    findings = json.loads((ws / ".vet/findings.json").read_text())
    assert findings == []


def test_scan_with_findings_but_no_evidence_exits_one(tmp_path):
    ws = copy_workspace(GOLDEN / "workspace", tmp_path / "ws")
    _import_golden_kb(ws)
    assert vet(["--workspace", str(ws), "scan"]) == 1


def test_full_pipeline_exits_two(tmp_path):
    ws = copy_workspace(GOLDEN / "workspace", tmp_path / "ws")
    _import_golden_kb(ws)
    for step in (["scan"], ["trace", "run", "--pattern", "test"],
                 ["trace", "run", "--pattern", "itest"],
                 ["reach", "static"], ["reach", "combined"]):
        vet(["--workspace", str(ws), *step])
    assert vet(["--workspace", str(ws), "report"]) == 2
    report = json.loads((ws / ".vet/report.json").read_text())
    assert report["kbDigest"]
    assert {f["evidence"] for f in report["findings"]} == {"COMBINED"}


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as info:
        vet(["frobnicate"])
    assert info.value.code == 64


def test_analysis_error_exit_code(tmp_path):
    # empty workspace: scan cannot find a manifest
    assert vet(["--workspace", str(tmp_path), "scan"]) == 3


def test_workspace_env_var(tmp_path, monkeypatch):
    ws = copy_workspace(UPDATE / "workspace", tmp_path / "ws")
    monkeypatch.setenv("VET_WORKSPACE", str(ws))
    assert vet(["scan"]) == 0
    assert (ws / ".vet/findings.json").is_file()


def test_separate_kb_path(tmp_path):
    ws = copy_workspace(GOLDEN / "workspace", tmp_path / "ws")
    kb_dir = tmp_path / "shared-kb"
    fx = GOLDEN / "fixes"
    assert vet(["--workspace", str(ws), "--kb", str(kb_dir), "kb", "import-fix",
                "--id", "VULN-J1", "--before", str(fx / "j1/before"),
                "--after", str(fx / "j1/after")]) == 0
    assert (kb_dir / "vulns/VULN-J1.json").is_file()
    assert not (ws / "kb").exists()
    assert vet(["--workspace", str(ws), "--kb", str(kb_dir), "scan"]) == 1


def test_kb_list_and_duplicate_guard(tmp_path, capsys):
    ws = copy_workspace(GOLDEN / "workspace", tmp_path / "ws")
    _import_golden_kb(ws)
    assert vet(["--workspace", str(ws), "kb", "list"]) == 0
    out = capsys.readouterr().out
    assert "VULN-J1" in out and "VULN-J2" in out
    fx = GOLDEN / "fixes"
    assert vet(["--workspace", str(ws), "kb", "import-fix", "--id", "VULN-J1",
                "--before", str(fx / "j1/before"),
                "--after", str(fx / "j1/after")]) == 3


def test_kb_add_range(tmp_path):
    ws = copy_workspace(GOLDEN / "workspace", tmp_path / "ws")
    assert vet(["--workspace", str(ws), "kb", "add-range", "--id", "VULN-W",
                "--affected", "lib2:1.0:1.9"]) == 0
    assert vet(["--workspace", str(ws), "scan"]) == 1
    findings = json.loads((ws / ".vet/findings.json").read_text())
    assert findings[0]["verdict"] == "WHOLE_LIBRARY_AFFECTED"


def test_mitigate_writes_json_and_csv(tmp_path):
    ws = copy_workspace(UPDATE / "workspace", tmp_path / "ws")
    assert vet(["--workspace", str(ws), "kb", "index-lib", "--name", "libA",
                "--root", "1.0=%s" % (ws / "libs/libA/1.0/src"),
                "--root", "2.0=%s" % (UPDATE / "versions/2.0")]) == 0
    assert vet(["--workspace", str(ws), "mitigate", "--lib", "libA"]) == 0
    data = json.loads((ws / ".vet/mitigation-libA.json").read_text())
    assert data["candidates"][0]["cs"] == {"num": 1, "den": 2}
    assert data["candidates"][0]["de"] == 3
    csv = (ws / ".vet/mitigation-libA.csv").read_text()
    assert csv.splitlines()[1].startswith("2.0,1,2,3,")


def test_mitigate_without_candidates_is_an_error(tmp_path):
    ws = copy_workspace(UPDATE / "workspace", tmp_path / "ws")
    assert vet(["--workspace", str(ws), "kb", "index-lib", "--name", "libA",
                "--root", "1.0=%s" % (ws / "libs/libA/1.0/src")]) == 0
    assert vet(["--workspace", str(ws), "mitigate", "--lib", "libA"]) == 3


def test_html_report_is_emitted(tmp_path):
    ws = copy_workspace(GOLDEN / "workspace", tmp_path / "ws")
    _import_golden_kb(ws)
    vet(["--workspace", str(ws), "scan"])
    assert vet(["--workspace", str(ws), "report", "--format", "html"]) == 1
    html = (ws / ".vet/report.html").read_text()
    assert html.startswith("<!DOCTYPE html>")
    assert "VULN-J1" in html and "fw.Engine.renderError()" in html


def test_trace_failures_artifact(tmp_path):
    ws = copy_workspace(GOLDEN / "workspace", tmp_path / "ws")
    assert vet(["--workspace", str(ws), "trace", "run", "--pattern", "test"]) == 0
    failures = json.loads((ws / ".vet/test-failures.json").read_text())
    assert failures == {}


def test_no_timestamps_in_artifacts(tmp_path):
    ws = copy_workspace(GOLDEN / "workspace", tmp_path / "ws")
    _import_golden_kb(ws)
    vet(["--workspace", str(ws), "scan"])
    vet(["--workspace", str(ws), "report"])
    for name in ("bom.json", "findings.json", "report.json"):
        text = (ws / ".vet" / name).read_text()
        for marker in ("timestamp", "generatedAt", "20%d" % 26):
            assert marker not in text


def test_report_rejects_malformed_trace_line(tmp_path, capsys):
    ws = copy_workspace(GOLDEN / "workspace", tmp_path / "ws")
    assert vet(["--workspace", str(ws), "trace", "run", "--pattern", "test"]) == 0
    traces = ws / ".vet/traces.jsonl"
    lines = traces.read_text().splitlines()
    lines[1] = lines[1][:-1]  # truncated JSON object
    traces.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    for step in (["report"], ["reach", "combined"]):
        assert vet(["--workspace", str(ws), *step]) == 3
        err = capsys.readouterr().err
        assert "trace line 2:" in err and "Traceback" not in err


def test_report_rejects_reach_artifact_without_seed_chain(tmp_path, capsys):
    ws = copy_workspace(GOLDEN / "workspace", tmp_path / "ws")
    _import_golden_kb(ws)
    for step in (["scan"], ["trace", "run", "--pattern", "itest"], ["reach", "combined"]):
        vet(["--workspace", str(ws), *step])
    assert vet(["--workspace", str(ws), "report"]) == 2
    path = ws / ".vet/reach-combined.json"
    data = json.loads(path.read_text())
    # hand edit: renderError stays reached but loses the edge to its caller
    del data["parents"]["fw.Engine.renderError()"]
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert vet(["--workspace", str(ws), "report"]) == 3
    err = capsys.readouterr().err
    assert "reach-combined.json" in err and "fw.Engine.renderError()" in err
    assert "Traceback" not in err
    path.write_text(path.read_text()[:-10])  # truncated file
    assert vet(["--workspace", str(ws), "report"]) == 3
    assert "reach-combined.json" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    '{"vulnId": "BAD", "kind": ',                                  # not JSON
    '["BAD", "CODE_CHANGE"]',                                      # not an object
    '{"kind": "CODE_CHANGE", "changes": []}',                      # no vulnId
    '{"vulnId": "BAD", "changes": []}',                            # no kind
    '{"vulnId": "BAD", "kind": "CODE_CHANGE", "changes": [{"ctype": "METHOD", "op": "MOD"}]}',
])
def test_scan_rejects_malformed_kb_record(tmp_path, capsys, text):
    ws = copy_workspace(GOLDEN / "workspace", tmp_path / "ws")
    _import_golden_kb(ws)
    (ws / "kb/vulns/BAD.json").write_text(text)
    capsys.readouterr()
    assert vet(["--workspace", str(ws), "scan"]) == 3
    err = capsys.readouterr().err
    assert "BAD.json" in err and "Traceback" not in err


def test_scan_rejects_stored_tree_that_does_not_decode(tmp_path, capsys):
    ws = copy_workspace(GOLDEN / "workspace", tmp_path / "ws")
    _import_golden_kb(ws)
    path = ws / "kb/vulns/VULN-J1.json"
    data = json.loads(path.read_text())
    for change in data["changes"]:
        change["astVuln"] = "(" + change["astVuln"]
    path.write_text(json.dumps(data))
    # the installed body equals the vulnerable side by digest: nothing decodes
    assert vet(["--workspace", str(ws), "scan"]) == 1
    eng = ws / "libs/fw/1.0/src/engine.jx"
    eng.write_text(eng.read_text().replace("width = 640;", "width = 642;"))
    capsys.readouterr()
    assert vet(["--workspace", str(ws), "scan"]) == 3
    err = capsys.readouterr().err
    assert "VULN-J1" in err and "fw.Engine.renderError()" in err
    assert "Traceback" not in err


def test_bad_versions_are_rejected_when_ingested(tmp_path, capsys):
    ws = copy_workspace(UPDATE / "workspace", tmp_path / "ws")
    assert vet(["--workspace", str(ws), "kb", "add-range", "--id", "VULN-W",
                "--affected", "libA:1.0:2.x"]) == 3
    assert vet(["--workspace", str(ws), "kb", "index-lib", "--name", "libA",
                "--root", "1.0=%s" % (ws / "libs/libA/1.0/src"),
                "--root", "2.x=%s" % (UPDATE / "versions/2.0")]) == 3
    assert "Traceback" not in capsys.readouterr().err
    assert not (ws / "kb").exists()
    # a bad range stored by other means fails the scan, naming the record
    (ws / "kb/vulns").mkdir(parents=True)
    (ws / "kb/vulns/VULN-W.json").write_text(json.dumps({
        "vulnId": "VULN-W", "kind": "WHOLE_LIBRARY", "changes": [],
        "affected": [{"library": "libA", "low": "1.0", "high": "2.x"}]}))
    assert vet(["--workspace", str(ws), "scan"]) == 3
    err = capsys.readouterr().err
    assert "VULN-W" in err and "2.x" in err and "Traceback" not in err


def test_trace_records_a_too_deep_test_as_a_failure(tmp_path, capsys):
    ws = copy_workspace(GOLDEN / "workspace", tmp_path / "ws")
    (ws / "src/deep.jx").write_text("""
package app;
class Deep {
    static int down(int n) { if (n > 0) { return app.Deep.down(n - 1); } return 0; }
    static void testDeep() { app.Deep.down(300); }
}
""")
    capsys.readouterr()
    assert vet(["--workspace", str(ws), "trace", "run", "--pattern", "test"]) == 0
    assert "Traceback" not in capsys.readouterr().err
    failures = json.loads((ws / ".vet/test-failures.json").read_text())
    assert list(failures) == ["app.Deep.testDeep()"]
    assert failures["app.Deep.testDeep()"].startswith("CallDepthExceeded")


@pytest.mark.parametrize("body", [
    "return " + " + ".join(["1"] * 500) + ";",
    "return " + "(" * 150 + "1" + ")" * 150 + ";",
    "{" * 600 + "}" * 600 + " return 0;",
])
def test_too_deep_programs_exit_three(tmp_path, capsys, body):
    ws = copy_workspace(GOLDEN / "workspace", tmp_path / "ws")
    (ws / "src/deep.jx").write_text("package app;\nclass Deep {\n    static int m() { %s }\n}\n" % body)
    capsys.readouterr()
    for step in (["scan"], ["reach", "static"], ["trace", "run", "--pattern", "test"]):
        assert vet(["--workspace", str(ws), *step]) == 3
        err = capsys.readouterr().err
        assert "src/deep.jx:3:" in err and "nesting deeper than %d levels" % MAX_NESTING in err
        assert "Traceback" not in err


def test_program_at_the_nesting_bound_runs(tmp_path, capsys):
    ws = copy_workspace(GOLDEN / "workspace", tmp_path / "ws")
    bodies = deep_bodies(MAX_NESTING)
    methods = "".join("    int %s() { %s }\n" % item for item in sorted(bodies.items()))
    calls = " ".join("x.%s();" % name for name in sorted(bodies))
    (ws / "src/deep.jx").write_text(
        "package p;\nclass A {\n    A a;\n    int v;\n    A() { this.a = this; this.v = 1; }\n"
        "    static int f(int n) { return n; }\n%s"
        "    static void testDeep() { p.A x = new p.A(); %s }\n}\n" % (methods, calls))
    assert vet(["--workspace", str(ws), "scan"]) == 0
    assert vet(["--workspace", str(ws), "reach", "static"]) == 0
    assert vet(["--workspace", str(ws), "trace", "run", "--pattern", "test"]) == 0
    assert "Traceback" not in capsys.readouterr().err
    assert json.loads((ws / ".vet/test-failures.json").read_text()) == {}
    events = [json.loads(line) for line in (ws / ".vet/traces.jsonl").read_text().splitlines()]
    assert {"p.A.%s()" % name for name in bodies} <= {e["callee"] for e in events}


@pytest.mark.parametrize("text", [
    '{"name": "libA", "versions": ',                               # not JSON
    '["libA"]',                                                    # not an object
    '{"versions": {}}',                                            # no name
    '{"name": 7, "versions": {}}',                                 # name not text
    '{"name": "libA"}',                                            # no versions
    '{"name": "libA", "versions": []}',                            # versions not an object
    '{"name": "libA", "versions": {"1.0": {}}}',                   # version not a list
    '{"name": "libA", "versions": {"1.0": [{"qname": "libA.Api", "fingerprint": "ab"}]}}',
    '{"name": "libA", "versions": {"1.0": [{"ctype": "CLASS", "qname": 7, "fingerprint": "ab"}]}}',
    '{"name": "libA", "versions": {"1.0": [{"ctype": "CLASS", "qname": "libA.Api"}]}}',
    '{"name": "libA", "versions": {"1.0": [{"ctype": "CLASS", "qname": "libA.Api", "fingerprint": 1}]}}',
    '{"name": "libA", "versions": {"1.x": []}}',                   # bad version
])
def test_malformed_library_index_is_rejected(tmp_path, capsys, text):
    ws = copy_workspace(UPDATE / "workspace", tmp_path / "ws")
    (ws / "kb/libs").mkdir(parents=True)
    (ws / "kb/libs/libA.json").write_text(text)
    capsys.readouterr()
    for step in (["mitigate", "--lib", "libA"], ["kb", "list"]):
        assert vet(["--workspace", str(ws), *step]) == 3
        err = capsys.readouterr().err
        assert "libA.json" in err and "Traceback" not in err


@pytest.mark.parametrize("manifest, edit", [
    ("app.json", {"version": "1.0-dev"}),
    ("app.json", {"dependencies": [{"name": "libA", "version": "1.0-dev"}]}),
    ("libs/libA/1.0/lib.json", {"version": "1.0-dev"}),
])
def test_manifest_versions_are_validated(tmp_path, capsys, manifest, edit):
    ws = copy_workspace(UPDATE / "workspace", tmp_path / "ws")
    path = ws / manifest
    path.write_text(json.dumps({**json.loads(path.read_text()), **edit}))
    assert vet(["--workspace", str(ws), "kb", "add-range", "--id", "VULN-W",
                "--affected", "libA:1.0:2.0"]) == 0
    capsys.readouterr()
    assert vet(["--workspace", str(ws), "scan"]) == 3
    err = capsys.readouterr().err
    assert manifest in err and "1.0-dev" in err and "Traceback" not in err

"""Command line behavior, exit codes, and artifact handling."""

import argparse
import gc
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import GOLDEN, UPDATE, copy_workspace, deep_bodies, small_workload
from vulnvet import bom, cli
from vulnvet import kb as kb_module
from vulnvet.canonical import CTree
from vulnvet.cli import main as vet
from vulnvet.errors import MalformedRecord
from vulnvet.jx.parser import MAX_NESTING
from vulnvet.jx.resolver import ResolvedProgram
from vulnvet.kb import KnowledgeBase
from vulnvet.workspace import Workspace


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


SHAPES = """package shapes;

interface Shape {
    int area(int x);
}

class Square implements Shape {
    int side = 2;

    int area(int x) {
        int total = 0;
        int i = 0;
        while (i < x) {
            total = total + this.grow(side);
            i = i + 1;
        }
        if (total > 5) {
            return this.big(total);
        } else {
            return total;
        }
    }

    int grow(int n) {
        return n;
    }

    int big(int n) {
        return n * 10;
    }
}

class Circle implements Shape {
    int area(int x) {
        return x * 3;
    }
}
"""

SHAPES_MAIN = """package app;

class Main {
    static void testSquare() {
        shapes.Shape s = new shapes.Square();
        int a = s.area(3);
    }
}
"""


def test_a_pass_over_an_interface_with_two_implementations(tmp_path):
    ws = tmp_path / "ws"
    lib = ws / "libs/shapes/1.0"
    (lib / "src").mkdir(parents=True)
    (ws / "src").mkdir()
    (ws / "app.json").write_text(json.dumps({
        "name": "shapes-app", "version": "1.0", "sourceRoot": "src",
        "dependencies": [{"name": "shapes", "version": "1.0"}]}))
    (lib / "lib.json").write_text(json.dumps(
        {"name": "shapes", "version": "1.0", "sourceRoot": "src"}))
    (lib / "src/shapes.jx").write_text(SHAPES)
    (ws / "src/main.jx").write_text(SHAPES_MAIN)
    for step in (["scan"], ["reach", "static"], ["trace", "run", "--pattern", "test"],
                 ["reach", "combined"], ["report"]):
        assert vet(["--workspace", str(ws), *step]) == 0, step
    vet_dir = ws / ".vet"
    graph = json.loads((vet_dir / "graph.json").read_text())
    assert sorted(e["callee"] for e in graph["edges"]
                  if e["site"] == "src/main.jx:6" and e["kind"] == "VIRTUAL_DISPATCH") == [
        "shapes.Circle.area(int)", "shapes.Square.area(int)"]
    bom = json.loads((vet_dir / "bom.json").read_text())
    assert [c["qname"] for a in bom["archives"] for c in a["constructs"]
            if c["ctype"] == "INTERFACE"] == ["shapes.Shape"]
    events = [json.loads(line) for line in (vet_dir / "traces.jsonl").read_text().splitlines()]
    # the field initializer sets side to 2, so three loop rounds sum to 6 and
    # the if takes its then branch; Circle.area never runs
    assert [(e["callee"], e["caller"]) for e in events] == [
        ("app.Main.testSquare()", None),
        ("shapes.Square.Square()", "app.Main.testSquare()"),
        ("shapes.Square.area(int)", "app.Main.testSquare()"),
        *[("shapes.Square.grow(int)", "shapes.Square.area(int)")] * 3,
        ("shapes.Square.big(int)", "shapes.Square.area(int)")]


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as info:
        vet(["frobnicate"])
    assert info.value.code == 64


# --- one parser per process: nothing of one call reaches the next ------------

def test_an_omitted_exclude_does_not_inherit_an_earlier_one(tmp_path):
    fx = GOLDEN / "fixes"
    fix = ["--before", str(fx / "j1/before"), "--after", str(fx / "j1/after")]
    kb_cmd = ["--workspace", str(tmp_path), "kb", "import-fix"]
    assert vet([*kb_cmd, "--id", "VULN-A", *fix, "--exclude", "CLASS:fw.Engine"]) == 0
    assert vet([*kb_cmd, "--id", "VULN-B", *fix]) == 0
    kb = KnowledgeBase(tmp_path / "kb")
    assert {c.construct.qname for c in kb.load_record("VULN-A").changes} == {
        "fw.Engine.renderError()"}
    assert {c.construct.qname for c in kb.load_record("VULN-B").changes} == {
        "fw.Engine", "fw.Engine.renderError()"}


def test_an_omitted_format_or_pattern_takes_its_default_again(tmp_path, monkeypatch):
    ws = copy_workspace(GOLDEN / "workspace", tmp_path / "ws")
    _import_golden_kb(ws)
    assert vet(["--workspace", str(ws), "scan"]) == 1
    assert vet(["--workspace", str(ws), "report", "--format", "html"]) == 1
    assert not (ws / ".vet/report.json").exists()
    assert vet(["--workspace", str(ws), "report"]) == 1
    assert (ws / ".vet/report.json").is_file()

    patterns = []
    real = cli.run_tests

    def run_tests(bom, program, pattern):
        patterns.append(pattern)
        return real(bom, program, pattern=pattern)

    monkeypatch.setattr(cli, "run_tests", run_tests)
    assert vet(["--workspace", str(ws), "trace", "run", "--pattern", "itest"]) == 0
    assert vet(["--workspace", str(ws), "trace", "run"]) == 0
    assert patterns == ["itest", "test"]


@pytest.mark.parametrize("argv, code", [
    (["frobnicate"], 64),
    (["kb", "import-fix", "--id", "VULN-X"], 64),
    (["--help"], 0),
    (["kb", "import-fix", "--help"], 0),
    (["--version"], 0),
])
def test_a_command_after_an_exit_by_the_parser_runs(tmp_path, capsys, argv, code):
    with pytest.raises(SystemExit) as info:
        vet(argv)
    assert info.value.code == code
    capsys.readouterr()
    _import_golden_kb(tmp_path)
    assert vet(["--workspace", str(tmp_path), "kb", "list"]) == 0
    out = capsys.readouterr().out
    assert "vuln VULN-J1 (CODE_CHANGE, 2 changes)" in out
    assert "vuln VULN-J2" in out


def test_main_builds_no_parser(tmp_path, monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("main built an argument parser")

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
    ws = copy_workspace(UPDATE / "workspace", tmp_path / "ws")
    assert vet(["--workspace", str(ws), "scan"]) == 0
    assert vet(["--workspace", str(ws), "kb", "list"]) == 0


@pytest.mark.parametrize("argv, option", [
    (["kb", "add-range", "--id", "X", "--affected", "lib2:1.0:1.9", "--affected", "foo"],
     "--affected"),
    (["kb", "import-fix", "--id", "X", "--before", str(GOLDEN / "fixes/j1/before"),
      "--after", str(GOLDEN / "fixes/j1/after"), "--exclude", "FIELD:x"], "--exclude"),
    (["kb", "index-lib", "--name", "z", "--root", "1.0=%s" % (GOLDEN / "fixes/j1/after"),
      "--root", "1.0"], "--root"),
    (["kb", "add-range", "--id", "X", "--affected", ":1.0:1.1"], "--affected"),
    (["kb", "import-fix", "--id", "X", "--before", str(GOLDEN / "fixes/j1/before"),
      "--after", str(GOLDEN / "fixes/j1/after"), "--exclude", "METHOD:"], "--exclude"),
    # an empty PATH would read the current directory
    (["kb", "index-lib", "--name", "z", "--root", "1.0="], "--root"),
    (["kb", "import-fix", "--id", "X", "--before", "", "--after", str(GOLDEN / "fixes/j1/after")],
     "--before"),
    (["kb", "import-fix", "--id", "X", "--before", str(GOLDEN / "fixes/j1/before"), "--after", ""],
     "--after"),
    # an empty value of any other option is refused the same way
    (["--workspace", "", "kb", "list"], "--workspace"),
    (["--kb", "", "kb", "list"], "--kb"),
    (["kb", "import-fix", "--id", "", "--before", str(GOLDEN / "fixes/j1/before"),
      "--after", str(GOLDEN / "fixes/j1/after")], "--id"),
    (["kb", "add-range", "--id", "", "--affected", "lib2:1.0:1.9"], "--id"),
    (["kb", "index-lib", "--name", "", "--root", "1.0=%s" % (GOLDEN / "fixes/j1/after")],
     "--name"),
    (["mitigate", "--lib", ""], "--lib"),
])
def test_a_malformed_option_item_is_a_usage_error(tmp_path, capsys, argv, option):
    with pytest.raises(SystemExit) as info:
        vet(["--workspace", str(tmp_path), *argv])
    assert info.value.code == 64
    assert "error: argument %s: expected " % option in capsys.readouterr().err
    assert not (tmp_path / "kb").exists()


def test_analysis_error_exit_code(tmp_path):
    # empty workspace: scan cannot find a manifest
    assert vet(["--workspace", str(tmp_path), "scan"]) == 3


@pytest.mark.parametrize("collecting", [True, False])
def test_a_command_runs_without_the_cyclic_gc_and_restores_it(tmp_path, monkeypatch,
                                                                collecting):
    ws = copy_workspace(UPDATE / "workspace", tmp_path / "ws")
    during = []
    real_scan = cli._COMMANDS["scan"]

    def scan(args, workspace):
        during.append(gc.isenabled())
        return real_scan(args, workspace)

    monkeypatch.setitem(cli._COMMANDS, "scan", scan)
    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        assert vet(["--workspace", str(ws), "scan"]) == 0
        assert gc.isenabled() == collecting
        assert vet(["--workspace", str(tmp_path / "empty"), "scan"]) == 3
        assert gc.isenabled() == collecting
        with pytest.raises(SystemExit) as info:
            vet(["frobnicate"])
        assert info.value.code == 64
        assert gc.isenabled() == collecting
    finally:
        (gc.enable if was else gc.disable)()
    assert during == [False, False]


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


def test_an_exclusion_that_matches_no_change_is_warned_of(tmp_path, capsys):
    fx = GOLDEN / "fixes"
    assert vet(["--workspace", str(tmp_path), "kb", "import-fix", "--id", "VULN-X",
                "--before", str(fx / "j1/before"), "--after", str(fx / "j1/after"),
                "--exclude", "METHOD:p.Nope.g()", "--exclude", "CLASS:fw.Engine"]) == 0
    warnings = [line for line in capsys.readouterr().err.splitlines()
                if line.startswith("kb: warning:")]
    assert warnings == ["kb: warning: --exclude METHOD:p.Nope.g() matches no construct "
                        "change of the fix for VULN-X"]
    record = KnowledgeBase(tmp_path / "kb").load_record("VULN-X")
    assert [c.construct.qname for c in record.changes] == ["fw.Engine.renderError()"]


def test_a_fix_without_construct_changes_is_not_stored(tmp_path, capsys):
    before = GOLDEN / "fixes/j1/before"
    assert vet(["--workspace", str(tmp_path), "kb", "import-fix", "--id", "VULN-E",
                "--before", str(before), "--after", str(before)]) == 3
    err = capsys.readouterr().err
    assert "VULN-E" in err and "no construct changes" in err and "Traceback" not in err
    assert not (tmp_path / "kb/vulns/VULN-E.json").exists()


def test_mitigate_writes_json_and_csv(tmp_path, capsys):
    ws = copy_workspace(UPDATE / "workspace", tmp_path / "ws")
    assert vet(["--workspace", str(ws), "kb", "index-lib", "--name", "libA",
                "--root", "1.0=%s" % (ws / "libs/libA/1.0/src"),
                "--root", "2.0=%s" % (UPDATE / "versions/2.0")]) == 0
    capsys.readouterr()
    assert vet(["--workspace", str(ws), "mitigate", "--lib", "libA"]) == 0
    # the summary spells each ratio num/den, as the CSV and the JSON hold it
    assert "  best: 2.0 (cs=1/2 de=3 rbs=1/2 obs=2/3)\n" in capsys.readouterr().out
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
    '{"vulnId": "BAD", "kind": "PATCH", "changes": []}',           # unknown kind
    '{"vulnId": "BAD", "kind": "CODE_CHANGE", "changes": '         # unknown ctype
    '[{"ctype": "FUNCTION", "qname": "fw.Engine.renderError()", "op": "DEL"}]}',
    '{"vulnId": "BAD", "kind": "CODE_CHANGE", "changes": '         # unknown op
    '[{"ctype": "METHOD", "qname": "fw.Engine.renderError()", "op": "CHANGE"}]}',
    '{"vulnId": "BAD", "kind": "CODE_CHANGE", "changes": '         # MOD without trees
    '[{"ctype": "METHOD", "qname": "fw.Engine.renderError()", "op": "MOD", '
    '"fpVuln": "aa", "fpFixed": "bb", "astVuln": null, "astFixed": null}]}',
    '{"vulnId": "BAD", "kind": "CODE_CHANGE", "changes": '         # one construct twice
    '[{"ctype": "METHOD", "qname": "fw.Engine.renderError()", "op": "DEL"}, '
    '{"ctype": "METHOD", "qname": "fw.Engine.renderError()", "op": "DEL"}]}',
    '{"vulnId": "BAD", "kind": "WHOLE_LIBRARY", "affected": '       # low above high
    '[{"library": "fw", "low": "2.0", "high": "1.0"}]}',
])
def test_scan_rejects_malformed_kb_record(tmp_path, capsys, text):
    ws = copy_workspace(GOLDEN / "workspace", tmp_path / "ws")
    _import_golden_kb(ws)
    (ws / "kb/vulns/BAD.json").write_text(text)
    capsys.readouterr()
    assert vet(["--workspace", str(ws), "scan"]) == 3
    err = capsys.readouterr().err
    assert "BAD.json" in err and "Traceback" not in err


def test_a_record_stored_under_another_id_is_rejected(tmp_path, capsys):
    ws = copy_workspace(GOLDEN / "workspace", tmp_path / "ws")
    _import_golden_kb(ws)
    shutil.copy(ws / "kb/vulns/VULN-J1.json", ws / "kb/vulns/COPY.json")
    capsys.readouterr()
    for step in (["scan"], ["kb", "list"]):
        assert vet(["--workspace", str(ws), *step]) == 3
        out, err = capsys.readouterr()
        assert "COPY.json: vulnId is 'VULN-J1', but the file name says 'COPY'" in err
        assert "VULN-J1" not in out and "Traceback" not in err


def test_scan_rejects_stored_tree_that_does_not_decode(tmp_path, capsys):
    ws = copy_workspace(GOLDEN / "workspace", tmp_path / "ws")
    _import_golden_kb(ws)
    path = ws / "kb/vulns/VULN-J1.json"
    data = json.loads(path.read_text())
    for change in data["changes"]:
        if change["ctype"] == "METHOD":  # a fixed side that does not decode, fingerprinted
            change["astFixed"] = "(" + change["astFixed"]
            change["fpFixed"] = hashlib.sha256(change["astFixed"].encode()).hexdigest()
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


def test_scan_rejects_a_stored_tree_with_a_doubled_space(tmp_path, capsys):
    # canonical text has one space before each child: a record whose text
    # would decode leniently, to the same tree, is refused, not read
    ws = copy_workspace(GOLDEN / "workspace", tmp_path / "ws")
    _import_golden_kb(ws)
    eng = ws / "libs/fw/1.0/src/engine.jx"
    eng.write_text(eng.read_text().replace("width = 640;", "width = 642;"))
    path = ws / "kb/vulns/VULN-J1.json"
    data = json.loads(path.read_text())
    change = next(c for c in data["changes"] if c["ctype"] == "METHOD")
    change["astFixed"] = change["astFixed"].replace(" ", "  ", 1)
    change["fpFixed"] = hashlib.sha256(change["astFixed"].encode()).hexdigest()
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert vet(["--workspace", str(ws), "scan"]) == 3
    err = capsys.readouterr().err
    assert "VULN-J1.json" in err and "astFixed of METHOD:fw.Engine.renderError()" in err
    assert "does not decode" in err and "Traceback" not in err
    assert not (ws / ".vet/findings.json").exists()


@pytest.mark.parametrize("key", ["fpVuln", "fpFixed"])
def test_a_fingerprint_that_is_not_the_hash_of_its_tree_is_rejected(tmp_path, capsys, key):
    ws = copy_workspace(GOLDEN / "workspace", tmp_path / "ws")
    _import_golden_kb(ws)
    path = ws / "kb/vulns/VULN-J1.json"
    data = json.loads(path.read_text())
    change = next(c for c in data["changes"] if c["ctype"] == "METHOD")
    change[key] = hashlib.sha256(b"another body").hexdigest()
    path.write_text(json.dumps(data))
    capsys.readouterr()
    # an exact match would otherwise read as CLOSER_TO_VULNERABLE at distance 0
    for step in (["scan"], ["kb", "list"]):
        assert vet(["--workspace", str(ws), *step]) == 3
        err = capsys.readouterr().err
        assert "VULN-J1.json" in err and "%s of METHOD:fw.Engine.renderError()" % key in err
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


def test_trace_keeps_run_time_type_checks_on_an_unclean_program(tmp_path, capsys):
    # trace run runs what the resolver flagged; the interpreter's own checks
    # turn the ill-typed step into a recorded failure
    ws = copy_workspace(GOLDEN / "workspace", tmp_path / "ws")
    (ws / "src/bad.jx").write_text(
        "package app;\nclass Bad {\n    static int testBad() { int x = true; return x + 1; }\n}\n")
    capsys.readouterr()
    assert vet(["--workspace", str(ws), "trace", "run", "--pattern", "test"]) == 0
    err = capsys.readouterr().err
    assert "resolve: src/bad.jx:3:28: cannot initialize int x with boolean" in err
    assert "Traceback" not in err
    failures = json.loads((ws / ".vet/test-failures.json").read_text())
    assert failures == {"app.Bad.testBad()": "RuntimeTypeError: operator + requires int operands"}


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


def test_method_named_like_its_class_exits_three(tmp_path, capsys):
    # its qname would equal the constructor's: p.Foo.Foo(int)
    ws = tmp_path / "ws"
    (ws / "src").mkdir(parents=True)
    (ws / "app.json").write_text('{"name": "app", "version": "1.0", "sourceRoot": "src"}')
    (ws / "src/Foo.jx").write_text(
        "package p;\nclass Foo {\n    Foo(int n) { }\n    int Foo(int n) { return n; }\n}\n")
    capsys.readouterr()
    for step in (["scan"], ["kb", "import-fix", "--id", "VULN-F",
                            "--before", str(ws / "src"), "--after", str(ws / "src")]):
        assert vet(["--workspace", str(ws), *step]) == 3
        err = capsys.readouterr().err
        assert "Foo.jx:4:9: method Foo has the name of its type" in err
        assert "Traceback" not in err
    assert not (ws / "kb").exists()


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
    '{"name": "libA", "versions": {"2.0": [], "2.0.0": []}}',      # one version twice
    '{"name": "libA", "versions": {"1.0": [{"ctype": "CLASS", "qname": "libA.Api", "fingerprint": "ab"}, '
    '{"ctype": "CLASS", "qname": "libA.Api", "fingerprint": "ab"}]}}',  # one construct twice
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


def test_an_index_stored_under_another_name_is_rejected(tmp_path, capsys):
    ws = copy_workspace(UPDATE / "workspace", tmp_path / "ws")
    assert vet(["--workspace", str(ws), "kb", "index-lib", "--name", "libA",
                "--root", "1.0=%s" % (ws / "libs/libA/1.0/src"),
                "--root", "2.0=%s" % (UPDATE / "versions/2.0")]) == 0
    path = ws / "kb/libs/libA.json"
    path.write_text(path.read_text().replace('"name": "libA"', '"name": "libB"'))
    capsys.readouterr()
    for step in (["mitigate", "--lib", "libA"], ["kb", "list"]):
        assert vet(["--workspace", str(ws), *step]) == 3
        err = capsys.readouterr().err
        assert "libA.json: name is 'libB', but the file name says 'libA'" in err
        assert "Traceback" not in err


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


@pytest.mark.parametrize("argv, named", [
    (["add-range", "--id", "GHSA/abc", "--affected", "libA:1.0:1.0"], "'GHSA/abc'"),
    (["add-range", "--id", "GHSA\\abc", "--affected", "libA:1.0:1.0"], "'GHSA\\\\abc'"),
    (["add-range", "--id", "GHSA\0abc", "--affected", "libA:1.0:1.0"], "'GHSA\\x00abc'"),
    (["add-range", "--id", ".hidden", "--affected", "libA:1.0:1.0"], "'.hidden'"),
    (["add-range", "--id", "VULN-W", "--affected", "libA:2.0:1.0"], "libA:2.0:1.0"),
    (["index-lib", "--name", "lib/A", "--root", "1.0=%s" % (UPDATE / "versions/2.0")],
     "'lib/A'"),
    (["index-lib", "--name", ".libA", "--root", "1.0=%s" % (UPDATE / "versions/2.0")],
     "'.libA'"),
])
def test_what_the_kb_could_not_read_back_is_not_stored(tmp_path, capsys, argv, named):
    ws = copy_workspace(UPDATE / "workspace", tmp_path / "ws")
    capsys.readouterr()
    assert vet(["--workspace", str(ws), "kb", *argv]) == 3
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err
    assert not (ws / "kb").exists()


J1 = GOLDEN / "fixes/j1"
SAME_TREES = ["--before", str(J1 / "before"), "--after", str(J1 / "before")]
J1_FIX = ["--before", str(J1 / "before"), "--after", str(J1 / "after")]
TAKEN = ["{kb}/vulns/VULN-J1.json", "--overwrite"]


@pytest.mark.parametrize("argv, named", [
    (["import-fix", "--id", "a/b", *SAME_TREES], ["'a/b'"]),
    (["import-fix", "--id", "a/b", "--overwrite", *J1_FIX], ["'a/b'"]),
    (["import-fix", "--id", "VULN-J1", *J1_FIX], TAKEN),
    (["add-range", "--id", "VULN-J1", "--affected", "lib1:1.0:1.0"], TAKEN),
    (["index-lib", "--name", "lib/A", "--root", "1.0=%s" % (J1 / "before")], ["'lib/A'"]),
    (["index-lib", "--name", "lib1", "--root", "1.0=%s" % (J1 / "before"),
      "--root", "1.0=%s" % (J1 / "after")], ["version 1.0 repeats version 1.0"]),
    (["index-lib", "--name", "lib1", "--root", "1.0=%s" % (J1 / "before"),
      "--root", "1.0.0=%s" % (J1 / "after")], ["version 1.0.0 repeats version 1.0"]),
    (["index-lib", "--name", "lib1", "--root", "1.x=%s" % (J1 / "before")], ["'1.x'"]),
])
def test_a_bad_or_taken_name_is_refused_before_any_parse(tmp_path, capsys, monkeypatch,
                                                          argv, named):
    ws = copy_workspace(GOLDEN / "workspace", tmp_path / "ws")
    _import_golden_kb(ws)
    stored = {p: p.read_bytes() for p in (ws / "kb").rglob("*") if p.is_file()}
    parsed = []
    real = bom.parse_unit

    def parse(text, origin):
        parsed.append(origin)
        return real(text, origin)

    monkeypatch.setattr(bom, "parse_unit", parse)
    capsys.readouterr()
    assert vet(["--workspace", str(ws), "kb", *argv]) == 3
    err = capsys.readouterr().err
    assert all(part.format(kb=ws / "kb") in err for part in named), err
    assert "Traceback" not in err
    assert parsed == []
    assert {p: p.read_bytes() for p in (ws / "kb").rglob("*") if p.is_file()} == stored


def test_a_record_id_with_nul_is_not_stored(tmp_path):
    kb = KnowledgeBase(tmp_path / "kb")
    with pytest.raises(MalformedRecord, match=r"'VULN\\x00W'"):
        kb.add_whole_library("VULN\0W", [("libA", "1.0", "1.0")])
    assert not (tmp_path / "kb").exists()


# --- reuse of the stamped bom.json and graph.json ---------------------------

LIB1_SRC = GOLDEN / "workspace/libs/lib1/1.0/src"
REUSE_OUTPUTS = ("graph.json", "reach-combined.json", "mitigation-lib1.json",
                 "mitigation-lib1.csv")


def _golden_with_index(dst, edit=None):
    """A copy of the golden workspace with its knowledge base and an index of
    lib1; edit is (path, function of the text) applied to the copy first."""
    ws = copy_workspace(GOLDEN / "workspace", dst)
    if edit is not None:
        path, change = edit
        (ws / path).write_text(change((ws / path).read_text()))
    _import_golden_kb(ws)
    assert vet(["--workspace", str(ws), "kb", "index-lib", "--name", "lib1",
                "--root", "1.0=%s" % LIB1_SRC, "--root", "2.0=%s" % LIB1_SRC]) == 0
    return ws


def _run(ws, *steps):
    for step in steps:
        assert vet(["--workspace", str(ws), *step]) in (0, 1, 2), step


SCAN, STATIC, COMBINED = ["scan"], ["reach", "static"], ["reach", "combined"]
TRACES = (["trace", "run", "--pattern", "test"], ["trace", "run", "--pattern", "itest"])
MITIGATE = ["mitigate", "--lib", "lib1"]


@pytest.fixture
def builds(monkeypatch):
    """The name of each build_bom and corpus_program call the commands make."""
    calls = []
    for name in ("build_bom", "corpus_program"):
        def counting(*args, name=name, real=getattr(cli, name)):
            calls.append(name)
            return real(*args)
        monkeypatch.setattr(cli, name, counting)
    return calls


def _outputs(ws):
    return {name: (ws / ".vet" / name).read_bytes() for name in REUSE_OUTPUTS}


def test_reach_and_mitigate_reuse_stamped_artifacts(tmp_path, builds, monkeypatch):
    ws = _golden_with_index(tmp_path / "ws")
    parsed = []
    real_parse = bom.parse_unit

    def parse(text, origin):
        parsed.append(origin)
        return real_parse(text, origin)

    monkeypatch.setattr(bom, "parse_unit", parse)
    builds.clear()
    _run(ws, SCAN)  # the call graph, then the BOM, from one parse of each file
    assert builds == ["corpus_program", "build_bom"]
    assert sorted(parsed) == sorted(p.relative_to(ws).as_posix() for p in ws.rglob("*.jx"))
    builds.clear()
    parsed.clear()
    _run(ws, STATIC)  # the BOM comes from bom.json, the call graph from graph.json
    assert builds == [] and parsed == []
    for step in TRACES:  # the BOM comes from bom.json, the program from source
        builds.clear()
        _run(ws, step)
        assert builds == ["corpus_program"], step
    stamp = json.loads((ws / ".vet/bom.json").read_text())["inputs"]
    assert json.loads((ws / ".vet/graph.json").read_text())["inputs"] == stamp
    written = []
    real_write = Workspace.write_text

    def write_text(self, name, text):
        written.append(name)
        return real_write(self, name, text)

    monkeypatch.setattr(Workspace, "write_text", write_text)
    builds.clear()
    _run(ws, STATIC, COMBINED, MITIGATE)
    assert builds == []
    assert written == ["reach-static.json", "reach-combined.json",
                       "mitigation-lib1.json", "mitigation-lib1.csv"]


def test_scan_keeps_no_tree_per_construct_past_detection(tmp_path, monkeypatch):
    ws = copy_workspace(GOLDEN / "workspace", tmp_path / "ws")
    _import_golden_kb(ws)

    def trees():  # the canonical trees alive, counted by their roots
        nodes = [o for o in gc.get_objects() if type(o) is CTree]
        children = {id(k) for n in nodes for k in n.children}
        return sum(id(n) not in children for n in nodes)

    seen, real = [], cli.detect

    def detect(bom, kb):
        findings = real(bom, kb)
        compared = sum(m.classification is not None and m.classification.dist_vuln is not None
                       for f in findings for m in f.matched)
        constructs = sum(len(arc.constructs) for arc, _depth in bom.archives())
        seen.append((trees() - before, compared, constructs))
        return findings

    monkeypatch.setattr(cli, "detect", detect)
    gc.collect()
    before = trees()
    assert vet(["--workspace", str(ws), "scan"]) == 1
    (grown, compared, constructs), = seen
    # a body TED compares is lowered, and both sides of its change decoded
    assert grown <= 3 * compared < constructs


def test_inventories_bind_no_body_and_scan_binds_each_member_once(tmp_path, monkeypatch):
    bound = []  # (program, member) of each body bound
    real = ResolvedProgram._bind_member

    def bind_member(self, m):
        if m not in self._bound:  # a first bind, not a call the guard turns away
            bound.append((self, m))
        return real(self, m)

    monkeypatch.setattr(ResolvedProgram, "_bind_member", bind_member)
    ws = _golden_with_index(tmp_path / "ws")  # kb import-fix and kb index-lib
    assert bound == []
    bom.build_bom(bom.Sources(ws / "app.json", ws))
    assert bound == []
    _run(ws, SCAN)
    program = bound[0][0]
    assert all(p is program for p, _m in bound)
    members = [m for info in program.symbols.values() if not info.is_interface
               for m in (*info.ctors.values(), *info.methods.values())]
    assert sorted(id(m) for _p, m in bound) == sorted(map(id, members))


def test_scan_resolves_once_and_the_kb_inventories_never(tmp_path, monkeypatch):
    built = []  # the command running as each ResolvedProgram is built
    real = ResolvedProgram.__init__

    def init(self, *args, **kwargs):
        built.append(command)
        real(self, *args, **kwargs)

    monkeypatch.setattr(ResolvedProgram, "__init__", init)
    command = "kb"
    _golden_with_index(tmp_path / "ws")  # kb import-fix twice and kb index-lib
    command = "scan"
    _run(tmp_path / "ws", SCAN)
    assert built == ["scan"]


def test_a_dotted_type_name_is_spelled_alike_in_the_bom_and_the_graph(tmp_path, capsys):
    # a dotted name is fully qualified: in package p, a.Foo never names p.a.Foo
    ws = tmp_path / "ws"
    for path, text in {
        "app.json": json.dumps({"name": "app", "version": "1.0", "sourceRoot": "src",
                                "dependencies": [{"name": "lib", "version": "1.0"}]}),
        "src/B.jx": "package p;\nclass B {\n    static int run(a.Foo f) {\n"
                    "        a.Foo g = f;\n        return 1;\n    }\n}\n",
        "libs/lib/1.0/lib.json": json.dumps({"name": "lib", "version": "1.0",
                                             "sourceRoot": "src"}),
        "libs/lib/1.0/src/Foo.jx": "package p.a;\nclass Foo { }\n"}.items():
        (ws / path).parent.mkdir(parents=True, exist_ok=True)
        (ws / path).write_text(text)
    capsys.readouterr()
    _run(ws, SCAN, STATIC)
    err = capsys.readouterr().err
    assert "resolve: src/B.jx:4:9: unknown type a.Foo" in err.splitlines()
    bom_ids = [c["qname"] for a in _vet_json(ws, "bom.json")["archives"]
               for c in a["constructs"] if c["ctype"] == "METHOD"]
    nodes = [n["qname"] for n in _vet_json(ws, "graph.json")["nodes"]
             if n["ctype"] == "METHOD"]
    assert bom_ids == nodes == ["p.B.run(a.Foo)"]
    assert _vet_json(ws, "reach-static.json")["skippedSeeds"] == []


def _vet_json(ws, name):
    return json.loads((ws / ".vet" / name).read_text())


def test_a_call_by_an_inherited_field_initializer_is_reached_statically_where_it_is_traced(
        tmp_path, capsys):
    # constructing app.Handler runs the initializer of its superclass
    # lib.Base, which calls lib.Vuln.parse(): reach static must reach it
    # through the edge trace run records, from the same caller at the same site
    ws = tmp_path / "ws"
    for path, text in {
        "app.json": json.dumps({"name": "app", "version": "1.0", "sourceRoot": "src",
                                "dependencies": [{"name": "lib", "version": "1.0"}]}),
        "libs/lib/1.0/lib.json": json.dumps({"name": "lib", "version": "1.0",
                                             "sourceRoot": "src"}),
        "libs/lib/1.0/src/lib/Base.jx": "package lib;\n"
                                        "class Vuln { static int parse() { return 1; } }\n"
                                        "class Base { int state = lib.Vuln.parse(); }\n",
        "src/app/Main.jx": "package app;\nclass Handler extends lib.Base { }\n"
                           "class Main {\n    static void testHandler() "
                           "{ app.Handler h = new app.Handler(); }\n}\n"}.items():
        (ws / path).parent.mkdir(parents=True, exist_ok=True)
        (ws / path).write_text(text)
    _run(ws, SCAN)
    capsys.readouterr()
    _run(ws, STATIC, TRACES[0])
    assert "3 seeds, 4 reached" in capsys.readouterr().out
    reach = _vet_json(ws, "reach-static.json")
    assert "lib.Vuln.parse()" in [c["qname"] for c in reach["reached"]]
    parent = {"caller": "app.Handler.Handler()", "site": "libs/lib/1.0/src/lib/Base.jx:3"}
    assert reach["parents"]["lib.Vuln.parse()"] == parent
    events = [json.loads(line) for line in (ws / ".vet/traces.jsonl").read_text().splitlines()]
    assert [{"caller": e["caller"], "site": e["site"]} for e in events
            if e["callee"] == "lib.Vuln.parse()"] == [parent]


@pytest.mark.parametrize("workload", ["corpus", "kb-drift", "trace-heavy"])
@pytest.mark.parametrize("seed", [1, 2])
def test_every_application_member_of_the_bom_is_a_graph_node(tmp_path, workload, seed):
    ws = small_workload(tmp_path, workload, seed)
    _run(ws, SCAN)
    app = _vet_json(ws, "bom.json")["archives"][0]
    members = {(c["ctype"], c["qname"]) for c in app["constructs"]
               if c["ctype"] in ("METHOD", "CONSTRUCTOR")}
    nodes = {(n["ctype"], n["qname"]) for n in _vet_json(ws, "graph.json")["nodes"]}
    assert members and members <= nodes


def test_a_workspace_spelled_through_a_symlink_gives_the_same_artifacts(tmp_path, builds,
                                                                         capsys):
    # origins are paths under the workspace as spelled, symlinks not followed
    runs = {}
    for name in ("direct", "linked"):
        ws = spelled = copy_workspace(GOLDEN / "workspace", tmp_path / name)
        _import_golden_kb(ws)
        if name == "linked":
            spelled = tmp_path / "link"
            spelled.symlink_to(ws, target_is_directory=True)
        capsys.readouterr()
        _run(spelled, SCAN, STATIC, *TRACES)
        runs[name] = (capsys.readouterr(),
                      {p.name: p.read_bytes() for p in (ws / ".vet").iterdir()})
    assert runs["direct"] == runs["linked"]
    # the stamps scan wrote through the symlink hold for the direct path
    builds.clear()
    _run(tmp_path / "linked", STATIC)
    assert builds == []
    _run(tmp_path / "linked", TRACES[0])
    assert builds == ["corpus_program"]


@pytest.mark.parametrize("path, edit", [
    # parse calls normalize: one more edge, another fingerprint
    ("libs/lib1/1.0/src/upload.jx", lambda t: t.replace("return n + 1;",
                                                        "return lib1.Upload.normalize(n) + 1;")),
    # lib1 stops pulling in lib2 and lib3
    ("libs/lib1/1.0/lib.json", lambda t: json.dumps({**json.loads(t), "dependencies": []})),
])
def test_an_edited_input_forces_a_rebuild(tmp_path, builds, path, edit):
    ws = _golden_with_index(tmp_path / "ws")
    _run(ws, SCAN, STATIC)
    stale_edges = json.loads((ws / ".vet/graph.json").read_text())["edges"]
    (ws / path).write_text(edit((ws / path).read_text()))
    _run(ws, *TRACES)
    builds.clear()
    _run(ws, COMBINED, MITIGATE)
    # reach combined binds, then inventories the rest in one pass and restamps
    # graph.json, but bom.json stays as scan left it
    assert builds == ["corpus_program", "build_bom", "build_bom"]

    fresh = _golden_with_index(tmp_path / "fresh", (path, edit))
    _run(fresh, SCAN, STATIC, *TRACES)
    builds.clear()
    _run(fresh, COMBINED, MITIGATE)
    assert builds == []
    assert _outputs(ws) == _outputs(fresh)
    assert json.loads((ws / ".vet/graph.json").read_text())["edges"] != stale_edges


@pytest.mark.parametrize("name", ["bom.json", "graph.json"])
def test_a_missing_artifact_forces_a_rebuild(tmp_path, builds, name):
    ws = _golden_with_index(tmp_path / "ws")
    _run(ws, SCAN, STATIC, *TRACES, COMBINED, MITIGATE)
    before = _outputs(ws)
    (ws / ".vet" / name).unlink()
    builds.clear()
    _run(ws, COMBINED, MITIGATE)
    # each artifact is reused under its own stamp; reach combined wrote graph.json again
    assert builds == (["build_bom"] * 2 if name == "bom.json" else ["corpus_program"])
    assert _outputs(ws) == before
    assert (ws / ".vet/bom.json").exists() == (name == "graph.json")


def test_a_command_reads_each_manifest_once(tmp_path, monkeypatch):
    ws = _golden_with_index(tmp_path / "ws")
    reads, parsed = [], []
    real_load, real_parse = bom.load_json, bom.parse_unit

    def load(path, *args):
        reads.append(path)
        return real_load(path, *args)

    def parse(text, origin):
        parsed.append(origin)
        return real_parse(text, origin)

    monkeypatch.setattr(bom, "load_json", load)
    monkeypatch.setattr(bom, "parse_unit", parse)
    manifests = sorted([ws / "app.json", *(ws / "libs").glob("*/1.0/lib.json")])
    sources = sorted(p.relative_to(ws).as_posix() for p in ws.rglob("*.jx"))
    main = ws / "src/main.jx"
    for step, edit in ((SCAN, None), (STATIC, None), (COMBINED, main)):
        if edit is not None:  # a stale stamp: the digest, then the build
            edit.write_text(edit.read_text() + " ")
        reads.clear()
        _run(ws, step)
        assert sorted(reads) == manifests, step
    # on an empty .vet/ a command builds the BOM and the program from one parse
    for step in (SCAN, STATIC, TRACES[0], COMBINED, MITIGATE):
        shutil.rmtree(ws / ".vet")
        reads.clear()
        parsed.clear()
        _run(ws, step)
        assert sorted(reads) == manifests, step
        assert sorted(parsed) == sources, step


def test_a_source_edited_after_scan_is_traced_as_a_clean_run_traces_it(tmp_path, builds):
    main = "src/main.jx"

    def edit(text):  # a new test, which only a BOM built after the edit holds
        return text.replace("    static int alpha()", "    static void testParse() {\n"
                            "        lib1.Upload.parse(1);\n    }\n\n    static int alpha()")

    ws = _golden_with_index(tmp_path / "ws")
    _run(ws, SCAN)
    (ws / main).write_text(edit((ws / main).read_text()))
    builds.clear()
    _run(ws, *TRACES)
    # bom.json is stale, so each trace run builds the BOM and finds the new test
    assert builds == ["build_bom", "corpus_program"] * 2

    clean = _golden_with_index(tmp_path / "clean", (main, edit))
    _run(clean, SCAN)
    builds.clear()
    _run(clean, *TRACES)
    assert builds == ["corpus_program"] * 2
    for name in ("traces.jsonl", "trace-summary.json"):
        assert (ws / ".vet" / name).read_bytes() == (clean / ".vet" / name).read_bytes()
    assert '"app.Main.testParse()"' in (ws / ".vet/traces.jsonl").read_text()


def test_an_index_entry_of_an_unknown_ctype_exits_three(tmp_path, capsys):
    ws = _golden_with_index(tmp_path / "ws")
    _run(ws, SCAN, STATIC)
    index = ws / "kb/libs/lib1.json"
    index.write_text(index.read_text().replace('"METHOD"', '"METHD"'))
    capsys.readouterr()
    assert vet(["--workspace", str(ws), *MITIGATE]) == 3
    err = capsys.readouterr().err
    assert err == ("vet: error: %s: ['versions']['1.0'][2]['ctype']: expected one of PACKAGE, "
                   'CLASS, INTERFACE, CONSTRUCTOR, METHOD, found "METHD"\n' % index)


@pytest.mark.parametrize("name, edit", [
    ("bom.json", lambda d: d["archives"][0].pop("declaredDependencies")),
    ("bom.json", lambda d: d["archives"][1].update(kind="APPLICATION")),
    ("bom.json", lambda d: d["archives"][2]["constructs"][0].update(fingerprint=7)),
    ("graph.json", lambda d: d["edges"][0].update(kind="DYNAMIC")),
    ("graph.json", lambda d: d["unresolved"][0].update(caller="no.Such.m()")),
    ("graph.json", lambda d: d.pop("nodes")),
])
def test_a_stamped_artifact_with_a_malformed_body_exits_three(tmp_path, capsys, name, edit):
    ws = _golden_with_index(tmp_path / "ws")
    _run(ws, SCAN, STATIC)
    path = ws / ".vet" / name
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))
    capsys.readouterr()
    for step in (STATIC, COMBINED, MITIGATE):
        assert vet(["--workspace", str(ws), *step]) == 3
        err = capsys.readouterr().err
        assert name in err and "Traceback" not in err


def test_a_malformed_graph_is_named_before_a_body_error_of_a_stale_bom(tmp_path, capsys):
    # graph.json is read before a stale BOM is built, so its error comes
    # first, though the BOM's pass would meet the body's
    ws = _golden_with_index(tmp_path / "ws")
    _run(ws, SCAN, STATIC)
    (ws / ".vet/graph.json").write_text('{"nodes": ')
    (ws / ".vet/bom.json").unlink()
    (ws / "src/deep.jx").write_text("package app;\nclass Deep {\n    static int m() { return 1 +; }\n}\n")
    capsys.readouterr()
    for step in (STATIC, COMBINED, MITIGATE):
        assert vet(["--workspace", str(ws), *step]) == 3
        err = capsys.readouterr().err
        assert "graph.json" in err and "deep.jx" not in err and "Traceback" not in err


@pytest.mark.parametrize("edit", [
    lambda d: d.pop("events"),
    lambda d: d.update(events={"callee": "app.Main.alpha()", "ts": 1}),
    lambda d: d["events"].append(7),
    lambda d: d["events"][0].update(ts="1"),
    lambda d: d["events"][1].update(caller=["app.Main.itestFramework()"]),
    lambda d: d["events"][2].pop("callee"),
])
def test_a_stamped_trace_summary_with_a_malformed_body_exits_three(tmp_path, capsys, edit):
    ws = _golden_with_index(tmp_path / "ws")
    _run(ws, SCAN, STATIC, *TRACES)
    path = ws / ".vet/trace-summary.json"
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))
    capsys.readouterr()
    for step in (COMBINED, MITIGATE, ["report"]):
        assert vet(["--workspace", str(ws), *step]) == 3, step
        err = capsys.readouterr().err
        assert "trace-summary.json" in err and "Traceback" not in err


def test_a_directory_named_like_a_source_file_is_not_one(tmp_path, capsys):
    runs = []
    for name in ("plain", "dirs"):
        ws = copy_workspace(GOLDEN / "workspace", tmp_path / name / "ws")
        fixes = shutil.copytree(GOLDEN / "fixes", tmp_path / name / "fixes")
        lib1 = ws / "libs/lib1/1.0/src"
        if name == "dirs":  # an empty directory in every root vet reads
            for root in (ws / "src", lib1, *fixes.glob("*/*")):
                (root / "extra.jx").mkdir()
        steps = [["kb", "import-fix", "--id", vid, "--before", str(fixes / fix / "before"),
                  "--after", str(fixes / fix / "after")]
                 for vid, fix in (("VULN-J1", "j1"), ("VULN-J2", "j2"))]
        steps.append(["kb", "index-lib", "--name", "lib1", "--root", "1.0=%s" % lib1,
                      "--root", "2.0=%s" % lib1])
        outcome = _outcome(ws, capsys, steps + [SCAN, STATIC, *TRACES, COMBINED, MITIGATE,
                                                ["report"]])
        stored = {p.relative_to(ws).as_posix(): p.read_bytes()
                  for d in (".vet", "kb") for p in sorted((ws / d).rglob("*")) if p.is_file()}
        runs.append((outcome, stored))
    assert runs[0] == runs[1]
    assert [code for code, _out, _err in runs[0][0][0]] == [0, 0, 0, 1, 0, 0, 0, 0, 0, 2]


def test_a_directory_named_like_a_json_input_is_not_one(tmp_path, capsys):
    runs = []
    for name in ("plain", "dirs"):
        ws = _golden_with_index(tmp_path / name / "ws")
        if name == "dirs":  # an empty directory where vet lists records, indexes, rankings
            for path in ("kb/vulns/x.json", "kb/libs/x.json", ".vet/mitigation-x.json"):
                (ws / path).mkdir(parents=True)
        capsys.readouterr()
        out = []
        for step in (SCAN, STATIC, *TRACES, COMBINED, MITIGATE, ["kb", "list"], ["report"]):
            code = vet(["--workspace", str(ws), *step])
            io = capsys.readouterr()
            out.append((code, io.out.replace(str(ws), "WS"), io.err))
        stored = {p.relative_to(ws).as_posix(): p.read_bytes()
                  for d in (".vet", "kb") for p in sorted((ws / d).rglob("*")) if p.is_file()}
        runs.append((out, stored))
    assert runs[0] == runs[1]
    assert [code for code, _out, _err in runs[0][0]] == [1, 0, 0, 0, 0, 0, 0, 2]
    digest = json.loads(runs[1][1][".vet/report.json"])["kbDigest"]
    assert digest == KnowledgeBase(tmp_path / "plain/ws/kb").digest()


def test_a_directory_at_a_document_path_is_refused_before_a_write(tmp_path, capsys):
    ws = copy_workspace(GOLDEN / "workspace", tmp_path / "ws")
    record, index = ws / "kb/vulns/VULN-X.json", ws / "kb/libs/lib1.json"
    for path in (record, index):
        path.mkdir(parents=True)
    fix = GOLDEN / "fixes/j1"
    import_fix = ["kb", "import-fix", "--id", "VULN-X", "--before", str(fix / "before"),
                  "--after", str(fix / "after")]
    lib1 = ws / "libs/lib1/1.0/src"
    capsys.readouterr()
    for step, path in ((import_fix, record), (import_fix + ["--overwrite"], record),
                       (["kb", "add-range", "--id", "VULN-X", "--affected", "lib1:1.0:2.0"],
                        record),
                       (["kb", "index-lib", "--name", "lib1", "--root", "1.0=%s" % lib1],
                        index)):
        assert vet(["--workspace", str(ws), *step]) == 3, step
        err = capsys.readouterr().err
        assert "%s is not a regular file" % path in err, step
        assert "[Errno" not in err and "Traceback" not in err
    assert sorted(p.relative_to(ws).as_posix() for p in (ws / "kb").rglob("*")) == [
        "kb/libs", "kb/libs/lib1.json", "kb/vulns", "kb/vulns/VULN-X.json"]


def _outcome(ws, capsys, steps):
    """Exit code, stdout and stderr of each step, then every .vet/ file but
    the trace summary, with the workspace path taken out."""
    capsys.readouterr()
    out = []
    for step in steps:
        code = vet(["--workspace", str(ws), *step])
        io = capsys.readouterr()
        out.append((code, io.out.replace(str(ws), "WS"), io.err.replace(str(ws), "WS")))
    files = {p.name: p.read_bytes() for p in sorted((ws / ".vet").iterdir())
             if p.name != "trace-summary.json"}
    return out, files


def test_readers_give_the_same_results_with_a_present_missing_or_stale_summary(tmp_path, capsys):
    base = _golden_with_index(tmp_path / "base")
    _run(base, SCAN, STATIC, TRACES[0])
    stale = (base / ".vet/trace-summary.json").read_bytes()
    _run(base, TRACES[1])
    # a renamed test leaves the BOM without a construct the trace log names
    main = base / "src/main.jx"
    main.write_text(main.read_text().replace("testUpload", "testUploadRenamed"))
    steps = (COMBINED, MITIGATE, ["report"], ["report", "--format", "html"])

    outcomes = []
    for variant in ("present", "missing", "stale"):
        ws = copy_workspace(base, tmp_path / variant)
        summary = ws / ".vet/trace-summary.json"
        if variant == "missing":
            summary.unlink()
        elif variant == "stale":
            summary.write_bytes(stale)
        outcomes.append(_outcome(ws, capsys, steps))
    assert outcomes[0] == outcomes[1] == outcomes[2]
    code, _, err = outcomes[0][0][0]  # reach combined
    assert code == 0
    assert err.splitlines().count("trace: unknown construct app.Main.testUpload()") == 1


def test_an_edited_trace_log_is_read_in_full(tmp_path):
    ws = _golden_with_index(tmp_path / "ws")
    _run(ws, SCAN, STATIC, *TRACES, COMBINED)
    assert vet(["--workspace", str(ws), "report"]) == 2
    report = json.loads((ws / ".vet/report.json").read_text())
    assert report["reachability"]["tracedConstructs"] == 7
    with open(ws / ".vet/traces.jsonl", "a") as f:
        f.write(json.dumps({"callee": "lib3.Scan.omega()", "caller": "lib2.Core.delta()",
                            "ctype": "METHOD", "site": "libs/lib2/1.0/src/core.jx:8",
                            "test": "app.Main.testUpload()", "ts": 8}) + "\n")
    assert vet(["--workspace", str(ws), "report"]) == 2
    report = json.loads((ws / ".vet/report.json").read_text())
    assert report["reachability"]["tracedConstructs"] == 8
    omega = next(m for f in report["findings"] for m in f["matched"]
                 if m["qname"] == "lib3.Scan.omega()")
    assert omega["evidence"] == {"level": "DYNAMIC", "witness": {"trace": {
        "test": "app.Main.testUpload()", "ts": 8, "caller": "lib2.Core.delta()",
        "site": "libs/lib2/1.0/src/core.jx:8"}}}


@pytest.mark.parametrize("text", ["[]", '{"app.Main.testUpload()": 1}', '{"a": "b"'])
def test_trace_rejects_a_malformed_failures_file(tmp_path, capsys, text):
    ws = copy_workspace(GOLDEN / "workspace", tmp_path / "ws")
    (ws / ".vet").mkdir()
    (ws / ".vet/test-failures.json").write_text(text)
    capsys.readouterr()
    assert vet(["--workspace", str(ws), *TRACES[0]]) == 3
    err = capsys.readouterr().err
    assert "test-failures.json" in err and "Traceback" not in err
    assert not (ws / ".vet/traces.jsonl").exists()


DEEP_TESTS = """package app;
class Deep {
    static int down(int n) { if (n > 0) { return app.Deep.down(n - 1); } return 0; }
    static void testDeepA() { app.Deep.down(%d); }
    static void testDeepB() { app.Deep.down(3); }
}
"""


def test_test_failures_depend_only_on_the_latest_run_of_each_test(tmp_path):
    base = copy_workspace(GOLDEN / "workspace", tmp_path / "base")
    (base / "src/deep.jx").write_text(DEEP_TESTS % 300)
    failures = {}
    for i, patterns in enumerate((["testDeepA", "testDeepB"], ["testDeepB", "testDeepA"],
                                  ["testDeep", "testDeepB"], ["testDeepA", "testDeep"])):
        ws = copy_workspace(base, tmp_path / str(i))
        _run(ws, *(["trace", "run", "--pattern", p] for p in patterns))
        failures[i] = (ws / ".vet/test-failures.json").read_bytes()
        assert '"test": "app.Deep.testDeepA()"' in (ws / ".vet/traces.jsonl").read_text()
    assert len(set(failures.values())) == 1
    assert list(json.loads(failures[0])) == ["app.Deep.testDeepA()"]
    # a passing re-run removes the entry; other tests' entries stay
    (ws / "src/deep.jx").write_text(DEEP_TESTS % 3)
    _run(ws, ["trace", "run", "--pattern", "testDeepB"])
    assert list(json.loads((ws / ".vet/test-failures.json").read_text())) == [
        "app.Deep.testDeepA()"]
    _run(ws, ["trace", "run", "--pattern", "testDeepA"])
    assert json.loads((ws / ".vet/test-failures.json").read_text()) == {}


def test_mitigate_reads_the_kb_records_once(tmp_path, monkeypatch):
    # lib2 is transitive, so both the ranking and the deep-update advice screen it
    ws = copy_workspace(GOLDEN / "workspace", tmp_path / "ws")
    _import_golden_kb(ws)
    lib2 = ws / "libs/lib2/1.0/src"
    assert vet(["--workspace", str(ws), "kb", "index-lib", "--name", "lib2",
                "--root", "1.0=%s" % lib2, "--root", "2.0=%s" % lib2]) == 0
    calls = []
    real = KnowledgeBase.records

    def counting(self, *selection):
        calls.append(self)
        return real(self, *selection)

    monkeypatch.setattr(KnowledgeBase, "records", counting)
    assert vet(["--workspace", str(ws), "mitigate", "--lib", "lib2"]) == 0
    assert len(calls) == 1


def test_mitigate_reads_the_library_index_once(tmp_path, monkeypatch):
    # lib1 is a direct dependency of the application, lib2 a transitive one
    ws = copy_workspace(GOLDEN / "workspace", tmp_path / "ws")
    _import_golden_kb(ws)
    for lib in ("lib1", "lib2"):
        src = ws / "libs" / lib / "1.0/src"
        assert vet(["--workspace", str(ws), "kb", "index-lib", "--name", lib,
                    "--root", "1.0=%s" % src, "--root", "2.0=%s" % src]) == 0
    reads = []

    def counting(real, at):  # at: the position of the path among the arguments
        def read(*args):
            reads.append(Path(args[at]).relative_to(ws / "kb").as_posix())
            return real(*args)
        return read

    monkeypatch.setattr(kb_module, "load_json", counting(kb_module.load_json, 0))
    monkeypatch.setattr(kb_module, "decode_json", counting(kb_module.decode_json, 1))
    for lib in ("lib1", "lib2"):
        # without .vet/kb-index.json every record is read, and the index written;
        # with it none is, as neither record names a construct of lib1 or lib2
        (ws / ".vet/kb-index.json").unlink(missing_ok=True)
        for records in (["vulns/VULN-J1.json", "vulns/VULN-J2.json"], []):
            reads.clear()
            assert vet(["--workspace", str(ws), "mitigate", "--lib", lib]) == 0
            assert sorted(reads) == ["libs/%s.json" % lib, *records]


def test_mitigate_errors_name_the_object_and_the_remedy(tmp_path, capsys):
    ws = copy_workspace(GOLDEN / "workspace", tmp_path / "ws")
    capsys.readouterr()
    assert vet(["--workspace", str(ws), "mitigate", "--lib", "lib1"]) == 3
    err = capsys.readouterr().err
    assert "no index for library lib1" in err
    assert "vet kb index-lib --name lib1 --root VERSION=PATH" in err
    for lib in ("nosuch", "demo-app"):
        assert vet(["--workspace", str(ws), "mitigate", "--lib", lib]) == 3
        assert ("%s is not in the application's dependency tree" % lib
                in capsys.readouterr().err)


def test_mitigate_of_a_transitive_library_without_an_index_exits_three(tmp_path, capsys):
    # lib3 is transitive: its deep-update advice would screen it too
    ws = copy_workspace(GOLDEN / "workspace", tmp_path / "ws")
    _import_golden_kb(ws)
    capsys.readouterr()
    assert vet(["--workspace", str(ws), "mitigate", "--lib", "lib3"]) == 3
    err = capsys.readouterr().err
    assert "no index for library lib3" in err and "Traceback" not in err


# --- text that is not UTF-8 --------------------------------------------------

ANALYSES = (SCAN, TRACES[0], STATIC, COMBINED, MITIGATE)


@pytest.fixture(scope="module")
def analysed_golden(tmp_path_factory):
    """The golden workspace after every analysis step and a mitigation."""
    ws = _golden_with_index(tmp_path_factory.mktemp("golden") / "ws")
    _run(ws, SCAN, *TRACES, STATIC, COMBINED, MITIGATE, ["report"])
    return ws


@pytest.mark.parametrize("name, steps", [
    ("src/main.jx", ANALYSES),
    ("libs/lib3/1.0/src/scan.jx", ANALYSES),
    ("app.json", ANALYSES),
    ("libs/lib1/1.0/lib.json", ANALYSES),
    (".vet/bom.json", (STATIC, COMBINED, MITIGATE, ["report"])),
    (".vet/graph.json", (STATIC, COMBINED, MITIGATE)),
    (".vet/findings.json", (["report"],)),
    (".vet/reach-static.json", (["report"],)),
    (".vet/reach-combined.json", (["report"],)),
    (".vet/traces.jsonl", (TRACES[0], COMBINED, MITIGATE, ["report"])),
    (".vet/mitigation-lib1.json", (["report"],)),
    (".vet/trace-summary.json", (COMBINED, MITIGATE, ["report"])),
    (".vet/test-failures.json", (TRACES[0],)),
])
def test_text_that_is_not_utf8_exits_three(tmp_path, capsys, analysed_golden, name, steps):
    ws = copy_workspace(analysed_golden, tmp_path / "ws")
    with open(ws / name, "ab") as f:
        f.write(b"\n\xff")
    capsys.readouterr()
    for step in steps:
        assert vet(["--workspace", str(ws), *step]) == 3, step
        err = capsys.readouterr().err
        assert name in err and "is not UTF-8 text" in err and "Traceback" not in err


def _set_warnings(text):
    data = json.loads(text)
    data["resolutionWarnings"] = 5
    return json.dumps(data)


@pytest.mark.parametrize("name, text, fmt", [
    ("findings.json", "[1]", "json"),
    ("findings.json", '{"a": 1}', "json"),
    ("findings.json", '[{"matched": [1]}]', "json"),
    ("findings.json", '[{"matched": [{"contained": true}]}]', "json"),
    ("findings.json", '[{"vulnId": "x"}]', "html"),
    ("bom.json", '{"archives": [1]}', "json"),
    ("bom.json", '{"archives": [{}]}', "json"),
    ("bom.json", _set_warnings, "html"),
    ("mitigation-x.json", "[1]", "html"),
])
def test_report_rejects_malformed_artifacts(tmp_path, capsys, analysed_golden, name, text, fmt):
    ws = copy_workspace(analysed_golden, tmp_path / "ws")
    path = ws / ".vet" / name
    path.write_text(text(path.read_text()) if callable(text) else text)
    capsys.readouterr()
    assert vet(["--workspace", str(ws), "report", "--format", fmt]) == 3
    err = capsys.readouterr().err
    assert name in err and "Traceback" not in err


def test_a_deep_inheritance_chain_is_analysed(tmp_path, capsys):
    ws = copy_workspace(GOLDEN / "workspace", tmp_path / "ws")
    chain = ["class K%d extends K%d { }" % (i, i + 1) for i in range(1500)]
    (ws / "src/chain.jx").write_text("\n".join(
        ["package app;", "class K1500 { }"] + chain
        + ["class Chain {", "    static void testChain() { K0 k = new K0(); }", "}"]))
    capsys.readouterr()
    for step in (SCAN, STATIC, TRACES[0]):
        assert vet(["--workspace", str(ws), *step]) == 0, step
        assert "Traceback" not in capsys.readouterr().err
    traced = (ws / ".vet/traces.jsonl").read_text()
    assert '"callee": "app.K0.K0()"' in traced


BAD_JX = """package app;

class Bad {
    static void testBad() {
        nosuch.Thing.run(1);
        app.Main.missing();
    }
}
"""
BAD_DIAGNOSTICS = ["resolve: src/Bad.jx:5:21: unknown name nosuch.Thing",
                   "resolve: src/Bad.jx:6:17: no static method missing() in app.Main"]


def test_resolver_diagnostics_reach_stderr(tmp_path, capsys):
    ws = _golden_with_index(tmp_path / "ws")
    (ws / "src/Bad.jx").write_text(BAD_JX)
    capsys.readouterr()

    def run(step, code):
        assert vet(["--workspace", str(ws), *step]) == code, step
        err = capsys.readouterr().err
        assert "Traceback" not in err
        return [line for line in err.splitlines() if line.startswith("resolve: ")]

    # each step that resolves the whole workspace prints them: scan, trace
    # run, and reach and mitigate only when they do not reuse graph.json;
    # after scan, trace run prints those of the bodies it enters, and the
    # test that the pattern matches enters testBad
    assert run(SCAN, 1) == BAD_DIAGNOSTICS
    assert run(TRACES[0], 0) == BAD_DIAGNOSTICS
    assert run(STATIC, 0) == []
    assert run(COMBINED, 0) == []
    assert run(MITIGATE, 0) == []
    graph = (ws / ".vet/graph.json").read_bytes()
    assert "app.Bad.testBad()" not in {e["caller"] for e in json.loads(graph)["edges"]}
    (ws / ".vet/graph.json").unlink()
    # the command that rebuilds a missing graph.json writes it
    assert run(MITIGATE, 0) == BAD_DIAGNOSTICS
    assert (ws / ".vet/graph.json").read_bytes() == graph
    assert run(STATIC, 0) == []
    assert (ws / ".vet/graph.json").read_bytes() == graph


UNENTERED_JX = """package app;

class Odd extends app.Nowhere {
    static void testOdd() { int x = "one"; }
    static void neverRun() { app.Main.gone(); }
}
"""
ODD_DECLARED = "resolve: unknown supertype app.Nowhere"
ODD_ENTERED = "resolve: src/Odd.jx:4:29: cannot initialize int x with text"
ODD_UNENTERED = "resolve: src/Odd.jx:5:38: no static method gone() in app.Main"


def test_a_trace_run_prints_the_diagnostics_of_declarations_and_entered_bodies_stamped_or_not(
        tmp_path, capsys):
    ws = copy_workspace(GOLDEN / "workspace", tmp_path / "ws")
    (ws / "src/Odd.jx").write_text(UNENTERED_JX)
    capsys.readouterr()

    def run(step):
        assert vet(["--workspace", str(ws), *step]) == 0, step
        return [line.replace("src/Odd.jx:3:1: ", "")
                for line in capsys.readouterr().err.splitlines() if line.startswith("resolve: ")]

    everything = [ODD_DECLARED, ODD_ENTERED, ODD_UNENTERED]
    assert run(SCAN) == everything
    # stamped: declarations, then the bodies the tests enter; neverRun()
    # is no test and no test calls it
    assert run(TRACES[0]) == [ODD_DECLARED, ODD_ENTERED]
    assert run(TRACES[1]) == [ODD_DECLARED]
    # unstamped: the same, though every body is parsed first
    (ws / ".vet/bom.json").unlink()
    assert run(TRACES[0]) == [ODD_DECLARED, ODD_ENTERED]
    assert not (ws / ".vet/bom.json").exists()
    assert run(TRACES[1]) == [ODD_DECLARED]


def test_an_integer_literal_out_of_range_exits_3(tmp_path, capsys):
    ws = copy_workspace(GOLDEN / "workspace", tmp_path / "ws")
    (ws / "src/Big.jx").write_text("package app;\nclass Big { static int big() { return %s; } }\n"
                                   % ("9" * 5000))
    capsys.readouterr()
    assert vet(["--workspace", str(ws), "scan"]) == 3
    assert capsys.readouterr().err == (
        "vet: error: src/Big.jx:2:39: integer literal out of range\n")


def test_importing_the_cli_loads_no_dataclasses_inspect_or_printer():
    # the difference leaves out what the interpreter and site loaded before
    code = ("import sys; before = set(sys.modules); import vulnvet.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    src = str(Path(cli.__file__).parents[1])
    loaded = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                            capture_output=True, text=True, check=True).stdout.split()
    assert "vulnvet.cli" in loaded
    assert not {"dataclasses", "inspect", "printer"} & set(loaded)


@pytest.mark.parametrize("module", ["vulnvet.traces", "vulnvet.constructs"])
def test_the_construct_and_trace_layers_load_no_parser_lexer_or_resolver(module):
    # ast is all they read of the front end; the jx package re-exports nothing
    code = "import sys, %s; print(' '.join(sorted(sys.modules)))" % module
    src = str(Path(cli.__file__).parents[1])
    loaded = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                            capture_output=True, text=True, check=True).stdout.split()
    assert module in loaded and "vulnvet.jx.ast" in loaded
    assert not {"vulnvet.jx.parser", "vulnvet.jx.lexer", "vulnvet.jx.resolver"} & set(loaded)


# --- a package split across archives -----------------------------------------

SPLIT_B = """package p;

class B {
    static int run(Foo f) {
        return %d;
    }
}
"""


def _split_package_workspace(root: Path) -> Path:
    """p.Foo in l1, p.B with run(Foo) in l2, and an application that calls
    p.B.run(new p.Foo()) from a test and declares its own p.Twice.of(Foo)."""
    files = {
        "app.json": json.dumps({"name": "app", "version": "1.0", "sourceRoot": "src",
                                "dependencies": [{"name": "l1", "version": "1.0"},
                                                 {"name": "l2", "version": "1.0"}]}),
        "src/a.jx": "package q;\n\nclass A {\n    static void testRun() {\n"
                    "        p.B.run(new p.Foo());\n    }\n}\n",
        "src/twice.jx": "package p;\n\nclass Twice {\n    static int of(Foo f) {\n"
                        "        return B.run(f) + B.run(f);\n    }\n}\n",
        "libs/l1/1.0/lib.json": json.dumps({"name": "l1", "version": "1.0",
                                            "sourceRoot": "src", "dependencies": []}),
        "libs/l1/1.0/src/foo.jx": "package p;\n\nclass Foo {\n}\n",
        "libs/l2/1.0/lib.json": json.dumps({"name": "l2", "version": "1.0",
                                            "sourceRoot": "src", "dependencies": []}),
        "libs/l2/1.0/src/b.jx": SPLIT_B % 1,
        "fix/before/b.jx": SPLIT_B % 1,
        "fix/after/b.jx": SPLIT_B % 2,
    }
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    return root


def test_a_type_of_the_package_from_another_archive_keeps_member_ids_whole(tmp_path, capsys):
    ws = _split_package_workspace(tmp_path / "ws")
    assert vet(["--workspace", str(ws), "kb", "import-fix", "--id", "V1",
                "--before", str(ws / "fix/before"), "--after", str(ws / "fix/after")]) == 0
    _run(ws, SCAN, STATIC, TRACES[0], COMBINED)
    assert "unknown construct" not in capsys.readouterr().err
    assert json.loads((ws / ".vet/reach-static.json").read_text())["skippedSeeds"] == []
    assert vet(["--workspace", str(ws), "report"]) == 2
    report = json.loads((ws / ".vet/report.json").read_text())
    (finding,) = report["findings"]
    assert finding["vulnId"] == "V1" and finding["evidence"] == "DYNAMIC"
    assert "p.B.run(p.Foo)" in [m["qname"] for m in finding["matched"]]


# --- a type declared by two archives -----------------------------------------

def _lib(name, deps, method):
    """The manifest and source of library name, whose p.A declares method()."""
    return {"libs/%s/1.0/lib.json" % name: json.dumps({
                "name": name, "version": "1.0", "sourceRoot": "src",
                "dependencies": [{"name": d, "version": "1.0"} for d in deps]}),
            "libs/%s/1.0/src/a.jx" % name: "package p;\n\nclass A {\n    static int %s() {\n"
                                            "        return 1;\n    }\n}\n" % method}


def test_a_shadowed_type_is_warned_of_and_the_nearest_archive_wins(tmp_path, capsys):
    # l1 (depth 1) and l2 (depth 2) both declare p.A; only l1's has near()
    ws = tmp_path / "ws"
    files = {"app.json": json.dumps({"name": "app", "version": "1.0", "sourceRoot": "src",
                                     "dependencies": [{"name": "l1", "version": "1.0"}]}),
             "src/main.jx": "package app;\n\nclass Main {\n    static void testNear() {\n"
                            "        p.A.near();\n    }\n}\n",
             **_lib("l1", ["l2"], "near"), **_lib("l2", [], "far")}
    for name, text in files.items():
        (ws / name).parent.mkdir(parents=True, exist_ok=True)
        (ws / name).write_text(text)
    capsys.readouterr()
    assert vet(["--workspace", str(ws), "scan"]) == 0
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("resolve: ")] == [
        "resolve: warning: type p.A from libs/l2/1.0/src/a.jx is shadowed by the "
        "declaration in libs/l1/1.0/src/a.jx"]
    edges = json.loads((ws / ".vet/graph.json").read_text())["edges"]
    assert ("app.Main.testNear()", "p.A.near()") in {(e["caller"], e["callee"]) for e in edges}


# --- file names that are not UTF-8, and inputs that are no workspace or KB -----

ODD_NAME = os.fsdecode(b"\xff.jx")  # the byte 0xff, which no UTF-8 text holds


def test_a_source_file_whose_name_is_not_utf8_is_scanned_and_traced(tmp_path):
    ws = _golden_with_index(tmp_path / "ws")
    (ws / "src" / ODD_NAME).write_text("package app;\n\nclass Odd {\n"
                                       "    static int odd() {\n        return 1;\n    }\n}\n")
    _run(ws, SCAN, *TRACES, STATIC, COMBINED, MITIGATE, ["report"])
    stamp = json.loads((ws / ".vet/bom.json").read_text())["inputs"]
    (ws / "src" / ODD_NAME).rename(ws / "src/odd.jx")
    _run(ws, SCAN)  # the same bytes under another name: other inputs
    assert json.loads((ws / ".vet/bom.json").read_text())["inputs"] != stamp


def test_a_kb_file_whose_name_is_not_utf8_is_stamped_in_the_report(tmp_path):
    ws = _golden_with_index(tmp_path / "ws")
    _run(ws, SCAN, ["report"])
    digest = json.loads((ws / ".vet/report.json").read_text())["kbDigest"]
    (ws / "kb/vulns" / os.fsdecode(b"\xff.json")).write_text("{}")
    _run(ws, ["report"])
    odd = json.loads((ws / ".vet/report.json").read_text())["kbDigest"]
    assert len(odd) == 64 and odd != digest


@pytest.mark.parametrize("exists", [True, False])
def test_report_outside_a_workspace_is_refused_and_writes_nothing(tmp_path, capsys, exists):
    ws = tmp_path / "nowhere"
    if exists:
        ws.mkdir()
    capsys.readouterr()
    for argv in (["report"], ["report", "--format", "html"], SCAN):
        assert vet(["--workspace", str(ws), *argv]) == 3
        assert capsys.readouterr() == ("", "vet: error: %s not found\n" % (ws / "app.json"))
    assert (list(ws.iterdir()) == []) if exists else not ws.exists()


def test_a_kb_path_that_is_a_file_is_refused_before_any_record_is_read(tmp_path, capsys):
    ws = copy_workspace(GOLDEN / "workspace", tmp_path / "ws")
    kb = ws / "app.json"
    expected = "vet: error: knowledge base %s is not a directory\n" % kb
    for argv in (SCAN, ["report"], ["kb", "list"],
                 ["kb", "import-fix", "--id", "VULN-J1", "--before", str(J1 / "before"),
                  "--after", str(J1 / "after")]):
        capsys.readouterr()
        assert vet(["--workspace", str(ws), "--kb", str(kb), *argv]) == 3, argv
        assert capsys.readouterr() == ("", expected)
    assert not (ws / ".vet").exists()
    # a missing knowledge base is an empty one, as before
    assert vet(["--workspace", str(ws), "--kb", str(ws / "nokb"), *SCAN]) == 0

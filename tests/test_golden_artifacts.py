"""Golden artifacts of the golden and update fixtures, byte for byte. The
report and findings were produced by the CLI before the evidence,
witness-path and dependency-resolution code was consolidated, the trace log
before trace runs normalised their events once per command instead of once
per test, and the reachability closures and the update fixture's mitigation
and report before reach combined and mitigate reused the stamped bom.json
and graph.json instead of building them again. The call graph was written
by reach static before scan wrote it, and is checked as scan leaves it,
before reach static runs. A refactor that changes any byte of them changes
behaviour. The trace summary was added later: the trace writer, given the
pinned log, must write that log and the pinned summary again. The BOM and
the two stored knowledge-base records, with their trees and fingerprints,
were pinned before construct fingerprinting lost its wrapper and archives
their source roots. The
reports' kbDigest was re-pinned when the knowledge-base digest began to
frame each document's path and bytes, so that two knowledge bases can no
longer share it. Regenerate them only for an intended change of the artifact format, and
say so in the change log."""

from helpers import GOLDEN, UPDATE, copy_workspace
from vulnvet.cli import main as vet
from vulnvet.traces import ingest_traces, write_traces
from vulnvet.workspace import Workspace


def _assert_pinned(actual, expected, names):
    for name in names:
        assert (actual / name).read_bytes() == (expected / name).read_bytes(), name


def test_golden_report_and_findings_are_byte_identical(tmp_path):
    ws = copy_workspace(GOLDEN / "workspace", tmp_path / "ws")
    w = str(ws)
    fx = GOLDEN / "fixes"
    for vid, fix in (("VULN-J1", "j1"), ("VULN-J2", "j2")):
        assert vet(["--workspace", w, "kb", "import-fix", "--id", vid,
                    "--before", str(fx / fix / "before"),
                    "--after", str(fx / fix / "after")]) == 0
    _assert_pinned(ws, GOLDEN / "expected", ("kb/vulns/VULN-J1.json", "kb/vulns/VULN-J2.json"))
    # the step order of acceptance criterion 9
    assert vet(["--workspace", w, "scan"]) == 1
    _assert_pinned(ws / ".vet", GOLDEN / "expected", ("graph.json", "bom.json"))
    for step in (["reach", "static"], ["trace", "run", "--pattern", "test"],
                 ["trace", "run", "--pattern", "itest"], ["reach", "combined"]):
        assert vet(["--workspace", w, *step]) == 0
    assert vet(["--workspace", w, "report"]) == 2
    _assert_pinned(ws / ".vet", GOLDEN / "expected", (
        "findings.json", "report.json", "traces.jsonl", "trace-summary.json",
        "reach-static.json", "reach-combined.json"))


def test_golden_trace_summary_is_the_summary_of_the_golden_trace_log(tmp_path):
    ws = Workspace(tmp_path)
    write_traces(ws, ingest_traces(GOLDEN / "expected/traces.jsonl"))
    _assert_pinned(ws.artifact_dir, GOLDEN / "expected", ("traces.jsonl", "trace-summary.json"))


def _update_mitigation(ws):
    """Run the update fixture's step order of acceptance criterion 8 in ws
    up to mitigate."""
    w = str(ws)
    assert vet(["--workspace", w, "kb", "index-lib", "--name", "libA",
                "--root", "1.0=%s" % (ws / "libs/libA/1.0/src"),
                "--root", "2.0=%s" % (UPDATE / "versions/2.0")]) == 0
    assert vet(["--workspace", w, "scan"]) == 0
    assert vet(["--workspace", w, "reach", "static"]) == 0
    assert vet(["--workspace", w, "mitigate", "--lib", "libA"]) == 0


def test_update_mitigation_and_report_are_byte_identical(tmp_path):
    ws = copy_workspace(UPDATE / "workspace", tmp_path / "ws")
    _update_mitigation(ws)
    assert vet(["--workspace", str(ws), "report"]) == 0
    _assert_pinned(ws / ".vet", UPDATE / "expected", (
        "mitigation-libA.json", "mitigation-libA.csv", "report.json"))


def test_mitigate_takes_a_dependency_named_as_the_application(tmp_path):
    ws = copy_workspace(UPDATE / "workspace", tmp_path / "ws")
    manifest = ws / "app.json"
    manifest.write_text(manifest.read_text().replace('"shop-app"', '"libA"'))
    _update_mitigation(ws)
    _assert_pinned(ws / ".vet", UPDATE / "expected",
                   ("mitigation-libA.json", "mitigation-libA.csv"))

"""Golden artifacts: the report, findings and trace log of the golden
fixture, byte for byte. The report and findings were produced by the CLI
before the evidence, witness-path and dependency-resolution code was
consolidated, the trace log before trace runs normalised their events once
per command instead of once per test; a refactor that changes any byte of
them changes behaviour. Regenerate them only for an intended change of the
artifact format, and say so in the change log."""

from helpers import GOLDEN, copy_workspace
from vulnvet.cli import main as vet

EXPECTED = GOLDEN / "expected"


def test_golden_report_and_findings_are_byte_identical(tmp_path):
    ws = copy_workspace(GOLDEN / "workspace", tmp_path / "ws")
    w = str(ws)
    fx = GOLDEN / "fixes"
    for vid, fix in (("VULN-J1", "j1"), ("VULN-J2", "j2")):
        assert vet(["--workspace", w, "kb", "import-fix", "--id", vid,
                    "--before", str(fx / fix / "before"),
                    "--after", str(fx / fix / "after")]) == 0
    # the step order of acceptance criterion 9
    assert vet(["--workspace", w, "scan"]) == 1
    for step in (["reach", "static"], ["trace", "run", "--pattern", "test"],
                 ["trace", "run", "--pattern", "itest"], ["reach", "combined"]):
        assert vet(["--workspace", w, *step]) == 0
    assert vet(["--workspace", w, "report"]) == 2
    for name in ("findings.json", "report.json", "traces.jsonl"):
        assert (ws / ".vet" / name).read_bytes() == (EXPECTED / name).read_bytes(), name

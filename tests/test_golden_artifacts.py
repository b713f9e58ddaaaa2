"""Golden artifacts: the report and findings of the golden fixture, byte for
byte. The expected files were produced by the CLI before the evidence,
witness-path and dependency-resolution code was consolidated; a refactor
that changes any byte of them changes behaviour. Regenerate them only for an
intended change of the artifact format, and say so in the change log."""

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
    for name in ("findings.json", "report.json"):
        assert (ws / ".vet" / name).read_bytes() == (EXPECTED / name).read_bytes(), name

"""What every vet process loads: SHA-256 comes from CPython's builtin module,
so no command maps OpenSSL through hashlib, and only an HTML report loads
html. hashlib stays the oracle of the digests."""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from helpers import GOLDEN, copy_workspace
from vulnvet import workspace

SRC = str(Path(workspace.__file__).parents[1])
TESTS = str(Path(__file__).parent)
BUILTIN = any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256"))

# runs vet's main in a fresh interpreter and records its exit code and which
# of the named modules it left loaded
_RUN = """import json, sys
from vulnvet.cli import main
code = main(sys.argv[2:])
with open(sys.argv[1], "w") as f:
    json.dump([code, [m for m in ("hashlib", "_hashlib", "html") if m in sys.modules]], f)
"""


@pytest.mark.skipif(not BUILTIN, reason="this Python has neither _sha2 nor _sha256")
def test_no_command_loads_hashlib_and_only_an_html_report_loads_html(tmp_path):
    ws = copy_workspace(GOLDEN / "workspace", tmp_path / "ws")
    w, fixes = str(ws), GOLDEN / "fixes"
    steps = [
        (0, ["kb", "import-fix", "--id", "VULN-J1", "--before", str(fixes / "j1/before"),
             "--after", str(fixes / "j1/after")]),
        (0, ["kb", "import-fix", "--id", "VULN-J2", "--before", str(fixes / "j2/before"),
             "--after", str(fixes / "j2/after")]),
        (1, ["scan"]),
        (0, ["trace", "run", "--pattern", "test"]),
        (0, ["trace", "run", "--pattern", "itest"]),
        (0, ["reach", "static"]),
        (0, ["reach", "combined"]),
        (0, ["kb", "index-lib", "--name", "fw", "--root", "1.0=%s" % (ws / "libs/fw/1.0/src"),
             "--root", "1.1=%s" % (fixes / "j1/after")]),
        (0, ["mitigate", "--lib", "fw"]),
        (2, ["report"]),
        (2, ["report", "--format", "html"]),
    ]
    out = tmp_path / "loaded.json"
    for code, step in steps:
        subprocess.run([sys.executable, "-c", _RUN, str(out), "--workspace", w, *step],
                       env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, check=True)
        html = ["html"] if step[-1] == "html" else []
        assert json.loads(out.read_text()) == [code, html], step
    assert (ws / ".vet/mitigation-fw.json").is_file() and (ws / ".vet/report.html").is_file()


def _reference_framed(parts) -> str:
    return hashlib.sha256(b"".join(b"%d:%s" % (len(p), p) for p in parts)).hexdigest()


# short chunks, and a few long ones that span many 64-byte blocks
_CHUNKS = st.lists(st.binary(max_size=200), max_size=8) | st.lists(
    st.binary(min_size=1000, max_size=5000), max_size=2)


@settings(max_examples=200, database=None)
@given(_CHUNKS)
def test_the_sha256_helper_gives_hashlibs_digest_whole_and_in_chunks(chunks):
    whole = b"".join(chunks)
    expected = hashlib.sha256(whole).hexdigest()
    assert workspace.sha256(whole).hexdigest() == expected
    h = workspace.sha256()
    for chunk in chunks:
        h.update(chunk)
    assert h.hexdigest() == expected
    assert h.digest() == bytes.fromhex(expected)


@settings(max_examples=200, database=None)
@given(st.lists(st.binary(max_size=100), max_size=10))
def test_framed_digest_is_the_sha256_of_the_length_prefixed_parts(parts):
    assert workspace.framed_digest(parts) == _reference_framed(parts)
    assert workspace.framed_digest(iter(parts)) == _reference_framed(parts)


def test_a_python_without_the_builtin_module_falls_back_to_hashlib():
    # the same checks, with both builtin modules made unimportable first
    code = """import sys
sys.modules["_sha2"] = sys.modules["_sha256"] = None
import hashlib
from vulnvet import workspace
assert workspace.sha256 is hashlib.sha256, workspace.sha256
import test_process_floor as t
t.test_the_sha256_helper_gives_hashlibs_digest_whole_and_in_chunks()
t.test_framed_digest_is_the_sha256_of_the_length_prefixed_parts()
print("checked")
"""
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join((SRC, TESTS))})
    assert done.returncode == 0, done.stderr
    assert done.stdout == "checked\n"

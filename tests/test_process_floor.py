"""What every vet process loads, and how it ends. SHA-256 comes from
CPython's builtin module, so no command maps OpenSSL through hashlib, and
only an HTML report loads html; hashlib stays the oracle of the digests. A
process entered through ``vulnvet.cli.run`` (``vet``, ``python -m
vulnvet.cli``) freezes its heap before CPython's shutdown collection, while
``main``, the in-process API, never freezes."""

import gc
import hashlib
import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from helpers import GOLDEN, copy_workspace
from vulnvet import cli, workspace

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


_GOLDEN_STEPS = [
    ["kb", "import-fix", "--id", "VULN-J1", "--before", str(GOLDEN / "fixes/j1/before"),
     "--after", str(GOLDEN / "fixes/j1/after")],
    ["kb", "import-fix", "--id", "VULN-J2", "--before", str(GOLDEN / "fixes/j2/before"),
     "--after", str(GOLDEN / "fixes/j2/after")],
    ["scan"],
    ["trace", "run", "--pattern", "test"],
    ["trace", "run", "--pattern", "itest"],
    ["reach", "static"],
    ["reach", "combined"],
    ["report"],
]


def _in_process(argv, capsys) -> tuple:
    """The exit code, stdout and stderr of main(argv) in this process."""
    capsys.readouterr()
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # a usage error, --help or --version
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("collecting", [True, False])
def test_main_in_process_neither_freezes_nor_leaves_collection_changed(tmp_path, capsys,
                                                                       collecting):
    ws = copy_workspace(GOLDEN / "workspace", tmp_path / "ws")
    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        frozen = gc.get_freeze_count()
        assert _in_process(["--workspace", str(ws), "reach", "static"], capsys)[0] == 0
        assert (gc.get_freeze_count(), gc.isenabled()) == (frozen, collecting)
        assert _in_process(["--workspace", str(ws), "reach", "nosuch"], capsys)[0] == 64
        assert (gc.get_freeze_count(), gc.isenabled()) == (frozen, collecting)
    finally:
        (gc.enable if was else gc.disable)()


# runs vulnvet.cli as __main__, as `python -m vulnvet.cli` does, and writes the
# freeze count that an atexit hook sees, after the command and before shutdown
_FROZEN_AT_EXIT = """import atexit, gc, runpy, sys
out = sys.argv.pop(1)
atexit.register(lambda: open(out, "w").write(str(gc.get_freeze_count())))
runpy.run_module("vulnvet.cli", run_name="__main__")
"""


@pytest.mark.parametrize("argv, code", [
    (["--version"], 0),
    (["reach", "nosuch"], 64),
    (["scan"], 0),
])
def test_the_process_entry_freezes_the_heap_before_shutdown(tmp_path, argv, code):
    ws = copy_workspace(GOLDEN / "workspace", tmp_path / "ws")
    out = tmp_path / "frozen.txt"
    done = subprocess.run([sys.executable, "-c", _FROZEN_AT_EXIT, str(out),
                           "--workspace", str(ws), *argv],
                          env={**os.environ, "PYTHONPATH": SRC}, capture_output=True)
    assert done.returncode == code, done.stderr
    assert int(out.read_text()) > 1000  # the modules' objects at least


def test_python_m_vulnvet_cli_answers_as_main_in_process(tmp_path, capsys):
    """stdout, stderr and the exit code of each step, run in a fresh copy of
    the golden workspace at the same path by each side in turn."""
    ws = tmp_path / "ws"
    steps = [["--version"]] + _GOLDEN_STEPS + [
        ["mitigate", "--lib", "nosuch"], ["reach", "static", "--nosuch"]]
    answers = []
    for side in ("main", "process"):
        shutil.rmtree(ws, ignore_errors=True)
        copy_workspace(GOLDEN / "workspace", ws)
        answers.append([])
        for step in steps:
            argv = ["--workspace", str(ws), *step]
            if side == "main":
                answers[-1].append(_in_process(argv, capsys))
            else:
                done = subprocess.run([sys.executable, "-m", "vulnvet.cli", *argv],
                                      env={**os.environ, "PYTHONPATH": SRC},
                                      capture_output=True, text=True)
                answers[-1].append((done.returncode, done.stdout, done.stderr))
    assert answers[0] == answers[1]
    assert [code for code, _, _ in answers[0]] == [0, 0, 0, 1, 0, 0, 0, 0, 2, 3, 64]

"""``scan`` streams the corpus: declarations first, then each member body
parsed once, bound, fingerprinted and dropped. Any parse error is reported
as a whole parse reports it, and everything else as before."""

import io
import json
import os
import random
import shutil
import tempfile
import weakref
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (GOLDEN, build_golden_kb, copy_workspace, mutate_sources, small_workload,
                     whole_sources, written_bodies)
from lowering import serialize
from vulnvet import canonical, diffing
from vulnvet.bom import bom_to_json, build_bom, corpus_program
from vulnvet.cli import main as vet
from vulnvet.jx import ast, lexer, parser, resolver
from vulnvet.jx.errors import JxError


def _vet(ws, *argv):
    """(exit code, stdout, stderr) of one vet command on ws."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = vet(["--workspace", str(ws), *argv])
    return code, out.getvalue(), err.getvalue()


def _workspace(root: Path, name: str, seed: int) -> Path:
    if name == "golden":
        return copy_workspace(GOLDEN / "workspace", root / "ws")
    return small_workload(root, name, seed)


@pytest.mark.parametrize("name", ["golden", "corpus"])
def test_scan_decodes_only_the_trees_that_ted_compares(tmp_path, monkeypatch, name):
    if name == "golden":  # every match is digest-equal
        ws = copy_workspace(GOLDEN / "workspace", tmp_path / "ws")
        build_golden_kb(ws / "kb")
    else:  # its drifted bodies are measured
        ws = small_workload(tmp_path, name, 5)
        monkeypatch.chdir(ws)  # the set-up names its fix trees relative to the workspace
        for argv in json.loads((tmp_path / "answers.json").read_text())["setup"]:
            assert _vet(ws, *argv)[0] == 0, argv
    decoded, compared = [], []
    real_decode, real_ted = canonical.deserialize, diffing.tree_edit_distance
    monkeypatch.setattr(canonical, "deserialize",
                        lambda text: decoded.append(text) or real_decode(text))
    monkeypatch.setattr(diffing, "tree_edit_distance", lambda a, b: compared.append(
        (serialize(a), serialize(b))) or real_ted(a, b))
    assert _vet(ws, "scan")[0] in (0, 1)
    # each body measured is decoded once, and so is each side of its change
    assert len(compared) % 2 == 0
    measured = [(obs, vuln, fixed)
                for (obs, vuln), (_obs, fixed) in zip(compared[::2], compared[1::2])]
    assert sorted(decoded) == sorted(text for texts in measured for text in texts)
    assert (compared == []) == (name == "golden")


class _Block(ast.Block):
    __slots__ = ("__weakref__",)  # a parsed body, watched while scan runs


@pytest.mark.parametrize("name", ["golden", "corpus"])
def test_scan_parses_each_written_body_once_and_holds_one_at_a_time(tmp_path, monkeypatch,
                                                                     name):
    ws = _workspace(tmp_path, name, 5)
    parsed, alive, eager = [], [], []  # bodies parsed; earlier ones alive at each parse
    real_parse, real_tokenize = parser.parse_body, parser.tokenize

    def parse_body(body):
        alive.append(sum(ref() is not None for _key, ref in parsed))
        block = real_parse(body)
        block = _Block(block.stmts, block.pos)
        parsed.append(((body.origin, body.start), weakref.ref(block)))
        return block

    def tokenize(source, origin, *position, bodies=True):
        if bodies and not position:
            eager.append(origin)
        return real_tokenize(source, origin, *position, bodies=bodies)
    monkeypatch.setattr(resolver, "parse_body", parse_body)
    monkeypatch.setattr(parser, "parse_body", parse_body)
    monkeypatch.setattr(parser, "tokenize", tokenize)
    assert _vet(ws, "scan")[0] in (0, 1)
    assert sorted(key for key, _ref in parsed) == written_bodies(ws) != []
    assert eager == [] and max(alive) <= 1


def _whole(ws: Path):
    """What a whole parse and bind of ws report: the stderr of scan, and
    the BOM it stores (None where the parse fails)."""
    try:
        src = whole_sources(ws)
    except JxError as exc:  # the first error, in archive and file order
        return "vet: error: %s\n" % exc, None
    program = corpus_program(src).bind_all()
    lines = (["resolve: %s" % d for d in program.diagnostics]
             + ["resolve: warning: %s" % w for w in program.warnings]
             + ["bom: %s" % w for w in src.warnings])
    return "".join(line + "\n" for line in lines), bom_to_json(build_bom(src))


def _assert_scan_reports_the_whole_parse(ws: Path):
    err, bom = _whole(ws)
    code, out, scan_err = _vet(ws, "scan")
    assert scan_err == err
    if bom is None:
        assert (code, out) == (3, "")
    else:
        assert code in (0, 1, 2)
        stored = json.loads((ws / ".vet/bom.json").read_text())
        del stored["inputs"]
        assert stored == bom


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.just(("golden", 0)),
                 st.tuples(st.sampled_from(["corpus", "kb-drift", "trace-heavy"]),
                           st.integers(0, 2 ** 16))),
       st.integers(0, 2 ** 32), st.integers(0, 4))
def test_scan_reports_what_a_whole_parse_and_bind_report(workspace, mutation, count):
    with tempfile.TemporaryDirectory() as tmp:
        ws = _workspace(Path(tmp), *workspace)
        mutate_sources(random.Random(mutation), ws, count)
        _assert_scan_reports_the_whole_parse(ws)


def _write(ws: Path, files: dict) -> Path:
    for path, text in files.items():
        (ws / path).parent.mkdir(parents=True, exist_ok=True)
        (ws / path).write_text(text)
    return ws


_SHADOWING = {
    "app.json": json.dumps({"name": "app", "version": "1.0", "sourceRoot": "src",
                            "dependencies": [{"name": "lib", "version": "1.0"}]}),
    "src/Foo.jx": "package p;\nclass Foo {\n    static int a() { return Bar.b(); }\n}\n",
    "libs/lib/1.0/lib.json": json.dumps({"name": "lib", "version": "1.0", "sourceRoot": "src"}),
    "libs/lib/1.0/src/Foo.jx": "package p;\nclass Foo {\n    static int a() { return 2; }\n}\n",
    "libs/lib/1.0/src/Bar.jx": ("package p;\nclass Bar {\n    static int b() { return 3; }\n"
                                "    static int b() { return 4; }\n}\n"),
    # a second p.Bar of the same archive, which neither its inventory nor the program holds
    "libs/lib/1.0/src/Bar2.jx": "package p;\nclass Bar {\n    static int b() { return 5; }\n}\n",
}


def test_a_shadowed_or_duplicate_body_is_fingerprinted_as_a_whole_parse_does(tmp_path):
    ws = _write(tmp_path / "ws", _SHADOWING)
    _assert_scan_reports_the_whole_parse(ws)
    assert "shadows the declaration" in _whole(ws)[0]


@pytest.mark.parametrize("path, body", [
    ("libs/lib/1.0/src/Foo.jx", "return 2;"),  # a type the application's shadows
    ("libs/lib/1.0/src/Bar.jx", "return 3;"),  # a method a later one replaces
    ("libs/lib/1.0/src/Bar2.jx", "return 5;"),  # a type an earlier one of its archive hides
])
def test_a_syntax_error_in_a_body_no_program_member_holds_is_reported(tmp_path, path, body):
    ws = _write(tmp_path / "ws", _SHADOWING)
    (ws / path).write_text((ws / path).read_text().replace(body, "return (;", 1))
    _assert_scan_reports_the_whole_parse(ws)
    assert _whole(ws)[0].startswith("vet: error: %s:3:" % path)


# what may stand between two tokens: blanks, and comments holding braces,
# quotes and slashes, which a body's skip must step over
_COMMENTED = st.text(" x{}\"/;*\\", max_size=6)
_GAP = st.lists(st.one_of(st.sampled_from([" ", "\n", "\t", "\r\n"]),
                          _COMMENTED.map(lambda t: " /*%s*/ " % t.replace("*", "")),
                          _COMMENTED.map(lambda t: " //%s\n" % t)),
                min_size=1, max_size=3).map("".join)


def _relaid(source: str, gaps: list, rng) -> str:
    """source token by token (see jx.lexer._TOKEN), each token after a gap
    drawn from gaps in place of its own blanks and comments."""
    out = []
    for m in lexer._TOKEN.finditer(source):
        assert m.lastgroup != "BAD"
        out += (rng.choice(gaps), m.group(m.lastgroup))
        if m.lastgroup == "EOF":
            return "".join(out)


def _scanned(ws: Path):
    """scan's exit code on ws, and the fingerprint bom.json stores for each
    (archive, construct id)."""
    code = _vet(ws, "scan")[0]
    stored = json.loads((ws / ".vet/bom.json").read_text())
    return code, {(a["name"], c["ctype"], c["qname"]): c["fingerprint"]
                  for a in stored["archives"] for c in a["constructs"]}


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(["corpus", "kb-drift", "trace-heavy"]), st.integers(0, 2 ** 16),
       st.lists(_GAP, min_size=1, max_size=6), st.integers(0, 2 ** 32))
def test_scan_is_blind_to_layout_and_comments(name, seed, gaps, choice):
    with tempfile.TemporaryDirectory() as tmp:
        ws = small_workload(Path(tmp), name, seed)
        cwd = os.getcwd()
        os.chdir(ws)  # the set-up names its fix trees relative to the workspace
        try:
            for argv in json.loads((Path(tmp) / "answers.json").read_text())["setup"]:
                assert _vet(ws, *argv)[0] == 0, argv
        finally:
            os.chdir(cwd)
        relaid, rng = shutil.copytree(ws, Path(tmp) / "relaid"), random.Random(choice)
        for path in relaid.rglob("*.jx"):
            path.write_text(_relaid(path.read_text(), gaps, rng))
        assert _scanned(relaid) == _scanned(ws)
        # and each body is still one the declarations parse steps over
        assert len(written_bodies(relaid)) == len(written_bodies(ws))

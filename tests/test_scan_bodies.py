"""``scan`` streams the corpus: declarations first, then each member body
parsed once, bound, fingerprinted and dropped. Any parse error is reported
as a whole parse reports it, and everything else as before."""

import io
import json
import random
import tempfile
import weakref
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (GOLDEN, build_golden_kb, copy_workspace, flipped_or_truncated,
                     small_workload, written_bodies)
from lowering import serialize
from vulnvet import canonical, diffing
from vulnvet.bom import Sources, bom_to_json, build_bom, corpus_program
from vulnvet.cli import main as vet
from vulnvet.jx import ast, parser, resolver
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
    src = Sources(ws / "app.json", ws)
    try:
        for _, _, root, _ in src.archives:
            src.units(root, bodies=True)
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
       st.integers(0, 2 ** 32), st.integers(0, 3))
def test_scan_reports_what_a_whole_parse_and_bind_report(workspace, mutation, count):
    rng = random.Random(mutation)
    with tempfile.TemporaryDirectory() as tmp:
        ws = _workspace(Path(tmp), *workspace)
        sources = sorted(ws.rglob("*.jx"))
        for _ in range(count):
            path = rng.choice(sources)
            path.write_bytes(flipped_or_truncated(rng, path.read_bytes()))
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
}


def test_a_shadowed_or_duplicate_body_is_fingerprinted_as_a_whole_parse_does(tmp_path):
    ws = _write(tmp_path / "ws", _SHADOWING)
    _assert_scan_reports_the_whole_parse(ws)
    assert "shadows the declaration" in _whole(ws)[0]


@pytest.mark.parametrize("path, body", [
    ("libs/lib/1.0/src/Foo.jx", "return 2;"),  # a type the application's shadows
    ("libs/lib/1.0/src/Bar.jx", "return 3;"),  # a method a later one replaces
])
def test_a_syntax_error_in_a_body_no_program_member_holds_is_reported(tmp_path, path, body):
    ws = _write(tmp_path / "ws", _SHADOWING)
    (ws / path).write_text((ws / path).read_text().replace(body, "return (;", 1))
    _assert_scan_reports_the_whole_parse(ws)
    assert _whole(ws)[0].startswith("vet: error: %s:3:" % path)

"""Every command that parses streams the corpus: the declarations of each
file, then each member body parsed once and dropped. What it reports is what
a whole parse reports: at a parse error, the first error of the whole parse
in archive (or root) and file order, and otherwise everything a run on the
whole parse's trees writes and prints."""

import io
import json
import random
import shutil
import tempfile
import weakref
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (GOLDEN, copy_workspace, mutate_sources, parse_whole, small_workload,
                     written_bodies)
from vulnvet import bom
from vulnvet.bom import Sources, source_files
from vulnvet.cli import main as vet
from vulnvet.jx import ast, parser, resolver
from vulnvet.jx.errors import JxError
from vulnvet.workspace import read_text


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


def _commands(ws: Path) -> list:
    """Each command that parses, run on ws without .vet/ (so unstamped or
    stale): its argv, then the source roots it parses, in order, and the
    base of their origins (None: each root is its own)."""
    src = Sources(ws / "app.json", ws)
    roots = [root for _, _, root, _ in src.archives]
    lib, app, dep = src.archives[1][1]["name"], str(roots[0]), str(roots[1])
    return [
        (["trace", "run", "--pattern", "test"], roots, ws),
        (["reach", "static"], roots, ws),
        (["mitigate", "--lib", lib], roots, ws),  # no index: exit 3 once parsed
        (["kb", "import-fix", "--id", "V", "--before", dep, "--after", app], [dep, app], None),
        (["kb", "index-lib", "--name", lib, "--root", "1.0=" + dep, "--root", "2.0=" + app],
         [dep, app], None),
    ]


def _whole_error(roots, base):
    """The stderr of vet for the first error that a whole parse of the .jx
    files under roots meets, in root and file order; None if it meets none."""
    try:
        for root in roots:
            for origin, path in source_files(Path(root), base):
                parse_whole(read_text(path, JxError), origin)
    except JxError as exc:
        return "vet: error: %s\n" % exc
    return None


def _files(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


@settings(max_examples=25, deadline=None)
@given(st.one_of(st.just(("golden", 0)),
                 st.tuples(st.sampled_from(["corpus", "kb-drift", "trace-heavy"]),
                           st.integers(0, 2 ** 16))),
       st.integers(0, 2 ** 32), st.integers(0, 4))
def test_every_command_reports_what_a_whole_parse_reports(workspace, mutation, count):
    with tempfile.TemporaryDirectory() as tmp:
        ws = _workspace(Path(tmp), *workspace)
        mutate_sources(random.Random(mutation), ws, count)
        for i in range(len(_commands(ws))):
            streamed, whole = (shutil.copytree(ws, Path(tmp) / ("%s%d" % (kind, i)))
                               for kind in ("streamed", "whole"))
            argv, roots, base = _commands(streamed)[i]
            got = _vet(streamed, *argv)
            err = _whole_error(roots, base)
            if err is not None:
                assert got == (3, "", err), argv
                continue
            # the reference: the same command on trees parsed whole
            with patch.object(bom, "parse_unit", parse_whole):
                assert got == _vet(whole, *_commands(whole)[i][0]), argv
            assert _files(streamed) == _files(whole), argv


_LIB = {
    "app.json": json.dumps({"name": "app", "version": "1.0", "sourceRoot": "src",
                            "dependencies": [{"name": "lib", "version": "1.0"}]}),
    "libs/lib/1.0/lib.json": json.dumps({"name": "lib", "version": "1.0", "sourceRoot": "src"}),
    "libs/lib/1.0/src/L.jx": "package q;\nclass L {\n    static int f() { return 1; }\n}\n",
}
_BAD_BODY = "package p;\nclass A {\n    static int m() { return (; }\n"
# workspaces whose first error a parse of declarations, then of the bodies
# that count, would meet late or not at all
_ORDERS = {
    "a body of a type that an earlier file hides": {
        "src/A.jx": "package p;\nclass A { }\n", "src/B.jx": _BAD_BODY + "}\n"},
    "a declaration error after a body error": {"src/A.jx": _BAD_BODY + "    int int;\n}\n"},
    "a lexical error after a syntax error": {
        "src/A.jx": _BAD_BODY + "    static int n() { return 1 # 2; }\n}\n"},
    "a declaration error in a later file": {"src/A.jx": _BAD_BODY + "}\n",
                                            "src/B.jx": "package p;\nclass { }\n"},
    "a declaration error in a later archive": {"src/A.jx": _BAD_BODY + "}\n",
                                               "libs/lib/1.0/src/L.jx": "package q;\nclass { }\n"},
}


@pytest.mark.parametrize("case", sorted(_ORDERS))
def test_every_command_reports_the_first_error_of_a_whole_parse(tmp_path, case):
    ws = tmp_path / "ws"
    for path, text in {**_LIB, **_ORDERS[case]}.items():
        (ws / path).parent.mkdir(parents=True, exist_ok=True)
        (ws / path).write_text(text)
    for argv, roots, base in [(["scan"], _commands(ws)[0][1], ws)] + _commands(ws):
        err = _whole_error(roots, base)
        assert err is not None and _vet(ws, *argv) == (3, "", err), argv


class _Block(ast.Block):
    __slots__ = ("__weakref__",)  # a parsed body, watched while a command runs


@pytest.fixture
def parsed(monkeypatch):
    """For each body parse_body parses: its (origin, start), who parsed it
    ("inventory" or "program"), a weak reference to its Block, and how many
    Blocks parsed before it are alive as it is parsed. Any whole lexing of a
    file (not of a body's range) is recorded as ("eager", origin)."""
    log = []
    real_parse, real_tokenize = parser.parse_body, parser.tokenize

    def watch(who):
        def parse_body(body):
            alive = sum(ref() is not None for *_key, ref, _n in log)
            block = real_parse(body)
            block = _Block(block.stmts, block.pos)
            log.append(((body.origin, body.start), who, weakref.ref(block), alive))
            return block
        return parse_body

    def tokenize(source, origin, *position, bodies=True):
        if bodies and not position:
            log.append((("eager", origin), None, lambda: None, 0))
        return real_tokenize(source, origin, *position, bodies=bodies)
    monkeypatch.setattr(parser, "parse_body", watch("inventory"))
    monkeypatch.setattr(resolver, "parse_body", watch("program"))
    monkeypatch.setattr(parser, "tokenize", tokenize)
    return log


@pytest.mark.parametrize("command", ["reach static", "mitigate"])
@pytest.mark.parametrize("name", ["golden", "corpus"])
def test_a_stale_reach_or_mitigate_parses_each_body_once_and_holds_one_at_a_time(
        tmp_path, parsed, name, command):
    ws = _workspace(tmp_path, name, 5)
    argv = command.split()
    if command == "mitigate":  # an index of the first dependency, for a ranking
        _path, data, root, _depth = Sources(ws / "app.json", ws).archives[1]
        assert _vet(ws, "kb", "index-lib", "--name", data["name"],
                    "--root", "1.0=%s" % root, "--root", "2.0=%s" % root)[0] == 0
        argv += ["--lib", data["name"]]
        parsed.clear()
    assert _vet(ws, *argv)[0] == 0
    # in one pass, the program binds its bodies and the BOM's inventories
    # parse the rest: every written body, each once
    assert sorted(key for key, _who, _ref, _n in parsed) == written_bodies(ws) != []
    assert any(who == "program" for _key, who, _ref, _n in parsed)
    assert all(who is not None for _key, who, _ref, _n in parsed)  # no file lexed whole
    assert max(n for *_key, n in parsed) <= 1


@pytest.mark.parametrize("name", ["golden", "trace-heavy"])
def test_an_unstamped_trace_run_holds_one_inventoried_body_at_a_time(tmp_path, parsed, name):
    ws = _workspace(tmp_path, name, 3)
    assert _vet(ws, "trace", "run", "--pattern", "test")[0] == 0
    inventoried = [n for _key, who, _ref, n in parsed if who == "inventory"]
    entered = [key for key, who, _ref, _n in parsed if who == "program"]
    assert sorted(key for key, who, _ref, _n in parsed if who == "inventory") == \
        written_bodies(ws) != []
    # the BOM is built first, with one parsed body alive at a time; the
    # program then keeps the bodies the tests enter, each parsed once
    assert max(inventoried) <= 1 and len(set(entered)) == len(entered) > 0
    assert all(who is not None for _key, who, _ref, _n in parsed)


def _written(root: Path) -> list:
    """(origin, start) of each member body written under the source root."""
    return [(m.body.origin, m.body.start) for origin, path in source_files(root)
            for d in parser.parse_unit(read_text(path, JxError), origin).decls
            if isinstance(d, ast.ClassDecl) for m in (*d.ctors, *d.methods)
            if isinstance(m.body, ast.Unparsed)]


@pytest.mark.parametrize("command", ["import-fix", "index-lib"])
def test_a_kb_inventory_parses_every_body_once_and_holds_one_at_a_time(tmp_path, parsed,
                                                                        command):
    ws = _workspace(tmp_path, "golden", 0)
    before, after = GOLDEN / "fixes/j2/before", GOLDEN / "fixes/j2/after"
    written = sorted(_written(before) + _written(after))
    parsed.clear()
    if command == "import-fix":
        argv = ["--id", "V", "--before", str(before), "--after", str(after)]
    else:
        argv = ["--name", "lib3", "--root", "1.0=%s" % before, "--root", "2.0=%s" % after]
    assert _vet(ws, "kb", command, *argv)[0] == 0
    assert sorted(key for key, *_rest in parsed) == written != []
    assert {who for _key, who, _ref, _n in parsed} == {"inventory"}  # no file lexed whole
    assert max(n for *_key, n in parsed) <= 1

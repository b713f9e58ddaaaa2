"""Bill of materials resolution."""

import json
import os
from collections import Counter
from pathlib import Path

import pytest

from helpers import GOLDEN, UPDATE, copy_workspace
from vulnvet.bom import (Sources, bom_from_json, bom_to_json, build_bom, corpus_program,
                         input_digest, source_files)
from vulnvet.callgraph import build_call_graph, graph_from_json, graph_to_json
from vulnvet.errors import MalformedArtifact, ManifestError, MissingDependency
from vulnvet.jx import parser


def _golden_bom(tmp_path):
    ws = copy_workspace(GOLDEN / "workspace", tmp_path / "ws")
    return ws, build_bom(Sources(ws / "app.json", ws))


def test_transitive_resolution_and_depths(tmp_path):
    _, bom = _golden_bom(tmp_path)
    depths = {arc.name: depth for arc, depth in bom.archives()}
    assert depths == {"demo-app": 0, "fw": 1, "lib1": 1, "lib2": 2, "lib3": 3}


def test_version_conflict_nearest_wins(tmp_path):
    ws = copy_workspace(GOLDEN / "workspace", tmp_path / "ws")
    # make the app also require lib2, at a different version than lib1 does
    manifest = json.loads((ws / "app.json").read_text())
    manifest["dependencies"].append({"name": "lib2", "version": "0.9"})
    (ws / "app.json").write_text(json.dumps(manifest))
    lib2_old = ws / "libs/lib2/0.9"
    lib2_old.mkdir(parents=True)
    (lib2_old / "lib.json").write_text(json.dumps({
        "name": "lib2", "version": "0.9", "sourceRoot": "src",
        "dependencies": []}))
    (lib2_old / "src").mkdir()
    (lib2_old / "src/core.jx").write_text("package lib2; class Core { }")
    bom = build_bom(Sources(ws / "app.json", ws))
    assert bom.dependency("lib2")[0].version == "0.9"
    assert any("conflict" in w for w in bom.warnings)


def test_missing_dependency_is_an_error(tmp_path):
    ws = copy_workspace(GOLDEN / "workspace", tmp_path / "ws")
    manifest = json.loads((ws / "app.json").read_text())
    manifest["dependencies"].append({"name": "ghost", "version": "1.0"})
    (ws / "app.json").write_text(json.dumps(manifest))
    with pytest.raises(MissingDependency):
        build_bom(Sources(ws / "app.json", ws))


def test_malformed_manifest(tmp_path):
    bad = tmp_path / "app.json"
    (tmp_path / "src").mkdir()  # the manifest itself must be what fails
    for text in ('{"name": "x"}', '["name", "version", "sourceRoot"]',
                 '{"name": "x", "version": "1", "sourceRoot": "src", '
                 '"dependencies": ["name version"]}',
                 '{"name": "x", "version": 1, "sourceRoot": "src"}',
                 '{"name": "x", "version": "1.0-dev", "sourceRoot": "src"}',
                 '{"name": "x", "version": "1", "sourceRoot": "src", '
                 '"dependencies": [{"name": "y", "version": "1.x"}]}'):
        bad.write_text(text)
        with pytest.raises(ManifestError):
            build_bom(Sources(bad, tmp_path))


def test_unit_origins_are_workspace_relative(tmp_path):
    ws = copy_workspace(GOLDEN / "workspace", tmp_path / "ws")
    origins = [u.origin for u in corpus_program(Sources(ws / "app.json", ws)).units]
    assert "src/main.jx" in origins
    assert "libs/fw/1.0/src/engine.jx" in origins
    assert not any(o.startswith("/") for o in origins)


def test_source_origins_equal_a_relpath_per_file(tmp_path):
    ws = copy_workspace(GOLDEN / "workspace", tmp_path / "ws")
    shared = tmp_path / "shared"
    for rel in ("a.jx", "q/b.jx", "q/r/c.jx"):
        (shared / rel).parent.mkdir(parents=True, exist_ok=True)
        (shared / rel).write_text("package q; class C%d { }" % len(rel))
    for root in (ws / "libs", ws / "libs/fw/1.0/src", ws / "../shared", shared):
        paths = sorted(root.rglob("*.jx"))
        assert paths
        assert source_files(root, ws) == [
            (Path(os.path.relpath(path, ws)).as_posix(), path) for path in paths]
    manifest = json.loads((ws / "app.json").read_text())
    (ws / "app.json").write_text(json.dumps(dict(manifest, sourceRoot="../shared")))
    origins = {u.origin for u in corpus_program(Sources(ws / "app.json", ws)).units}
    assert {o for o in origins if not o.startswith("libs/")} == {"../shared/a.jx", "../shared/q/b.jx", "../shared/q/r/c.jx"}


def test_corpus_program_resolves_cross_archive_calls(tmp_path):
    ws, _ = _golden_bom(tmp_path)
    program = corpus_program(Sources(ws / "app.json", ws))
    assert not program.bind_all().diagnostics


def test_bom_json_counts(tmp_path):
    _, bom = _golden_bom(tmp_path)
    data = bom_to_json(bom)
    app = data["archives"][0]
    assert app["name"] == "demo-app" and app["depth"] == 0
    assert Counter(c["ctype"] for c in app["constructs"]) == {
        "PACKAGE": 1, "CLASS": 1, "CONSTRUCTOR": 1, "METHOD": 4}
    assert "constructCounts" not in app  # report.json counts them itself


def _inventory(bom):
    return [(arc.name, arc.version, arc.kind, depth, arc.declared_deps,
             {cid: c.fingerprint for cid, c in arc.constructs.items()})
            for arc, depth in bom.archives()]


@pytest.mark.parametrize("fixture", [GOLDEN, UPDATE])
def test_bom_and_graph_json_round_trip(tmp_path, fixture):
    ws = copy_workspace(fixture / "workspace", tmp_path / "ws")
    src = Sources(ws / "app.json", ws)
    bom = build_bom(src)
    graph = build_call_graph(corpus_program(src))
    assert graph.unresolved or fixture is UPDATE
    stored = json.loads(json.dumps(graph_to_json(graph)))
    assert graph_from_json(stored, "graph.json") == graph
    back = bom_from_json(json.loads(json.dumps(bom_to_json(bom))), "bom.json")
    assert _inventory(back) == _inventory(bom)
    assert back.warnings == sorted(bom.warnings)
    assert bom_to_json(back) == bom_to_json(bom)


@pytest.mark.parametrize("edit", [
    lambda d: d.pop("archives"),
    lambda d: d.update(archives=[]),
    lambda d: d["archives"].reverse(),                            # application not first
    lambda d: d["archives"][1].update(depth=0),
    lambda d: d["archives"][1].update(depth="1"),
    lambda d: d["archives"][0].update(kind="DEPENDENCY"),
    lambda d: d["archives"][0].pop("declaredDependencies"),
    lambda d: d["archives"][0]["declaredDependencies"].append({"name": "x"}),
    lambda d: d["archives"][0].update(version=1),
    lambda d: d["archives"][0]["constructs"][0].update(ctype="FIELD"),
    lambda d: d["archives"][0]["constructs"][0].update(fingerprint=7),
    lambda d: d["archives"][0]["constructs"].append("app.Main"),
    lambda d: d.update(resolutionWarnings=[None]),
    lambda d: d["archives"].append(dict(d["archives"][-1])),       # a dependency twice
    lambda d: d["archives"][1]["constructs"].append(               # a construct id twice
        d["archives"][1]["constructs"][0]),
])
def test_bom_from_json_rejects_what_bom_to_json_does_not_write(tmp_path, edit):
    _, bom = _golden_bom(tmp_path)
    data = bom_to_json(bom)
    edit(data)
    with pytest.raises(MalformedArtifact, match="bom.json"):
        bom_from_json(data, "bom.json")


@pytest.mark.parametrize("edit", [
    lambda d: d.pop("edges"),
    lambda d: d["nodes"].append({"ctype": "METHOD"}),
    lambda d: d["edges"][0].update(kind="DYNAMIC"),                # only traces add these
    lambda d: d["edges"][0].update(calleeCtype="CLASS"),
    lambda d: d["edges"][0].update(site=None),
    lambda d: d["unresolved"][0].update(caller="no.Such.m()"),     # not a node
    lambda d: d["unresolved"][0].update(reason=[]),
    lambda d: d.update(nodes={}),
])
def test_graph_from_json_rejects_what_graph_to_json_does_not_write(tmp_path, edit):
    ws, _ = _golden_bom(tmp_path)
    data = graph_to_json(build_call_graph(corpus_program(Sources(ws / "app.json", ws))))
    edit(data)
    with pytest.raises(MalformedArtifact, match="graph.json"):
        graph_from_json(data, "graph.json")


def test_input_digest_covers_what_the_build_reads(tmp_path, monkeypatch):
    ws = copy_workspace(GOLDEN / "workspace", tmp_path / "ws")
    base = input_digest(Sources(ws / "app.json", ws))
    # content only: another checkout location, an artifact or an unrelated
    # file leave it as it is
    other = copy_workspace(ws, tmp_path / "elsewhere")
    assert input_digest(Sources(other / "app.json", other)) == base
    (ws / ".vet").mkdir()
    (ws / ".vet/bom.json").write_text("{}")
    (ws / "libs/lib1/1.0/NOTES.txt").write_text("not a source")
    assert input_digest(Sources(ws / "app.json", ws)) == base

    def changed(path, text):
        old = path.read_bytes() if path.exists() else None
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        digest = input_digest(Sources(ws / "app.json", ws))
        if old is None:
            path.unlink()
        else:
            path.write_bytes(old)
        assert input_digest(Sources(ws / "app.json", ws)) == base
        return digest != base

    source = ws / "libs/lib3/1.0/src/scan.jx"
    assert changed(source, source.read_text() + " ")
    assert changed(ws / "libs/lib3/1.0/src/extra.jx", "package lib3;")
    manifest = ws / "libs/lib2/1.0/lib.json"
    assert changed(manifest, manifest.read_text() + " ")
    assert changed(ws / "app.json", (ws / "app.json").read_text() + " ")
    # a store library the application does not resolve is not an input
    assert not changed(ws / "libs/lib2/0.5/lib.json", "{}")
    monkeypatch.setattr(parser, "MAX_NESTING", parser.MAX_NESTING + 1)
    assert input_digest(Sources(ws / "app.json", ws)) != base


def test_input_digest_fails_like_the_build(tmp_path):
    ws = copy_workspace(GOLDEN / "workspace", tmp_path / "ws")
    (ws / "libs/lib3/1.0/src/scan.jx").unlink()
    (ws / "libs/lib3/1.0/src").rmdir()
    for step in (input_digest, build_bom):
        with pytest.raises(ManifestError, match="source root"):
            step(Sources(ws / "app.json", ws))

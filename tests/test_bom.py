"""Bill of materials resolution."""

import json

import pytest

from helpers import GOLDEN, copy_workspace
from vulnvet.bom import bom_to_json, build_bom, corpus_program
from vulnvet.errors import ManifestError, MissingDependency


def _golden_bom(tmp_path):
    ws = copy_workspace(GOLDEN / "workspace", tmp_path / "ws")
    return ws, build_bom(ws / "app.json", ws)


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
    bom = build_bom(ws / "app.json", ws)
    assert bom.archive_named("lib2").version == "0.9"
    assert any("conflict" in w for w in bom.warnings)


def test_missing_dependency_is_an_error(tmp_path):
    ws = copy_workspace(GOLDEN / "workspace", tmp_path / "ws")
    manifest = json.loads((ws / "app.json").read_text())
    manifest["dependencies"].append({"name": "ghost", "version": "1.0"})
    (ws / "app.json").write_text(json.dumps(manifest))
    with pytest.raises(MissingDependency):
        build_bom(ws / "app.json", ws)


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
            build_bom(bad, tmp_path)


def test_unit_origins_are_workspace_relative(tmp_path):
    _, bom = _golden_bom(tmp_path)
    origins = [u.origin for arc, _ in bom.archives() for u in arc.units]
    assert "src/main.jx" in origins
    assert "libs/fw/1.0/src/engine.jx" in origins
    assert not any(o.startswith("/") for o in origins)


def test_corpus_program_resolves_cross_archive_calls(tmp_path):
    _, bom = _golden_bom(tmp_path)
    program = corpus_program(bom)
    assert not program.diagnostics


def test_bom_json_counts(tmp_path):
    _, bom = _golden_bom(tmp_path)
    data = bom_to_json(bom)
    app = data["archives"][0]
    assert app["name"] == "demo-app" and app["depth"] == 0
    assert app["constructCounts"] == {"PACKAGE": 1, "CLASS": 1,
                                      "CONSTRUCTOR": 1, "METHOD": 4}

"""Update metrics and candidate ranking."""

import json

import pytest

from helpers import GOLDEN, UPDATE, build_golden_kb, copy_workspace
from vulnvet.bom import Sources, build_bom, corpus_program
from vulnvet.callgraph import app_reachability, build_call_graph
from vulnvet.combined import combined_reachable
from vulnvet.cli import main as vet
from vulnvet.detection import non_vulnerable_versions
from vulnvet.errors import (EmptyConstructSet, ManifestError, NoCandidates,
                            NoTouchPoints, UnknownArchive)
from vulnvet.kb import KnowledgeBase
from vulnvet.metrics import (Ratio, body_stability, callee_stability,
                             deep_update_advice, development_effort,
                             metrics_csv, recommend, touch_points)
from vulnvet.traces import TraceLog


def _setup(tmp_path):
    ws = copy_workspace(UPDATE / "workspace", tmp_path / "ws")
    kb = KnowledgeBase(tmp_path / "kb")
    kb.index_library("libA", [
        ("1.0", ws / "libs/libA/1.0/src"),
        ("2.0", UPDATE / "versions/2.0"),
    ])
    src = Sources(ws / "app.json", ws)
    bom = build_bom(src)
    graph = build_call_graph(corpus_program(src))
    return ws, kb, bom, graph


def _screened(kb, lib):
    """lib's index and its non-vulnerable versions, as vet mitigate reads them."""
    index = kb.load_index(lib)
    return index, non_vulnerable_versions(index, kb.records())


def test_touch_points_enumerate_sites(tmp_path):
    _, _, bom, graph = _setup(tmp_path)
    tps = touch_points(bom, graph, None, "libA")
    beta_sites = [s for tp in tps for s in tp.sites
                  if tp.lib_callee.qname == "libA.Api.beta(int)"]
    assert len(beta_sites) == 3
    assert all(tp.found_static and not tp.found_dynamic for tp in tps)
    with pytest.raises(UnknownArchive):
        touch_points(bom, graph, None, "nope")


def test_cs_de_and_identity(tmp_path):
    _, kb, bom, graph = _setup(tmp_path)
    tps = touch_points(bom, graph, None, "libA")
    index = kb.load_index("libA")
    assert callee_stability(tps, "2.0", index) == Ratio(1, 2)
    assert development_effort(tps, "2.0", index) == 3
    # against the identical version both metrics are perfect
    assert callee_stability(tps, "1.0", index) == Ratio(2, 2)
    assert development_effort(tps, "1.0", index) == 0
    with pytest.raises(NoTouchPoints):
        callee_stability([], "2.0", index)


def test_body_stability_needs_a_construct_set(tmp_path):
    _, kb, _, _ = _setup(tmp_path)
    with pytest.raises(EmptyConstructSet):
        body_stability(set(), "2.0", kb.load_index("libA"))


def test_recommend_ratios_are_unreduced(tmp_path):
    _, kb, bom, graph = _setup(tmp_path)
    traces = TraceLog()
    r_a = app_reachability(bom, graph)
    r_t = combined_reachable(graph, traces)
    rows = recommend("libA", bom, *_screened(kb, "libA"), graph, traces,
                     r_a.reached | r_t.reached)
    assert [r.candidate for r in rows] == ["2.0"]
    row = rows[0]
    assert (row.cs, row.de) == (Ratio(1, 2), 3)
    # callables in 1.0: beta, psi, default ctor; 2.0 keeps psi and the ctor
    assert row.obs == Ratio(2, 3)
    # reachable share: beta and psi; only psi survives
    assert row.rbs == Ratio(1, 2)


def test_recommend_requires_newer_safe_version(tmp_path):
    _, kb, bom, graph = _setup(tmp_path)
    kb.index_library("libA", [("1.0", UPDATE / "workspace/libs/libA/1.0/src")])
    with pytest.raises(NoCandidates):
        recommend("libA", bom, *_screened(kb, "libA"), graph, TraceLog(), set())


def test_two_branch_ranking_prefers_near_branch(tmp_path):
    near = """
package nb;
class Api {
    static int used() { return 1; }
    static int helper() { return 2; }
}
"""
    ws = tmp_path / "ws"
    (ws / "src").mkdir(parents=True)
    (ws / "src/app.jx").write_text(
        "package a; class Go { static int run() { return nb.Api.used(); } }")
    (ws / "app.json").write_text(json.dumps({
        "name": "a", "version": "1.0", "sourceRoot": "src",
        "dependencies": [{"name": "nb", "version": "2.3.0"}]}))
    cur = ws / "libs/nb/2.3.0"
    (cur / "src").mkdir(parents=True)
    (cur / "lib.json").write_text(json.dumps({
        "name": "nb", "version": "2.3.0", "sourceRoot": "src",
        "dependencies": []}))
    (cur / "src/api.jx").write_text(near)

    # 2.3.1 keeps every body; 3.0.0 rewrites them all
    v_near = tmp_path / "v231"
    v_near.mkdir()
    (v_near / "api.jx").write_text(near)
    v_far = tmp_path / "v300"
    v_far.mkdir()
    (v_far / "api.jx").write_text(
        near.replace("return 1", "return 11").replace("return 2", "return 22"))

    kb = KnowledgeBase(tmp_path / "kb")
    kb.index_library("nb", [("2.3.0", cur / "src"), ("2.3.1", v_near),
                            ("3.0.0", v_far)])
    src = Sources(ws / "app.json", ws)
    bom = build_bom(src)
    graph = build_call_graph(corpus_program(src))
    r_a = app_reachability(bom, graph)
    rows = recommend("nb", bom, *_screened(kb, "nb"), graph, TraceLog(), r_a.reached)
    assert [r.candidate for r in rows] == ["2.3.1", "3.0.0"]
    assert rows[0].rbs.value > rows[1].rbs.value


def test_transitive_dependency_gets_body_metrics_only(tmp_path):
    ws = copy_workspace(GOLDEN / "workspace", tmp_path / "ws")
    kb = build_golden_kb(tmp_path / "kb")
    kb.index_library("lib3", [
        ("1.0", ws / "libs/lib3/1.0/src"),
        ("2.0", GOLDEN / "fixes/j2/after"),
    ])
    src = Sources(ws / "app.json", ws)
    bom = build_bom(src)
    graph = build_call_graph(corpus_program(src))
    rows = recommend("lib3", bom, *_screened(kb, "lib3"), graph, TraceLog(), set())
    assert [r.candidate for r in rows] == ["2.0"]
    assert rows[0].cs is None and rows[0].de is None
    assert rows[0].obs.den > 0


def test_deep_update_advice_names_direct_dependency(tmp_path):
    ws = copy_workspace(GOLDEN / "workspace", tmp_path / "ws")
    kb = build_golden_kb(tmp_path / "kb")
    kb.index_library("lib3", [
        ("1.0", ws / "libs/lib3/1.0/src"),
        ("2.0", GOLDEN / "fixes/j2/after"),
    ])
    # a newer lib1 that pulls in the fixed lib3 transitively
    for name, version, deps in (("lib1", "2.0", [("lib2", "2.0")]),
                                ("lib2", "2.0", [("lib3", "2.0")]),
                                ("lib3", "2.0", [])):
        d = ws / "libs" / name / version
        d.mkdir(parents=True)
        (d / "lib.json").write_text(json.dumps({
            "name": name, "version": version, "sourceRoot": "src",
            "dependencies": [{"name": n, "version": v} for n, v in deps]}))
    bom = build_bom(Sources(ws / "app.json", ws))
    _, safe = _screened(kb, "lib3")
    notes = deep_update_advice(ws, bom, safe, "lib3")
    assert any("lib1" in n and "2.0" in n and "lib3:2.0" in n for n in notes)
    # direct dependencies get no deep-update note
    assert deep_update_advice(ws, bom, ["1.0", "2.0"], "lib1") == []


def test_metrics_csv_shape(tmp_path):
    _, kb, bom, graph = _setup(tmp_path)
    rows = recommend("libA", bom, *_screened(kb, "libA"), graph, TraceLog(), set())
    csv = metrics_csv(rows)
    lines = csv.strip().splitlines()
    assert lines[0] == "version,cs_num,cs_den,de,rbs_num,rbs_den,obs_num,obs_den"
    assert lines[1].startswith("2.0,1,2,3,")


def _store_lib(ws, name, version, deps, manifest=None):
    d = ws / "libs" / name / version
    d.mkdir(parents=True)
    (d / "lib.json").write_text(manifest if manifest is not None else json.dumps({
        "name": name, "version": version, "sourceRoot": "src",
        "dependencies": [{"name": n, "version": v} for n, v in deps]}))


def _deep_update_setup(tmp_path):
    ws = copy_workspace(GOLDEN / "workspace", tmp_path / "ws")
    kb = build_golden_kb(tmp_path / "kb")
    kb.index_library("lib3", [
        ("1.0", ws / "libs/lib3/1.0/src"),
        ("2.0", GOLDEN / "fixes/j2/after"),
    ])
    _store_lib(ws, "lib2", "2.0", [("lib3", "2.0")])
    _store_lib(ws, "lib3", "2.0", [])
    return ws, kb, build_bom(Sources(ws / "app.json", ws))


def test_deep_update_advice_skips_unresolvable_candidates(tmp_path):
    ws, kb, bom = _deep_update_setup(tmp_path)
    # lib1 2.0 would pull in the fixed lib3, but also a dependency the store lacks
    _store_lib(ws, "lib1", "2.0", [("lib2", "2.0"), ("ghost", "9.9")])
    _store_lib(ws, "lib1", "2.1", [("lib2", "2.0")])
    notes = deep_update_advice(ws, bom, _screened(kb, "lib3")[1], "lib3")
    assert notes == ["updating direct dependency lib1 to 2.1 pulls in "
                     "non-vulnerable lib3:2.0"]


def test_deep_update_advice_skips_store_directories_that_are_not_versions(tmp_path, capsys):
    ws, kb, bom = _deep_update_setup(tmp_path)
    _store_lib(ws, "lib1", "2.x", [("lib2", "2.0")])
    _store_lib(ws, "lib1", "2.1", [("lib2", "2.0")])
    notes = deep_update_advice(ws, bom, _screened(kb, "lib3")[1], "lib3")
    assert notes == ["updating direct dependency lib1 to 2.1 pulls in "
                     "non-vulnerable lib3:2.0"]
    assert vet(["--workspace", str(ws), "--kb", str(tmp_path / "kb"),
                "mitigate", "--lib", "lib3"]) == 0
    assert "Traceback" not in capsys.readouterr().err


def test_deep_update_advice_rejects_malformed_store_manifest(tmp_path, capsys):
    ws, kb, bom = _deep_update_setup(tmp_path)
    _store_lib(ws, "lib1", "3.0", [], manifest='{"name": "lib1", ')
    with pytest.raises(ManifestError, match="libs/lib1/3.0/lib.json"):
        deep_update_advice(ws, bom, _screened(kb, "lib3")[1], "lib3")
    assert vet(["--workspace", str(ws), "--kb", str(tmp_path / "kb"),
                "mitigate", "--lib", "lib3"]) == 3
    err = capsys.readouterr().err
    assert "libs/lib1/3.0/lib.json" in err and "Traceback" not in err

"""Acceptance gate: one test per release criterion.

Each test prints a single PASS line on success so the gate can be read off
the verbose run directly.
"""

from __future__ import annotations

import itertools
import json
import random
import shutil
import time

import pytest

from helpers import (GOLDEN, UPDATE, build_golden_kb, closure_oracle,
                     copy_workspace, enum_trees, mutate, random_ctree,
                     random_program, ted_oracle, tree_size)
from lowering import digest, serialize
from vulnvet.bom import APPLICATION, Archive, BOM, Sources, build_bom, corpus_program
from vulnvet.callgraph import (CallGraph, Edge, STATIC_DISPATCH,
                               app_reachability, build_call_graph, reachable,
                               witness_path)
from vulnvet.cli import main as vet
from vulnvet.combined import combined_reachable
from vulnvet.constructs import (CONSTRUCTOR, METHOD, Construct, ConstructId,
                                extract_constructs)
from vulnvet.detection import (FIXED, MANUAL_REVIEW, VULNERABLE, detect)
from vulnvet.diffing import (MOD, ConstructChange, consolidate_commits,
                             construct_changes, extract_root)
from vulnvet.interp import run_tests
from vulnvet.jx.parser import parse_unit
from vulnvet.kb import CODE_CHANGE, KnowledgeBase, VulnerabilityRecord
from vulnvet.metrics import (Ratio, body_stability, callee_stability,
                             development_effort, recommend, touch_points)
from vulnvet.ted import tree_edit_distance
from vulnvet.traces import TraceLog


def _mid(q):
    return ConstructId(METHOD, q)


def _cid_set(qnames):
    return {_mid(q) for q in qnames}


# 1. Golden corpus end to end ------------------------------------------------

def test_criterion_1_golden_corpus_end_to_end(tmp_path):
    started = time.monotonic()
    ws = copy_workspace(GOLDEN / "workspace", tmp_path / "ws")
    kb = build_golden_kb(tmp_path / "kb")
    src = Sources(ws / "app.json", ws)
    bom = build_bom(src)

    findings = detect(bom, kb)
    by_id = {f.vuln_id: f for f in findings}
    assert set(by_id) == {"VULN-J1", "VULN-J2"}

    f1 = by_id["VULN-J1"]
    assert (f1.archive_name, f1.verdict) == ("fw", VULNERABLE)
    assert {m.change.construct.qname for m in f1.matched if m.present} == {
        "fw.Engine", "fw.Engine.renderError()"}

    f2 = by_id["VULN-J2"]
    assert (f2.archive_name, f2.verdict) == ("lib3", VULNERABLE)
    informative = [m for m in f2.matched
                   if m.change.construct.ctype == METHOD]
    assert len(informative) == 3
    assert sum(1 for m in informative if m.present) == 2
    assert {m.change.construct.qname for m in informative if m.present} == {
        "lib3.Scan.omega()", "lib3.Scan.check(int)"}

    program = corpus_program(src)
    graph = build_call_graph(program)

    r_static = app_reachability(bom, graph)
    expected_static = _cid_set({
        "app.Main.itestFramework()", "app.Main.testUpload()",
        "app.Main.alpha()", "app.Main.lam()",
        "lib1.Upload.process()", "lib1.Upload.parse(int)",
        "lib1.Upload.normalize(int)",
    }) | {ConstructId(CONSTRUCTOR, "app.Main.Main()")}
    assert r_static.reached == expected_static
    assert not any(c.qname.startswith("fw.") for c in r_static.reached)

    log_a, fail_a = run_tests(bom, program, pattern="test")
    log_b, fail_b = run_tests(bom, program, pattern="itest")
    assert not fail_a and not fail_b
    traces = log_a.merge(log_b)
    expected_traced = _cid_set({
        "app.Main.testUpload()", "app.Main.itestFramework()",
        "app.Main.alpha()",
        "fw.Engine.dispatch(int)",
        "lib1.Upload.process()", "lib1.Upload.parse(int)",
        "lib2.Core.delta()",
    })
    assert traces.executed == expected_traced

    r_combined = combined_reachable(graph, traces)
    expected_combined = expected_traced | _cid_set({
        "fw.Engine.renderError()", "lib3.Scan.omega()"})
    assert r_combined.reached == expected_combined

    eta = _mid("fw.Engine.renderError()")
    omega = _mid("lib3.Scan.omega()")
    path_eta = witness_path(r_combined, eta)
    assert [c.qname for c, _ in path_eta] == [
        "fw.Engine.dispatch(int)", "fw.Engine.renderError()"]
    path_omega = witness_path(r_combined, omega)
    assert [c.qname for c, _ in path_omega] == [
        "lib2.Core.delta()", "lib3.Scan.omega()"]

    from vulnvet.detection import COMBINED, DYNAMIC, finding_to_json
    from vulnvet.report import attach_evidence
    from vulnvet.traces import ingest_traces, to_jsonl
    trace_file = tmp_path / "traces.jsonl"
    trace_file.write_text(to_jsonl(traces))
    reported = attach_evidence([finding_to_json(f) for f in findings],
                               ingest_traces(trace_file), r_static, r_combined)
    for f in reported:
        assert f["evidence"] in (COMBINED, DYNAMIC)

    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    print("PASS criterion 1: golden corpus end-to-end (%.2fs)" % elapsed)


# 2. CS and DE worked example ------------------------------------------------

def test_criterion_2_cs_and_de_worked_example(tmp_path):
    ws = copy_workspace(UPDATE / "workspace", tmp_path / "ws")
    kb = KnowledgeBase(tmp_path / "kb")
    kb.index_library("libA", [
        ("1.0", ws / "libs/libA/1.0/src"),
        ("2.0", UPDATE / "versions/2.0"),
    ])
    src = Sources(ws / "app.json", ws)
    bom = build_bom(src)
    graph = build_call_graph(corpus_program(src))
    tps = touch_points(bom, graph, TraceLog(), "libA")
    assert {tp.lib_callee.qname for tp in tps} == {
        "libA.Api.beta(int)", "libA.Api.psi()"}
    index = kb.load_index("libA")
    assert callee_stability(tps, "2.0", index) == Ratio(1, 2)
    assert development_effort(tps, "2.0", index) == 3
    print("PASS criterion 2: CS=1/2 and DE=3 on the worked example")


# 3. Metric identities and oracle on random version pairs --------------------

def _random_inventory(rng, prefix, n):
    inv = {}
    for i in range(n):
        cid = _mid("%s.C.m%d(int)" % (prefix, i))
        inv[cid] = "fp%d" % rng.randint(0, 6)
    return inv


def test_criterion_3_metric_identities_and_oracle():
    from vulnvet.kb import LibraryIndex
    from vulnvet.metrics import TouchPoint

    rng = random.Random(42)
    for trial in range(200):
        n = rng.randint(2, 12)
        current = _random_inventory(rng, "lib", n)
        candidate = {}
        for cid, fp in current.items():
            roll = rng.random()
            if roll < 0.6:
                candidate[cid] = fp
            elif roll < 0.8:
                candidate[cid] = fp + "x"
        for j in range(rng.randint(0, 3)):
            candidate[_mid("lib.C.extra%d(int)" % j)] = "fpn"
        index = LibraryIndex("lib", {"2.0": candidate})

        callees = rng.sample(sorted(current), rng.randint(1, n))
        tps = []
        app = _mid("app.A.run()")
        site_no = itertools.count()
        for callee in callees:
            sites = ["app.jx:%d" % next(site_no)
                     for _ in range(rng.randint(1, 3))]
            tps.append(TouchPoint(app, callee, sites))

        cs = callee_stability(tps, "2.0", index)
        de = development_effort(tps, "2.0", index)
        present = sum(1 for c in callees if c in candidate)
        assert cs == Ratio(present, len(callees))
        assert de == sum(len(tp.sites) for tp in tps
                         if tp.lib_callee not in candidate)
        assert (cs.num == cs.den) == (de == 0)

        pairs = {(cid, fp) for cid, fp in current.items()}
        obs = body_stability(pairs, "2.0", index)
        kept = sum(1 for cid, fp in pairs if candidate.get(cid) == fp)
        assert obs == Ratio(kept, len(pairs))
        # reachable share = full archive -> RBS equals OBS
        assert body_stability(set(pairs), "2.0", index) == obs

        # renaming the archive/library leaves every metric unchanged
        renamed = LibraryIndex("renamed-lib", {"2.0": dict(candidate)})
        assert callee_stability(tps, "2.0", renamed) == cs
        assert development_effort(tps, "2.0", renamed) == de
        assert body_stability(pairs, "2.0", renamed) == obs
    print("PASS criterion 3: metric identities and brute-force oracle, 200 trials")


# 4. Reachability equals a transitive-closure oracle -------------------------

def test_criterion_4_reachability_oracle():
    rng = random.Random(99)
    started = time.monotonic()
    for trial in range(500):
        n = rng.randint(1, 50)
        nodes = [_mid("g.N%d.m()" % i) for i in range(n)]
        graph = CallGraph(nodes=set(nodes))
        for _ in range(rng.randint(0, 3 * n)):
            a, b = rng.choice(nodes), rng.choice(nodes)
            graph.edges.add(Edge(a, b, "g.jx:%d" % rng.randint(1, 99),
                                 STATIC_DISPATCH))
        seeds = set(rng.sample(nodes, rng.randint(1, max(1, n // 4))))
        result = reachable(graph, seeds)
        assert result.reached == closure_oracle(graph, seeds)
        edge_set = {(e.caller, e.callee, e.site) for e in graph.edges}
        for target in result.reached:
            path = witness_path(result, target)
            assert path[0][0] in seeds and path[0][1] is None
            assert path[-1][0] == target
            for (src, _), (dst, site) in zip(path, path[1:]):
                assert (src, dst, site) in edge_set
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    print("PASS criterion 4: 500 random graphs vs closure oracle (%.2fs)" % elapsed)


# 5. Tree edit distance ------------------------------------------------------

def test_criterion_5_tree_edit_distance_oracle():
    labels = ("a", "b")
    by_size = {k: enum_trees(k, labels) for k in range(1, 6)}
    checked = 0
    for na in range(1, 6):
        for nb in range(1, 7 - na):
            for a in by_size[na]:
                for b in by_size[nb]:
                    assert tree_edit_distance(a, b) == ted_oracle(a, b)
                    checked += 1
    assert checked == 3236

    rng = random.Random(5)
    pairs = [(random_ctree(rng, 8), random_ctree(rng, 8)) for _ in range(1000)]
    for a, b in pairs:
        dab = tree_edit_distance(a, b)
        assert dab >= 0
        assert dab == tree_edit_distance(b, a)
        assert tree_edit_distance(a, a) == 0
        assert (dab == 0) == (serialize(a) == serialize(b))
        assert dab <= tree_size(a) + tree_size(b)
    for a, b in pairs[:200]:
        c = random_ctree(rng, 8)
        assert tree_edit_distance(a, c) <= (tree_edit_distance(a, b)
                                            + tree_edit_distance(b, c))
    print("PASS criterion 5: %d enumerated pairs + metric axioms" % checked)


# 6. Detection robustness under repackaging ----------------------------------

class _StubKB:
    def __init__(self, record):
        self._records = [record]

    def records(self, ids=None, names=frozenset()):  # like a KB without an index: all
        return self._records


def _make_construct(rng):
    body = random_ctree(rng, 6)
    return Construct(digest(body), serialize(body))


def _detection_fixture(rng, trial, mode):
    """One synthetic record plus an archive carrying its constructs.

    mode: 'vuln' (all vulnerable bodies), 'fixed', or 'mixed'.
    """
    changes = []
    carried = {}
    k = rng.randint(2, 4)
    for i in range(k):
        cid = _mid("v%d.K.m%d(int)" % (trial, i))
        bv = random_ctree(rng, 6)
        bf = random_ctree(rng, 6)
        while serialize(bf) == serialize(bv):
            bf = random_ctree(rng, 6)
        changes.append(ConstructChange(cid, MOD, serialize(bv), serialize(bf),
                                       digest(bv), digest(bf)))
        if mode == "vuln":
            body = bv
        elif mode == "fixed":
            body = bf
        else:
            body = bv if i == 0 else bf
        carried[cid] = Construct(digest(body), serialize(body))
    record = VulnerabilityRecord("V%d" % trial, "", CODE_CHANGE, changes=changes)
    filler = {}
    for i in range(rng.randint(1, 4)):
        cid = _mid("other%d.F.f%d()" % (trial, i))
        filler[cid] = _make_construct(rng)
    return record, carried, filler


def _finding_multiset(bom, kb):
    out = []
    for f in detect(bom, kb):
        out.append((f.vuln_id,
                    frozenset(m.change.construct for m in f.matched if m.present),
                    f.verdict))
    return sorted(out)


def _bom_with(archives):
    app = Archive("the-app", "1.0", APPLICATION)
    return BOM(app, [(a, 1) for a in archives])


def test_criterion_6_detection_repackaging_robustness():
    rng = random.Random(1234)
    for trial in range(50):
        mode = ("vuln", "fixed", "mixed")[trial % 3]
        record, carried, filler = _detection_fixture(rng, trial, mode)
        kb = _StubKB(record)

        one = Archive("orig", "1.0", "DEPENDENCY",
                      constructs={**carried, **filler})
        renamed = Archive("totally-else", "9.9", "DEPENDENCY",
                          constructs={**carried, **filler})
        part_a = Archive("part-a", "1.0", "DEPENDENCY",
                         constructs=dict(carried))
        part_b = Archive("part-b", "1.0", "DEPENDENCY",
                         constructs=dict(filler))
        extra = {_mid("bundle%d.X.x()" % trial):
                 _make_construct(rng)}
        merged = Archive("uber", "1.0", "DEPENDENCY",
                         constructs={**carried, **filler, **extra})

        base = _finding_multiset(_bom_with([one]), kb)
        assert _finding_multiset(_bom_with([renamed]), kb) == base
        assert _finding_multiset(_bom_with([part_a, part_b]), kb) == base
        assert _finding_multiset(_bom_with([merged]), kb) == base

        verdicts = {v for _, _, v in base}
        if mode == "vuln":
            assert verdicts == {VULNERABLE}
        elif mode == "fixed":
            assert verdicts == {FIXED}
        else:
            assert verdicts == {MANUAL_REVIEW}
    print("PASS criterion 6: repackaging-invariant detection, 50 fixtures")


# 7. Diff engine -------------------------------------------------------------

def _extract_model(model):
    unit = parse_unit(model.render(), "rev.jx")
    return extract_constructs([unit])


def test_criterion_7_diff_engine(tmp_path):
    rng = random.Random(2024)
    for _ in range(100):
        inv = _extract_model(random_program(rng))
        assert construct_changes(inv, inv) == []

    for trial in range(50):
        model = random_program(rng)
        revisions = [model]
        for _ in range(rng.randint(2, 5)):
            revisions.append(mutate(rng, revisions[-1]))
        roots = []
        for i, rev in enumerate(revisions):
            roots.append(rev.write(tmp_path / ("t%d" % trial) / ("r%d" % i)))
        consolidated = consolidate_commits(roots)
        endpoint = construct_changes(extract_root(roots[0]),
                                     extract_root(roots[-1]))
        as_tuples = lambda chs: [(c.construct, c.op, c.fp_vuln, c.fp_fixed)
                                 for c in chs]
        assert as_tuples(consolidated) == as_tuples(endpoint)

        changed_members = [c.construct for c in endpoint
                           if c.construct.ctype == METHOD]
        classes = {c.construct.qname for c in endpoint
                   if c.construct.ctype == "CLASS"}
        for cid in changed_members:
            owner = cid.qname.split("(", 1)[0].rsplit(".", 1)[0]
            assert owner in classes
    print("PASS criterion 7: diff engine identity, nested rule, consolidation")


# 8. Determinism of all artifacts --------------------------------------------

def _golden_cli_kb(ws):
    fx = GOLDEN / "fixes"
    assert vet(["--workspace", str(ws), "kb", "import-fix", "--id", "VULN-J1",
                "--before", str(fx / "j1/before"),
                "--after", str(fx / "j1/after")]) == 0
    assert vet(["--workspace", str(ws), "kb", "import-fix", "--id", "VULN-J2",
                "--before", str(fx / "j2/before"),
                "--after", str(fx / "j2/after")]) == 0


def _run_golden_analyses(ws):
    w = str(ws)
    assert vet(["--workspace", w, "scan"]) == 1
    assert vet(["--workspace", w, "trace", "run", "--pattern", "test"]) == 0
    assert vet(["--workspace", w, "trace", "run", "--pattern", "itest"]) == 0
    assert vet(["--workspace", w, "reach", "static"]) == 0
    assert vet(["--workspace", w, "reach", "combined"]) == 0
    assert vet(["--workspace", w, "report"]) == 2


def _run_update_analyses(ws):
    w = str(ws)
    assert vet(["--workspace", w, "scan"]) == 0
    assert vet(["--workspace", w, "reach", "static"]) == 0
    assert vet(["--workspace", w, "mitigate", "--lib", "libA"]) == 0
    assert vet(["--workspace", w, "report"]) == 0


def _snapshot(ws):
    return {p.name: p.read_bytes() for p in sorted((ws / ".vet").iterdir())}


def test_criterion_8_deterministic_artifacts(tmp_path):
    ws = copy_workspace(GOLDEN / "workspace", tmp_path / "golden")
    _golden_cli_kb(ws)
    snapshots = []
    for _ in range(3):
        _run_golden_analyses(ws)
        snapshots.append(_snapshot(ws))
    assert snapshots[0] == snapshots[1] == snapshots[2]

    wu = copy_workspace(UPDATE / "workspace", tmp_path / "update")
    assert vet(["--workspace", str(wu), "kb", "index-lib", "--name", "libA",
                "--root", "1.0=%s" % (wu / "libs/libA/1.0/src"),
                "--root", "2.0=%s" % (UPDATE / "versions/2.0")]) == 0
    snapshots = []
    for _ in range(3):
        _run_update_analyses(wu)
        snapshots.append(_snapshot(wu))
    assert snapshots[0] == snapshots[1] == snapshots[2]
    print("PASS criterion 8: byte-identical artifacts over 3 reruns, both fixtures")


# 9. Workflow composability --------------------------------------------------

def test_criterion_9_step_order_independence(tmp_path):
    reports = []
    for name, steps in (
        ("a", [["reach", "static"],
               ["trace", "run", "--pattern", "test"],
               ["trace", "run", "--pattern", "itest"],
               ["reach", "combined"]]),
        ("b", [["trace", "run", "--pattern", "test"],
               ["trace", "run", "--pattern", "itest"],
               ["reach", "static"],
               ["reach", "combined"]]),
    ):
        ws = copy_workspace(GOLDEN / "workspace", tmp_path / name)
        _golden_cli_kb(ws)
        assert vet(["--workspace", str(ws), "scan"]) == 1
        for step in steps:
            assert vet(["--workspace", str(ws), *step]) == 0
        assert vet(["--workspace", str(ws), "report"]) == 2
        reports.append((ws / ".vet/report.json").read_bytes())
    assert reports[0] == reports[1]
    data = json.loads(reports[0])
    assert {f["vulnId"]: f["evidence"] for f in data["findings"]} == {
        "VULN-J1": "COMBINED", "VULN-J2": "COMBINED"}
    print("PASS criterion 9: step orders 4,2,3,5 and 2,3,4,5 agree")


# Metamorphic relations, end to end -------------------------------------------

def _edit_manifest(path, edit):
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))


def _rebundle(ws):
    """lib1, lib2 and lib3 shaded into one archive with no dependencies."""
    shaded = ws / "libs/shaded/7.3"
    (shaded / "src").mkdir(parents=True)
    for lib in ("lib1", "lib2", "lib3"):
        for source in (ws / "libs" / lib / "1.0/src").iterdir():
            shutil.copy(source, shaded / "src")
        shutil.rmtree(ws / "libs" / lib)
    (shaded / "lib.json").write_text(json.dumps(
        {"name": "shaded", "version": "7.3", "sourceRoot": "src", "dependencies": []}))
    _edit_manifest(ws / "app.json", lambda d: d["dependencies"][1].update(
        name="shaded", version="7.3"))


def _rename(ws):
    """lib2 released as core-lib 9.9."""
    (ws / "libs/core-lib").mkdir()
    (ws / "libs/lib2/1.0").rename(ws / "libs/core-lib/9.9")
    _edit_manifest(ws / "libs/core-lib/9.9/lib.json",
                   lambda d: d.update(name="core-lib", version="9.9"))
    _edit_manifest(ws / "libs/lib1/1.0/lib.json", lambda d: d["dependencies"][0].update(
        name="core-lib", version="9.9"))


def _move(ws):
    """lib3's only source file moved and renamed within its source root."""
    src = ws / "libs/lib3/1.0/src"
    (src / "deep/er").mkdir(parents=True)
    (src / "scan.jx").rename(src / "deep/er/renamed.jx")


def _golden_pass(ws, capsys):
    """Exit codes, stderr and report.json's findings of the golden pass over
    ws, one sorted tuple per matched construct of a finding."""
    codes = []
    fx = GOLDEN / "fixes"
    for vid, fix in (("VULN-J1", "j1"), ("VULN-J2", "j2")):
        codes.append(vet(["--workspace", str(ws), "kb", "import-fix", "--id", vid,
                          "--before", str(fx / fix / "before"),
                          "--after", str(fx / fix / "after")]))
    for step in (["scan"], ["reach", "static"], ["trace", "run", "--pattern", "test"],
                 ["trace", "run", "--pattern", "itest"], ["reach", "combined"], ["report"]):
        codes.append(vet(["--workspace", str(ws), *step]))
    report = json.loads((ws / ".vet/report.json").read_text())
    matches = [(f["vulnId"], f["verdict"], f["evidence"], m["ctype"], m["qname"], m["change"],
                m["contained"], (m["classification"] or {}).get("verdict"),
                m.get("evidence", {}).get("level"))
               for f in report["findings"] for m in f["matched"]]
    return codes, capsys.readouterr().err, sorted(matches, key=repr)


@pytest.mark.parametrize("rewrite", [_rebundle, _rename, _move],
                         ids=["rebundled", "renamed", "moved"])
def test_metamorphic_relations_end_to_end(tmp_path, capsys, rewrite):
    golden = _golden_pass(copy_workspace(GOLDEN / "workspace", tmp_path / "golden"), capsys)
    ws = copy_workspace(GOLDEN / "workspace", tmp_path / "rewritten")
    rewrite(ws)
    assert _golden_pass(ws, capsys) == golden
    codes, err, matches = golden
    assert codes == [0, 0, 1, 0, 0, 0, 0, 2] and err == "" and matches
    print("PASS metamorphic relation: %s workspace reports what the golden one does"
          % rewrite.__name__.lstrip("_"))

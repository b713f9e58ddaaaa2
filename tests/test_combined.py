"""The combined static+dynamic pass, and evidence attached to its results."""

import pytest

from helpers import GOLDEN, build_golden_kb, copy_workspace, small_workload
from vulnvet.bom import Sources, build_bom, corpus_program
from vulnvet.callgraph import (DYNAMIC as DYN_EDGE, VIRTUAL_DISPATCH, app_reachability,
                               build_call_graph)
from vulnvet.combined import combined_reachable, dynamic_edges
from vulnvet.constructs import METHOD, ConstructId
from vulnvet.detection import COMBINED, DYNAMIC, NONE, detect, finding_to_json
from vulnvet.interp import run_tests
from vulnvet.report import attach_evidence
from vulnvet.traces import TraceLog, ingest_traces, to_jsonl


def _pipeline(tmp_path):
    ws = copy_workspace(GOLDEN / "workspace", tmp_path / "ws")
    kb = build_golden_kb(tmp_path / "kb")
    src = Sources(ws / "app.json", ws)
    bom = build_bom(src)
    program = corpus_program(src)
    graph = build_call_graph(program)
    log_a, _ = run_tests(bom, program, "test")
    log_b, _ = run_tests(bom, program, "itest")
    traces = log_a.merge(log_b)
    return bom, kb, graph, traces


def test_dynamic_edges_cross_reflection_gaps(tmp_path):
    _, _, graph, traces = _pipeline(tmp_path)
    edges = dynamic_edges(traces)
    pairs = {(e.caller.qname, e.callee.qname) for e in edges}
    assert ("app.Main.itestFramework()", "fw.Engine.dispatch(int)") in pairs
    assert ("lib1.Upload.process()", "lib2.Core.delta()") in pairs
    assert all(e.kind == DYN_EDGE for e in edges)


# calls of an interface method on two implementing classes, and one reflective call
VIRTUAL = """package app;
interface Shape { int area(); }
class Square implements Shape {
    int side;
    Square(int side) { this.side = side; }
    int area() { return this.side * this.side; }
}
class Rect implements Shape {
    int area() { return 2; }
}
class Shapes {
    static int twice(app.Shape s) { return s.area() + s.area(); }
    static void testSquare() { app.Shape s = new app.Square(3); app.Shapes.twice(s); }
    static void testRect() { app.Shape s = new app.Rect(); s.area(); }
    static void testReflective() { Reflect.invoke("app.Shapes.twice", new app.Rect()); }
}
"""
# field initializers of a superclass in another file, which a subclass's
# constructor runs, and an overridden method called through the superclass
INHERITED = {
    "base/Base.jx": """package base;
class Util {
    static int f(int n) { return n + 1; }
}
class Base {
    int seed = base.Util.f(1);
    base.Util util = new base.Util();
    int get() { return this.seed; }
}
""",
    "app/Sub.jx": """package app;
class Sub extends base.Base {
    int extra;
    Sub() { this.extra = 2; }
    int get() { return this.extra + this.seed; }
    static void testSub() {
        base.Base b = new app.Sub();
        b.get();
        Reflect.invoke("base.Util.f", 3);
    }
}
""",
}
TRACED = ["golden", "virtual", "inherited", "corpus", "kb-drift", "trace-heavy"]


def _traced(tmp_path, source):
    """The CHA graph of a workspace, and the merged trace of its tests."""
    if source == "golden":
        ws, patterns = copy_workspace(GOLDEN / "workspace", tmp_path / "ws"), ("test", "itest")
    elif source in ("virtual", "inherited"):
        ws, patterns = tmp_path / "ws", ("test",)
        files = {"shapes.jx": VIRTUAL} if source == "virtual" else INHERITED
        for name, text in files.items():
            (ws / "src" / name).parent.mkdir(parents=True, exist_ok=True)
            (ws / "src" / name).write_text(text)
        (ws / "app.json").write_text('{"name": "app", "version": "1.0", "sourceRoot": "src"}')
    else:
        ws, patterns = small_workload(tmp_path, source), ("test",)
    src = Sources(ws / "app.json", ws)
    bom, program = build_bom(src), corpus_program(src)
    traces = TraceLog()
    for pattern in patterns:
        traces = traces.merge(run_tests(bom, program, pattern)[0])
    return build_call_graph(program), traces


@pytest.mark.parametrize("source", TRACED)
def test_traced_edges_are_explained_by_the_cha_graph(tmp_path, source):
    # each call the interpreter observed is a CHA edge, or leaves a caller
    # whose reflective site static analysis could not resolve
    graph, traces = _traced(tmp_path, source)
    static = {(e.caller, e.callee) for e in graph.edges}
    reflective = {caller for caller, _site, why in graph.unresolved if why == "reflection"}
    observed = dynamic_edges(traces)
    assert observed
    assert [e for e in observed
            if (e.caller, e.callee) not in static and e.caller not in reflective] == []


@pytest.mark.parametrize("source", TRACED)
def test_traced_sites_are_the_sites_of_the_cha_graph(tmp_path, source):
    # a traced call and a CHA edge spell its site alike: each event with a
    # caller is an edge at its site, or sits at an unresolved reflective site
    graph, traces = _traced(tmp_path, source)
    static = {(e.caller, e.callee, e.site) for e in graph.edges}
    reflective = {(caller, site) for caller, site, why in graph.unresolved if why == "reflection"}
    called = [e for e in traces.events if e.caller is not None]
    assert called and any((e.caller, e.site) in reflective for e in called)
    assert [e for e in called if (e.caller, e.callee, e.site) not in static
            and (e.caller, e.site) not in reflective] == []
    if source == "virtual":
        virtual = {(e.caller, e.callee, e.site) for e in graph.edges
                   if e.kind == VIRTUAL_DISPATCH}
        assert any((e.caller, e.callee, e.site) in virtual for e in called)
    if source == "inherited":
        assert any(e.caller.qname == "app.Sub.Sub()" and e.site.startswith("src/base/Base.jx:")
                   for e in called)


def test_combined_pass_with_empty_traces_reaches_nothing(tmp_path):
    _, _, graph, _ = _pipeline(tmp_path)
    result = combined_reachable(graph, TraceLog())
    assert result.reached == set()


def _evidence(tmp_path, bom, kb, traces, r_a, r_t):
    """Findings as the report sees them: finding_to_json dicts, the trace log
    read back from traces.jsonl, and both closures."""
    path = tmp_path / "traces.jsonl"
    path.write_text(to_jsonl(traces))
    findings = [finding_to_json(f) for f in detect(bom, kb)]
    return {f["vulnId"]: f for f in attach_evidence(findings, ingest_traces(path), r_a, r_t)}


def _matched(finding, qname):
    return next(m for m in finding["matched"] if m["qname"] == qname)


def test_evidence_levels(tmp_path):
    bom, kb, graph, traces = _pipeline(tmp_path)
    r_a = app_reachability(bom, graph)
    r_t = combined_reachable(graph, traces)
    by_id = _evidence(tmp_path, bom, kb, traces, r_a, r_t)

    f1 = by_id["VULN-J1"]
    assert f1["evidence"] == COMBINED
    eta = _matched(f1, "fw.Engine.renderError()")["evidence"]
    assert eta["level"] == COMBINED
    assert [hop["qname"] for hop in eta["witness"]["path"]] == [
        "fw.Engine.dispatch(int)", "fw.Engine.renderError()"]

    f2 = by_id["VULN-J2"]
    assert f2["evidence"] == COMBINED
    assert _matched(f2, "lib3.Scan.omega()")["evidence"]["level"] == COMBINED
    # check(int) is contained but never reached, so it carries no evidence
    check = _matched(f2, "lib3.Scan.check(int)")
    assert check["contained"] and "evidence" not in check


def test_dynamic_beats_combined(tmp_path):
    # a construct both executed and reachable reports DYNAMIC with a trace witness
    bom, kb, graph, traces = _pipeline(tmp_path)
    r_a = app_reachability(bom, graph)
    r_t = combined_reachable(graph, traces)

    from vulnvet.kb import KnowledgeBase
    kb2 = KnowledgeBase(kb.root)
    # fake record targeting the executed construct delta()
    import vulnvet.diffing as dif
    from lowering import digest, serialize
    from vulnvet.canonical import CTree
    from vulnvet.kb import CODE_CHANGE, VulnerabilityRecord
    delta = ConstructId(METHOD, "lib2.Core.delta()")
    assert delta in r_t.reached
    arc, _ = bom.dependency("lib2")
    observed = arc.constructs[delta]
    other = CTree("other")
    change = dif.ConstructChange(delta, dif.MOD, observed.text, serialize(other),
                                 observed.fingerprint, digest(other))
    kb2.save_record(VulnerabilityRecord("VULN-D", "", CODE_CHANGE, changes=[change]))
    fd = _evidence(tmp_path, bom, kb2, traces, r_a, r_t)["VULN-D"]
    assert fd["evidence"] == DYNAMIC
    ev = _matched(fd, delta.qname)["evidence"]
    assert ev["level"] == DYNAMIC and "trace" in ev["witness"]


def test_static_evidence_without_traces(tmp_path):
    bom, kb, graph, _ = _pipeline(tmp_path)
    r_a = app_reachability(bom, graph)
    r_t = combined_reachable(graph, TraceLog())
    by_id = _evidence(tmp_path, bom, kb, TraceLog(), r_a, r_t)
    # nothing in fw or lib3 is statically reachable: no evidence at all
    assert {f["evidence"] for f in by_id.values()} == {NONE}

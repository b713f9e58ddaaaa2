"""Call graph construction and reachability."""

import json
import random

import pytest

from helpers import (GOLDEN, UPDATE, closure_oracle, copy_workspace, reference_call_graph,
                     reference_call_nodes, small_workload)
from vulnvet.bom import Sources, corpus_program
from vulnvet.callgraph import (CONSTRUCTOR_CALL, STATIC_DISPATCH,
                               VIRTUAL_DISPATCH, CallGraph, Edge,
                               build_call_graph, reach_from_json, reach_to_json,
                               reachable, witness_path)
from vulnvet.constructs import CONSTRUCTOR, METHOD, ConstructId
from vulnvet.errors import MalformedArtifact
from vulnvet.jx.parser import parse_unit
from vulnvet.jx.resolver import resolve


def _graph(src):
    program = resolve([parse_unit(src, "u.jx")])
    assert program.bind_all().diagnostics == []
    return build_call_graph(program)


def _m(q):
    return ConstructId(METHOD, q)


def _edges(graph, caller):
    return {(e.callee.qname, e.kind) for e in graph.edges if e.caller == caller}


HIERARCHY = """
package z;
interface Shape { int area(); }
class Square implements Shape {
    int side;
    Square(int side) { this.side = side; }
    int area() { return this.side * this.side; }
}
class Fancy extends Square {
    Fancy() { }
    int area() { return 0; }
}
class Plain extends Square {
    Plain() { }
}
class Use {
    static int run(Shape s) { return s.area(); }
    static int direct() { return new Square(2).area(); }
}
"""


def test_virtual_call_fans_out_to_all_overrides():
    graph = _graph(HIERARCHY)
    targets = _edges(graph, _m("z.Use.run(z.Shape)"))
    assert targets == {
        ("z.Square.area()", VIRTUAL_DISPATCH),
        ("z.Fancy.area()", VIRTUAL_DISPATCH),
    }
    # Plain inherits Square.area, no separate node for it


def test_constructor_call_edge():
    graph = _graph(HIERARCHY)
    targets = _edges(graph, _m("z.Use.direct()"))
    assert ("z.Square.Square(int)", CONSTRUCTOR_CALL) in targets


def test_static_call_edge():
    src = """
package p;
class A { static int f() { return p.B.g(); } }
class B { static int g() { return 1; } }
"""
    graph = _graph(src)
    assert _edges(graph, _m("p.A.f()")) == {("p.B.g()", STATIC_DISPATCH)}


def test_field_initializer_calls_charged_to_every_ctor():
    without_init = """
package p;
class Helper { static int pick() { return 3; } }
class A {
    int seed;
    A() { }
    A(int n) { }
}
"""
    graph = _graph(without_init)
    assert _edges(graph, ConstructId(CONSTRUCTOR, "p.A.A()")) == set()

    with_init = without_init.replace("int seed;", "int seed = p.Helper.pick();")
    graph = _graph(with_init)
    expected = {("p.Helper.pick()", STATIC_DISPATCH)}
    assert _edges(graph, ConstructId(CONSTRUCTOR, "p.A.A()")) == expected
    assert _edges(graph, ConstructId(CONSTRUCTOR, "p.A.A(int)")) == expected


def test_reflection_lands_in_unresolved():
    src = 'package p; class A { static void m() { Reflect.invoke("p.A.m"); } }'
    graph = _graph(src)
    assert _edges(graph, _m("p.A.m()")) == set()
    assert any(reason == "reflection" for _, _, reason in graph.unresolved)


def _recorded_and_walked(program):
    """(recorded, walked) CallSites of every member and class initializer:
    those the resolver listed, and those it bound the walked nodes to."""
    for info in program.symbols.values():
        inits = [f.init for f in info.decl.fields] if not info.is_interface else []
        walked = [n for e in inits if e is not None for n in reference_call_nodes(e, [])]
        yield info.init_calls, [n.call for n in walked]
        for member in list(info.methods.values()) + list(info.ctors.values()):
            body = member.decl.body
            walked = [] if body is None else reference_call_nodes(body, [])
            yield member.calls, [n.call for n in walked]


@pytest.mark.parametrize("stmt", [
    'Object o = new Missing(Reflect.invoke("p.A.n()"));',
    'p.I i = new p.I(Reflect.invoke("p.A.n()"));',
    'int y = Reflect.invoke("p.A.n()").foo(zzz);',
])
def test_reflective_sites_survive_ill_typed_input(stmt):
    src = "package p;\ninterface I { }\nclass A {\n    static void n() { }\n" \
          "    static void m() {\n        %s\n    }\n}\n" % stmt
    program = resolve([parse_unit(src, "u.jx")]).bind_all()
    assert program.diagnostics
    graph = build_call_graph(program)
    assert graph.unresolved == {(_m("p.A.m()"), "u.jx:6", "reflection")}
    assert graph == reference_call_graph(program)
    for recorded, walked in _recorded_and_walked(program):
        assert list(map(id, recorded)) == list(map(id, walked))


@pytest.mark.parametrize("source", ["golden", "update", "corpus", "kb-drift", "trace-heavy"])
def test_call_graph_equals_the_reference_walk(tmp_path, source):
    if source in ("golden", "update"):
        fixture = GOLDEN if source == "golden" else UPDATE
        ws = copy_workspace(fixture / "workspace", tmp_path / "ws")
    else:
        ws = small_workload(tmp_path, source)
    program = corpus_program(Sources(ws / "app.json", ws))
    assert not program.bind_all().diagnostics
    graph = build_call_graph(program)
    assert graph.edges
    assert graph == reference_call_graph(program)
    for recorded, walked in _recorded_and_walked(program):
        assert list(map(id, recorded)) == list(map(id, walked))


def test_reachable_skips_unknown_seeds():
    graph = CallGraph(nodes={_m("a.A.x()")})
    result = reachable(graph, {_m("a.A.x()"), _m("a.A.gone()")})
    assert result.reached == {_m("a.A.x()")}
    assert result.skipped_seeds == [_m("a.A.gone()")]


def test_parent_choice_is_lexicographically_smallest():
    n = {q: _m(q) for q in ("s.S.a()", "s.S.b()", "s.S.t()")}
    graph = CallGraph(nodes=set(n.values()), edges={
        Edge(n["s.S.a()"], n["s.S.t()"], "u.jx:9", STATIC_DISPATCH),
        Edge(n["s.S.b()"], n["s.S.t()"], "u.jx:1", STATIC_DISPATCH),
    })
    result = reachable(graph, {n["s.S.a()"], n["s.S.b()"]})
    assert result.parent[n["s.S.t()"]] == (n["s.S.a()"], "u.jx:9")


def test_random_graphs_match_oracle():
    rng = random.Random(3)
    for _ in range(60):
        nodes = [_m("g.N%d.m()" % i) for i in range(rng.randint(1, 20))]
        graph = CallGraph(nodes=set(nodes))
        for _ in range(rng.randint(0, 40)):
            graph.edges.add(Edge(rng.choice(nodes), rng.choice(nodes),
                                 "g.jx:%d" % rng.randint(1, 30), STATIC_DISPATCH))
        seeds = set(rng.sample(nodes, rng.randint(1, len(nodes))))
        assert reachable(graph, seeds).reached == closure_oracle(graph, seeds)


def _chain_graph():
    a, b, c = (ConstructId(METHOD, "p.A.%s()" % n) for n in "abc")
    graph = CallGraph(nodes={a, b, c})
    graph.edges.add(Edge(a, b, "p.jx:1", STATIC_DISPATCH))
    graph.edges.add(Edge(b, c, "p.jx:2", STATIC_DISPATCH))
    return graph, a, c


def test_reach_json_round_trip():
    graph, a, c = _chain_graph()
    result = reachable(graph, {a, ConstructId(METHOD, "q.Gone.g()")})
    back = reach_from_json(json.loads(json.dumps(reach_to_json(result))), "r.json")
    assert back == result
    assert witness_path(back, c) == witness_path(result, c)


def test_reach_from_json_rejects_broken_parent_chains():
    graph, a, _ = _chain_graph()
    data = reach_to_json(reachable(graph, {a}))
    cyclic = json.loads(json.dumps(data))
    cyclic["parents"]["p.A.b()"]["caller"] = "p.A.c()"
    orphan = json.loads(json.dumps(data))
    del orphan["parents"]["p.A.b()"]
    unknown = json.loads(json.dumps(data))
    unknown["seeds"] = ["p.A.zzz()"]
    for bad in (cyclic, orphan, unknown, {"seeds": []}, [1, 2]):
        with pytest.raises(MalformedArtifact, match="reach-x.json"):
            reach_from_json(bad, "reach-x.json")

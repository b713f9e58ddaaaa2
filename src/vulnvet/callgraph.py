"""Whole-program call graph via class-hierarchy analysis, and reachability.

Nodes are METHOD/CONSTRUCTOR constructs. Edges come from the resolver's
CallSite records, which give each call its site and kind. A static or
constructor call is one edge; a virtual call fans out to every override in
corpus subtypes of the declared receiver type. Reflect.invoke sites are
never resolved statically; they land in the unresolved set. A call that a
diagnostic left unbound adds nothing.

A constructor calls what its construction runs (ResolvedProgram.
construction): the field initializers of its class chain, root class
first, each call at its initializer's own site, then its body. So a
reflective call in an inherited initializer is unresolved under each
subclass constructor, as the interpreter traces it.
"""

from __future__ import annotations

from typing import NamedTuple

from .constructs import CONSTRUCTOR, CTYPE, METHOD, ConstructId, guess_ctype, member_id
from .errors import MalformedArtifact
from .jx.resolver import (CONSTRUCTOR_CALL, REFLECTION, STATIC_DISPATCH, VIRTUAL_DISPATCH,
                          ResolvedProgram)
from .workspace import check, leaf, one_of, shape

DYNAMIC = "DYNAMIC"  # trace-observed edges folded in for the combined pass
STATIC_KINDS = (STATIC_DISPATCH, VIRTUAL_DISPATCH, CONSTRUCTOR_CALL)


class Edge(NamedTuple):
    caller: ConstructId
    callee: ConstructId
    site: str  # "file:line"
    kind: str


class CallGraph:
    __slots__ = ("nodes", "edges", "unresolved")

    def __init__(self, nodes=None, edges=None, unresolved=None):
        self.nodes = set() if nodes is None else nodes
        self.edges = set() if edges is None else edges
        self.unresolved = set() if unresolved is None else unresolved  # (caller, site, reason)

    def __eq__(self, other):
        return (isinstance(other, CallGraph) and self.nodes == other.nodes
                and self.edges == other.edges and self.unresolved == other.unresolved)

    def successors(self):
        """caller -> its out-edges, in no particular order."""
        adj = {}
        for e in self.edges:
            adj.setdefault(e.caller, []).append(e)
        return adj


class ReachResult:
    __slots__ = ("seeds", "reached", "parent", "skipped_seeds")

    def __init__(self, seeds: set, reached: set, parent: dict, skipped_seeds=None):
        self.seeds = seeds
        self.reached = reached
        self.parent = parent  # callee -> (caller, site)
        self.skipped_seeds = [] if skipped_seeds is None else skipped_seeds

    def __eq__(self, other):
        return (isinstance(other, ReachResult) and self.seeds == other.seeds
                and self.reached == other.reached and self.parent == other.parent
                and self.skipped_seeds == other.skipped_seeds)


def build_call_graph(program: ResolvedProgram) -> CallGraph:
    """The CHA graph over the call sites of every member, all bound first."""
    program.bind_all()
    graph = CallGraph()
    for qname, info in program.symbols.items():
        for sig, m in info.methods.items():
            _emit(graph, program, member_id(METHOD, qname, sig), m.calls)
        for sig, c in info.ctors.items():
            inits = [call for t in program.construction(c) for call in t.init_calls]
            _emit(graph, program, member_id(CONSTRUCTOR, qname, sig), inits + c.calls)
    return graph


def _emit(graph: CallGraph, program: ResolvedProgram, caller, calls):
    graph.nodes.add(caller)
    for call in calls:
        if call.kind == REFLECTION:
            graph.unresolved.add((caller, call.site, "reflection"))
        elif call.kind == VIRTUAL_DISPATCH:  # an interface has no bodies to resolve to
            for sub in program.subtypes_of(call.owner):
                impl = program.resolve_impl(sub, call.sig)
                if impl is not None:
                    graph.edges.add(Edge(caller, member_id(METHOD, impl.owner, impl.sig),
                                         call.site, VIRTUAL_DISPATCH))
        elif call.kind is not None:  # a static or a constructor call
            ctype = CONSTRUCTOR if call.kind == CONSTRUCTOR_CALL else METHOD
            graph.edges.add(Edge(caller, member_id(ctype, call.owner, call.sig), call.site,
                                 call.kind))


def reachable(graph: CallGraph, seeds) -> ReachResult:
    """Fixpoint closure over the edge set from a seed set.

    Unknown seeds are reported and skipped. Parents are chosen per BFS level
    as the lexicographically smallest (caller qname, site) pair, making
    witness paths deterministic and shortest.
    """
    known = {s for s in seeds if s in graph.nodes}
    skipped = sorted(s for s in set(seeds) - known)
    adj = graph.successors()
    reached = set(known)
    parent = {}
    frontier = sorted(known)
    while frontier:
        candidates = {}  # callee -> best (caller qname, site, caller cid)
        for node in frontier:
            for e in adj.get(node, ()):
                if e.callee in reached:
                    continue
                key = (e.caller.qname, e.site)
                best = candidates.get(e.callee)
                if best is None or key < best[0]:
                    candidates[e.callee] = (key, e.caller, e.site)
        frontier = sorted(candidates)
        for callee in frontier:
            _, caller, site = candidates[callee]
            parent[callee] = (caller, site)
            reached.add(callee)
    return ReachResult(set(known), reached, parent, skipped)


def witness_path(result: ReachResult, target: ConstructId) -> list:
    """Seed-to-target path of a reached target as (construct, entry site)
    pairs; the seed's site is None."""
    path = []
    node = target
    while node not in result.seeds:
        caller, site = result.parent[node]
        path.append((node, site))
        node = caller
    path.append((node, None))
    path.reverse()
    return path


def reach_to_json(result: ReachResult) -> dict:
    return {
        "seeds": sorted(c.qname for c in result.seeds),
        "skippedSeeds": sorted(c.qname for c in result.skipped_seeds),
        "reached": [{"ctype": c.ctype, "qname": c.qname}
                    for c in sorted(result.reached)],
        "parents": {c.qname: {"caller": caller.qname, "site": site}
                    for c, (caller, site) in sorted(result.parent.items())},
    }


# what reach_to_json writes, but for the names and parent chains of reached constructs
_REACH = shape({"seeds": [str], "skippedSeeds": [str],
                "reached": [{"ctype": CTYPE, "qname": str}],
                "parents": {str: {"caller": str, "site": str}}})


def reach_from_json(data, artifact: str) -> ReachResult:
    """Inverse of reach_to_json; seeds and parents are looked up in the
    reached list, which carries the ctypes. Raises MalformedArtifact, naming
    the artifact, for anything reach_to_json does not write, which includes
    a reached construct without a parent chain back to a seed."""
    check(data, _REACH, artifact, MalformedArtifact)
    reached = {e["qname"]: ConstructId(e["ctype"], e["qname"]) for e in data["reached"]}
    known = leaf(reached.__contains__, "a reached qname")
    check(data, shape({"seeds": [known], "parents": {known: {"caller": known}}}), artifact,
          MalformedArtifact)
    seeds = {reached[q] for q in data["seeds"]}
    parent = {reached[q]: (reached[p["caller"]], p["site"]) for q, p in data["parents"].items()}
    skipped = [ConstructId(guess_ctype(q), q) for q in data["skippedSeeds"]]
    grounded = set(seeds)
    for target in reached.values():
        chain = {}
        node = target
        while node not in grounded:
            if node in chain or node not in parent:
                raise MalformedArtifact("%s: no parent chain leads from a seed to %s"
                                        % (artifact, target.qname))
            chain[node] = None
            node = parent[node][0]
        grounded.update(chain)
    return ReachResult(seeds, set(reached.values()), parent, skipped)


def app_reachability(bom, graph: CallGraph) -> ReachResult:
    """Static reachability seeded from all application METHOD/CONSTRUCTOR
    constructs."""
    seeds = {cid for cid in bom.application.constructs
             if cid.ctype in (METHOD, CONSTRUCTOR)}
    return reachable(graph, seeds)


def graph_to_json(graph: CallGraph) -> dict:
    return {
        "nodes": [{"ctype": n.ctype, "qname": n.qname} for n in sorted(graph.nodes)],
        "edges": [{"caller": e.caller.qname, "callee": e.callee.qname,
                   "calleeCtype": e.callee.ctype, "callerCtype": e.caller.ctype,
                   "site": e.site, "kind": e.kind}
                  for e in sorted(graph.edges)],
        "unresolved": [{"caller": c.qname, "site": s, "reason": r}
                       for c, s, r in sorted(graph.unresolved)],
    }


_NODE = one_of(METHOD, CONSTRUCTOR)
# what graph_to_json writes, but for the callers of unresolved sites being nodes
_GRAPH = shape({"nodes": [{"ctype": _NODE, "qname": str}],
                "edges": [{"caller": str, "callee": str, "callerCtype": _NODE,
                           "calleeCtype": _NODE, "site": str, "kind": one_of(*STATIC_KINDS)}],
                "unresolved": [{"caller": str, "site": str, "reason": str}]})


def graph_from_json(data, artifact: str) -> CallGraph:
    """Inverse of graph_to_json; the caller of an unresolved site is looked
    up among the nodes by its qualified name. Raises MalformedArtifact,
    naming the artifact, for anything graph_to_json does not write."""
    check(data, _GRAPH, artifact, MalformedArtifact)
    nodes = {ConstructId(n["ctype"], n["qname"]) for n in data["nodes"]}
    edges = {Edge(ConstructId(e["callerCtype"], e["caller"]),
                  ConstructId(e["calleeCtype"], e["callee"]), e["site"], e["kind"])
             for e in data["edges"]}
    by_qname = {n.qname: n for n in sorted(nodes)}
    node = leaf(by_qname.__contains__, "the qname of a node")
    check(data, shape({"unresolved": [{"caller": node}]}), artifact, MalformedArtifact)
    unresolved = {(by_qname[u["caller"]], u["site"], u["reason"]) for u in data["unresolved"]}
    return CallGraph(nodes, edges, unresolved)

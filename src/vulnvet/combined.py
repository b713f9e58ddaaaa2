"""Combination of static and dynamic analysis.

Traced constructs become the seeds of a second static pass; trace-observed
call edges (reflection targets, framework-to-application calls) are folded
into the graph first, so the closure can continue past the gaps static
analysis cannot cross. Evidence levels are attached in the report.
"""

from __future__ import annotations

from .callgraph import DYNAMIC, CallGraph, Edge, ReachResult, reachable
from .traces import TraceLog


def dynamic_edges(traces: TraceLog) -> list:
    out = []
    seen = set()
    for e in traces.events:
        if e.caller is None:
            continue
        key = (e.caller, e.callee)
        if key in seen:
            continue
        seen.add(key)
        out.append(Edge(e.caller, e.callee, e.site or "trace", DYNAMIC))
    return sorted(out)


def combined_reachable(graph: CallGraph, traces: TraceLog) -> ReachResult:
    """Closure over the trace-augmented graph, seeded from executed constructs."""
    observed = {e for e in dynamic_edges(traces)
                if e.caller in graph.nodes and e.callee in graph.nodes}
    return reachable(CallGraph(graph.nodes, graph.edges | observed, graph.unresolved),
                     traces.executed)

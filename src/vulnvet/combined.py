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
    """One edge per observed (caller, callee), at the site of its first event."""
    first = {}
    for e in traces.events:
        if e.caller is not None:
            first.setdefault((e.caller, e.callee), e.site)
    return [Edge(caller, callee, site or "trace", DYNAMIC)
            for (caller, callee), site in first.items()]


def combined_reachable(graph: CallGraph, traces: TraceLog) -> ReachResult:
    """Closure over the trace-augmented graph, seeded from executed constructs."""
    observed = {e for e in dynamic_edges(traces)
                if e.caller in graph.nodes and e.callee in graph.nodes}
    return reachable(CallGraph(graph.nodes, graph.edges | observed, graph.unresolved),
                     traces.executed)

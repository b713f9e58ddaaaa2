"""Report assembly over the persisted workspace artifacts.

The report is built from the artifact files alone, so it reflects exactly
what the analysis steps ran so far produced. Evidence levels are attached
here, from the trace summary and the persisted reachability closures, which
lets scan, trace and reachability steps run in any order and still converge
on the same report.
"""

from __future__ import annotations

import json
from collections import Counter

from . import __version__
from .bom import bom_from_json
from .callgraph import ReachResult, reach_from_json, witness_path
from .constructs import ConstructId
from .detection import COMBINED, DYNAMIC, EVIDENCE_ORDER, NONE, STATIC
from .errors import MalformedArtifact
from .kb import KnowledgeBase
from .traces import TraceLog, load_summary
from .workspace import Workspace, load_json, regular_files, shape


def attach_evidence(findings, log: TraceLog, r_static: ReachResult,
                    r_combined: ReachResult):
    """Attach the strongest evidence per contained construct and per finding.

    findings are finding_to_json dicts. DYNAMIC: executed, with the first
    event of the log as witness; STATIC: reachable from the application;
    COMBINED: reachable only from the traced constructs, both with a
    seed-to-construct witness path; NONE otherwise. Mutates and returns the
    findings.
    """
    first_event = {}
    for ev in log.events:
        first_event.setdefault(ev.callee.qname, ev)
    for f in findings:
        strongest = NONE
        for m in f.get("matched", ()):
            m.pop("evidence", None)
            if not m.get("contained"):
                continue
            cid = ConstructId(m["ctype"], m["qname"])
            ev = first_event.get(cid.qname)
            if ev is not None:
                level = DYNAMIC
                witness = {"trace": {"test": ev.test, "ts": ev.ts,
                                     "caller": ev.caller.qname if ev.caller else None,
                                     "site": ev.site}}
            elif cid in r_static.reached:
                level, witness = STATIC, _path_witness(r_static, cid)
            elif cid in r_combined.reached:
                level, witness = COMBINED, _path_witness(r_combined, cid)
            else:
                continue
            m["evidence"] = {"level": level, "witness": witness}
            strongest = max(strongest, level, key=EVIDENCE_ORDER.index)
        f["evidence"] = strongest
    return findings


def _path_witness(result: ReachResult, cid: ConstructId) -> dict:
    return {"path": [{"qname": c.qname, "site": site}
                     for c, site in witness_path(result, cid)]}


def _read_reach(ws: Workspace, name: str) -> tuple:
    """(artifact present, ReachResult); an absent artifact reaches nothing."""
    data = ws.read_json(name)
    if data is None:
        return False, ReachResult(set(), set(), {})
    return True, reach_from_json(data, name)


def _reached_counts(result: ReachResult) -> dict:
    return dict(Counter(c.ctype for c in result.reached))


# the fields the report reads, as finding_to_json and vet mitigate write them
_FINDINGS = shape([{"vulnId": str, "verdict": str, "archive": {"name": str, "version": str},
                    "matched": [{"ctype": str, "qname": str, "change": str, "contained": bool,
                                 "classification?": (None, {"verdict": str})}]}])
_RATIO = {"num": int, "den": int}
_MITIGATION = shape({"candidates": [{"candidate": str, "cs?": (None, _RATIO),
                                     "de?": (None, int), "rbs": _RATIO, "obs": _RATIO}],
                     "notes": [str]})


def assemble_report(ws: Workspace) -> dict:
    bom_data = ws.read_json("bom.json")
    bom = bom_from_json(bom_data, "bom.json") if bom_data is not None else None
    findings = ws.read_json("findings.json", [], _FINDINGS)
    static_present, r_static = _read_reach(ws, "reach-static.json")
    combined_present, r_combined = _read_reach(ws, "reach-combined.json")
    # the summary holds the first event of every callee, as the full log would
    traces = load_summary(ws)
    findings = attach_evidence(findings, traces, r_static, r_combined)

    archives = []
    for arc, depth in bom.archives() if bom is not None else ():
        archives.append({"name": arc.name, "version": arc.version,
                         "kind": arc.kind, "depth": depth,
                         "constructCounts": dict(Counter(c.ctype for c in arc.constructs))})

    mitigation = {rel[len("mitigation-"):-5]: load_json(path, MalformedArtifact, _MITIGATION)
                  for rel, path in regular_files(ws.artifact_dir, ".json")
                  if rel.startswith("mitigation-")}

    kb = KnowledgeBase(ws.kb_path)
    kb_digest = kb.digest() if ws.kb_path.is_dir() else None

    return {
        "tool": {"name": "vulnvet", "version": __version__},
        "kbDigest": kb_digest,
        "bom": {"archives": archives,
                "resolutionWarnings": bom.warnings if bom is not None else []},
        "findings": findings,
        "reachability": {
            "static": {"present": static_present,
                       "reachedByCtype": _reached_counts(r_static)},
            "combined": {"present": combined_present,
                         "reachedByCtype": _reached_counts(r_combined)},
            "tracedConstructs": len({e.callee.qname for e in traces.events}),
        },
        "mitigation": mitigation,
    }


def exit_code_for(findings) -> int:
    """0: nothing found; 1: findings without execution or reachability
    evidence; 2: at least one finding with evidence."""
    if not findings:
        return 0
    if any(f.get("evidence", NONE) != NONE for f in findings):
        return 2
    return 1


def _table(headers, rows) -> str:
    import html
    head = "".join("<th>%s</th>" % html.escape(str(h)) for h in headers)
    body = []
    for row in rows:
        cells = "".join("<td>%s</td>" % html.escape("" if c is None else str(c))
                        for c in row)
        body.append("<tr>%s</tr>" % cells)
    return "<table><thead><tr>%s</tr></thead><tbody>%s</tbody></table>" % (
        head, "".join(body))


def render_html(report: dict) -> str:
    import html  # here, not at the top: only an HTML report loads html.entities
    parts = []
    parts.append("<h1>Dependency vulnerability report</h1>")
    parts.append("<p>vulnvet %s" % html.escape(report["tool"]["version"]))
    if report.get("kbDigest"):
        parts.append(" &middot; knowledge base %s" % html.escape(report["kbDigest"][:12]))
    parts.append("</p>")

    parts.append("<h2>Archives</h2>")
    parts.append(_table(
        ["name", "version", "kind", "depth", "constructs"],
        [(a["name"], a["version"], a["kind"], a["depth"],
          sum(a["constructCounts"].values()))
         for a in report["bom"]["archives"]]))
    for w in report["bom"]["resolutionWarnings"]:
        parts.append("<p class='warn'>%s</p>" % html.escape(w))

    parts.append("<h2>Findings</h2>")
    if report["findings"]:
        parts.append(_table(
            ["vulnerability", "archive", "version", "verdict", "evidence"],
            [(f["vulnId"], f["archive"]["name"], f["archive"]["version"],
              f["verdict"], f.get("evidence", NONE))
             for f in report["findings"]]))
        for f in report["findings"]:
            matched = f.get("matched")
            if not matched:
                continue
            parts.append("<h3>%s in %s:%s</h3>" % (
                html.escape(f["vulnId"]), html.escape(f["archive"]["name"]),
                html.escape(f["archive"]["version"])))
            rows = []
            for m in matched:
                cls = m.get("classification")
                ev = m.get("evidence")
                rows.append((m["ctype"], m["qname"], m["change"],
                             "yes" if m["contained"] else "no",
                             cls["verdict"] if cls else "",
                             ev["level"] if ev else ""))
            parts.append(_table(
                ["ctype", "construct", "change", "contained", "classification",
                 "evidence"], rows))
    else:
        parts.append("<p>No findings.</p>")

    parts.append("<h2>Reachability</h2>")
    reach = report["reachability"]
    parts.append(_table(
        ["analysis", "ran", "reached constructs"],
        [("static", reach["static"]["present"],
          sum(reach["static"]["reachedByCtype"].values())),
         ("combined", reach["combined"]["present"],
          sum(reach["combined"]["reachedByCtype"].values())),
         ("traced", bool(reach["tracedConstructs"]), reach["tracedConstructs"])]))

    if report["mitigation"]:
        parts.append("<h2>Update metrics</h2>")
        for lib in sorted(report["mitigation"]):
            data = report["mitigation"][lib]
            parts.append("<h3>%s</h3>" % html.escape(lib))
            rows = []
            for r in data.get("candidates", ()):
                cs = r.get("cs")
                rbs, obs = r["rbs"], r["obs"]
                rows.append((r["candidate"],
                             "%d/%d" % (cs["num"], cs["den"]) if cs else "n/a",
                             r["de"] if r.get("de") is not None else "n/a",
                             "%d/%d" % (rbs["num"], rbs["den"]),
                             "%d/%d" % (obs["num"], obs["den"])))
            parts.append(_table(["candidate", "CS", "DE", "RBS", "OBS"], rows))
            for note in data.get("notes", ()):
                parts.append("<p>%s</p>" % html.escape(note))

    parts.append("<h2>Raw data</h2><pre>%s</pre>" % html.escape(
        json.dumps(report, indent=2, sort_keys=True)))
    return ("<!DOCTYPE html><html><head><meta charset='utf-8'>"
            "<title>Dependency vulnerability report</title>"
            "<style>body{font-family:sans-serif;margin:2em}"
            "table{border-collapse:collapse;margin:0.5em 0}"
            "td,th{border:1px solid #999;padding:0.2em 0.6em;text-align:left}"
            ".warn{color:#a60}</style></head><body>%s</body></html>"
            % "".join(parts))

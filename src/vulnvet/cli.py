"""Command line entry point (``vet``).

Exit codes: 0 nothing found, 1 findings without execution or reachability
evidence, 2 findings with evidence, 3 analysis error, 64 usage error.
"""

from __future__ import annotations

import argparse
import gc
import sys
from pathlib import Path

from . import __version__
from .bom import (Sources, bom_from_json, bom_to_json, build_bom, check_roots, corpus_program,
                  input_digest)
from .callgraph import (app_reachability, build_call_graph, graph_from_json,
                        graph_to_json, reach_to_json)
from .combined import combined_reachable
from .constructs import CTYPES, ConstructId, member_fingerprint
from .detection import detect, finding_to_json, non_vulnerable_versions
from .errors import ManifestError, VetError
from .interp import run_tests
from .jx.errors import JxError
from .kb import KnowledgeBase
from .metrics import deep_update_advice, metrics_csv, metrics_to_json, recommend
from .report import assemble_report, exit_code_for, render_html
from .traces import (SUMMARY, TraceLog, ingest_traces, load_summary, unknown_names,
                     write_traces)
from .workspace import Workspace, load_json, shape

EXIT_ERROR = 3
EXIT_USAGE = 64
_FAILURES = shape({str: str})  # test name -> error


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print("%s: error: %s" % (self.prog, message), file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _exclusion(item: str) -> ConstructId:
    ctype, sep, qname = item.partition(":")
    if not sep or ctype not in CTYPES or not qname:
        raise argparse.ArgumentTypeError("expected CTYPE:QNAME, found %r" % item)
    return ConstructId(ctype, qname)


def _affected(item: str) -> tuple:
    parts = item.split(":")
    if len(parts) != 3 or not parts[0]:
        raise argparse.ArgumentTypeError("expected LIB:LOW:HIGH, found %r" % item)
    return tuple(parts)


def _version_root(item: str) -> tuple:
    version, sep, path = item.partition("=")
    if not sep or not path:  # Path("") would be the current directory
        raise argparse.ArgumentTypeError("expected VERSION=PATH, found %r" % item)
    return version, Path(path)


def _path(item: str) -> Path:
    if not item:  # Path("") would be the current directory
        raise argparse.ArgumentTypeError("expected a PATH, found ''")
    return Path(item)


def _name(item: str) -> str:
    if not item:
        raise argparse.ArgumentTypeError("expected a NAME, found ''")
    return item


def _build_parser() -> _Parser:
    p = _Parser(prog="vet", description="usage-based vulnerability analysis "
                "for application dependencies")
    p.add_argument("--workspace", type=_path, help="workspace root (default: "
                   "$VET_WORKSPACE or the current directory)")
    p.add_argument("--kb", type=_path, help="knowledge base directory (default: "
                   "<workspace>/kb)")
    p.add_argument("--version", action="version", version="vet " + __version__)
    sub = p.add_subparsers(dest="command", required=True)

    kb = sub.add_parser("kb", help="manage the vulnerability knowledge base")
    kbsub = kb.add_subparsers(dest="kb_command", required=True)

    imp = kbsub.add_parser("import-fix", help="derive a change set from a "
                           "pre-fix and post-fix source tree")
    imp.add_argument("--id", required=True, dest="vuln_id", type=_name)
    imp.add_argument("--before", required=True, type=_path)
    imp.add_argument("--after", required=True, type=_path)
    imp.add_argument("--exclude", action="append", default=[], type=_exclusion,
                     metavar="CTYPE:QNAME",
                     help="drop this construct from the change set")
    imp.add_argument("--description", default="")
    imp.add_argument("--meta", default="", help="free-form provenance note")
    imp.add_argument("--overwrite", action="store_true")

    rng = kbsub.add_parser("add-range", help="record a vulnerability without "
                           "a code change, by affected version range")
    rng.add_argument("--id", required=True, dest="vuln_id", type=_name)
    rng.add_argument("--affected", action="append", required=True, type=_affected,
                     metavar="LIB:LOW:HIGH")
    rng.add_argument("--description", default="")
    rng.add_argument("--meta", default="")
    rng.add_argument("--overwrite", action="store_true")

    idx = kbsub.add_parser("index-lib", help="inventory library versions for "
                           "update metrics and version screening")
    idx.add_argument("--name", required=True, type=_name)
    idx.add_argument("--root", action="append", required=True, type=_version_root,
                     metavar="VERSION=PATH")

    kbsub.add_parser("list", help="list stored records and library indexes")

    sub.add_parser("scan", help="build the bill of materials and match it "
                   "against the knowledge base")

    tr = sub.add_parser("trace", help="dynamic analysis")
    trsub = tr.add_subparsers(dest="trace_command", required=True)
    trun = trsub.add_parser("run", help="run matching tests under the tracing "
                            "interpreter and merge the trace log")
    trun.add_argument("--pattern", default="test",
                      help="test name prefix (default: test)")

    rc = sub.add_parser("reach", help="reachability analysis")
    rcsub = rc.add_subparsers(dest="reach_command", required=True)
    rcsub.add_parser("static", help="call graph closure from application code")
    rcsub.add_parser("combined", help="closure from traced constructs over "
                     "the trace-augmented call graph")

    mit = sub.add_parser("mitigate", help="rank update candidates for a "
                         "dependency")
    mit.add_argument("--lib", required=True, type=_name)

    rep = sub.add_parser("report", help="assemble the report from the "
                         "workspace artifacts")
    rep.add_argument("--format", choices=("json", "html"), default="json")
    return p


# built once per process: parse_args leaves no state in it, and no command
# mutates a default it hands out (args.exclude is the shared [] when omitted)
_PARSER = _build_parser()


def _diagnose(diagnostics, warnings=()):
    for d in diagnostics:
        print("resolve: %s" % d, file=sys.stderr)
    for w in warnings:
        print("resolve: warning: %s" % w, file=sys.stderr)


def _body_pass(src: Sources, bom=None):
    """The BOM and the call graph of src from one pass over the bodies: the
    program of corpus_program(src) parses, binds and drops each body (see
    ResolvedProgram.bind_all), and unless ``bom`` is given, hands its
    fingerprint to build_bom, whose inventories parse only the bodies the
    program did not bind. The program's diagnostics are printed last."""
    fingerprints = {}

    def lowered(m):
        if bom is None:
            fingerprints[m.decl] = member_fingerprint(m.decl)
    program = corpus_program(src)
    graph = build_call_graph(program, lowered)
    notes = program.diagnostics, program.warnings
    del program  # before the inventories run
    if bom is None:
        bom = build_bom(src, fingerprints)
    _diagnose(*notes)
    return bom, graph


def _bom_and_graph(ws: Workspace):
    """The BOM and the call graph of the workspace's current inputs, each
    read from its artifact while that is stamped with their digest (see
    bom.input_digest), else built from source; a stale graph is built in the
    BOM's pass (see _body_pass) and stored, stamped, for the next command."""
    src = Sources(ws.manifest, ws.root)
    inputs = input_digest(src)
    data = ws.read_stamped("bom.json", inputs)
    bom = None if data is None else bom_from_json(data, "bom.json")
    data = ws.read_stamped("graph.json", inputs)
    if data is not None:
        return (build_bom(src) if bom is None else bom), graph_from_json(data, "graph.json")
    bom, graph = _body_pass(src, bom)
    ws.write_json("graph.json", {**graph_to_json(graph), "inputs": inputs})
    return bom, graph


def _warned(log: TraceLog, bom) -> TraceLog:
    """The log, after one warning on stderr for each name of it the BOM lacks."""
    ids = {cid for arc, _depth in bom.archives() for cid in arc.constructs}
    for qname in unknown_names(log, ids):
        print("trace: unknown construct %s" % qname, file=sys.stderr)
    return log


def _cmd_kb(args, ws: Workspace) -> int:
    kb = KnowledgeBase(ws.kb_path)
    if args.kb_command == "import-fix":
        record = kb.import_fix(args.vuln_id, args.before, args.after,
                               exclusions=args.exclude, meta=args.meta,
                               description=args.description, overwrite=args.overwrite,
                               warn=lambda w: print("kb: warning: %s" % w, file=sys.stderr))
        print("imported %s: %d construct changes" % (record.vuln_id,
                                                     len(record.changes)))
    elif args.kb_command == "add-range":
        record = kb.add_whole_library(args.vuln_id, args.affected, meta=args.meta,
                                     description=args.description,
                                     overwrite=args.overwrite)
        print("recorded %s: %d affected ranges" % (record.vuln_id,
                                                   len(record.affected)))
    elif args.kb_command == "index-lib":
        index = kb.index_library(args.name, args.root)
        print("indexed %s: %d versions" % (index.name, len(index.versions)))
    elif args.kb_command == "list":
        for record in kb.records():
            detail = ("%d changes" % len(record.changes)
                      if record.changes else "%d ranges" % len(record.affected))
            print("vuln %s (%s, %s)" % (record.vuln_id, record.kind, detail))
        for name in kb.library_names():
            index = kb.load_index(name)
            print("lib %s (%d versions)" % (name, len(index.versions)))
    return 0


def _cmd_scan(args, ws: Workspace) -> int:
    src = Sources(ws.manifest, ws.root)
    inputs = input_digest(src)
    bom, graph = _body_pass(src)
    del src  # the BOM keeps the declarations; a body is parsed again when read
    for w in bom.warnings:
        print("bom: %s" % w, file=sys.stderr)
    findings = [finding_to_json(f) for f in detect(bom, KnowledgeBase(ws.kb_path, ws))]
    stored = {**bom_to_json(bom), "inputs": inputs}
    n_archives = 1 + len(bom.dependencies)
    del bom  # and with it the declarations: the artifacts are written without them
    ws.write_json("bom.json", stored)
    del stored  # before the graph is written
    ws.write_json("findings.json", findings)
    ws.write_json("graph.json", {**graph_to_json(graph), "inputs": inputs})
    print("scanned %d archives, %d findings" % (n_archives, len(findings)))
    for f in findings:
        print("  %s %s:%s %s" % (f["vulnId"], f["archive"]["name"],
                                 f["archive"]["version"], f["verdict"]))
    return exit_code_for(findings)


def _cmd_trace(args, ws: Workspace) -> int:
    for name in ("traces.jsonl", SUMMARY, "test-failures.json"):
        ws.output(name)  # refused before the first write, which would replace the log
    src = Sources(ws.manifest, ws.root)
    data = ws.read_stamped("bom.json", input_digest(src))
    bom = build_bom(src) if data is None else bom_from_json(data, "bom.json")
    # every body of these very bytes was parsed once, by build_bom or by the
    # scan that stamped bom.json, so no parse error hides in a body left
    # unparsed until a test enters it
    program = corpus_program(src)
    _diagnose(program.diagnostics, program.warnings)  # of the declarations
    declared = len(program.diagnostics)
    new_log, failed = run_tests(bom, program, pattern=args.pattern)
    _diagnose(program.diagnostics[declared:])  # of the bodies the tests entered
    path = ws.artifact("traces.jsonl")
    old_log = _warned(ingest_traces(path), bom) if path.is_file() else TraceLog()
    merged = old_log.merge(new_log)
    # merged like the trace log: each test that ran recorded an entry event
    ran = {e.test for e in new_log.events}
    old_failures = ws.read_json("test-failures.json", {}, _FAILURES)
    failures = {**{test: err for test, err in old_failures.items() if test not in ran}, **failed}
    write_traces(ws, merged)
    ws.write_json("test-failures.json", failures)
    print("traced %d tests, %d events (%d total after merge)"
          % (len(ran), len(new_log.events), len(merged.events)))
    for test in sorted(failed):
        print("  FAILED %s: %s" % (test, failed[test]), file=sys.stderr)
    return 0


def _cmd_reach(args, ws: Workspace) -> int:
    bom, graph = _bom_and_graph(ws)
    if args.reach_command == "static":
        result = app_reachability(bom, graph)
    else:
        result = combined_reachable(graph, _warned(load_summary(ws), bom))
    ws.write_json("reach-%s.json" % args.reach_command, reach_to_json(result))
    print("%s reachability: %d seeds, %d reached"
          % (args.reach_command, len(result.seeds), len(result.reached)))
    return 0


def _cmd_mitigate(args, ws: Workspace) -> int:
    bom, graph = _bom_and_graph(ws)
    traces = _warned(load_summary(ws), bom)
    r_static = app_reachability(bom, graph)
    r_combined = combined_reachable(graph, traces)
    reached_union = r_static.reached | r_combined.reached | traces.executed
    bom.dependency(args.lib)  # a library outside the BOM needs no index
    kb = KnowledgeBase(ws.kb_path, ws)
    index = kb.load_index(args.lib)
    # only a record that names a construct of some version, or the library, can match
    safe = non_vulnerable_versions(index, kb.records(set().union(*index.versions.values()),
                                                     {args.lib}))
    rows = recommend(args.lib, bom, index, safe, graph, traces, reached_union)
    notes = deep_update_advice(ws.root, bom, safe, args.lib)
    ws.write_json("mitigation-%s.json" % args.lib,
                  {"library": args.lib, "candidates": metrics_to_json(rows),
                   "notes": notes})
    ws.write_text("mitigation-%s.csv" % args.lib, metrics_csv(rows))
    print("ranked %d update candidates for %s" % (len(rows), args.lib))
    best = rows[0]
    print("  best: %s (cs=%s de=%s rbs=%s obs=%s)"
          % (best.candidate, best.cs or "n/a",
             best.de if best.de is not None else "n/a", best.rbs, best.obs))
    for note in notes:
        print("  note: %s" % note)
    return 0


def _cmd_report(args, ws: Workspace) -> int:
    # a directory without app.json is no workspace: refused as scan refuses
    # it, before anything is written there
    load_json(ws.manifest, ManifestError)
    report = assemble_report(ws)
    if args.format == "html":
        path = ws.write_text("report.html", render_html(report))
    else:
        path = ws.write_json("report.json", report)
    print("wrote %s" % path)
    return exit_code_for(report["findings"])


_COMMANDS = {"kb": _cmd_kb, "scan": _cmd_scan, "trace": _cmd_trace, "reach": _cmd_reach,
             "mitigate": _cmd_mitigate, "report": _cmd_report}


def _source_roots(args, ws: Workspace) -> list:
    """(root, origin base) of each source root the command parses, in order."""
    if args.command == "kb":
        if args.kb_command == "import-fix":
            return [(args.before, None), (args.after, None)]
        return [(root, None) for _version, root in args.root]  # index-lib
    src = Sources(ws.manifest, ws.root)
    return [(root, src.workspace) for _, _, root, _ in src.archives]


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    ws = Workspace.discover(args.workspace, args.kb)
    collecting = gc.isenabled()
    gc.disable()  # a process runs one command: cycle collection would be wasted work
    try:
        try:
            return _COMMANDS[args.command](args, ws)
        except JxError:
            # a parse of declarations, then of each body, need not meet first
            # the error a whole parse meets first: report that one instead
            check_roots(_source_roots(args, ws))
            raise
    except (VetError, JxError, OSError) as exc:
        print("vet: error: %s" % exc, file=sys.stderr)
        return EXIT_ERROR
    finally:
        if collecting:  # main is also called in-process
            gc.enable()


def run() -> int:
    """The process entry (``vet``, ``python -m vulnvet.cli``): ``main``, then the
    heap frozen, so CPython's shutdown collection has nothing to trace."""
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    raise SystemExit(run())

"""Layer tracing from outside the program.

``Tracer.install()`` wraps the public functions of each vulnvet layer in every
vulnvet namespace that holds them, so re-imported names (``bom.parse_unit``,
``diffing.tree_edit_distance``, ``interp.normalize``, ``cli.build_bom``, ...)
are timed wherever their callers look them up. A wrapper with a layer name
records a span (layer, parent span, start, end, pass id); a wrapper without
one only counts. Counts come from the wrapped function's arguments and
result. Spans stay in memory until ``write``. ``uninstall`` puts every
original back.

Spans are timed in CPU time of the vet thread, so time the process waits
for the core does not count. A layer's self time is its spans' durations
minus the time their child spans cover. Wrappers are installed in the process
that runs vet, so the traced pass pays the same interpreter start-up as the
untraced one.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter, defaultdict
from time import thread_time

_MARK = "__vetbench_original__"


def _tokenize(c, args, kwargs, result):
    c["jx.bytes"] += len(args[0])
    c["jx.tokens"] += len(result)


def _parse(c, args, kwargs, result):
    c["jx.parse_calls"] += 1


def _extract(c, args, kwargs, result):
    c["constructs.count"] += len(result)


def _bom(c, args, kwargs, result):
    c["bom.build_calls"] += 1


def _records(c, args, kwargs, result):
    c["kb.load_calls"] += 1
    c["kb.records_loaded"] += len(result)


def _detect(c, args, kwargs, result):
    c["kb.records_matched"] += len({f.vuln_id for f in result})


def _classify(c, args, kwargs, result):
    c["detection.classify_calls"] += 1


def _ted(c, args, kwargs, result):
    c["ted.calls"] += 1
    c["ted.node_pairs"] += args[0].size() * args[1].size()


def _run_entry(c, args, kwargs, result):
    c["interp.tests"] += 1
    c["interp.steps"] += args[0].steps
    c["interp.events"] += len(result.log.events)


def _merge(c, args, kwargs, result):
    c["traces.merge_calls"] += 1


def _normalize(c, args, kwargs, result):
    c["traces.normalized_events"] += len(result.events)


def _graph(c, args, kwargs, result):
    c["callgraph.nodes"] += len(result.nodes)
    c["callgraph.edges"] += len(result.edges)
    c["callgraph.unresolved"] += len(result.unresolved)


def _reach(c, args, kwargs, result):
    c["callgraph.reached"] += len(result.reached)


def _dynamic_edges(c, args, kwargs, result):
    c["combined.dynamic_edges"] += len(result)


def _write(c, args, kwargs, result):
    text = args[2] if len(args) > 2 else kwargs["text"]
    c["workspace.bytes_written"] += len(text.encode("utf-8"))


# (defining module, name or Class.method, span layer or None, counter or None)
TARGETS = (
    ("vulnvet.cli", "main", "cli.self", None),
    ("vulnvet.jx.lexer", "tokenize", "jx.tokenize", _tokenize),
    ("vulnvet.jx.parser", "parse_unit", "jx.parse", _parse),
    ("vulnvet.jx.resolver", "resolve", "jx.resolve", None),
    ("vulnvet.constructs", "extract_constructs", "constructs.extract", _extract),
    ("vulnvet.bom", "build_bom", "bom.build", _bom),
    ("vulnvet.kb", "KnowledgeBase.records", "kb.load", _records),
    ("vulnvet.kb", "KnowledgeBase.import_fix", "kb.import", None),
    ("vulnvet.detection", "detect", "detection.detect", _detect),
    ("vulnvet.diffing", "classify", None, _classify),
    ("vulnvet.ted", "tree_edit_distance", "ted", _ted),
    ("vulnvet.interp", "run_tests", "interp.run", None),
    ("vulnvet.interp", "Interpreter.run_entry", None, _run_entry),
    ("vulnvet.traces", "TraceLog.merge", "traces.merge", _merge),
    ("vulnvet.traces", "normalize", None, _normalize),
    ("vulnvet.traces", "ingest_traces", "traces.ingest", None),
    ("vulnvet.traces", "to_jsonl", "traces.to_jsonl", None),
    ("vulnvet.callgraph", "build_call_graph", "callgraph.build", _graph),
    ("vulnvet.callgraph", "reachable", "callgraph.reach", _reach),
    ("vulnvet.combined", "combined_reachable", "combined.reach", None),
    ("vulnvet.combined", "dynamic_edges", None, _dynamic_edges),
    ("vulnvet.metrics", "recommend", "metrics.recommend", None),
    ("vulnvet.metrics", "deep_update_advice", "metrics.deep_update", None),
    ("vulnvet.report", "assemble_report", "report.assemble", None),
    ("vulnvet.report", "render_html", "report.html", None),
    ("vulnvet.workspace", "Workspace.write_text", "workspace.write", _write),
)

LAYERS = tuple(layer for _m, _n, layer, _c in TARGETS if layer)


def _vulnvet_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "vulnvet" or name.startswith("vulnvet."))]


class Tracer:
    def __init__(self, pass_id: int = 0):
        self.pass_id = pass_id
        self.spans = []  # [layer, parent index, start, end]
        self.counts = Counter()
        self._stack = []
        self._patched = []  # (owner, attribute, original)

    def _wrap(self, original, layer, counter):
        spans, stack, counts = self.spans, self._stack, self.counts

        if layer is None:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                result = original(*args, **kwargs)
                counter(counts, args, kwargs, result)
                return result
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                span = [layer, stack[-1] if stack else None, 0.0, 0.0]
                stack.append(len(spans))
                spans.append(span)
                span[2] = thread_time()
                try:
                    result = original(*args, **kwargs)
                finally:
                    span[3] = thread_time()
                    stack.pop()
                if counter is not None:
                    counter(counts, args, kwargs, result)
                return result
        setattr(wrapper, _MARK, original)
        return wrapper

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        importlib.import_module("vulnvet.cli")  # loads every layer module
        modules = _vulnvet_modules()
        try:
            for module_name, name, layer, counter in TARGETS:
                module = sys.modules[module_name]
                if "." in name:
                    cls_name, attr = name.split(".")
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[attr]
                    self._patch(owner, attr, original, self._wrap(original, layer, counter))
                    continue
                original = getattr(module, name)
                wrapper = self._wrap(original, layer, counter)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, original, wrapper)
        except BaseException:
            self.uninstall()
            raise
        return self

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def write(self, path, command):
        data = {"pass": self.pass_id, "command": command, "counts": dict(self.counts),
                "spans": [{"layer": s[0], "parent": s[1], "start": s[2], "end": s[3]}
                          for s in self.spans]}
        with open(path, "w", encoding="utf-8") as f:
            json.dump(data, f)


def wrapped_sites() -> list:
    """Every vulnvet module or class attribute that is still a tracer wrapper."""
    out = []
    for mod in _vulnvet_modules():
        for attr, value in vars(mod).items():
            if hasattr(value, _MARK):
                out.append("%s.%s" % (mod.__name__, attr))
            if isinstance(value, type) and value.__module__ == mod.__name__:
                out += ["%s.%s.%s" % (mod.__name__, attr, a)
                        for a, v in vars(value).items() if hasattr(v, _MARK)]
    return out


def self_times(spans) -> dict:
    """Layer -> summed span duration minus the time child spans cover."""
    covered = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    out = defaultdict(float)
    for i, s in enumerate(spans):
        out[s["layer"]] += s["end"] - s["start"] - covered[i]
    return dict(out)

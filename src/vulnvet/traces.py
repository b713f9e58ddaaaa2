"""Execution trace model, the JSON-lines trace file format and its summary.

Each line: {"callee": qname, "ctype": "...", "caller": qname|null,
"site": "file:line"|null, "test": text, "ts": integer}. A construct follows
from its qualified name (``guess_ctype``); ``ctype`` is written for readers.
Lines end at a line feed only (a raw U+2028 in a string is text). vet writes
them as ``json.dumps(event, sort_keys=True)``, CHUNK events at a time,
hashing the bytes written. Such a line with no escape is read by one regex
(Mison, VLDB 2017); any other by ``json`` and ``EVENT``: errors stay theirs.

The summary, ``.vet/trace-summary.json``, is {"inputs": SHA-256 of the trace
file's bytes, "events": [...]}: the first event of each distinct (callee,
caller, site) of the normalised log, in log order, each written and
validated like a trace line. The commands that only read traces read it
while its stamp matches the trace file.
"""

from __future__ import annotations

import json
import re
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from sys import intern
from typing import NamedTuple, Optional

from .constructs import ConstructId, guess_ctype
from .errors import MalformedArtifact, MalformedTraceLine
from .workspace import Workspace, check, read_text, sha256, shape, write_atomic

SUMMARY = "trace-summary.json"
CHUNK = 1024  # events written per chunk


class TraceEvent(NamedTuple):
    callee: ConstructId
    caller: Optional[ConstructId]
    site: Optional[str]
    ts: int
    test: str


class TraceLog:
    __slots__ = ("events",)

    def __init__(self, events=None):
        self.events = [] if events is None else events

    def __eq__(self, other):
        return isinstance(other, TraceLog) and self.events == other.events

    @property
    def executed(self) -> set:
        return {e.callee for e in self.events}

    def merge(self, other: "TraceLog") -> "TraceLog":
        """Order-normalized union: events of tests that ``other`` re-ran
        replace their earlier events, then everything is ordered by
        (test, ts) and ``ts`` renumbered from 1 (see ``normalize``). The
        result depends only on the latest run of each test, not on the
        order in which runs were merged."""
        rerun = {e.test for e in other.events}
        kept = [e for e in self.events if e.test not in rerun]
        return normalize(TraceLog(kept + list(other.events)))


def normalize(log: TraceLog) -> TraceLog:
    """Stable order by (test, ts) with timestamps renumbered from 1. An
    event whose ``ts`` already equals its new number is kept as it is."""
    events = sorted(log.events, key=lambda e: (e.test, e.ts))
    out = []
    for i, e in enumerate(events, 1):
        out.append(e if e.ts == i else TraceEvent(e.callee, e.caller, e.site, i, e.test))
    return TraceLog(out)


_DECODER = json.JSONDecoder()
_LINE = '{"callee": %s, "caller": %s, "ctype": %s, "site": %s, "test": %s, "ts": %d}\n'


def event_json(e: TraceEvent) -> dict:
    return {
        "callee": e.callee.qname,
        "caller": e.caller.qname if e.caller else None,
        "ctype": e.callee.ctype,
        "site": e.site,
        "test": e.test,
        "ts": e.ts,
    }


def to_jsonl(log: TraceLog) -> str:
    """One line per event: the bytes json.dumps(event_json(e),
    sort_keys=True) gives, formatted directly, which takes a third of the
    time for a short event."""
    lines = []
    for e in log.events:
        caller = "null" if e.caller is None else _quote(e.caller.qname)
        site = "null" if e.site is None else _quote(e.site)
        lines.append(_LINE % (_quote(e.callee.qname), caller, _quote(e.callee.ctype), site,
                              _quote(e.test), e.ts))
    return "".join(lines)


_EVENT = {"callee": str, "ts": int, "test?": str,
          "caller?": (None, str), "site?": (None, str), "ctype?": (None, str)}
EVENT = shape(_EVENT)
_SUMMARY = shape({"events": [_EVENT]})
# _LINE of texts needing no escape (printable ASCII but " and \) and <= 19 digits
_CANONICAL = (r'\{"callee": "(?P<callee>%s)", "caller": (?:null|"(?P<caller>%s)"), '
              r'"ctype": "(?P<ctype>%s)", "site": (?:null|"(?P<site>%s)"), '
              r'"test": "(?P<test>%s)", "ts": (?P<ts>0|-?[1-9][0-9]{0,18})\}'
              % ((r'[ !#-\[\]-~]*',) * 5))


def canonical_decoder():
    """A function giving the dict ``json`` decodes from a line as ``to_jsonl``
    writes it with no escape, else None. The regex is compiled here, not at
    import: most commands read no trace line."""
    match = re.compile(_CANONICAL).fullmatch
    return lambda line: (m := match(line)) and {**m.groupdict(), "ts": int(m["ts"])}


def read_trace_lines(path: Path):
    """Yield (line number, event dict) for every non-blank line of a trace
    file, lines ending at a line feed. Raises MalformedTraceLine at the first line
    that is not a valid event, naming the file and the line."""
    # only the lines stay alive, not the whole text too: trace files are large
    lines = read_text(path, MalformedArtifact).split("\n")
    canonical = canonical_decoder()
    decode = _DECODER.decode  # one decoder for every other line
    for line_no, line in enumerate(lines, 1):
        data = canonical(line)
        if data is None:
            if not line.strip():
                continue
            try:
                data = decode(line)
            except (ValueError, RecursionError) as exc:
                raise MalformedTraceLine("%s: trace line %d: %s" % (path, line_no, exc)) from None
            if EVENT(data) is not None:  # the message is built for a bad line only
                check(data, EVENT, "%s: trace line %d" % (path, line_no), MalformedTraceLine)
        yield line_no, data


class _Ids(dict):
    """qname -> ConstructId, made once per name: a construct follows from
    its qualified name."""

    def __missing__(self, qname):
        cid = self[qname] = ConstructId(guess_ctype(qname), qname)
        return cid


def _events(items) -> list:
    """TraceEvents of valid event dicts, sharing names and texts; ``ctype`` is not read."""
    ids = _Ids()
    return [TraceEvent(ids[data["callee"]], ids[data["caller"]] if data.get("caller") else None,
                       data.get("site") and intern(data["site"]), data["ts"],
                       intern(data.get("test", "")))
            for data in items]


def unknown_names(log: TraceLog, ids) -> list:
    """The qualified names of the log that no construct id has, in name
    order."""
    names = {e.callee.qname for e in log.events}
    names.update(e.caller.qname for e in log.events if e.caller)
    return sorted(names - {cid.qname for cid in ids})


def ingest_traces(path: Path) -> TraceLog:
    """Parse and normalise a trace file."""
    return normalize(TraceLog(_events(data for _, data in read_trace_lines(path))))


def summarize(log: TraceLog) -> TraceLog:
    """The first event of each distinct (callee, caller, site) of a
    normalised log, in log order, with its ``ts`` kept. The executed set,
    the dynamic edges, every call site and the first event of each callee
    are the same on it as on the log."""
    first = {}
    for e in log.events:
        first.setdefault((e.callee, e.caller, e.site), e)
    return TraceLog(list(first.values()))


def write_traces(ws: Workspace, log: TraceLog):
    """Write a normalised log to .vet/traces.jsonl in chunks, and its summary beside it."""
    events = log.events
    digest = write_atomic(ws.artifact("traces.jsonl"), (to_jsonl(TraceLog(events[i:i + CHUNK]))
                                                        for i in range(0, len(events), CHUNK)))
    ws.write_json(SUMMARY, {"inputs": digest,
                            "events": [event_json(e) for e in summarize(log).events]})


def load_summary(ws: Workspace) -> TraceLog:
    """The summary of .vet/traces.jsonl, as ``summarize`` gives it. The
    summary file is read while it is stamped with the digest of the trace
    file; otherwise the trace file is ingested and summarised in memory. No
    trace file gives an empty log."""
    path = ws.artifact("traces.jsonl")
    if not path.is_file():
        return TraceLog()
    h = sha256()
    with open(path, "rb") as f:  # in chunks: the log is large
        while chunk := f.read(1 << 16):
            h.update(chunk)
    data = ws.read_stamped(SUMMARY, h.hexdigest(), _SUMMARY)
    if data is not None:
        return TraceLog(_events(data["events"]))
    return summarize(ingest_traces(path))

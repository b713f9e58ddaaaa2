"""Execution trace model and the JSON-lines trace file format.

Each line: {"callee": qname, "ctype": "...", "caller": qname|null,
"site": "file:line"|null, "test": text, "ts": integer}
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import NamedTuple, Optional

from .constructs import ConstructId, guess_ctype
from .errors import MalformedArtifact, MalformedTraceLine
from .workspace import read_text


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


# one encoder and decoder for every line: building them per line costs more
# than encoding or decoding a short event
_ENCODER = json.JSONEncoder(sort_keys=True)
_DECODER = json.JSONDecoder()


def to_jsonl(log: TraceLog) -> str:
    encode = _ENCODER.encode
    lines = []
    for e in log.events:
        lines.append(encode({
            "callee": e.callee.qname,
            "ctype": e.callee.ctype,
            "caller": e.caller.qname if e.caller else None,
            "site": e.site,
            "test": e.test,
            "ts": e.ts,
        }))
    return "\n".join(lines) + ("\n" if lines else "")


def read_trace_lines(path: Path):
    """Yield (line number, event dict) for every non-blank line of a trace
    file. Raises MalformedTraceLine at the first line that is not a valid
    event."""
    # only the lines stay alive, not the whole text too: trace files are large
    lines = read_text(path, MalformedArtifact).splitlines()
    decode = _DECODER.decode
    for line_no, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            data = decode(line)
        except json.JSONDecodeError as exc:
            raise MalformedTraceLine(line_no, str(exc))
        if not isinstance(data, dict) or "callee" not in data or "ts" not in data:
            raise MalformedTraceLine(line_no, "missing callee or ts")
        if not isinstance(data["ts"], int):
            raise MalformedTraceLine(line_no, "ts must be an integer")
        if not isinstance(data["callee"], str) or not isinstance(data.get("test", ""), str):
            raise MalformedTraceLine(line_no, "callee and test must be text")
        for key in ("caller", "site", "ctype"):
            value = data.get(key)
            if value is not None and not isinstance(value, str):
                raise MalformedTraceLine(line_no, "%s must be text or null" % key)
        yield line_no, data


def ingest_traces(path: Path, known_ids=None) -> tuple:
    """Parse a trace file; returns (TraceLog, warnings). Unknown qualified
    names are warned about but kept."""
    warnings = []
    events = []
    known = {cid.qname: cid for cid in known_ids} if known_ids else {}
    for line_no, data in read_trace_lines(path):
        callee_q = data["callee"]
        if known and callee_q not in known:
            warnings.append("line %d: unknown construct %s" % (line_no, callee_q))
        callee = known.get(callee_q) or ConstructId(
            data.get("ctype") or guess_ctype(callee_q), callee_q)
        caller = None
        if data.get("caller"):
            caller_q = data["caller"]
            if known and caller_q not in known:
                warnings.append("line %d: unknown construct %s" % (line_no, caller_q))
            caller = known.get(caller_q) or ConstructId(guess_ctype(caller_q), caller_q)
        events.append(TraceEvent(callee, caller, data.get("site"), data["ts"],
                                 data.get("test", "")))
    return normalize(TraceLog(events)), warnings

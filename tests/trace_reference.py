"""Reference trace codec: every line read and written through ``json``.

``traces.ingest_traces`` reads a line as ``to_jsonl`` writes it with one
regex and builds its TraceEvent from the groups; ``traces.to_jsonl``
formats each line directly from the event's fields.
The tests hold both, and a run of ``vet trace run``, to these functions,
which decode each line by ``json.loads`` and write each by ``json.dumps``.
"""

from __future__ import annotations

import json

from vulnvet.constructs import ConstructId, guess_ctype
from vulnvet.errors import MalformedArtifact, MalformedTraceLine
from vulnvet.traces import EVENT, TraceEvent, TraceLog, event_json, normalize
from vulnvet.workspace import check, json_text, read_text, sha256


def _cid(qname: str) -> ConstructId:
    return ConstructId(guess_ctype(qname), qname)


def event(data: dict) -> TraceEvent:
    """The TraceEvent of a valid event dict: an empty caller is none."""
    return TraceEvent(_cid(data["callee"]), _cid(data["caller"]) if data.get("caller") else None,
                      data.get("site"), data["ts"], data.get("test", ""))


def ingest(path) -> TraceLog:
    """The normalised log of a trace file, each non-blank line decoded by
    ``json.loads`` and checked by ``EVENT``; a bad line raises
    MalformedTraceLine naming the file and the line."""
    events = []
    for line_no, line in enumerate(read_text(path, MalformedArtifact).split("\n"), 1):
        if not line.strip():
            continue
        try:
            data = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise MalformedTraceLine("%s: trace line %d: %s" % (path, line_no, exc)) from None
        check(data, EVENT, "%s: trace line %d" % (path, line_no), MalformedTraceLine)
        events.append(event(data))
    return normalize(TraceLog(events))


def jsonl(log: TraceLog) -> str:
    """The text of a trace file: ``json.dumps`` of each event, sorted keys."""
    return "".join(json.dumps(event_json(e), sort_keys=True) + "\n" for e in log.events)


def summary(log: TraceLog) -> str:
    """The text of the summary of a normalised log written as ``jsonl``: the
    first event of each distinct (callee, caller, site), stamped with the
    SHA-256 of the trace file's bytes."""
    first = {}
    for e in log.events:
        first.setdefault((e.callee, e.caller, e.site), e)
    return json_text({"inputs": sha256(jsonl(log).encode("utf-8")).hexdigest(),
                      "events": [event_json(e) for e in first.values()]})

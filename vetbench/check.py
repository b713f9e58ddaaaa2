"""Compare one pass's vet outputs with the generator's known answers."""

from __future__ import annotations

import json
import re
from collections import Counter
from pathlib import Path

_TRACED = re.compile(r"traced (\d+) tests, (\d+) events \((\d+) total after merge\)")


def failed_ops(steps, results) -> list:
    """One message per invocation with an unexpected exit code or a Python
    traceback on stderr."""
    out = []
    for step, res in zip(steps, results):
        if res["code"] != step["exit"]:
            out.append("vet %s: exit %d, expected %d: %s" % (
                " ".join(step["argv"]), res["code"], step["exit"], res["stderr"][-300:]))
        elif "Traceback" in res["stderr"]:
            out.append("vet %s: traceback on stderr" % " ".join(step["argv"]))
    return out


class _Tally:
    def __init__(self):
        self.checked = 0
        self.wrong = []
        self.errors = []

    def expect(self, what: str, got, expected):
        self.checked += 1
        if got != expected:
            self.wrong.append("%s: got %r, expected %r" % (what, got, expected))


def _read_json(ws: Path, name: str):
    return json.loads((ws / ".vet" / name).read_text(encoding="utf-8"))


def _verdicts(findings) -> dict:
    return {"%s|%s|%s" % (f["vulnId"], f["archive"]["name"], f["archive"]["version"]):
            f["verdict"] for f in findings}


def _check_findings(t: _Tally, answers, ws: Path):
    findings = _read_json(ws, "findings.json")
    got = _verdicts(findings)
    for key in sorted(set(got) | set(answers["verdicts"])):
        t.expect("verdict " + key, got.get(key), answers["verdicts"].get(key))
    classes = {}
    for f in findings:
        for m in f["matched"]:
            if m["classification"] is not None:
                classes["%s|%s" % (f["vulnId"], m["qname"])] = m["classification"]["verdict"]
    for key, expected in sorted(answers["classifications"].items()):
        t.expect("classification " + key, classes.get(key), expected)


def _check_traces(t: _Tally, answers, ws: Path, steps, results):
    total = 0
    runs = iter(answers["trace_runs"])
    for step, res in zip(steps, results):
        if step["kind"] != "trace":
            continue
        run = next(runs)
        total += run["events"]
        m = _TRACED.search(res["stdout"])
        got = tuple(int(g) for g in m.groups()) if m else None
        t.expect("trace run " + run["pattern"], got, (run["tests"], run["events"], total))
        t.expect("failed tests in trace run " + run["pattern"], "FAILED" in res["stderr"], False)
    per_test = Counter()
    for line in (ws / ".vet" / "traces.jsonl").read_text(encoding="utf-8").splitlines():
        per_test[json.loads(line)["test"]] += 1
    for test in sorted(set(per_test) | set(answers["trace_events"])):
        t.expect("events of " + test, per_test.get(test), answers["trace_events"].get(test))
    t.expect("test failures", _read_json(ws, "test-failures.json"), {})


def _check_reach(t: _Tally, answers, ws: Path):
    reached = {kind: {e["qname"] for e in _read_json(ws, "reach-%s.json" % kind)["reached"]}
               for kind in ("static", "combined")}
    for qname, expected in sorted(answers["planted"].items()):
        for kind in ("static", "combined"):
            t.expect("%s reaches %s" % (kind, qname), qname in reached[kind], expected[kind])


def _check_mitigation(t: _Tally, answers, ws: Path):
    expected = answers["mitigation"]
    data = _read_json(ws, "mitigation-%s.json" % expected["lib"])
    got = [{"candidate": r["candidate"],
            "cs": [r["cs"]["num"], r["cs"]["den"]] if r["cs"] else None, "de": r["de"]}
           for r in data["candidates"]]
    t.expect("update candidates of " + expected["lib"], got, expected["candidates"])
    t.expect("deep-update notes of " + expected["lib"], data["notes"], [])


def _check_report(t: _Tally, answers, ws: Path):
    report = _read_json(ws, "report.json")
    t.expect("report verdicts", _verdicts(report["findings"]), answers["verdicts"])
    for f in report["findings"]:
        t.expect("evidence of " + f["vulnId"], f["evidence"], answers["evidence"].get(f["vulnId"]))
    html = (ws / ".vet" / "report.html").read_text(encoding="utf-8")
    t.expect("vulnerabilities named in report.html",
             sorted(v for v in answers["evidence"] if v not in html), [])


def wrong_answers(answers, root: Path, results) -> tuple:
    """(outputs checked, wrong answers, errors) for the pass whose invocations
    gave `results`: one message per output that differs from the known
    answers, and one per check that raised, say because an artifact is
    missing. A check that raised also counts as a wrong answer."""
    t = _Tally()
    ws = Path(root) / "ws"
    steps = answers["steps"]
    for name, check in (("findings", lambda: _check_findings(t, answers, ws)),
                        ("traces", lambda: _check_traces(t, answers, ws, steps, results)),
                        ("reachability", lambda: _check_reach(t, answers, ws)),
                        ("mitigation", lambda: _check_mitigation(t, answers, ws)),
                        ("report", lambda: _check_report(t, answers, ws))):
        try:
            check()
        except Exception as exc:  # a missing or malformed artifact is a wrong answer
            message = "%s check failed: %s: %s" % (name, type(exc).__name__, exc)
            t.checked += 1
            t.wrong.append(message)
            t.errors.append(message)
    return t.checked, t.wrong, t.errors

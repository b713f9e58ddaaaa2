"""Per-archive vulnerability detection via construct-set intersection.

Findings leave detection without evidence (NONE); the report attaches the
evidence levels defined here from the trace log and reachability artifacts.
Version screening runs the same detection on a library index's versions.
"""

from __future__ import annotations

from typing import Optional

from .bom import BOM, DEPENDENCY, Archive
from .constructs import Construct, version_key
from .diffing import (CLOSER_TO_FIXED, CLOSER_TO_VULNERABLE, EQUALS_FIXED,
                      EQUALS_VULNERABLE, Classification, ConstructChange,
                      classify)
from .kb import KnowledgeBase, LibraryIndex, WHOLE_LIBRARY

VULNERABLE = "VULNERABLE"
FIXED = "FIXED"
MANUAL_REVIEW = "MANUAL_REVIEW"
WHOLE_LIBRARY_AFFECTED = "WHOLE_LIBRARY_AFFECTED"

# Evidence levels, weakest to strongest.
NONE = "NONE"
STATIC = "STATIC"
COMBINED = "COMBINED"
DYNAMIC = "DYNAMIC"
EVIDENCE_ORDER = (NONE, STATIC, COMBINED, DYNAMIC)


class MatchEntry:
    __slots__ = ("change", "present", "classification")

    def __init__(self, change: ConstructChange, present: bool,
                 classification: Optional[Classification] = None):
        self.change = change
        self.present = present
        self.classification = classification


class Finding:
    __slots__ = ("vuln_id", "archive_name", "archive_version", "verdict", "matched")

    def __init__(self, vuln_id: str, archive_name: str, archive_version: str, verdict: str,
                 matched=None):
        self.vuln_id = vuln_id
        self.archive_name = archive_name
        self.archive_version = archive_version
        self.verdict = verdict
        self.matched = [] if matched is None else matched  # MatchEntry per record change


_VULN_SIDE = (EQUALS_VULNERABLE, CLOSER_TO_VULNERABLE)
_FIXED_SIDE = (EQUALS_FIXED, CLOSER_TO_FIXED)


def aggregate_verdict(classifications) -> str:
    """Verdict over the informative classifications of the matched constructs.

    All on the vulnerable side: VULNERABLE; all on the fixed side: FIXED;
    anything mixed, tied, or without signal needs manual review.
    """
    informative = [c for c in classifications if c is not None]
    if informative and all(c.verdict in _VULN_SIDE for c in informative):
        return VULNERABLE
    if informative and all(c.verdict in _FIXED_SIDE for c in informative):
        return FIXED
    return MANUAL_REVIEW


def detect(bom: BOM, kb: KnowledgeBase) -> list:
    """Match every archive (application included) against every KB record.

    CODE_CHANGE records match when the record's construct ids intersect the
    archive's; WHOLE_LIBRARY records match by name and version range. Findings
    are sorted by (vulnId, archive name, version). Detection depends only on
    construct ids and fingerprints, never on archive metadata.
    """
    findings = []
    records = _with_ids(kb.records())
    for arc, _depth in bom.archives():
        findings.extend(detect_archive(arc, records))
    findings.sort(key=lambda f: (f.vuln_id, f.archive_name, f.archive_version))
    return findings


def _with_ids(records) -> list:
    """(record, set of the ids its changes name) for each record."""
    return [(r, {ch.construct for ch in r.changes}) for r in records]


def detect_archive(arc, records) -> list:
    """The findings of one archive (see detect), in record order; records
    holds (record, set of the ids its changes name) pairs."""
    findings = []
    for record, changed_ids in records:
        if record.kind == WHOLE_LIBRARY:
            if record.covers_version(arc.name, arc.version):
                findings.append(Finding(record.vuln_id, arc.name, arc.version,
                                        WHOLE_LIBRARY_AFFECTED))
            continue
        if arc.constructs.keys().isdisjoint(changed_ids):
            continue
        matched = []
        for ch in sorted(record.changes, key=lambda c: c.construct):
            observed = arc.constructs.get(ch.construct)
            cls = classify(observed, ch) if observed is not None else None
            matched.append(MatchEntry(ch, observed is not None, cls))
        verdict = aggregate_verdict(m.classification for m in matched if m.present)
        findings.append(Finding(record.vuln_id, arc.name, arc.version, verdict, matched))
    return findings


def non_vulnerable_versions(index: LibraryIndex, records) -> list:
    """Versions of the index for which no record is VULNERABLE or
    WHOLE_LIBRARY_AFFECTED, ascending. Each is detected as an archive of
    body-less constructs, which classify by digest alone: a matched body
    equal to neither side of its change gives no signal."""
    records = _with_ids(records)
    out = []
    for version in sorted(index.versions, key=version_key):
        constructs = {cid: Construct(fp, None) for cid, fp in index.versions[version].items()}
        arc = Archive(index.name, version, DEPENDENCY, constructs)
        if not any(f.verdict in (VULNERABLE, WHOLE_LIBRARY_AFFECTED)
                   for f in detect_archive(arc, records)):
            out.append(version)
    return out


def finding_to_json(f: Finding) -> dict:
    matched = []
    for m in f.matched:
        entry = {
            "ctype": m.change.construct.ctype,
            "qname": m.change.construct.qname,
            "change": m.change.op,
            "contained": m.present,
            "classification": None,
        }
        if m.classification is not None:
            entry["classification"] = {
                "verdict": m.classification.verdict,
                "distVuln": m.classification.dist_vuln,
                "distFixed": m.classification.dist_fixed,
            }
        matched.append(entry)
    return {
        "vulnId": f.vuln_id,
        "archive": {"name": f.archive_name, "version": f.archive_version},
        "verdict": f.verdict,
        "evidence": NONE,
        "matched": matched,
    }

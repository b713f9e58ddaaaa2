"""Fix-diff analysis: construct change sets and vulnerable/fixed classification."""

from __future__ import annotations

from pathlib import Path
from typing import Optional

from .bom import extract_root
from .canonical import lazy_tree
from .constructs import CALLABLE_CTYPES, Construct, ConstructId, split_member
from .errors import EmptyRange, MalformedRecord
from .ted import tree_edit_distance

ADD = "ADD"
DEL = "DEL"
MOD = "MOD"

EQUALS_VULNERABLE = "EQUALS_VULNERABLE"
EQUALS_FIXED = "EQUALS_FIXED"
CLOSER_TO_VULNERABLE = "CLOSER_TO_VULNERABLE"
CLOSER_TO_FIXED = "CLOSER_TO_FIXED"
TIE = "TIE"


def _undecodable(key: str):
    return lambda ch, exc: MalformedRecord("%s: %s of %s does not decode: %s"
                                           % (ch.where, key, ch.construct, exc))


class ConstructChange:
    """One construct's entry in a fix's change set.

    ``text_vuln`` and ``text_fixed`` are the canonical texts of the bodies
    before and after the fix (absent for ADD and DEL respectively), and
    ``ast_vuln`` and ``ast_fixed`` their CTrees, decoded on the first read
    and kept (see canonical.lazy_tree): a knowledge-base scan decodes only the bodies whose
    distances it computes. ``where`` names the stored record the change was
    read from, and a side that does not decode is a MalformedRecord naming it.
    """

    __slots__ = ("construct", "op", "text_vuln", "text_fixed", "fp_vuln", "fp_fixed", "where",
                 "_vuln", "_fixed")

    def __init__(self, construct: ConstructId, op: str, text_vuln: Optional[str] = None,
                 text_fixed: Optional[str] = None, fp_vuln: Optional[str] = None,
                 fp_fixed: Optional[str] = None, where: Optional[str] = None):
        self.construct = construct
        self.op = op
        self.text_vuln = text_vuln
        self.text_fixed = text_fixed
        self.fp_vuln = fp_vuln
        self.fp_fixed = fp_fixed
        self.where = where
        self._vuln = self._fixed = None  # the trees, once read

    ast_vuln = lazy_tree("text_vuln", "_vuln", _undecodable("astVuln"))
    ast_fixed = lazy_tree("text_fixed", "_fixed", _undecodable("astFixed"))

    @property
    def informative(self) -> bool:
        """Whether this change can distinguish vulnerable from fixed code.

        Outer-construct entries produced by the nested-change rule can carry
        identical signature-level trees on both sides; those (and body-less
        constructs such as packages) only witness containment.
        """
        if self.op in (ADD, DEL):
            return True
        return self.fp_vuln is not None and self.fp_vuln != self.fp_fixed


class Classification:
    __slots__ = ("verdict", "dist_vuln", "dist_fixed")

    def __init__(self, verdict: str, dist_vuln: Optional[int] = None,
                 dist_fixed: Optional[int] = None):
        self.verdict = verdict
        self.dist_vuln = dist_vuln
        self.dist_fixed = dist_fixed


def construct_changes(before: dict, after: dict) -> list:
    """Diff two construct inventories (ConstructId -> Construct maps).

    Constructs present on one side only become ADD/DEL entries; differing
    fingerprints become MOD. A change in a member also yields a MOD entry for
    its enclosing class or interface, even when the signature-level tree is
    unchanged. Result is sorted by construct id.
    """
    changes = {}
    for cid in before.keys() | after.keys():
        b = before.get(cid)
        a = after.get(cid)
        if b is not None and a is None:
            changes[cid] = ConstructChange(cid, DEL, text_vuln=b.text, fp_vuln=b.fingerprint)
        elif b is None and a is not None:
            changes[cid] = ConstructChange(cid, ADD, text_fixed=a.text, fp_fixed=a.fingerprint)
        elif b.fingerprint != a.fingerprint:
            changes[cid] = ConstructChange(cid, MOD, b.text, a.text,
                                           b.fingerprint, a.fingerprint)
    for cid in list(changes):
        if cid.ctype not in CALLABLE_CTYPES:
            continue
        owner = split_member(cid.qname)[0]
        for octype in ("CLASS", "INTERFACE"):
            oid = ConstructId(octype, owner)
            if oid in changes or oid not in before or oid not in after:
                continue
            ob, oa = before[oid], after[oid]
            changes[oid] = ConstructChange(oid, MOD, ob.text, oa.text,
                                           ob.fingerprint, oa.fingerprint)
    return [changes[cid] for cid in sorted(changes)]


def construct_changes_roots(before_root: Path, after_root: Path) -> list:
    return construct_changes(extract_root(before_root), extract_root(after_root))


def consolidate_commits(revision_roots) -> list:
    """Change set of a multi-commit fix: diff of the first and last revision."""
    roots = list(revision_roots)
    if len(roots) < 2:
        raise EmptyRange("need at least 2 revisions, got %d" % len(roots))
    return construct_changes_roots(roots[0], roots[-1])


def classify(observed: Construct, change: ConstructChange) -> Optional[Classification]:
    """Classify an observed construct body against a change entry.

    Returns None for containment-only entries (no usable signal): MOD
    entries whose two sides fingerprint identically, and constructs without
    a body whose digest equals neither side. Digest equality wins before any
    distance comparison, so a body-less construct (as in a library index) is
    classified by its digest alone. The observed construct is the one of
    the change's own id.
    """
    if change.op == DEL:
        return Classification(EQUALS_VULNERABLE)
    if not change.informative:
        return None
    fp = observed.fingerprint
    if change.op == MOD and fp == change.fp_vuln:
        return Classification(EQUALS_VULNERABLE)
    if fp is not None and fp == change.fp_fixed:
        return Classification(EQUALS_FIXED)
    if change.op == ADD:
        return Classification(TIE) if observed.has_body else None
    body = observed.body
    if body is None:
        return None
    dv = tree_edit_distance(body, change.ast_vuln)
    df = tree_edit_distance(body, change.ast_fixed)
    if dv < df:
        return Classification(CLOSER_TO_VULNERABLE, dv, df)
    if df < dv:
        return Classification(CLOSER_TO_FIXED, dv, df)
    return Classification(TIE, dv, df)

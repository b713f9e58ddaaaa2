"""Vulnerability knowledge base: fix-derived change sets and library indexes.

Persisted as a directory of JSON documents, one per vulnerability
(``vulns/<id>.json``) and one per library (``libs/<name>.json``), with
construct bodies stored as canonical serializations so digests round-trip
bit-exact. A KnowledgeBase keeps nothing but its root: every read goes to
the files. Version screening is detection.non_vulnerable_versions.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from .bom import VERSION, extract_root
from .canonical import deserialize, serialize
from .constructs import CTYPE, ConstructId, version_key, version_newer
from .diffing import ADD, DEL, MOD, ConstructChange, construct_changes_roots
from .errors import (DuplicateVuln, EmptyChangeSet, MalformedRecord,
                     UnknownLibrary, VetError)
from .workspace import check, framed_digest, json_text, load_json, one_of, shape, write_atomic

CODE_CHANGE = "CODE_CHANGE"
WHOLE_LIBRARY = "WHOLE_LIBRARY"


class VulnerabilityRecord:
    __slots__ = ("vuln_id", "description", "kind", "changes", "affected", "source_note")

    def __init__(self, vuln_id: str, description: str, kind: str, changes=None,
                 affected=None, source_note: str = ""):
        self.vuln_id = vuln_id
        self.description = description
        self.kind = kind
        self.changes = [] if changes is None else changes    # ConstructChange, CODE_CHANGE only
        self.affected = [] if affected is None else affected  # (lib, lo, hi), WHOLE_LIBRARY only
        self.source_note = source_note

    def covers_version(self, library: str, version: str) -> bool:
        key = version_key(version)
        for name, lo, hi in self.affected:
            if name == library and version_key(lo) <= key <= version_key(hi):
                return True
        return False


class LibraryIndex:
    __slots__ = ("name", "versions")

    def __init__(self, name: str, versions: dict):
        self.name = name
        self.versions = versions  # version -> {ConstructId: fingerprint}


def _change_to_json(ch: ConstructChange) -> dict:
    return {
        "ctype": ch.construct.ctype,
        "qname": ch.construct.qname,
        "op": ch.op,
        "astVuln": serialize(ch.ast_vuln) if ch.ast_vuln is not None else None,
        "astFixed": serialize(ch.ast_fixed) if ch.ast_fixed is not None else None,
        "fpVuln": ch.fp_vuln,
        "fpFixed": ch.fp_fixed,
    }


_CHANGE = {"ctype": CTYPE, "qname": str, "op": one_of(ADD, DEL, MOD),
           "astVuln?": (None, str), "astFixed?": (None, str),
           "fpVuln?": (None, str), "fpFixed?": (None, str)}
RECORD = shape({"vulnId": str, "kind": one_of(CODE_CHANGE, WHOLE_LIBRARY),
                "description?": (None, str), "sourceNote?": (None, str),
                "changes?": [_CHANGE],
                "affected?": [{"library": str, "low": VERSION, "high": VERSION}]})
# a package has no body, so its fingerprint is null
INDEX = shape({"name": str, "versions": {VERSION: [{"ctype": CTYPE, "qname": str,
                                                      "fingerprint": (None, str)}]}})


def _stored_tree(text, where: str, cid: ConstructId, key: str):
    """The canonical text of one stored body, decoded when first needed."""
    if not text:
        return None

    def decode():
        try:
            return deserialize(text)
        except ValueError as exc:
            raise MalformedRecord("%s: %s of %s does not decode: %s"
                                  % (where, key, cid, exc)) from None
    return decode


def _change_from_json(data, where: str) -> ConstructChange:
    """The change of an entry RECORD accepts. A stored tree's text must
    hash to its fingerprint, checked without decoding it."""
    cid = ConstructId(data["ctype"], data["qname"])
    if data["op"] == MOD and data.get("fpVuln") != data.get("fpFixed") \
            and not (data.get("astVuln") and data.get("astFixed")):
        raise MalformedRecord("%s: MOD of %s changes its fingerprint but lacks a tree"
                              % (where, cid))
    for key, fp in (("astVuln", "fpVuln"), ("astFixed", "fpFixed")):
        text = data.get(key)
        if text and hashlib.sha256(text.encode("utf-8")).hexdigest() != data.get(fp):
            raise MalformedRecord("%s: %s of %s is not the SHA-256 of its %s"
                                  % (where, fp, cid, key))
    trees = [_stored_tree(data.get(key), where, cid, key) for key in ("astVuln", "astFixed")]
    return ConstructChange(cid, data["op"], *trees, data.get("fpVuln"), data.get("fpFixed"))


def _check_name(value: str, what: str):
    """A record id or library name becomes a file name: refuse one that
    would land elsewhere or that the store could not list."""
    if not value or value.startswith(".") or any(c in value for c in "/\\\0"):
        raise MalformedRecord("%s %r is not a file name: it is empty, starts with '.' "
                              "or holds '/', '\\' or NUL" % (what, value))


def _check_stored_name(path: Path, key: str, value: str, expected: str):
    """A stored document is found by its file name, so it must carry that name."""
    if value != expected:
        raise MalformedRecord("%s: %s is %r, but the file name says %r"
                              % (path, key, value, expected))


class KnowledgeBase:
    def __init__(self, root: Path):
        self.root = Path(root)

    # --- paths ---

    def _vuln_path(self, vuln_id: str, new: bool = False) -> Path:
        """The file of record vuln_id, which with new must not exist yet."""
        _check_name(vuln_id, "kb record id")
        path = self.root / "vulns" / (vuln_id + ".json")
        if new and path.exists():
            raise DuplicateVuln("kb record %s already exists (%s); pass --overwrite to "
                                "replace it" % (vuln_id, path))
        return path

    def _lib_path(self, name: str) -> Path:
        _check_name(name, "library name")
        return self.root / "libs" / (name + ".json")

    # --- vulnerability records ---

    def import_fix(self, vuln_id: str, before: Path, after: Path,
                   exclusions=None, meta: str = "", description: str = "",
                   overwrite: bool = False, warn=None) -> VulnerabilityRecord:
        """Derive and store a CODE_CHANGE record from a pre/post-fix source pair.

        exclusions filters out construct ids of unrelated changes mixed into
        the fix commit; warn, when given, is called with one message for each
        exclusion that matches no construct change of the fix.
        """
        self._vuln_path(vuln_id, new=not overwrite)  # before any parse
        excl = dict.fromkeys(exclusions or ())
        changes = construct_changes_roots(Path(before), Path(after))
        if warn is not None:
            changed = {ch.construct for ch in changes}
            for cid in excl:
                if cid not in changed:
                    warn("--exclude %s:%s matches no construct change of the fix for %s"
                         % (cid.ctype, cid.qname, vuln_id))
        changes = [ch for ch in changes if ch.construct not in excl]
        if not changes:
            raise EmptyChangeSet("fix for %s yields no construct changes" % vuln_id)
        record = VulnerabilityRecord(vuln_id, description, CODE_CHANGE,
                                     changes=changes, source_note=meta)
        self.save_record(record)
        return record

    def add_whole_library(self, vuln_id: str, affected, meta: str = "",
                          description: str = "", overwrite: bool = False) -> VulnerabilityRecord:
        """Store a WHOLE_LIBRARY record for fixes without code changes
        (e.g. default-configuration fixes): (library, lowVersion, highVersion)
        closed ranges."""
        self._vuln_path(vuln_id, new=not overwrite)
        affected = [(n, lo, hi) for n, lo, hi in affected]
        if not affected:
            raise VetError("WHOLE_LIBRARY record needs at least one affected range")
        record = VulnerabilityRecord(vuln_id, description, WHOLE_LIBRARY,
                                     affected=affected, source_note=meta)
        self.save_record(record)
        return record

    def save_record(self, record: VulnerabilityRecord):
        path = self._vuln_path(record.vuln_id)
        data = {
            "vulnId": record.vuln_id,
            "description": record.description,
            "kind": record.kind,
            "sourceNote": record.source_note,
            "changes": [_change_to_json(ch) for ch in record.changes],
            "affected": [{"library": n, "low": lo, "high": hi}
                         for n, lo, hi in record.affected],
        }
        # what is stored is what load_record accepts: a bad version is never stored
        check(data, RECORD, "kb record %s" % record.vuln_id, MalformedRecord)
        for n, lo, hi in record.affected:
            if version_newer(lo, hi):
                raise MalformedRecord("kb record %s: range %s:%s:%s covers no version: "
                                      "low is above high" % (record.vuln_id, n, lo, hi))
        write_atomic(path, (json_text(data),))

    def load_record(self, vuln_id: str) -> VulnerabilityRecord:
        """Read one record. Stored bodies stay canonical text until a
        change's ``ast_vuln``/``ast_fixed`` is first read. Raises
        MalformedRecord naming the file for a document that is not a record,
        or not the record its file name says."""
        path = self._vuln_path(vuln_id)
        data = load_json(path, MalformedRecord, RECORD)
        _check_stored_name(path, "vulnId", data["vulnId"], vuln_id)
        where = "kb record %s (%s)" % (data["vulnId"], path)
        return VulnerabilityRecord(
            vuln_id=data["vulnId"],
            description=data.get("description", ""),
            kind=data["kind"],
            changes=[_change_from_json(c, where) for c in data.get("changes", [])],
            affected=[(a["library"], a["low"], a["high"]) for a in data.get("affected", [])],
            source_note=data.get("sourceNote", ""),
        )

    def records(self) -> list:
        return [self.load_record(p.stem) for p in sorted((self.root / "vulns").glob("*.json"))]

    # --- library indexes ---

    def index_library(self, name: str, version_roots) -> LibraryIndex:
        """Inventory every (version, root) pair and persist the per-library
        index. Every version is checked before any root is parsed: one that
        is not dot-separated numeric, or that repeats an earlier one (1.0 and
        1.0.0 are the same version), is refused."""
        version_roots = list(version_roots)
        if not version_roots:
            raise VetError("no versions given for library %s" % name)
        self._lib_path(name)  # before any parse
        seen = {}
        for version, _root in version_roots:
            try:
                key = version_key(version)
            except ValueError as exc:
                raise VetError("library %s: %s" % (name, exc)) from None
            if key in seen:
                raise VetError("library %s: version %s repeats version %s"
                               % (name, version, seen[key]))
            seen[key] = version
        index = LibraryIndex(name, {
            version: {cid: c.fingerprint for cid, c in extract_root(Path(root)).items()}
            for version, root in version_roots})
        self.save_index(index)
        return index

    def save_index(self, index: LibraryIndex):
        path = self._lib_path(index.name)
        data = {
            "name": index.name,
            "versions": {
                v: [{"ctype": cid.ctype, "qname": cid.qname, "fingerprint": fp}
                    for cid, fp in sorted(cons.items())]
                for v, cons in index.versions.items()
            },
        }
        check(data, INDEX, "library %s" % index.name, MalformedRecord)
        write_atomic(path, (json_text(data),))

    def load_index(self, name: str) -> LibraryIndex:
        """Read one library index. Raises UnknownLibrary when there is none
        and MalformedRecord naming the file for a document that is not an
        index, or not the index its file name says."""
        path = self._lib_path(name)
        if not path.is_file():
            raise UnknownLibrary("the knowledge base has no index for library %s; create "
                                 "one with `vet kb index-lib --name %s --root VERSION=PATH`"
                                 % (name, name))
        data = load_json(path, MalformedRecord, INDEX)
        _check_stored_name(path, "name", data["name"], name)
        versions = {v: {ConstructId(e["ctype"], e["qname"]): e["fingerprint"] for e in entries}
                    for v, entries in data["versions"].items()}
        return LibraryIndex(name, versions)

    def library_names(self) -> list:
        return sorted(p.stem for p in (self.root / "libs").glob("*.json"))

    # --- provenance stamp ---

    def digest(self) -> str:
        """Content hash over the whole document set, for report stamping: each
        document as its POSIX path under the root and its bytes, every part
        length-prefixed (see workspace.framed_digest)."""
        return framed_digest(part for path in sorted(self.root.rglob("*.json"))
                             for part in (path.relative_to(self.root).as_posix().encode(),
                                          path.read_bytes()))

"""Vulnerability knowledge base: fix-derived change sets and library indexes.

Persisted as a directory of JSON documents, one per vulnerability
(``vulns/<id>.json``) and one per library (``libs/<name>.json``), with
construct bodies stored as the canonical text their fingerprints digest,
written and read as is (see canonical), so digests round-trip bit-exact and
a body's tree is decoded only when tree differencing reads it. A
KnowledgeBase keeps nothing but its root and, for scan and mitigate, a
workspace: every read goes to the files, and every record read is checked,
but a selective read (see ``records``) decodes only the records that the
workspace's ``.vet/kb-index.json`` says can match. Version screening is
detection.non_vulnerable_versions.
"""

from __future__ import annotations

import os
from pathlib import Path

from .bom import VERSION, extract_root
from .canonical import fingerprint
from .constructs import CTYPE, ConstructId, version_key, version_newer
from .diffing import ADD, DEL, MOD, ConstructChange, construct_changes_roots
from .errors import (DuplicateVuln, EmptyChangeSet, MalformedRecord,
                     UnknownLibrary, VetError)
from .workspace import (check, decode_json, framed_digest, json_text, load_json, one_of,
                        read_bytes, regular_files, shape, write_atomic)

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
        "astVuln": ch.text_vuln,
        "astFixed": ch.text_fixed,
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
# the workspace artifact that lists, per record file, what the record names
KB_INDEX = "kb-index.json"
_KB_INDEX = shape({"inputs": str, "records": {str: {
    "constructs": [str], "libraries": [str]}}})


def _repeat(values, key=lambda value: value):
    """(value, earlier value) for the first of values whose key an earlier
    one has, or None."""
    seen = {}
    for value in values:
        k = key(value)
        if k in seen:
            return value, seen[k]
        seen[k] = value
    return None


def _check_record(data, where: str):
    """What a record must hold beyond its shape (RECORD), checked on write
    and on read: each construct changes once, each range covers a version."""
    repeat = _repeat(ConstructId(c["ctype"], c["qname"]) for c in data.get("changes", []))
    if repeat:
        raise MalformedRecord("%s: construct %s changes more than once" % (where, repeat[0]))
    for a in data.get("affected", []):
        if version_newer(a["low"], a["high"]):
            raise MalformedRecord("%s: range %s:%s:%s covers no version: low is above high"
                                  % (where, a["library"], a["low"], a["high"]))


def _check_index(data, where: str):
    """What an index must hold beyond its shape (INDEX), checked on write
    and on read: each version once (1.0 and 1.0.0 are one), and each
    construct once in a version."""
    repeat = _repeat(data["versions"], version_key)
    if repeat:
        raise MalformedRecord("%s: version %s repeats version %s" % (where, *repeat))
    for version, entries in data["versions"].items():
        repeat = _repeat(ConstructId(e["ctype"], e["qname"]) for e in entries)
        if repeat:
            raise MalformedRecord("%s: version %s lists construct %s more than once"
                                  % (where, version, repeat[0]))


def _change_from_json(data, where: str) -> ConstructChange:
    """The change of an entry RECORD accepts. A stored tree's text must
    hash to its fingerprint, checked without decoding it; a text that does
    not decode is refused when the change's tree is first read."""
    cid = ConstructId(data["ctype"], data["qname"])
    if data["op"] == MOD and data.get("fpVuln") != data.get("fpFixed") \
            and not (data.get("astVuln") and data.get("astFixed")):
        raise MalformedRecord("%s: MOD of %s changes its fingerprint but lacks a tree"
                              % (where, cid))
    for key, fp in (("astVuln", "fpVuln"), ("astFixed", "fpFixed")):
        text = data.get(key)
        if text and fingerprint(text) != data.get(fp):
            raise MalformedRecord("%s: %s of %s is not the SHA-256 of its %s"
                                  % (where, fp, cid, key))
    return ConstructChange(cid, data["op"], data.get("astVuln") or None,
                           data.get("astFixed") or None, data.get("fpVuln"),
                           data.get("fpFixed"), where)


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


def _record_from_json(data, path: Path, vuln_id: str) -> VulnerabilityRecord:
    """The record of a document RECORD accepts, stored at path as vuln_id."""
    _check_stored_name(path, "vulnId", data["vulnId"], vuln_id)
    where = "kb record %s (%s)" % (vuln_id, path)
    _check_record(data, where)
    return VulnerabilityRecord(
        vuln_id=vuln_id,
        description=data.get("description", ""),
        kind=data["kind"],
        changes=[_change_from_json(c, where) for c in data.get("changes", [])],
        affected=[(a["library"], a["low"], a["high"]) for a in data.get("affected", [])],
        source_note=data.get("sourceNote", ""),
    )


def _decoded(files) -> list:
    """The record of each (path, bytes) of a listed record file, checked as
    load_record checks it. The list is emptied as it goes, so the bytes of
    each file are freed once decoded: holding them all until the end raised
    the peak RSS of a kb-drift scan by ~0.5 MB."""
    records = []
    files.reverse()
    while files:
        path, data = files.pop()
        _check_name(path.stem, "kb record id")
        records.append(_record_from_json(decode_json(data, path, MalformedRecord, RECORD),
                                         path, path.stem))
    return records


def _index_entry(record: VulnerabilityRecord) -> dict:
    # an id as CTYPE:QNAME text: a third of the objects and half the bytes of
    # {"ctype", "qname"} objects, and scan writes it while it holds the parse
    return {"constructs": sorted(str(ch.construct) for ch in record.changes),
            "libraries": sorted({name for name, _lo, _hi in record.affected})}


def _selected(entry, ids, names) -> bool:
    """Whether the record of an index entry names one of ids (ConstructIds,
    which equal their (ctype, qname) pairs) or a library of names."""
    return (any(tuple(c.split(":", 1)) in ids for c in entry["constructs"])
            or not names.isdisjoint(entry["libraries"]))


def _document(path: Path, what: str) -> Path:
    """path, the file of what, unless something other than a file is there."""
    if path.exists() and not path.is_file():
        raise VetError("%s: %s is not a regular file; vet neither reads nor replaces it"
                       % (what, path))
    return path


class KnowledgeBase:
    def __init__(self, root: Path, ws=None):
        """The knowledge base at root, which may be missing (no records) but,
        if it exists, must be a directory: a file there would read as an
        empty knowledge base, a false "nothing found"."""
        self.root = Path(root)
        if self.root.exists() and not self.root.is_dir():
            raise VetError("knowledge base %s is not a directory" % self.root)
        self.ws = ws  # the Workspace whose .vet/ keeps the record index, if any

    # --- paths ---

    def _vuln_path(self, vuln_id: str, new: bool = False) -> Path:
        """The file of record vuln_id, which with new must not exist yet."""
        _check_name(vuln_id, "kb record id")
        path = _document(self.root / "vulns" / (vuln_id + ".json"), "kb record " + vuln_id)
        if new and path.exists():
            raise DuplicateVuln("kb record %s already exists (%s); pass --overwrite to "
                                "replace it" % (vuln_id, path))
        return path

    def _lib_path(self, name: str) -> Path:
        _check_name(name, "library name")
        return _document(self.root / "libs" / (name + ".json"), "library " + name)

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
        _check_record(data, "kb record %s (%s)" % (record.vuln_id, path))
        write_atomic(path, (json_text(data),))

    def load_record(self, vuln_id: str) -> VulnerabilityRecord:
        """Read one record. Stored bodies stay canonical text until a
        change's ``ast_vuln``/``ast_fixed`` is first read. Raises
        MalformedRecord naming the file for a document that is not a record,
        or not the record its file name says."""
        path = self._vuln_path(vuln_id)
        return _record_from_json(load_json(path, MalformedRecord, RECORD), path, vuln_id)

    def records(self, ids=None, names=frozenset()) -> list:
        """The stored records in file order, each checked as load_record
        checks it. With ids, a set of ConstructIds, and names, a set of
        library names: only the records whose changes name one of ids or
        whose ranges name one of names, when the workspace's index is stamped
        with the name and bytes of every record file (so none changed since
        it was written); else every record. A KnowledgeBase with a workspace
        writes the index whenever it has read every record."""
        files = [(path, read_bytes(path)) for path in regular_files(self.root / "vulns", "*.json")]
        if self.ws is None:
            return _decoded(files)
        stamp = framed_digest(part for path, data in files
                              for part in (os.fsencode(path.name), data))
        index = None if ids is None else self.ws.read_stamped(KB_INDEX, stamp, _KB_INDEX)
        if index is not None:
            entries = index["records"]  # a record the index lacks is read, to be safe
            return _decoded([(path, data) for path, data in files
                             if path.stem not in entries
                             or _selected(entries[path.stem], ids, names)])
        records = _decoded(files)
        if not self.ws.artifact(KB_INDEX).is_dir():  # a directory there is not the index
            self.ws.write_json(KB_INDEX, {"inputs": stamp, "records": {
                record.vuln_id: _index_entry(record) for record in records}})
        return records

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
        for version, _root in version_roots:
            try:
                version_key(version)
            except ValueError as exc:
                raise VetError("library %s: %s" % (name, exc)) from None
        repeat = _repeat([version for version, _root in version_roots], version_key)
        if repeat:
            raise VetError("library %s: version %s repeats version %s" % (name, *repeat))
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
        _check_index(data, "library %s (%s)" % (index.name, path))
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
        _check_index(data, "library %s (%s)" % (name, path))
        versions = {v: {ConstructId(e["ctype"], e["qname"]): e["fingerprint"] for e in entries}
                    for v, entries in data["versions"].items()}
        return LibraryIndex(name, versions)

    def library_names(self) -> list:
        return sorted(p.stem for p in regular_files(self.root / "libs", "*.json"))

    # --- provenance stamp ---

    def digest(self) -> str:
        """Content hash over the whole document set, for report stamping: each
        document as its POSIX path under the root, encoded as the file system
        spells it (os.fsencode), and its bytes, every part
        length-prefixed (see workspace.framed_digest)."""
        return framed_digest(part for path in regular_files(self.root, "**/*.json")
                             for part in (os.fsencode(path.relative_to(self.root).as_posix()),
                                          read_bytes(path)))

"""Workspace layout, atomic file IO, the SHA-256 constructor of every digest
(``sha256``), and the shape check of every JSON input.

Analyses persist intermediate artifacts under ``.vet/`` so the scan steps
compose incrementally in any order. All JSON artifacts are written with
sorted keys and no wall-clock data, so reruns on an unchanged workspace are
byte-identical. Every JSON document vet reads is checked against a shape.
"""

from __future__ import annotations

import contextlib
import json
import os
from itertools import chain, islice
from pathlib import Path

from .errors import MalformedArtifact, VetError

try:  # CPython's builtin SHA-256, so no process maps OpenSSL's libcrypto
    from _sha2 import sha256  # 3.12+
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:  # a build without the builtin module
        from hashlib import sha256

ARTIFACT_DIR = ".vet"


def read_text(path: Path, error) -> str:
    """The UTF-8 text of a file, newlines translated as in text mode. A file
    that is not UTF-8 raises ``error(message)``, the message naming the file
    and its first bad line, so each reader reports it as its own kind of bad
    input."""
    return decode_text(read_bytes(path), path, error)


def read_bytes(path: Path) -> bytes:
    # unbuffered: Path(path).read_bytes() costs ~8 us more per file, a buffered open ~3 us
    with open(path, "rb", buffering=0) as f:
        return f.read()


def decode_text(data: bytes, path: Path, error) -> str:
    """The text of data, the bytes of the file at path, as ``read_text``
    gives it."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise error("%s: line %d is not UTF-8 text" % (path, line)) from None
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def regular_files(root: Path, suffix: str, deep: bool = False) -> list:
    """(rel, path) of each regular file whose name ends in suffix, directly
    under root or, if deep, at any depth, sorted by path parts: rel its path
    below root in POSIX text, path ``str(root / rel)``. The files of
    ``root.glob("**/*" + suffix)`` (``"*" + suffix``), found by one os.scandir
    walk with no path arithmetic per file: a symlink to a file counts, a
    symlinked directory is not entered, and hidden names count."""
    prefix = "" if os.fspath(root) == "." else os.path.join(root, "")
    found, dirs = [], [""]
    while dirs:
        rel = dirs.pop()
        try:
            with os.scandir(prefix + rel or ".") as entries:
                for entry in entries:
                    if deep and entry.is_dir(follow_symlinks=False):
                        dirs.append(rel + entry.name + "/")
                    elif entry.name.endswith(suffix) and (
                            entry.is_file(follow_symlinks=False)
                            or entry.is_symlink() and os.path.isfile(entry.path)):
                        found.append(rel + entry.name)
        except (FileNotFoundError, NotADirectoryError, PermissionError):
            continue  # as glob: no such directory, or one it may not list
    return [(rel, prefix + rel) for rel in sorted(found, key=lambda rel: rel.split("/"))]


def document(path: Path, what: str = None) -> Path:
    """path, the file of what if given, unless something other than a
    regular file is there, where a write would fail with a raw OS error."""
    if path.exists() and not path.is_file():
        raise VetError("%s%s is not a regular file; vet neither reads nor replaces it"
                       % (what + ": " if what else "", path))
    return path


def framed_digest(parts) -> str:
    """SHA-256 over byte strings, each length-prefixed: no two sequences share it."""
    h = sha256()
    for part in parts:
        h.update(b"%d:" % len(part))
        h.update(part)
    return h.hexdigest()


def write_atomic(path: Path, chunks) -> str:
    """Write the text chunks to path as UTF-8 through a temporary file beside
    it, so a reader never sees a half-written file. Returns the SHA-256 of
    the bytes written. A whole text is one chunk: ``(text,)``. A write that
    fails removes the temporary file and re-raises."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    h = sha256()
    try:
        with open(tmp, "wb") as f:
            for data in map(str.encode, chunks):  # UTF-8; each text freed once encoded
                h.update(data)
                f.write(data)
        tmp.replace(path)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise
    return h.hexdigest()


def json_text(data) -> str:
    """``json.dumps(data, indent=2, sort_keys=True)`` and a newline. The
    encoder yields a few pieces per value; they are joined in batches, so no
    list holds them all."""
    pieces = json.JSONEncoder(indent=2, sort_keys=True).iterencode(data)
    batches = iter(lambda: "".join(islice(pieces, 2048)), "")  # no piece is empty
    return "".join(chain(batches, ("\n",)))


# --- shapes of JSON documents -------------------------------------------------

_WORDS = {str: "text", int: "an integer", bool: "true or false", type(None): "null",
          list: "a list", dict: "an object"}
_ABSENT = object()  # what a check finds at a key the object lacks


def _found(value) -> str:
    return _WORDS[type(value)] if type(value) in (list, dict) else json.dumps(value)[:60]


def leaf(test, what: str):
    """The check of the values for which ``test(value)`` is true: ``what``."""
    return lambda v: None if test(v) else ((), "expected %s, found %s" % (what, _found(v)))


def one_of(*texts):
    return leaf(texts.__contains__, "one of " + ", ".join(texts))


def _types(spec):
    """The JSON types of a spec made of types, None and tuples of them, else None."""
    if type(spec) is tuple:
        alternatives = [_types(s) for s in spec]
        return None if None in alternatives else frozenset().union(*alternatives)
    if spec is None or isinstance(spec, type):
        return frozenset((type(None) if spec is None else spec,))
    return None


def _plan(spec):
    """The check of a spec (see ``shape``), planned once, not per value."""
    types = _types(spec)
    if types is not None:
        return leaf(lambda v: type(v) in types, " or ".join(sorted(_WORDS[t] for t in types)))
    if callable(spec):  # a check already
        return spec
    if type(spec) is tuple:  # types and None, and one list or object shape
        other = _plan(next(s for s in spec if _types(s) is None))
        types = _types(tuple(s for s in spec if _types(s) is not None))
        return lambda v: None if type(v) in types else other(v)
    if type(spec) is list:
        return _members(list, enumerate, lambda i: None, _plan(spec[0]))
    if len(spec) == 1 and not isinstance(next(iter(spec)), str):
        ((key, value),) = spec.items()
        return _members(dict, dict.items, _plan(key), _plan(value))
    fields = []  # (key, the types that need no further check, check)
    for key, sub in spec.items():
        done = _types(sub) or frozenset()
        if key.endswith("?"):
            key, done = key[:-1], done | {object}  # the type of _ABSENT
        fields.append((key, done, _plan(sub)))

    def check(value):
        if type(value) is not dict:
            return (), "expected an object, found " + _found(value)
        get = value.get
        for key, done, sub in fields:
            v = get(key, _ABSENT)
            if type(v) in done:
                continue
            bad = ((), "missing") if v is _ABSENT else sub(v)
            if bad is not None:
                return (key,) + bad[0], bad[1]
        return None
    return check


def _members(kind, pairs, key_check, value_check):
    """The check of a list or an object whose members all have one shape."""
    def check(value):
        if type(value) is not kind:
            return (), "expected %s, found %s" % (_WORDS[kind], _found(value))
        for k, v in pairs(value):
            bad = key_check(k) or value_check(v)
            if bad is not None:
                return (k,) + bad[0], bad[1]
        return None
    return check


def shape(spec):
    """A check of decoded JSON: a function that returns None for a value that
    fits ``spec``, else (path, message), the keys and indexes that lead to its
    first bad part and what is wrong there. A spec is ``str``, ``int``,
    ``bool`` or None (that JSON type exactly: an integer is not ``true``); a
    tuple of types, None and at most one list or object spec; ``[s]``, a list
    of ``s``; ``{"key": s, ...}``, an object with those keys and maybe others,
    where a ``"key?"`` may be missing (which is not null); ``{k: s}`` with a
    ``k`` that is not text, an object of keys ``k`` and values ``s``; or a
    check, such as a ``leaf``."""
    planned = _plan(spec)
    planned.spec = spec
    return planned


def check(value, shape, where, error):
    """value, when it fits the shape; otherwise raise ``error`` naming
    ``where``, the JSON path of the first bad part and what is wrong there."""
    bad = shape(value)
    if bad is not None:
        path = "".join("[%r]" % k for k in bad[0])
        raise error("%s: %s%s" % (where, path + ": " if path else "", bad[1]))
    return value


def load_json(path: Path, error, shape=None):
    """The JSON document of a file. A file that is missing, not UTF-8 or not
    JSON, or whose document does not fit ``shape``, raises ``error`` naming
    the file and, for a misfit, the JSON path of the first bad part."""
    try:
        text = read_text(path, error)  # the bytes are freed once decoded
    except FileNotFoundError:
        raise error("%s not found" % path) from None
    return decode_json(text, path, error, shape)


def decode_json(text: str, path: Path, error, shape=None):
    """The JSON document of text, that of the file at path (see
    ``read_text``), checked as ``load_json`` checks it."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise error("%s: %s" % (path, exc)) from None
    return doc if shape is None else check(doc, shape, path, error)


class Workspace:
    def __init__(self, root: Path, kb_path: Path = None):
        self.root = Path(root)
        self.kb_path = Path(kb_path) if kb_path else self.root / "kb"

    @classmethod
    def discover(cls, root=None, kb_path=None) -> "Workspace":
        root = root or os.environ.get("VET_WORKSPACE") or "."
        return cls(Path(root), kb_path)

    @property
    def manifest(self) -> Path:
        return self.root / "app.json"

    @property
    def artifact_dir(self) -> Path:
        return self.root / ARTIFACT_DIR

    def artifact(self, name: str) -> Path:
        return self.artifact_dir / name

    def output(self, name: str) -> Path:
        """The path of artifact name, to be written. Refused by name while
        ``.vet`` is not a directory or something other than a regular file
        is at the path (``document``)."""
        if self.artifact_dir.exists() and not self.artifact_dir.is_dir():
            raise VetError("%s is not a directory" % self.artifact_dir)
        return document(self.artifact(name))

    def write_text(self, name: str, text: str) -> Path:
        path = self.output(name)
        write_atomic(path, (text,))
        return path

    def write_json(self, name: str, data) -> Path:
        return self.write_text(name, json_text(data))

    def read_json(self, name: str, default=None, shape=None):
        """The document of an artifact (see ``load_json``), or default if none."""
        path = self.artifact(name)
        return load_json(path, MalformedArtifact, shape) if path.is_file() else default

    def read_stamped(self, name: str, inputs: str, shape=None):
        """The document of an artifact stamped ``"inputs": inputs``, checked
        against ``shape``; None when the artifact is missing or stamped with
        other inputs."""
        data = self.read_json(name)
        if type(data) is not dict or data.get("inputs") != inputs:
            return None
        return data if shape is None else check(data, shape, self.artifact(name), MalformedArtifact)

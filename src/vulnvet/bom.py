"""Bill of materials: archives, manifest loading, transitive resolution,
read by a command through one Sources, which walks the manifests once and
parses each source root at most once in each mode: whole, or declarations
only (see jx.parser). ``scan`` inventories the declarations-only parse, its
bodies fingerprinted as the program binds them (see build_bom)."""

from __future__ import annotations

import os
from collections import deque
from pathlib import Path

from . import __version__
from .constructs import (CTYPE, Construct, ConstructId, extract_constructs, is_version,
                         member_fingerprint)
from .errors import MalformedArtifact, ManifestError, MissingDependency, UnknownArchive
from .jx import ast, parser
from .jx.errors import JxError
from .jx.parser import parse_unit
from .jx.resolver import resolve
from .workspace import (check, framed_digest, leaf, load_json, one_of, read_bytes,
                        read_text, regular_files, shape)

APPLICATION = "APPLICATION"
DEPENDENCY = "DEPENDENCY"


class Archive:
    __slots__ = ("name", "version", "kind", "constructs", "declared_deps")

    def __init__(self, name: str, version: str, kind: str, constructs=None,
                 declared_deps=None):
        self.name = name
        self.version = version
        self.kind = kind
        self.constructs = {} if constructs is None else constructs  # ConstructId -> Construct
        self.declared_deps = [] if declared_deps is None else declared_deps  # [(name, version)]


class BOM:
    __slots__ = ("application", "dependencies", "warnings")

    def __init__(self, application: Archive, dependencies: list, warnings=None):
        self.application = application
        self.dependencies = dependencies  # [(Archive, depth)] in resolution order
        self.warnings = [] if warnings is None else warnings

    def archives(self):
        """(archive, depth) pairs, application first with depth 0."""
        yield self.application, 0
        for arc, depth in self.dependencies:
            yield arc, depth

    def dependency(self, name: str) -> tuple:
        """(archive, depth) of the dependency called name, even when the
        application has that name too; UnknownArchive unless there is one."""
        for arc, depth in self.dependencies:
            if arc.name == name:
                return arc, depth
        raise UnknownArchive("%s is not in the application's dependency tree" % name)


def source_files(root: Path, origin_base: Path = None) -> list:
    """(origin, path) of every regular .jx file under root, in parse order
    (a directory named ``x.jx`` is not one). Origins
    are paths relative to origin_base (default: root itself), keeping
    artifacts free of absolute paths and so byte-stable across checkout
    locations."""
    if not root.is_dir():
        raise ManifestError("source root %s does not exist" % root)
    base = origin_base if origin_base is not None else root
    prefix = Path(os.path.relpath(root, base))
    return [((prefix / path.relative_to(root)).as_posix(), path)
            for path in regular_files(root, "**/*.jx")]


def parse_source_root(root: Path, origin_base: Path = None, bodies: bool = True) -> list:
    """Parse every .jx file under root (see source_files), member bodies
    only if ``bodies`` (see jx.parser)."""
    return [parse_unit(read_text(path, JxError), origin, bodies)
            for origin, path in source_files(Path(root), origin_base)]


def extract_root(root: Path) -> dict:
    """Parse and inventory one source root: its constructs do not depend on
    the rest of the workspace (repackaging robustness)."""
    return extract_constructs(parse_source_root(root))


VERSION = leaf(is_version, "a dot-separated numeric version")
_MANIFEST = shape({"name": str, "version": VERSION, "sourceRoot": str,
                   "dependencies?": [{"name": str, "version": VERSION}]})


def resolve_dependencies(workspace: Path, root_deps) -> tuple:
    """Breadth-first transitive resolution over the manifests of the library
    store, nearest version winning on name conflicts (ties: first declared).

    Returns ([(lib.json path, manifest data, depth)] in resolution order,
    conflict warnings). Raises MissingDependency for a (name, version) absent
    from the store and ManifestError for a malformed manifest.
    """
    resolved = {}  # name -> (manifest data, depth)
    order = []
    warnings = []
    queue = deque((name, version, 1) for name, version in root_deps)
    while queue:
        name, version, depth = queue.popleft()
        if name in resolved:
            kept, kept_depth = resolved[name]
            if kept["version"] != version:
                warnings.append(
                    "version conflict for %s: keeping %s (depth %d), dropping %s (depth %d)"
                    % (name, kept["version"], kept_depth, version, depth))
            continue
        lib_dir = workspace / "libs" / name / version
        lib_manifest = lib_dir / "lib.json"
        if not lib_manifest.is_file():
            raise MissingDependency(name, version)
        data = load_json(lib_manifest, ManifestError, _MANIFEST)
        resolved[name] = (data, depth)
        order.append((lib_manifest, data, depth))
        queue.extend((dep, version, depth + 1) for dep, version in _declared_deps(data))
    return order, warnings


def _declared_deps(data: dict) -> list:
    return [(d["name"], d["version"]) for d in data.get("dependencies", [])]


class Sources:
    """The manifests of a workspace, walked once, and its source roots, each
    parsed at most once. ``archives`` holds the manifest path, manifest
    data, source root and depth of the application and of every archive
    resolve_dependencies finds, in resolution order; ``warnings`` the
    conflict warnings. A source root is made absolute without following
    symlinks, so origins are paths under the workspace as it is spelled."""

    def __init__(self, manifest: Path, workspace: Path):
        manifest, self.workspace = Path(manifest), Path(workspace)
        app = load_json(manifest, ManifestError, _MANIFEST)
        resolved, self.warnings = resolve_dependencies(self.workspace, _declared_deps(app))
        self.archives = [(path, data, Path(os.path.abspath(path.parent / data["sourceRoot"])),
                          depth) for path, data, depth in [(manifest, app, 0)] + resolved]
        self._units = {}  # (source root, bodies) -> its parsed units

    def units(self, root: Path, bodies: bool = True) -> list:
        """The units of one source root, origins relative to the workspace,
        member bodies only if ``bodies`` (see jx.parser)."""
        key = root, bodies
        if key not in self._units:
            self._units[key] = parse_source_root(root, self.workspace, bodies)
        return self._units[key]


def build_bom(src: Sources, fingerprints=None) -> BOM:
    """Build the BOM: the application plus every archive of its resolved
    transitive dependency closure, each inventoried on its own (see extract_root).

    ``fingerprints`` maps member declarations of the declarations-only
    parse, which corpus_program(src, False) resolved, to the fingerprints
    of the bodies its program bound (see member_fingerprint). The
    inventories are then of that parse. Each other body in it, of a
    declaration the program does not hold (shadowed, or a duplicate), is
    parsed and lowered here; so every body is parsed once, none is kept,
    and no parse error goes unmet."""
    bodies = fingerprints is None
    if not bodies:
        fingerprints = {**fingerprints, **{
            m: member_fingerprint(m) for _, _, root, _ in src.archives
            for m in _skipped_bodies(src.units(root, False)) if m not in fingerprints}}
    archives = [(Archive(data["name"], data["version"], DEPENDENCY if depth else APPLICATION,
                         extract_constructs(src.units(root, bodies), fingerprints),
                         _declared_deps(data)),
                 depth)
                for _, data, root, depth in src.archives]
    return BOM(archives[0][0], archives[1:], src.warnings)


def _skipped_bodies(units) -> list:
    """The methods and constructors of units whose bodies the parser skipped."""
    return [m for u in units for d in u.decls if isinstance(d, ast.ClassDecl)
            for m in (*d.ctors, *d.methods) if isinstance(m.body, ast.Unparsed)]


def input_digest(src: Sources) -> str:
    """SHA-256 over everything build_bom reads: app.json and each lib.json it
    resolves, in resolution order, and every source file of their source
    roots (see source_files), each as its workspace-relative path, encoded
    as the file system spells it (os.fsencode: a UTF-8 name gives its UTF-8
    bytes, and any other name its own), and its bytes; and over the vet
    version and the nesting bound, which change what a build of the same
    files yields. Every part is length-prefixed (see
    workspace.framed_digest). A BOM or call graph stamped with the digest of
    the current inputs is the one a build would make now."""
    def parts():
        yield from (__version__.encode(), str(parser.MAX_NESTING).encode())
        for path, _, root, _ in src.archives:
            yield from (os.fsencode(Path(os.path.relpath(path, src.workspace)).as_posix()),
                        read_bytes(path))
            for origin, source in source_files(root, src.workspace):
                yield from (os.fsencode(origin), read_bytes(source))
    return framed_digest(parts())


def corpus_program(src: Sources, bodies: bool = True):
    """Resolve the declarations of the source roots build_bom reads as one
    closed unit set, archives nearest the application winning duplicate
    qualified names (classpath-first). With ``bodies`` False a body is parsed
    only when the program binds it, so no parse error in a body never bound
    is reported: only for sources a whole parse has accepted, or where every
    body is then parsed (see build_bom)."""
    roots = [(src.units(root, bodies), depth) for _, _, root, depth in src.archives]
    return resolve([u for units, _ in roots for u in units],
                   {u.origin: depth for units, depth in roots for u in units})


def bom_to_json(bom: BOM) -> dict:
    archives = []
    for arc, depth in bom.archives():
        archives.append({
            "name": arc.name,
            "version": arc.version,
            "kind": arc.kind,
            "depth": depth,
            "constructs": [{"ctype": cid.ctype, "qname": cid.qname,
                            "fingerprint": arc.constructs[cid].fingerprint}
                           for cid in sorted(arc.constructs)],
            "declaredDependencies": [{"name": n, "version": v}
                                     for n, v in arc.declared_deps],
        })
    return {"archives": archives, "resolutionWarnings": sorted(bom.warnings)}


# what bom_to_json writes, but for the order of the archives
_BOM = shape({"archives": [{"name": str, "version": str,
                            "kind": one_of(APPLICATION, DEPENDENCY), "depth": int,
                            "constructs": [{"ctype": CTYPE, "qname": str,
                                            "fingerprint": (None, str)}],
                            "declaredDependencies": [{"name": str, "version": str}]}],
              "resolutionWarnings": [str]})


def bom_from_json(data, artifact: str) -> BOM:
    """Inverse of bom_to_json for the analyses that need no parse trees: the
    archives carry their construct ids, fingerprints and declared
    dependencies, but no units or bodies. Raises
    MalformedArtifact, naming the artifact, for anything bom_to_json does
    not write."""
    check(data, _BOM, artifact, MalformedArtifact)
    order = [(a["kind"], a["depth"] > 0) for a in data["archives"]]
    if order != [(APPLICATION, False)] + [(DEPENDENCY, True)] * (len(order) - 1):
        raise MalformedArtifact("%s: ['archives']: expected the application first, at depth 0, "
                                "then dependencies, deeper" % artifact)
    names = [a["name"] for a in data["archives"][1:]]
    if len(set(names)) < len(names):
        raise MalformedArtifact("%s: ['archives']: expected each dependency name once" % artifact)
    archives = []
    for i, a in enumerate(data["archives"]):
        constructs = {ConstructId(e["ctype"], e["qname"]): Construct(e["fingerprint"], None)
                      for e in a["constructs"]}
        if len(constructs) < len(a["constructs"]):
            raise MalformedArtifact("%s: ['archives'][%d]['constructs']: expected each "
                                    "construct id once" % (artifact, i))
        deps = [(d["name"], d["version"]) for d in a["declaredDependencies"]]
        archives.append((Archive(a["name"], a["version"], a["kind"], constructs, deps),
                         a["depth"]))
    return BOM(archives[0][0], archives[1:], data["resolutionWarnings"])

"""Bill of materials: archives, manifest loading, transitive resolution."""

from __future__ import annotations

import json
import os
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .constructs import extract_constructs, version_key
from .errors import ManifestError, MissingDependency
from .jx import parse_unit, resolve

APPLICATION = "APPLICATION"
DEPENDENCY = "DEPENDENCY"


@dataclass
class Archive:
    name: str
    version: str
    kind: str
    source_root: Path
    units: list = field(default_factory=list)
    constructs: dict = field(default_factory=dict)  # ConstructId -> Construct
    declared_deps: list = field(default_factory=list)  # [(name, version)]

    def construct_ids(self) -> set:
        return set(self.constructs)


@dataclass
class BOM:
    application: Archive
    dependencies: list  # [(Archive, depth)] in resolution order
    warnings: list = field(default_factory=list)

    def archives(self):
        """(archive, depth) pairs, application first with depth 0."""
        yield self.application, 0
        for arc, depth in self.dependencies:
            yield arc, depth

    def archive_named(self, name: str) -> Optional[Archive]:
        for arc, _ in self.archives():
            if arc.name == name:
                return arc
        return None

    def depth_of(self, name: str) -> Optional[int]:
        for arc, depth in self.archives():
            if arc.name == name:
                return depth
        return None


def parse_source_root(root: Path, origin_base: Path = None) -> list:
    """Parse every .jx file under root. Unit origins are paths relative to
    origin_base (default: root itself), keeping artifacts free of absolute
    paths and so byte-stable across checkout locations."""
    base = origin_base if origin_base is not None else root
    units = []
    for path in sorted(root.rglob("*.jx")):
        origin = Path(os.path.relpath(path, base)).as_posix()
        units.append(parse_unit(path.read_text(encoding="utf-8"), origin))
    return units


def load_archive(name: str, version: str, kind: str, source_root: Path,
                 declared_deps=None, origin_base: Path = None) -> Archive:
    """Parse and inventory one archive. Extraction is per-archive: the archive
    is resolved on its own, so its constructs do not depend on the rest of the
    workspace (repackaging robustness)."""
    if not source_root.is_dir():
        raise ManifestError("source root %s does not exist" % source_root)
    units = parse_source_root(source_root, origin_base)
    program = resolve(units)  # cross-archive references stay unbound here; fine
    arc = Archive(name, version, kind, source_root, units=units,
                  declared_deps=list(declared_deps or []))
    arc.constructs = extract_constructs(program)
    return arc


def _read_manifest(path: Path) -> dict:
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ManifestError("manifest %s not found" % path)
    except json.JSONDecodeError as exc:
        raise ManifestError("manifest %s: %s" % (path, exc))
    if not isinstance(data, dict):
        raise ManifestError("manifest %s: not a JSON object" % path)
    for key in ("name", "version", "sourceRoot"):
        if key not in data:
            raise ManifestError("manifest %s: missing %r" % (path, key))
        if not isinstance(data[key], str):
            raise ManifestError("manifest %s: %r must be text" % (path, key))
    _check_version(path, data["version"])
    deps = data.get("dependencies", [])
    if not isinstance(deps, list):
        raise ManifestError("manifest %s: dependencies must be a list" % path)
    for d in deps:
        if not isinstance(d, dict) or not isinstance(d.get("name"), str) \
                or not isinstance(d.get("version"), str):
            raise ManifestError("manifest %s: dependency entries need name and "
                                "version as text" % path)
        _check_version(path, d["version"])
    return data


def _check_version(path: Path, version: str):
    """Versions are compared as dot-separated numbers (version ranges,
    update candidates), so any other form is rejected where it is read."""
    try:
        version_key(version)
    except ValueError as exc:
        raise ManifestError("manifest %s: %s" % (path, exc)) from None


def resolve_dependencies(workspace: Path, root_deps) -> tuple:
    """Breadth-first transitive resolution over the manifests of the library
    store, nearest version winning on name conflicts (ties: first declared).

    Returns ([(library dir, manifest data, depth)] in resolution order,
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
        data = _read_manifest(lib_manifest)
        resolved[name] = (data, depth)
        order.append((lib_dir, data, depth))
        for d in data.get("dependencies", []):
            queue.append((d["name"], d["version"], depth + 1))
    return order, warnings


def _declared_deps(data: dict) -> list:
    return [(d["name"], d["version"]) for d in data.get("dependencies", [])]


def build_bom(manifest: Path, workspace: Path) -> BOM:
    """Build the BOM: the application plus every archive of its resolved
    transitive dependency closure (see resolve_dependencies)."""
    manifest = Path(manifest)
    workspace = Path(workspace)
    app_data = _read_manifest(manifest)
    app = load_archive(app_data["name"], app_data["version"], APPLICATION,
                       (manifest.parent / app_data["sourceRoot"]).resolve(),
                       _declared_deps(app_data), origin_base=workspace)
    resolved, warnings = resolve_dependencies(workspace, app.declared_deps)
    dependencies = [(load_archive(data["name"], data["version"], DEPENDENCY,
                                  (lib_dir / data["sourceRoot"]).resolve(),
                                  _declared_deps(data), origin_base=workspace), depth)
                    for lib_dir, data, depth in resolved]
    return BOM(app, dependencies, warnings)


def corpus_program(bom: BOM):
    """Resolve the whole BOM corpus as one closed unit set. Archives nearest
    the application win duplicate qualified names (classpath-first)."""
    units = []
    precedence = {}
    for arc, depth in bom.archives():
        for u in arc.units:
            units.append(u)
            precedence[u.origin] = depth
    return resolve(units, precedence)


def bom_to_json(bom: BOM) -> dict:
    archives = []
    for arc, depth in bom.archives():
        counts = {}
        entries = []
        for cid in sorted(arc.constructs):
            counts[cid.ctype] = counts.get(cid.ctype, 0) + 1
            c = arc.constructs[cid]
            entries.append({"ctype": cid.ctype, "qname": cid.qname,
                            "fingerprint": c.fingerprint})
        archives.append({
            "name": arc.name,
            "version": arc.version,
            "kind": arc.kind,
            "depth": depth,
            "constructCounts": counts,
            "constructs": entries,
        })
    return {"archives": archives, "resolutionWarnings": sorted(bom.warnings)}

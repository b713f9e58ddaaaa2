"""Touch points and the four update metrics (CS, DE, RBS, OBS).

Callee stability and development effort are defined over the touch points of
a directly used dependency; the body stability metrics compare construct
inventories (identifier and fingerprint) and also apply to transitive
dependencies and frameworks. Ranking and deep-update advice take a library's
index and its screened versions from the caller.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple, Optional

from .bom import resolve_dependencies
from .constructs import CALLABLE_CTYPES, is_version, version_key, version_newer
from .errors import EmptyConstructSet, MissingDependency, NoCandidates, UnknownLibrary
from .kb import LibraryIndex


class Ratio(NamedTuple):
    num: int
    den: int

    @property
    def value(self) -> float:
        return self.num / self.den

    def __str__(self):
        return "%d/%d" % (self.num, self.den)


class TouchPoint:
    __slots__ = ("app_construct", "lib_callee", "sites")

    def __init__(self, app_construct, lib_callee, sites=None):
        self.app_construct = app_construct  # ConstructId in the application
        self.lib_callee = lib_callee        # ConstructId in the library
        self.sites = [] if sites is None else sites


class UpdateMetrics:
    __slots__ = ("candidate", "cs", "de", "rbs", "obs")

    def __init__(self, candidate: str, cs: Optional[Ratio], de: Optional[int], rbs: Ratio,
                 obs: Ratio):
        self.candidate = candidate
        self.cs = cs  # None when not applicable (no direct touch points)
        self.de = de
        self.rbs = rbs
        self.obs = obs


def touch_points(bom, graph, traces, lib: str) -> list:
    """Direct application-to-library call pairs with per-callee site lists,
    from the call graph's edges and the trace log's events."""
    arc, _ = bom.dependency(lib)
    app_ids = {cid for cid in bom.application.constructs if cid.ctype in CALLABLE_CTYPES}
    lib_ids = {cid for cid in arc.constructs if cid.ctype in CALLABLE_CTYPES}
    points = {}

    def touch(caller, callee, site):
        tp = points.get((caller, callee))
        if tp is None:
            tp = points[(caller, callee)] = TouchPoint(caller, callee)
        if site is not None and site not in tp.sites:
            tp.sites.append(site)

    for e in graph.edges:
        if e.caller in app_ids and e.callee in lib_ids:
            touch(e.caller, e.callee, e.site)
    for ev in traces.events:
        if ev.caller in app_ids and ev.callee in lib_ids:
            touch(ev.caller, ev.callee, ev.site)
    out = [points[k] for k in sorted(points)]
    for tp in out:
        tp.sites.sort()
    return out


def _candidate_ids(index: LibraryIndex, candidate: str) -> dict:
    if candidate not in index.versions:
        raise UnknownLibrary("%s has no indexed version %s" % (index.name, candidate))
    return index.versions[candidate]


def callee_stability(tps: list, candidate: str, index: LibraryIndex) -> Ratio:
    """Fraction of distinct callees whose identifier exists in the candidate;
    tps must not be empty."""
    ids = _candidate_ids(index, candidate)
    callees = sorted({tp.lib_callee for tp in tps})
    present = sum(1 for c in callees if c in ids)
    return Ratio(present, len(callees))


def development_effort(tps: list, candidate: str, index: LibraryIndex) -> int:
    """Number of application call sites whose callee is absent from the
    candidate; every site of a missing callee counts."""
    ids = _candidate_ids(index, candidate)
    missing_sites = set()
    for tp in tps:
        if tp.lib_callee not in ids:
            for site in tp.sites:
                missing_sites.add((tp.app_construct, tp.lib_callee, site))
    return len(missing_sites)


def body_stability(construct_set, candidate: str, index: LibraryIndex) -> Ratio:
    """Share of (id, fingerprint) pairs contained as-is in the candidate.

    Pass the reachable share of the library for RBS, or its full inventory
    for OBS; only METHOD/CONSTRUCTOR constructs count.
    """
    pairs = {(cid, fp) for cid, fp in construct_set if cid.ctype in CALLABLE_CTYPES}
    if not pairs:
        raise EmptyConstructSet("body stability needs a non-empty construct set")
    ids = _candidate_ids(index, candidate)
    kept = sum(1 for cid, fp in pairs if ids.get(cid) == fp)
    return Ratio(kept, len(pairs))


def recommend(lib: str, bom, index: LibraryIndex, safe, graph, traces,
              reached_union) -> list:
    """Rank every version of safe, lib's non-vulnerable indexed versions,
    that is newer than the one in use.

    reached_union: the overall reachable construct set (static, dynamic, and
    combined). For transitive dependencies and frameworks without direct
    touch points, CS/DE are not applicable and only RBS/OBS are emitted.
    Rows sorted by (cs desc, de asc, rbs desc, obs desc, version desc).
    """
    arc, depth = bom.dependency(lib)
    candidates = [v for v in safe if version_newer(v, arc.version)]
    if not candidates:
        raise NoCandidates("no newer non-vulnerable version of %s" % lib)

    tps = touch_points(bom, graph, traces, lib) if depth == 1 else []
    all_pairs = {(cid, c.fingerprint) for cid, c in arc.constructs.items()
                 if cid.ctype in CALLABLE_CTYPES}
    reach_pairs = {(cid, fp) for cid, fp in all_pairs if cid in reached_union}

    rows = []
    for v in candidates:
        cs = callee_stability(tps, v, index) if tps else None
        de = development_effort(tps, v, index) if tps else None
        rbs = (body_stability(reach_pairs, v, index) if reach_pairs
               else body_stability(all_pairs, v, index))
        obs = body_stability(all_pairs, v, index)
        rows.append(UpdateMetrics(v, cs, de, rbs, obs))
    rows.sort(key=lambda r: (-(r.cs.value if r.cs else 0.0),
                             r.de if r.de is not None else 0,
                             -r.rbs.value, -r.obs.value,
                             tuple(-p for p in version_key(r.candidate))))
    return rows


def metrics_csv(rows: list) -> str:
    lines = ["version,cs_num,cs_den,de,rbs_num,rbs_den,obs_num,obs_den"]
    for r in rows:
        lines.append("%s,%s,%s,%s,%d,%d,%d,%d" % (
            r.candidate,
            r.cs.num if r.cs else "", r.cs.den if r.cs else "",
            r.de if r.de is not None else "",
            r.rbs.num, r.rbs.den, r.obs.num, r.obs.den))
    return "\n".join(lines) + "\n"


def metrics_to_json(rows: list) -> list:
    out = []
    for r in rows:
        out.append({
            "candidate": r.candidate,
            "cs": {"num": r.cs.num, "den": r.cs.den} if r.cs else None,
            "de": r.de,
            "rbs": {"num": r.rbs.num, "den": r.rbs.den},
            "obs": {"num": r.obs.num, "den": r.obs.den},
        })
    return out


def deep_update_advice(workspace: Path, bom, safe, lib: str) -> list:
    """For a vulnerable transitive dependency, name newer versions of the
    direct dependency that pull in one of safe, lib's non-vulnerable
    versions, compared as version_key compares them."""
    workspace = Path(workspace)
    if bom.dependency(lib)[1] == 1:
        return []
    safe_keys = {version_key(v) for v in safe}
    notes = []
    for direct_name, _v in bom.application.declared_deps:
        current, _ = bom.dependency(direct_name)
        # a directory whose name is not a version is not a release: never a candidate
        releases = [p.name for p in (workspace / "libs" / direct_name).iterdir()
                    if p.is_dir() and is_version(p.name)]
        for vdir in sorted(releases, key=version_key):
            if not version_newer(vdir, current.version):
                continue
            try:
                closure, _ = resolve_dependencies(workspace, [(direct_name, vdir)])
            except MissingDependency:
                continue  # this version cannot be installed from the store
            versions = {data["name"]: data["version"] for _, data, _ in closure}
            if lib in versions and version_key(versions[lib]) in safe_keys:
                notes.append("updating direct dependency %s to %s pulls in "
                             "non-vulnerable %s:%s"
                             % (direct_name, vdir, lib, versions[lib]))
    return notes

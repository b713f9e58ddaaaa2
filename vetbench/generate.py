"""Seeded generator of synthetic vet workspaces with known answers.

``generate(root, name, seed)`` writes, under ``root``:

* ``ws/``        the workspace vet runs in: ``app.json``, ``src/app/*.jx`` and
                 a library store ``libs/l<i>/1.0/`` holding a dependency
                 chain app -> l0 -> l1 -> ... -> l<n-1>;
* ``fixes/``     pre-fix and post-fix source trees, one pair per KB record;
* ``versions/``  newer releases of ``l0``, indexed for ``vet mitigate``;
* ``answers.json`` the set-up and pass command lines with their expected exit
                 codes, and every answer the checker compares vet's output
                 with. Each answer follows from how the code was generated,
                 never from running vet.

The same (workload, seed) gives byte-identical files. Only Python's own
``random.Random`` seeded with a string is used, which does not depend on
hash randomisation.

Planted vulnerabilities live in the deepest library ``l<n-1>``:

* ``VulnS`` is reached statically (``app.Main.serve`` -> ``Chain`` through
  every library) and never executed, so its evidence is STATIC;
* ``VulnD`` is called by a test, so its evidence is DYNAMIC;
* ``VulnC`` is called only from ``Gate.open``, which a test reaches through
  ``Reflect.invoke`` with an argument that skips the call: COMBINED;
* ``VulnN`` is never called: NONE;
* ``VulnF`` is the post-fix body, so its verdict is FIXED;
* ``DriftV<k>``/``DriftF<k>`` are bodies two literals away from one side of a
  fix that inserts a 9-node guard statement, so tree edit distance (at most
  2 to the near side, at least 9 to the far side) decides
  CLOSER_TO_VULNERABLE or CLOSER_TO_FIXED.

Knowledge-base noise records describe packages no archive contains.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass(frozen=True)
class Spec:
    libs: int           # libraries in the dependency chain (>= 2)
    classes: int        # filler classes per library
    methods: int        # static methods per filler class
    stmts: int          # statement groups per filler method
    fanout: int         # Handler implementations per library (CHA fan-out)
    tests: int          # zero-argument tests per trace prefix (>= 2)
    loop: tuple         # (low, high) loop iterations of a test, in rotation
    noise: int          # KB records that match no archive
    drifted: int        # matched records decided by tree edit distance
    drift_stmts: int    # statement groups of a drifted body


WORKLOADS = {
    # A deep chain of mid-sized libraries with interface fan-out and
    # reflection. Matched KB records are digest-equal but for one tiny drifted
    # body, so TED does next to no work (yet its time is measured, not 0).
    "corpus": Spec(libs=11, classes=4, methods=6, stmts=8, fanout=4,
                   tests=3, loop=(3, 6), noise=4, drifted=1,
                   drift_stmts=0),
    # A small application and a large knowledge base: ~2% of the records
    # match, and the drifted matches make TED run on large bodies.
    "kb-drift": Spec(libs=3, classes=2, methods=4, stmts=6, fanout=2,
                     tests=3, loop=(3, 6), noise=400,
                     drifted=2, drift_stmts=9),
    # 120 tests of ~100 trace events each, some reflective: the interpreter
    # and trace merging, whose cost grows with the square of the tests.
    "trace-heavy": Spec(libs=4, classes=3, methods=5, stmts=6, fanout=3,
                        tests=60, loop=(17, 21), noise=4,
                        drifted=1, drift_stmts=0),
}

API_METHODS = 4       # l0.Api methods the application calls directly
API_A0_SITES = 3      # call sites of l0.Api.a0, the method l0 2.1 removes
IMPORTS_PER_PASS = 3  # kb import-fix --overwrite invocations per pass
PATTERNS = ("testA", "testB")
MITIGATE_LIB = "l0"
RANGE_ID = "RANGE-L0"

# Events one loop iteration of a test adds, per call shape (see _trace_lib).
_SHAPES = {
    "run": ("l%d.Step.run(i);", 3),
    "wide": ("l%d.Step.wide(i);", 5),
    "refl": ('Reflect.invoke("l%d.Step.refl(int)", i);', 2),
}
# Loop bodies of the tests, in rotation: 3, 5, 5 and 8 events per iteration.
_TEST_SHAPES = (("run",), ("wide",), ("run", "refl"), ("wide", "run"))


class _Body:
    """Emitter for one method body over int locals."""

    def __init__(self, rng: random.Random, param: str = "x"):
        self.rng = rng
        self.vars = [param]
        self.lines = []
        self.lits = []  # (line index, literal) of every relabelable literal
        self.n = 0
        self.groups = 0

    def _new(self) -> str:
        name = "v%d" % self.n
        self.n += 1
        return name

    def _pick(self) -> str:
        return self.rng.choice(self.vars)

    def arith(self):
        v, lit = self._new(), self.rng.randint(2, 9)
        self.lits.append((len(self.lines), lit))
        self.lines.append("int %s = %s * %d + %s;" % (v, self._pick(), lit, self._pick()))
        self.vars.append(v)

    def branch(self):
        a, b, k = self._pick(), self._pick(), self.rng.randint(10, 99)
        self.lines += ["if (%s > %d) {" % (a, k), "    %s = %s - %d;" % (a, a, k),
                       "} else {", "    %s = %s + 1;" % (b, b), "}"]

    def loop(self):
        i, a = "i%d" % self.n, self._pick()
        self.n += 1
        self.lines += ["int %s = 0;" % i, "while (%s < %d) {" % (i, self.rng.randint(2, 4)),
                       "    %s = %s + %s;" % (a, a, i), "    %s = %s + 1;" % (i, i), "}"]

    def call(self, callee: str):
        v = self._new()
        self.lines.append("int %s = %s(%s);" % (v, callee, self._pick()))
        self.vars.append(v)

    def virtual(self, pkg: str, impl: int):
        h, v = "h%d" % self.n, self._new()
        self.lines += ["%s.Handler %s = new %s.H%d();" % (pkg, h, pkg, impl),
                       "int %s = %s.handle(%s);" % (v, h, self._pick())]
        self.vars.append(v)

    def reflect(self, target: str):
        self.lines.append('Reflect.invoke("%s", %s);' % (target, self._pick()))

    def plain(self, groups: int):
        """Call-free statement groups, safe to execute. Their kinds follow a
        fixed rotation, so a body's tree shape does not depend on the seed."""
        for _ in range(groups):
            (self.arith, self.branch, self.arith, self.loop)[self.groups % 4]()
            self.groups += 1

    def relabeled(self, count: int) -> list:
        """Lines with `count` distinct multiplication literals incremented."""
        lines = list(self.lines)
        for idx, lit in self.rng.sample(self.lits, count):
            lines[idx] = lines[idx].replace(" * %d + " % lit, " * %d + " % (lit + 1), 1)
        return lines

    def ret(self) -> str:
        return "return %s + %s;" % (self.vars[-1], self._pick())


def _method(header: str, lines: list, indent: str = "    ") -> str:
    inner = "".join("%s    %s\n" % (indent, line) for line in lines)
    return "%s%s {\n%s%s}\n" % (indent, header, inner, indent)


def _unit(pkg: str, body: str) -> str:
    return "package %s;\n\n%s" % (pkg, body)


def _class(name: str, members: list, extra: str = "") -> str:
    return "class %s%s {\n%s}\n" % (name, extra, "\n".join(members))


class _Tree:
    """Collects files relative to one output root, written in sorted order."""

    def __init__(self):
        self.files = {}

    def put(self, path: str, text: str):
        if path in self.files:
            raise ValueError("generated twice: %s" % path)
        self.files[path] = text

    def write(self, root: Path):
        for path in sorted(self.files):
            out = root / path
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(self.files[path], encoding="utf-8")


def _guards(rng: random.Random, count: int) -> list:
    return ["if (x < 0 - %d) {" % rng.randint(100, 999) + " x = 0; }"
            for _ in range(count)]


def _fix_pair(tree: _Tree, vid: str, pkg: str, cls: str, before: list, after: list):
    for side, lines in (("before", before), ("after", after)):
        tree.put("fixes/%s/%s/%s/%s.jx" % (vid, side, pkg, cls),
                 _unit(pkg, _class(cls, [_method("static int run(int x)", lines)])))


def _vuln_class(rng, groups: int):
    """(before lines, after lines) of a call-free vulnerable method."""
    body = _Body(rng)
    body.plain(groups)
    before = body.lines + [body.ret()]
    return before, _guards(rng, 4) + before


def _callee(rng, spec: Spec, pkg: str, nxt, j: int, k: int):
    """A static callee that sorts before method W<j>.m<k>, or sits in the next
    library, so the static call graph stays acyclic."""
    if nxt and (rng.random() < 0.5 or not (j or k)):
        return "%s.W%d.m%d" % (nxt, rng.randrange(spec.classes), rng.randrange(spec.methods))
    if k:
        return "%s.W%d.m%d" % (pkg, j, rng.randrange(k))
    if j:
        return "%s.W%d.m%d" % (pkg, rng.randrange(j), rng.randrange(spec.methods))
    return None


def _filler_lib(tree, rng, spec: Spec, i: int, pkg_dir: str):
    pkg = "l%d" % i
    nxt = "l%d" % (i + 1) if i + 1 < spec.libs else None
    tree.put(pkg_dir + "/Handler.jx",
             _unit(pkg, "interface Handler {\n    int handle(int x);\n}\n"))
    for f in range(spec.fanout):
        body = _Body(rng)
        body.plain(2)
        tree.put(pkg_dir + "/H%d.jx" % f, _unit(pkg, _class(
            "H%d" % f, [_method("int handle(int x)", body.lines + [body.ret()])],
            " implements %s.Handler" % pkg)))
    for j in range(spec.classes):
        methods = []
        for k in range(spec.methods):
            body = _Body(rng)
            for s in range(spec.stmts):
                callee = _callee(rng, spec, pkg, nxt, j, k) if s % 8 == 3 else None
                if callee:
                    body.call(callee)
                elif s % 8 == 6:
                    body.virtual(pkg, rng.randrange(spec.fanout))
                else:
                    body.plain(1)
            if k == 0:  # one reflective call per class
                body.reflect("%s.W%d.m%d(int)" % (nxt or pkg, rng.randrange(spec.classes),
                                                  rng.randrange(spec.methods)))
            methods.append(_method("static int m%d(int x)" % k, body.lines + [body.ret()]))
        tree.put(pkg_dir + "/W%d.jx" % j, _unit(pkg, _class("W%d" % j, methods)))
    last = "return %s.Chain.f(y);" % nxt if nxt else "return l%d.VulnS.run(y);" % i
    tree.put(pkg_dir + "/Chain.jx", _unit(pkg, _class("Chain", [_method(
        "static int f(int x)", ["int y = x + %d;" % rng.randint(1, 9), last])])))


def _api_methods(skip_a0: bool = False) -> str:
    methods = []
    for a in range(API_METHODS):
        if skip_a0 and a == 0:
            continue
        methods.append(_method("static int a%d(int x)" % a,
                               ["return x * %d;" % (a + 2)]))
    return _unit("l0", _class("Api", methods))


def _trace_lib(tree, pkg_dir: str, d: int):
    pkg = "l%d" % d
    leaf = [_method("static int a(int v)", ["return v + 1;"]),
            _method("static int b(int v)", ["return v * 2;"])]
    tree.put(pkg_dir + "/Leaf.jx", _unit(pkg, _class("Leaf", leaf)))
    step = [
        _method("static int run(int v)", ["int s = %s.Leaf.a(v);" % pkg,
                                          "s = s + %s.Leaf.b(s);" % pkg, "return s;"]),
        _method("static int wide(int v)", ["int s = %s.Leaf.a(v);" % pkg,
                                           "s = s + %s.Leaf.b(s);" % pkg,
                                           "s = s + %s.Leaf.a(s);" % pkg,
                                           "s = s + %s.Leaf.b(v);" % pkg, "return s;"]),
        _method("static int refl(int v)", ["return %s.Leaf.a(v);" % pkg]),
    ]
    tree.put(pkg_dir + "/Step.jx", _unit(pkg, _class("Step", step)))
    tree.put(pkg_dir + "/Gate.jx", _unit(pkg, _class("Gate", [_method(
        "static int open(int m)", ["if (m == 1) {", "    %s.VulnC.run(m);" % pkg, "}",
                                   "return m;"])])))


def _lib_manifest(i: int, spec: Spec) -> str:
    deps = ([{"name": "l%d" % (i + 1), "version": "1.0"}]
            if i + 1 < spec.libs else [])
    return json.dumps({"name": "l%d" % i, "version": "1.0", "sourceRoot": "src",
                       "dependencies": deps}, indent=2, sort_keys=True) + "\n"


def generate(root: Path, name: str, seed: int, spec: Spec = None) -> dict:
    """Write the workload's files under root and return its answers."""
    spec = spec or WORKLOADS[name]
    if spec.libs < 2 or spec.tests < 2:
        raise ValueError("a workload needs at least 2 libraries and 2 tests per prefix")
    rng = random.Random("vetbench/%s/%d" % (name, seed))
    root = Path(root)
    tree = _Tree()
    d = spec.libs - 1
    deep = "l%d" % d
    deep_dir = "ws/libs/%s/1.0/src/%s" % (deep, deep)

    app = {"name": "app-%s" % name, "version": "1.0", "sourceRoot": "src",
           "dependencies": [{"name": "l0", "version": "1.0"}]}
    tree.put("ws/app.json", json.dumps(app, indent=2, sort_keys=True) + "\n")
    for i in range(spec.libs):
        tree.put("ws/libs/l%d/1.0/lib.json" % i, _lib_manifest(i, spec))
        _filler_lib(tree, rng, spec, i, "ws/libs/l%d/1.0/src/l%d" % (i, i))
    tree.put("ws/libs/l0/1.0/src/l0/Api.jx", _api_methods())
    _trace_lib(tree, deep_dir, d)

    # --- knowledge base records and the library bodies they match ---
    records = []        # ids of the records imported from fixes/<id>/
    verdicts = {}       # "vuln|archive|version" -> verdict
    classifications = {}  # "vuln|qname" -> classification verdict
    evidence = {}       # vuln id -> evidence level in the report
    planted = {}        # qname -> {"static": bool, "combined": bool}

    def plant(vid, cls, level, lib_side, reached_static, reached_combined):
        before, after = _vuln_class(rng, 4)
        _fix_pair(tree, vid, deep, cls, before, after)
        lines = before if lib_side == "before" else after
        tree.put("%s/%s.jx" % (deep_dir, cls),
                 _unit(deep, _class(cls, [_method("static int run(int x)", lines)])))
        records.append(vid)
        verdicts["%s|%s|1.0" % (vid, deep)] = "VULNERABLE" if lib_side == "before" else "FIXED"
        qname = "%s.%s.run(int)" % (deep, cls)
        classifications["%s|%s" % (vid, qname)] = ("EQUALS_VULNERABLE" if lib_side == "before"
                                                   else "EQUALS_FIXED")
        evidence[vid] = level
        planted[qname] = {"static": reached_static, "combined": reached_combined}

    plant("VULN-S", "VulnS", "STATIC", "before", True, False)
    plant("VULN-D", "VulnD", "DYNAMIC", "before", True, True)
    plant("VULN-C", "VulnC", "COMBINED", "before", False, True)
    plant("VULN-N", "VulnN", "NONE", "before", False, False)
    plant("VULN-F", "VulnF", "NONE", "after", False, False)

    for k in range(spec.drifted):
        side = "V" if k % 2 == 0 else "F"
        vid, cls = "DRIFT-%s%d" % (side, k), "Drift%s%d" % (side, k)
        body = _Body(rng)
        body.plain(spec.drift_stmts)
        while len(body.lits) < 2:
            body.arith()
        ret = body.ret()
        before = body.lines + [ret]
        guards = _guards(rng, 1)
        after = guards + before
        observed = body.relabeled(2) + [ret]
        if side == "F":
            observed = guards + observed
        _fix_pair(tree, vid, deep, cls, before, after)
        tree.put("%s/%s.jx" % (deep_dir, cls),
                 _unit(deep, _class(cls, [_method("static int run(int x)", observed)])))
        records.append(vid)
        qname = "%s.%s.run(int)" % (deep, cls)
        verdicts["%s|%s|1.0" % (vid, deep)] = "VULNERABLE" if side == "V" else "FIXED"
        classifications["%s|%s" % (vid, qname)] = ("CLOSER_TO_VULNERABLE" if side == "V"
                                                   else "CLOSER_TO_FIXED")
        evidence[vid] = "NONE"
        planted[qname] = {"static": False, "combined": False}

    for k in range(spec.noise):
        vid, pkg, cls = "NOISE-%03d" % k, "n%d" % k, "N%d" % k
        _fix_pair(tree, vid, pkg, cls, *_vuln_class(rng, 4))
        records.append(vid)
    verdicts["%s|l0|1.0" % RANGE_ID] = "WHOLE_LIBRARY_AFFECTED"
    evidence[RANGE_ID] = "NONE"

    # --- application: entry points, direct API use, tests ---
    main = [
        _method("static int serve(int x)", ["return l0.Chain.f(x);"]),
        _method("static int work(int x)",
                ["int r = x;"]
                + ["r = r + l0.W%d.m%d(r);" % (j, spec.methods - 1) for j in range(spec.classes)]
                + ["return r;"]),
        _method("static int useApi(int x)",
                ["int r = x;"]
                + ["r = r + l0.Api.a0(r);"] * API_A0_SITES
                + ["r = r + l0.Api.a%d(r);" % a for a in range(1, API_METHODS)]
                + ["return r;"]),
    ]
    trace_events = {}
    trace_runs = []
    for pattern in PATTERNS:
        run_events = 0
        offset = rng.randrange(len(_TEST_SHAPES))
        for t in range(spec.tests):
            name_t = "%s%d" % (pattern, t)
            iterations = spec.loop[0] + t % (spec.loop[1] - spec.loop[0] + 1)
            shapes = _TEST_SHAPES[(t + offset) % len(_TEST_SHAPES)]
            lines = ["int i = 0;", "while (i < %d) {" % iterations]
            lines += ["    " + _SHAPES[s][0] % d for s in shapes]
            lines += ["    i = i + 1;", "}"]
            events = 1 + iterations * sum(_SHAPES[s][1] for s in shapes)
            if pattern == PATTERNS[0] and t == 0:
                lines.append("%s.VulnD.run(1);" % deep)
                events += 1
            if pattern == PATTERNS[0] and t == 1:
                lines.append('Reflect.invoke("%s.Gate.open(int)", 0);' % deep)
                events += 1
            main.append(_method("static void %s()" % name_t, lines))
            trace_events["app.Main.%s()" % name_t] = events
            run_events += events
        trace_runs.append({"pattern": pattern, "tests": spec.tests, "events": run_events})
    tree.put("ws/src/app/Main.jx", _unit("app", _class("Main", main)))
    variants = [_unit("app", _class("Rev", [_method("static int revision()",
                                                    ["return %d;" % r])]))
                for r in (1, 2)]
    tree.put("ws/src/app/Rev.jx", variants[0])

    # --- newer releases of l0 for the update metrics ---
    l0_files = {p: t for p, t in tree.files.items() if p.startswith("ws/libs/l0/1.0/src/")}
    for version in ("1.1", "2.0", "2.1"):
        for path, text in sorted(l0_files.items()):
            rel = path[len("ws/libs/l0/1.0/src/"):]
            if rel == "l0/Chain.jx" and version == "1.1":
                text = text.replace("int y = x + ", "int y = 1 + x + ", 1)
            if rel == "l0/W0.jx" and version != "1.1":
                head = "    static int m0(int x) {\n"
                text = text.replace(head, head + "        x = x + 1;\n", 1)
            if rel == "l0/Api.jx" and version == "2.1":
                text = _api_methods(skip_a0=True)
            tree.put("versions/l0/%s/%s" % (version, rel), text)

    tree.write(root)

    # vet runs in ws/, so the fix trees and releases are at ../
    setup = [["kb", "import-fix", "--id", vid, "--before", "../fixes/%s/before" % vid,
              "--after", "../fixes/%s/after" % vid] for vid in records]
    setup.append(["kb", "add-range", "--id", RANGE_ID, "--affected", "l0:1.0:1.1"])
    setup.append(["kb", "index-lib", "--name", MITIGATE_LIB, "--root", "1.0=libs/l0/1.0/src"]
                 + sum((["--root", "%s=../versions/l0/%s" % (v, v)]
                        for v in ("1.1", "2.0", "2.1")), []))

    steps = []
    for vid in records[:IMPORTS_PER_PASS]:
        steps.append({"kind": "import_fix", "exit": 0, "argv": [
            "kb", "import-fix", "--overwrite", "--id", vid,
            "--before", "../fixes/%s/before" % vid, "--after", "../fixes/%s/after" % vid]})
    steps.append({"kind": "scan", "exit": 1, "argv": ["scan"]})
    for pattern in PATTERNS:
        steps.append({"kind": "trace", "exit": 0,
                      "argv": ["trace", "run", "--pattern", pattern]})
    steps.append({"kind": "reach_static", "exit": 0, "argv": ["reach", "static"]})
    steps.append({"kind": "reach_combined", "exit": 0, "argv": ["reach", "combined"]})
    steps.append({"kind": "mitigate", "exit": 0,
                  "argv": ["mitigate", "--lib", MITIGATE_LIB]})
    steps.append({"kind": "report", "exit": 2, "argv": ["report"]})
    steps.append({"kind": "report", "exit": 2, "argv": ["report", "--format", "html"]})

    callees = API_METHODS + 1 + spec.classes  # l0.Api.a*, l0.Chain.f, l0.W*.m*
    answers = {
        "workload": name,
        "seed": seed,
        "spec": asdict(spec),
        "setup": setup,
        "steps": steps,
        "variant": {"path": "ws/src/app/Rev.jx", "texts": variants},
        "verdicts": verdicts,
        "classifications": classifications,
        "evidence": evidence,
        "planted": planted,
        "trace_runs": trace_runs,
        "trace_events": trace_events,
        "mitigation": {"lib": MITIGATE_LIB, "candidates": [
            {"candidate": "2.0", "cs": [callees, callees], "de": 0},
            {"candidate": "2.1", "cs": [callees - 1, callees], "de": API_A0_SITES},
        ]},
        "corpus_bytes": sum(len(t.encode("utf-8")) for p, t in tree.files.items()
                            if p.startswith("ws/") and p.endswith(".jx")),
    }
    (root / "answers.json").write_text(json.dumps(answers, indent=1, sort_keys=True) + "\n",
                                       encoding="utf-8")
    return answers

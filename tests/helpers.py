"""Shared fixtures paths, random generators, and independent oracles."""

from __future__ import annotations

import copy
import itertools
import shutil
import sys
from dataclasses import replace
from pathlib import Path

from hypothesis import strategies as st

from vulnvet.callgraph import (CONSTRUCTOR_CALL, STATIC_DISPATCH, VIRTUAL_DISPATCH,
                               CallGraph, Edge)
from vulnvet.canonical import CTree
from vulnvet.constructs import CONSTRUCTOR, METHOD, ConstructId
from vulnvet.jx import ast
from vulnvet.jx.errors import ParseError
from vulnvet.jx.lexer import KEYWORDS
from vulnvet.kb import KnowledgeBase

REPO = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "golden"
UPDATE = FIXTURES / "update"


def copy_workspace(src: Path, dst: Path) -> Path:
    shutil.copytree(src, dst)
    return dst


def small_workload(root: Path, name: str, seed: int = 1, **sizes) -> Path:
    """The ws/ directory of a small benchmark workload of kind ``name``;
    ``sizes`` replace fields of its small ``vetbench.generate.Spec``."""
    if str(REPO) not in sys.path:
        sys.path.insert(0, str(REPO))
    from vetbench.generate import WORKLOADS, generate
    spec = WORKLOADS[name]
    generate(root, name, seed, replace(spec, **{
        "libs": 3, "classes": 2, "methods": 3, "stmts": 4, "fanout": 2, "tests": 2,
        "loop": (2, 3), "noise": min(spec.noise, 6),
        "drift_stmts": min(spec.drift_stmts, 4), **sizes}))
    return root / "ws"


def build_golden_kb(kb_root: Path) -> KnowledgeBase:
    kb = KnowledgeBase(kb_root)
    kb.import_fix("VULN-J1", GOLDEN / "fixes/j1/before", GOLDEN / "fixes/j1/after")
    kb.import_fix("VULN-J2", GOLDEN / "fixes/j2/before", GOLDEN / "fixes/j2/after")
    return kb


# --- random ordered trees ---

def random_ctree(rng, max_nodes: int, labels=("a", "b", "c")) -> CTree:
    """Random ordered tree with 1..max_nodes nodes."""
    budget = rng.randint(1, max_nodes)

    def grow(budget):
        label = rng.choice(labels)
        budget -= 1
        children = []
        while budget > 0 and rng.random() < 0.6:
            take = rng.randint(1, budget)
            children.append(grow(take))
            budget -= take
        return CTree(label, tuple(children))

    return grow(budget)


def enum_trees(n: int, labels) -> list:
    """All ordered trees with exactly n nodes over the label alphabet."""
    if n == 0:
        return []
    out = []
    for label in labels:
        for forest in _enum_forests(n - 1, labels):
            out.append(CTree(label, forest))
    return out


def _enum_forests(n: int, labels) -> list:
    if n == 0:
        return [()]
    out = []
    for first_size in range(1, n + 1):
        for first in enum_trees(first_size, labels):
            for rest in _enum_forests(n - first_size, labels):
                out.append((first,) + rest)
    return out


def tree_size(t: CTree) -> int:
    return 1 + sum(tree_size(c) for c in t.children)


# --- exhaustive edit-mapping oracle for tree edit distance ---
#
# Edit distance equals the cheapest node mapping: unmapped source nodes are
# deletions, unmapped target nodes insertions, mapped pairs with different
# labels relabelings. A mapping is valid exactly when deleting the unmapped
# nodes from both trees (splicing children into the deleted node's place)
# leaves two forests of identical shape. This enumerates every kept-subset
# of both trees and takes the minimum, which is independent of any dynamic
# programming recurrence.

def _preorder(t: CTree, out):
    out.append(t)
    for c in t.children:
        _preorder(c, out)
    return out


def _splice(t: CTree, kept) -> tuple:
    sub = []
    for c in t.children:
        sub.extend(_splice(c, kept))
    if id(t) in kept:
        desc = tuple(itertools.chain.from_iterable((s[1],) + s[2] for s in sub))
        return [(tuple(s[0] for s in sub), t.label, desc)]
    return sub


def _forest_key(spliced):
    # (shape, preorder labels) of a spliced forest
    shapes = tuple(s[0] for s in spliced)
    labels = tuple(itertools.chain.from_iterable(
        (s[1],) + s[2] for s in spliced))
    return shapes, labels


def _splice_variants(t: CTree):
    nodes = _preorder(t, [])
    n = len(nodes)
    for mask in range(1 << n):
        kept = {id(nodes[i]) for i in range(n) if mask >> i & 1}
        shapes, labels = _forest_key(_splice(t, kept))
        yield shapes, labels, n - len(kept)


def ted_oracle(a: CTree, b: CTree) -> int:
    by_shape = {}
    for shapes, labels, deleted in _splice_variants(a):
        by_shape.setdefault(shapes, []).append((labels, deleted))
    best = None
    for shapes, labels_b, inserted in _splice_variants(b):
        for labels_a, deleted in by_shape.get(shapes, ()):
            relabels = sum(1 for x, y in zip(labels_a, labels_b) if x != y)
            cost = deleted + inserted + relabels
            if best is None or cost < best:
                best = cost
    return best


# --- programs at a given nesting depth ---

def deep_bodies(depth: int) -> dict:
    """Method bodies whose deepest node sits at ``depth`` (the body is 1), as
    the parser's nesting bound counts it. The bodies fit `int m()` in a class
    `p.A` with fields `A a; int v;` and a method `static int f(int n)`."""
    return {
        "chain": "return " + " + ".join(["1"] * (depth - 2)) + ";",
        "parens": "return " + "(" * (depth - 3) + "1" + ")" * (depth - 3) + ";",
        "blocks": "{" * (depth - 1) + "}" * (depth - 1),
        "calls": "return " + "p.A.f(" * (depth - 4) + "1" + ")" * (depth - 4) + ";",
        "members": "return this" + ".a" * (depth - 4) + ".v;",
        "ifs": "if (true) " * (depth - 3) + "return 1; return 0;",
        "mixed": "{" * 40 + "return " + "(" * 20 + "1" + " * 1" * (depth - 63)
                 + ")" * 20 + ";" + "}" * 40,
    }


# --- character-at-a-time lexer oracle ---
#
# The hand-rolled lexer that the regex one in vulnvet.jx.lexer replaced, kept
# as a reference for tests only. Two changes: integers are runs of decimal
# digits (str.isdecimal, what int() reads), where it took any str.isdigit
# run and so turned "²" into an INT the parser could not convert; and a line
# comment advances the column, where it left the EOF token of a file ending
# in one at the column the comment began.

_REFERENCE_PUNCT = ("==", "!=", "{", "}", "(", ")", ";", ",", ".", "=", "+", "-", "*", "/", "<", ">")


def reference_tokenize(source: str, origin: str = "<source>") -> list:
    """(kind, value, line, col) tuples ending in EOF, or a ParseError."""
    tokens = []
    i = 0
    line = 1
    col = 1
    n = len(source)

    def err(msg):
        raise ParseError(msg, line, col, origin)

    while i < n:
        ch = source[i]
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if source.startswith("//", i):
            while i < n and source[i] != "\n":
                i += 1
                col += 1
            continue
        if source.startswith("/*", i):
            end = source.find("*/", i + 2)
            if end < 0:
                err("unterminated block comment")
            skipped = source[i:end + 2]
            nl = skipped.count("\n")
            if nl:
                line += nl
                col = len(skipped) - skipped.rfind("\n")
            else:
                col += len(skipped)
            i = end + 2
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (source[i].isalnum() or source[i] == "_"):
                i += 1
            word = source[start:i]
            kind = word if word in KEYWORDS else "ID"
            tokens.append((kind, word, line, col))
            col += i - start
            continue
        if ch.isdecimal():
            start = i
            while i < n and source[i].isdecimal():
                i += 1
            tokens.append(("INT", source[start:i], line, col))
            col += i - start
            continue
        if ch == '"':
            start_line, start_col = line, col
            i += 1
            col += 1
            buf = []
            while True:
                if i >= n:
                    raise ParseError("unterminated text literal", start_line, start_col, origin)
                c = source[i]
                if c == "\n":
                    raise ParseError("newline in text literal", line, col, origin)
                if c == "\\":
                    if i + 1 >= n or source[i + 1] not in ('"', "\\"):
                        raise ParseError("unknown escape in text literal", line, col, origin)
                    buf.append(source[i + 1])
                    i += 2
                    col += 2
                    continue
                if c == '"':
                    i += 1
                    col += 1
                    break
                buf.append(c)
                i += 1
                col += 1
            tokens.append(("TEXT", "".join(buf), start_line, start_col))
            continue
        matched = None
        for p in _REFERENCE_PUNCT:
            if source.startswith(p, i):
                matched = p
                break
        if matched is None:
            err("unexpected character %r" % ch)
        tokens.append((matched, matched, line, col))
        i += len(matched)
        col += len(matched)

    tokens.append(("EOF", "", line, col))
    return tokens


# --- naive reachability closure oracle ---

def closure_oracle(graph, seeds) -> set:
    """Edge-scan fixpoint, no adjacency index, no BFS ordering."""
    reached = {s for s in seeds if s in graph.nodes}
    changed = True
    while changed:
        changed = False
        for e in graph.edges:
            if e.caller in reached and e.callee not in reached:
                reached.add(e.callee)
                changed = True
    return reached


# --- call graph oracle: a second walk over every body ---
#
# The call graph once found its call nodes by walking every body again after
# the resolver had bound it; the resolver now records them per member. This
# walker and graph builder are that earlier code, kept as a reference for
# tests only. Virtual targets come from a naive closure over the supertypes
# instead of the program's subtype table and superclass chain.

def reference_call_nodes(node, out):
    """Collect call-bearing expression nodes in evaluation order."""
    if isinstance(node, ast.Block):
        for s in node.stmts:
            reference_call_nodes(s, out)
    elif isinstance(node, ast.LocalDecl):
        if node.init is not None:
            reference_call_nodes(node.init, out)
    elif isinstance(node, ast.Assign):
        reference_call_nodes(node.target, out)
        reference_call_nodes(node.value, out)
    elif isinstance(node, ast.ExprStmt):
        reference_call_nodes(node.expr, out)
    elif isinstance(node, ast.If):
        reference_call_nodes(node.cond, out)
        reference_call_nodes(node.then, out)
        if node.els is not None:
            reference_call_nodes(node.els, out)
    elif isinstance(node, ast.While):
        reference_call_nodes(node.cond, out)
        reference_call_nodes(node.body, out)
    elif isinstance(node, ast.Return):
        if node.value is not None:
            reference_call_nodes(node.value, out)
    elif isinstance(node, ast.Binary):
        reference_call_nodes(node.left, out)
        reference_call_nodes(node.right, out)
    elif isinstance(node, ast.FieldAccess):
        reference_call_nodes(node.obj, out)
    elif isinstance(node, ast.MethodCall):
        reference_call_nodes(node.recv, out)
        for a in node.args:
            reference_call_nodes(a, out)
        out.append(node)
    elif isinstance(node, (ast.New, ast.ReflectInvoke)):
        for a in node.args:
            reference_call_nodes(a, out)
        out.append(node)
    return out


def naive_ancestors(symbols) -> dict:
    """qname -> every transitive supertype, by a fixpoint over all types."""
    anc = {q: set() for q in symbols}
    changed = True
    while changed:
        changed = False
        for q, info in symbols.items():
            grown = set(anc[q])
            for s in info.supertypes:
                grown |= {s} | anc[s]
            if grown != anc[q]:
                anc[q] = grown
                changed = True
    return anc


def reference_call_graph(program) -> CallGraph:
    """The CHA graph from a second walk over every body (see above). A
    constructor calls what the field initializers of its class chain call,
    root class first, each at a site in its own class's unit, then what its
    body calls."""
    symbols = program.symbols
    anc = naive_ancestors(symbols)

    def chain(cls):
        """The TypeInfos of cls and its superclasses, read off supertypes."""
        while cls is not None:
            info = symbols[cls]
            yield info
            cls = next((s for s in info.supertypes if not symbols[s].is_interface), None)

    def impl(cls, sig):
        for info in chain(cls):
            m = info.methods.get(sig)
            if m is not None and not m.static and m.decl.body is not None:
                return m
        return None

    def walked(info, node):
        """(info, call node) of each call in node, a part of info's class."""
        return [(info, n) for n in reference_call_nodes(node, [])]

    def emit(caller, calls):
        for info, node in calls:
            site = "%s:%d" % (info.unit.origin, node.pos[0])
            binding = node.call
            if isinstance(node, ast.ReflectInvoke):
                graph.unresolved.add((caller, site, "reflection"))
            elif binding.kind == STATIC_DISPATCH:
                graph.edges.add(Edge(caller, ConstructId(METHOD, "%s.%s" % (
                    binding.owner, binding.sig)), site, STATIC_DISPATCH))
            elif binding.kind == CONSTRUCTOR_CALL:
                graph.edges.add(Edge(caller, ConstructId(CONSTRUCTOR, "%s.%s" % (
                    binding.owner, binding.sig)), site, CONSTRUCTOR_CALL))
            elif binding.kind == VIRTUAL_DISPATCH:
                for sub in symbols:
                    if symbols[sub].is_interface or not (
                            sub == binding.owner or binding.owner in anc[sub]):
                        continue
                    m = impl(sub, binding.sig)
                    if m is not None:
                        graph.edges.add(Edge(caller, ConstructId(METHOD, "%s.%s" % (
                            m.owner, m.sig)), site, VIRTUAL_DISPATCH))

    graph = CallGraph()
    for qname, info in sorted(symbols.items()):
        for sig, m in info.methods.items():
            if m.decl.body is not None or info.is_interface:
                graph.nodes.add(ConstructId(METHOD, "%s.%s" % (qname, sig)))
        if info.is_interface:
            continue
        inits = [call for c in reversed(list(chain(qname))) for f in c.decl.fields
                 if f.init is not None for call in walked(c, f.init)]
        for sig, c in info.ctors.items():
            caller = ConstructId(CONSTRUCTOR, "%s.%s" % (qname, sig))
            graph.nodes.add(caller)
            emit(caller, inits + walked(info, c.decl.body))
        for sig, m in info.methods.items():
            if m.decl.body is not None:
                emit(ConstructId(METHOD, "%s.%s" % (qname, sig)), walked(info, m.decl.body))
    return graph


# --- random JX class hierarchies (the first part of a program generator) ---

@st.composite
def jx_hierarchies(draw, max_types=6):
    """Source of one unit, package ``h``, declaring classes and interfaces
    ``T0``.. whose ``extends`` and ``implements`` clauses name any of them,
    the class itself or an unknown ``Missing``, plainly or qualified. So
    inheritance cycles, self-extension, a class extending an interface,
    implementing a class and unknown supertypes all occur."""
    n = draw(st.integers(1, max_types))
    names = ["T%d" % i for i in range(n)]
    ref = st.sampled_from(names + ["Missing"]).flatmap(
        lambda name: st.sampled_from([name, "h." + name]))
    decls = []
    for name in names:
        if draw(st.booleans()):
            decls.append("interface %s { int m(); }" % name)
            continue
        head = "class " + name
        if draw(st.booleans()):
            head += " extends " + draw(ref)
        implements = draw(st.lists(ref, max_size=3))
        if implements:
            head += " implements " + ", ".join(implements)
        body = " int m() { return %d; }" % len(decls) if draw(st.booleans()) else ""
        decls.append(head + " {%s }" % body)
    return "package h;\n" + "\n".join(decls) + "\n"


@st.composite
def jx_class_chains(draw, max_classes=5):
    """(origin, source) of the units of package ``c``. Classes ``C0``..,
    each in its own unit, extend an earlier one or none; their field
    initializers call the static ``c.U.f`` or construct a ``c.U``; they
    declare constructors with and without a parameter, or get the default
    one, and may declare or override ``int m()``. A class whose chain
    declares ``m`` may implement the interface ``c.I``. The static test
    ``c.T.testAll()`` constructs every class by each of its constructors
    and calls ``m`` through a variable typed as the class, a superclass or
    ``c.I``."""
    parent, fields, has_m, is_i, units, test_body = [], [], [], [], [], []
    for k in range(draw(st.integers(1, max_classes))):
        sup = draw(st.sampled_from([None, *range(k)]))
        parent.append(sup)
        chain = [k]
        while parent[chain[-1]] is not None:
            chain.append(parent[chain[-1]])
        own = ["a%d_%d" % (k, i) for i in range(draw(st.integers(0, 2)))]
        fields.append(own)
        visible = [f for c in chain for f in fields[c]]
        declares_m = draw(st.booleans())
        has_m.append(declares_m or sup is not None and has_m[sup])
        implements = has_m[k] and draw(st.booleans())
        is_i.append(implements or sup is not None and is_i[sup])
        lines = ["package c;", "class C%d%s%s {" % (
            k, " extends c.C%d" % sup if sup is not None else "",
            " implements c.I" if implements else "")]
        for i, name in enumerate(own):
            init = draw(st.sampled_from(["", " = c.U.f(%d)" % i, " = c.U.f(c.U.f(%d))" % k]))
            lines.append("    int %s%s;" % (name, init))
        if draw(st.booleans()):
            lines.append("    c.U u%d = new c.U();" % k)
        ctors = sorted(draw(st.sets(st.sampled_from(["", "int v"]))))
        for params in ctors:
            arg = "v" if params else "1"
            body = " this.%s = c.U.f(%s); " % (draw(st.sampled_from(visible)), arg) \
                if visible and draw(st.booleans()) else " "
            lines.append("    C%d(%s) {%s}" % (k, params, body))
        if declares_m:
            terms = ["%d" % k] + ["this." + f for f in visible if draw(st.booleans())]
            lines.append("    int m() { return c.U.f(%s); }" % " + ".join(terms))
        units.append(("c/C%d.jx" % k, "\n".join(lines) + "\n}\n"))
        for n, params in enumerate(ctors or [""]):
            var = "v%d_%d" % (k, n)
            types = [("c.C%d" % c, has_m[c]) for c in chain] + ([("c.I", True)] if is_i[k] else [])
            typ, calls_m = draw(st.sampled_from(types))
            test_body.append("        %s %s = new c.C%d(%s);"
                             % (typ, var, k, "7" if params else ""))
            if calls_m:
                test_body.append("        %s.m();" % var)
    units.append(("c/Main.jx", "package c;\n"
                  "class U {\n    static int f(int n) { return n + 1; }\n}\n"
                  "interface I {\n    int m();\n}\n"
                  "class T {\n    static void testAll() {\n%s\n    }\n}\n" % "\n".join(test_body)))
    return units


@st.composite
def jx_declarations(draw, max_units=4):
    """(origin, source) of units in packages ``p``, ``p.a`` and ``q`` whose
    types share simple names across units, so qualified names repeat, and
    whose members repeat signatures and take types named plainly, dotted
    fully or package-relatively, or not at all (``Missing``, ``x.y.Z``)."""
    types = st.sampled_from(["int", "text", "A", "Foo", "a.Foo", "p.a.Foo", "q.B",
                             "Missing", "x.y.Z"])

    def params():
        drawn = draw(st.lists(types, max_size=2))
        return ", ".join("%s x%d" % (t, i) for i, t in enumerate(drawn))
    units = []
    for i in range(draw(st.integers(1, max_units))):
        decls = []
        for name in draw(st.lists(st.sampled_from(["A", "B", "Foo"]), min_size=1,
                                  max_size=3, unique=True)):
            methods = [(draw(types), draw(st.sampled_from(["m", "n"])), params())
                       for _ in range(draw(st.integers(0, 3)))]
            if draw(st.booleans()):
                decls.append("interface %s {%s }" % (name, "".join(
                    " %s %s(%s);" % m for m in methods)))
                continue
            members = ["%s(%s) { }" % (name, params())
                       for _ in range(draw(st.integers(0, 2)))]
            members += ["%s%s %s(%s) { }" % (draw(st.sampled_from(["", "static "])), *m)
                        for m in methods]
            decls.append("class %s { %s }" % (name, " ".join(members)))
        package = draw(st.sampled_from(["p", "p.a", "q"]))
        units.append(("u%d.jx" % i, "package %s;\n%s\n" % (package, "\n".join(decls))))
    return units


# --- random JX program model (rendered to source text) ---

class ProgramModel:
    """A package of classes whose method bodies are determined by three
    integer literals, so revisions can be mutated structurally."""

    def __init__(self, package="p"):
        self.package = package
        self.classes = {}  # class name -> {method name: (l0, l1, l2)}

    def clone(self):
        m = ProgramModel(self.package)
        m.classes = {c: dict(ms) for c, ms in self.classes.items()}
        return m

    def render(self) -> str:
        lines = ["package %s;" % self.package, ""]
        for cname in sorted(self.classes):
            lines.append("class %s {" % cname)
            for mname in sorted(self.classes[cname]):
                l0, l1, l2 = self.classes[cname][mname]
                lines.append("    static int %s(int a) {" % mname)
                lines.append("        int v;")
                lines.append("        v = a + %d;" % l0)
                lines.append("        v = v * %d;" % l1)
                lines.append("        return v + %d;" % l2)
                lines.append("    }")
            lines.append("}")
        return "\n".join(lines) + "\n"

    def write(self, root: Path) -> Path:
        root.mkdir(parents=True, exist_ok=True)
        (root / "unit.jx").write_text(self.render(), encoding="utf-8")
        return root


def random_program(rng, n_classes=2, n_methods=3) -> ProgramModel:
    m = ProgramModel()
    for i in range(rng.randint(1, n_classes)):
        cname = "C%d" % i
        m.classes[cname] = {}
        for j in range(rng.randint(1, n_methods)):
            m.classes[cname]["m%d" % j] = (rng.randint(0, 9), rng.randint(1, 9),
                                           rng.randint(0, 9))
    return m


def mutate(rng, model: ProgramModel) -> ProgramModel:
    """One random revision step: tweak a literal, add, or drop a method."""
    m = model.clone()
    roll = rng.random()
    cname = rng.choice(sorted(m.classes))
    methods = m.classes[cname]
    if roll < 0.6 and methods:
        mname = rng.choice(sorted(methods))
        l0, l1, l2 = methods[mname]
        methods[mname] = (l0, l1, rng.randint(10, 99))
    elif roll < 0.8:
        methods["m%d" % rng.randint(10, 99)] = (rng.randint(0, 9),
                                                rng.randint(1, 9),
                                                rng.randint(0, 9))
    elif len(methods) > 1:
        del methods[rng.choice(sorted(methods))]
    else:
        methods["m%d" % rng.randint(10, 99)] = (1, 2, 3)
    return m


# --- JSON shapes: a reference checker, values near a shape, mutations ---

def _map_spec(spec):
    """(key spec, value spec) of a spec for an object whose keys all have one
    shape, else None."""
    if len(spec) == 1 and not isinstance(next(iter(spec)), str):
        return next(iter(spec.items()))
    return None


def reference_fits(value, spec) -> bool:
    """Whether value fits a ``vulnvet.workspace.shape`` spec, by plain
    recursion over the spec's meaning."""
    if spec is None:
        return value is None
    if isinstance(spec, type):
        return type(value) is spec
    if type(spec) is tuple:
        return any(reference_fits(value, s) for s in spec)
    if callable(spec):  # a leaf check
        return spec(value) is None
    if type(spec) is list:
        return type(value) is list and all(reference_fits(v, spec[0]) for v in value)
    if type(value) is not dict:
        return False
    if _map_spec(spec):
        key_spec, value_spec = _map_spec(spec)
        return all(reference_fits(k, key_spec) and reference_fits(v, value_spec)
                   for k, v in value.items())
    for key, sub in spec.items():
        name = key[:-1] if key.endswith("?") else key
        if name in value:
            if not reference_fits(value[name], sub):
                return False
        elif not key.endswith("?"):
            return False
    return True


def reference_bad_at(value, spec, path) -> bool:
    """Whether path leads from value, through spec, to a bad part: a
    required key that is missing, a key that does not fit, or a value that
    does not fit its spec."""
    for i, key in enumerate(path):
        last = i == len(path) - 1
        if type(spec) is tuple:  # past a union only its list or object spec leads on
            spec = next(s for s in spec if type(s) in (list, dict))
        if type(spec) is list:
            value, spec = value[key], spec[0]
        elif _map_spec(spec):
            key_spec, spec = _map_spec(spec)
            if not reference_fits(key, key_spec):
                return last
            value = value[key]
        else:
            required = key in spec
            sub = spec[key] if required else spec[key + "?"]
            if key not in value:
                return last and required
            value, spec = value[key], sub
    return not reference_fits(value, spec)


def shapes_of(*modules) -> dict:
    """Every shape check the modules define, by qualified name."""
    return {"%s.%s" % (m.__name__, name): v for m in modules for name, v in vars(m).items()
            if callable(v) and hasattr(v, "spec")}


_KNOWN_TEXTS = ("", "x", "1", "1.0", "2.0.1", "1.x", "1.0-dev", "ADD", "DEL", "MOD",
                "CLASS", "METHOD", "CONSTRUCTOR", "PACKAGE", "INTERFACE", "CODE_CHANGE",
                "WHOLE_LIBRARY", "APPLICATION", "DEPENDENCY", STATIC_DISPATCH,
                VIRTUAL_DISPATCH, CONSTRUCTOR_CALL)
_TEXT = st.text(max_size=3) | st.sampled_from(_KNOWN_TEXTS)
ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2) | _TEXT,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(_TEXT, kids, max_size=3),
    max_leaves=6)


def json_near(spec):
    """JSON values that mostly fit spec: every part fits its spec, but now
    and then is null or arbitrary JSON, lacks a required key or gains another."""
    return st.integers(0, 9).flatmap(
        lambda roll: st.none() if roll == 0 else ANY_JSON if roll == 1 else _fitting(spec))


def _fitting(spec):
    if spec is None:
        return st.none()
    if isinstance(spec, type):
        return {str: _TEXT, int: st.integers(-2, 2), bool: st.booleans()}[spec]
    if type(spec) is tuple:
        return st.one_of([json_near(s) for s in spec])
    if callable(spec):  # a leaf check: the known texts it accepts
        return st.sampled_from([t for t in _KNOWN_TEXTS if spec(t) is None])
    if type(spec) is list:
        return st.lists(json_near(spec[0]), max_size=3)
    if _map_spec(spec):
        key_spec, value_spec = _map_spec(spec)
        return st.dictionaries(_TEXT, json_near(value_spec), max_size=3)
    fields = {key.rstrip("?"): json_near(sub) for key, sub in spec.items()}
    required = {key: s for key, s in fields.items() if key + "?" not in spec}
    optional = {key: s for key, s in fields.items() if key not in required}
    return (st.fixed_dictionaries(required, optional={**optional, "extra": ANY_JSON})
            | st.fixed_dictionaries({}, optional=fields))


def _parts(doc, path=()):
    """(path, value) of every part of a JSON document, itself first."""
    yield path, doc
    members = doc.items() if type(doc) is dict else enumerate(doc) if type(doc) is list else ()
    for key, value in members:
        yield from _parts(value, path + (key,))


def mutate_json(rng, doc):
    """A copy of doc with one part, chosen by rng, dropped, changed to
    another JSON type, wrapped in a list or nulled."""
    doc = copy.deepcopy(doc)
    path, value = rng.choice(list(_parts(doc)))
    how = rng.choice(("drop", "retype", "wrap", "null"))
    if how == "retype":
        new = rng.choice([v for v in (0, "x", True, None, [], {}, 1.5) if type(v) is not type(value)])
    else:
        new = {"drop": None, "wrap": [value], "null": None}[how]
    if not path:
        return new
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if how == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = new
    return doc

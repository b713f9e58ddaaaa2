import random

from hypothesis import example, given, settings, strategies as st

from helpers import random_ctree, ted_oracle, tree_size
from vulnvet import ted
from vulnvet.canonical import CTree
from vulnvet.ted import _bounds, _decompose, _zhang_shasha, tree_edit_distance


def t(label, *children):
    return CTree(label, tuple(children))


def test_identical_trees():
    a = t("a", t("b"), t("c", t("d")))
    assert tree_edit_distance(a, a) == 0


def test_single_relabel():
    assert tree_edit_distance(t("a", t("b")), t("a", t("c"))) == 1


def test_single_delete():
    assert tree_edit_distance(t("a", t("b", t("c"))), t("a", t("c"))) == 1


def test_delete_splices_children():
    # removing the middle node keeps its children in order
    a = t("r", t("x", t("p"), t("q")))
    b = t("r", t("p"), t("q"))
    assert tree_edit_distance(a, b) == 1


def test_order_sensitivity():
    a = t("r", t("x"), t("y"))
    b = t("r", t("y"), t("x"))
    assert tree_edit_distance(a, b) == 2


def test_disjoint_trees_cost_is_bounded():
    a = t("a", t("b"))
    b = t("c", t("d"), t("e"))
    d = tree_edit_distance(a, b)
    assert 0 < d <= 5
    assert d == ted_oracle(a, b)


def test_random_pairs_against_oracle():
    rng = random.Random(77)
    for _ in range(150):
        a = random_ctree(rng, 6, ("a", "b", "c"))
        b = random_ctree(rng, 6, ("a", "b", "c"))
        assert tree_edit_distance(a, b) == ted_oracle(a, b)


def test_deep_chain_against_single_node():
    chain = t("b")
    for _ in range(4999):
        chain = t("a", chain)
    assert chain.size() == 5000
    assert tree_edit_distance(chain, t("a")) == 4999
    assert tree_edit_distance(t("a"), chain) == 4999


def test_deep_chains_a_relabel_apart_meet_without_zhang_shasha(monkeypatch):
    def chain(leaf):
        tree = t(leaf)
        for _ in range(4999):
            tree = t("a", tree)
        return tree

    def refuse(*_):
        raise AssertionError("Zhang-Shasha ran")
    monkeypatch.setattr(ted, "_zhang_shasha", refuse)
    assert tree_edit_distance(chain("b"), chain("c")) == 1


def _near_copy(rng, tree, edits, labels="abcd"):
    """``tree`` after ``edits`` random relabels, node inserts and node deletes
    (a delete that picks the root relabels it)."""
    for _ in range(edits):
        paths, stack = [], [(tree, ())]
        while stack:  # the child-index path of every node
            node, path = stack.pop()
            paths.append(path)
            stack.extend((c, path + (i,)) for i, c in enumerate(node.children))
        path, kind = rng.choice(paths), rng.choice("rid")

        def edit(node, path):
            kids = node.children
            if path:
                i = path[0]
                spliced = (kids[i].children if kind == "d" and len(path) == 1
                           else (edit(kids[i], path[1:]),))
                return CTree(node.label, kids[:i] + spliced + kids[i + 1:])
            if kind == "i":  # a new child adopts a run of this node's children
                lo = rng.randint(0, len(kids))
                hi = rng.randint(lo, len(kids))
                new = CTree(rng.choice(labels), kids[lo:hi])
                return CTree(node.label, kids[:lo] + (new,) + kids[hi:])
            return CTree(rng.choice(labels), kids)
        tree = edit(tree, path)
    return tree


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(0, 3))
def test_bounds_enclose_the_distance(seed, edits):
    """lower <= Zhang-Shasha <= upper on random pairs and on near copies, where
    the bounds often meet, and the distance is exact either way."""
    rng = random.Random(seed)
    a = random_ctree(rng, 6)
    for b in (random_ctree(rng, 6), _near_copy(rng, a, edits)):
        lo, up = _bounds(a, b)
        assert lo <= _zhang_shasha(_decompose(a), _decompose(b)) <= up
        assert tree_edit_distance(a, b) == ted_oracle(a, b)
    big = random_ctree(rng, 40)
    near = _near_copy(rng, big, edits)
    lo, up = _bounds(big, near)
    exact = _zhang_shasha(_decompose(big), _decompose(near))
    assert lo <= exact <= up and tree_edit_distance(big, near) == exact


def mirror(tree):
    return CTree(tree.label, tuple(mirror(c) for c in reversed(tree.children)))


@st.composite
def skewed_trees(draw, max_nodes=6):
    """Left-heavy trees (each child list sorted largest first), or their
    mirror images: the mirrored decomposition Zhang-Shasha runs on suits
    the second, and the first is its costliest shape."""
    def grow(budget):
        children = []
        rest = budget - 1
        while rest:
            take = draw(st.integers(1, rest))
            children.append(grow(take))
            rest -= take
        children.sort(key=tree_size, reverse=True)
        return t(draw(st.sampled_from("ab")), *children)
    tree = grow(draw(st.integers(1, max_nodes)))
    return tree if draw(st.booleans()) else mirror(tree)


COMB = t("r", t("x"), t("y"), t("z", t("p"), t("q", t("u"), t("v"))))
COMB_OTHER = t("r", t("x"), t("z", t("q", t("v"))))


@settings(max_examples=300, deadline=None)
@given(skewed_trees(), skewed_trees())
@example(COMB, COMB_OTHER)
@example(mirror(COMB), mirror(COMB_OTHER))
def test_distance_is_symmetric_and_mirror_invariant(a, b):
    d = ted_oracle(a, b)
    assert tree_edit_distance(a, b) == d
    assert tree_edit_distance(b, a) == d
    assert tree_edit_distance(mirror(a), mirror(b)) == d

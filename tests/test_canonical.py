import random

import pytest

from helpers import random_ctree
from vulnvet.canonical import CTree, deserialize, digest, serialize


def test_leaf_serialization():
    assert serialize(CTree("x")) == "x"


def test_nested_serialization():
    t = CTree("call", (CTree("f"), CTree("lit 1")))
    assert serialize(t) == "(call f lit\\s1)"


def test_labels_with_metacharacters_round_trip():
    t = CTree("m(int)", (CTree("a b"), CTree("c\\d"), CTree(")(")))
    assert deserialize(serialize(t)) == t


def test_round_trip_random_trees():
    rng = random.Random(11)
    for _ in range(500):
        t = random_ctree(rng, 12, ("a", "b", "lit 3", "m(int,text)"))
        assert deserialize(serialize(t)) == t


def test_digest_agrees_with_serialization_equality():
    rng = random.Random(12)
    trees = [random_ctree(rng, 5, ("a", "b")) for _ in range(1000)]
    for i in range(0, len(trees) - 1, 2):
        a, b = trees[i], trees[i + 1]
        assert (digest(a) == digest(b)) == (serialize(a) == serialize(b))


def test_deserialize_rejects_garbage():
    for text in ("", "(a", "a)", "(a b) c", "()"):
        with pytest.raises(ValueError):
            deserialize(text)


def test_serialization_is_injective_on_structure():
    # same labels, different shapes
    flat = CTree("a", (CTree("b"), CTree("c")))
    deep = CTree("a", (CTree("b", (CTree("c"),)),))
    assert serialize(flat) != serialize(deep)
    assert digest(flat) != digest(deep)


def test_deserialize_deep_nesting():
    tree = deserialize("(a " * 5000 + "b" + ")" * 5000)
    depth = 1
    while tree.children:
        (tree,) = tree.children
        depth += 1
    assert depth == 5001 and tree.label == "b"

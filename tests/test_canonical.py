import random
import re

import pytest
from hypothesis import given, strategies as st

from helpers import random_ctree
from lowering import digest, serialize
from vulnvet.canonical import CTree, deserialize, escape


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


def test_deserialize_rejects_text_that_serialize_never_writes():
    for text in ("(a  b)", " a", "a ", "(a b )", "( a b)", "(a)", "(a (b) c)",
                 "a\\q", "(a b\\q)", "a\\", "(a b\\)", "(a b) "):
        with pytest.raises(ValueError):
            deserialize(text)


def test_escape_is_the_reference_spelling_of_a_label():
    for label in ("a", "a b", "m(int)", "c\\d", ")(", "\t", "\\s"):
        assert escape(label) == serialize(CTree(label))


_LABELS = st.text(alphabet="ab (\\)s\t", min_size=1, max_size=4)
_TREES = st.recursive(_LABELS.map(CTree), lambda kids: st.tuples(
    _LABELS, st.lists(kids, min_size=1, max_size=3).map(tuple)).map(lambda t: CTree(*t)),
    max_leaves=8)
_LABEL = re.compile(r"(?:\\.|[^ ()\\])+")


@given(_TREES, st.data())
def test_a_near_canonical_text_is_refused_or_is_the_text_of_its_tree(tree, data):
    text = serialize(tree)
    assert deserialize(text) == tree
    kind = data.draw(st.sampled_from(["insert", "delete", "wrap"]))
    at = data.draw(st.integers(0, len(text)))
    if kind == "insert":
        piece = data.draw(st.sampled_from([" ", "(", ")", "\\", "\\q", "\\s", "a"]))
        mutated = text[:at] + piece + text[at:]
    elif kind == "delete":
        mutated = text[:at] + text[at + 1:]
    else:  # a label in parentheses, as a node without children
        label = data.draw(st.sampled_from(list(_LABEL.finditer(text))))
        mutated = "%s(%s)%s" % (text[:label.start()], label.group(), text[label.end():])
    try:
        decoded = deserialize(mutated)
    except ValueError:
        return
    assert serialize(decoded) == mutated


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

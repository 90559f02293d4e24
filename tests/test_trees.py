"""Structural tests for pasting trees and substitution."""

import pytest

from opetopes import ARROW, IllTyped, NoSuchNode
from opetopes.trees import PasteTree, TreeNode, empty_tree, single_node_tree, substitute_tree


def leaf_paths(tree):
    """Leaf addresses in lexicographic (depth-first slot) order."""
    return list(tree.index.leaves)


def chain(k):
    """A k-node chain of arrows with node order from the leaf end down."""
    node = None
    for _ in range(k):
        node = TreeNode(ARROW, (node,))
    paths = [(0,) * d for d in range(k)]
    order = tuple(sorted(paths, key=len, reverse=True))
    return PasteTree(0, node, None, order, ((0,) * k,))


def test_empty_tree_shape():
    t = empty_tree(0, ARROW)
    assert t.is_empty and t.node_count == 0 and t.leaf_count == 1
    assert leaf_paths(t) == [()]


def test_orders_must_be_permutations():
    with pytest.raises(IllTyped):
        PasteTree(0, TreeNode(ARROW, (None,)), None, ((), ()), ((0,),))
    with pytest.raises(IllTyped):
        PasteTree(0, TreeNode(ARROW, (None,)), None, ((),), ())


def test_node_at_and_edges():
    t = chain(3)
    assert t.node_at((0, 0)).label is ARROW
    with pytest.raises(NoSuchNode):
        t.node_at((1,))
    assert set(t.iter_edge_paths()) == {(), (0,), (0, 0), (0, 0, 0)}


def test_substitute_chain_into_chain():
    outer = chain(2)
    inner = chain(2)
    # replace the deep node (position 0 in diagram order)
    result, remap = substitute_tree(outer, (0,), inner)
    assert result.node_count == 3
    assert remap(()) == ()
    # the substituted block lands above the untouched root
    assert result.node_order[0] == (0, 0) or result.node_order[0] == (0,)
    assert set(leaf_paths(result)) == {(0, 0, 0)}


def test_substitute_at_the_deepest_node_of_a_deep_chain():
    # The path down to the replaced node is rebuilt with a loop, so a chain
    # deeper than the recursion limit takes a substitution like a short one.
    length = 1200
    outer = chain(length)
    deepest = (0,) * (length - 1)
    grown, remap = substitute_tree(outer, deepest, chain(2))
    assert grown.node_count == length + 1
    assert grown.leaf_order == ((0,) * (length + 1),)
    assert remap(deepest[:-1]) == deepest[:-1]
    assert grown.node_at(deepest + (0,)).children == (None,)
    shrunk, _ = substitute_tree(outer, deepest, empty_tree(0, ARROW))
    assert shrunk.node_count == length - 1
    assert shrunk.leaf_order == ((0,) * (length - 1),)
    # Halfway down, the nodes below the replaced one are kept, not copied,
    # and every ancestor is rebuilt with its own label.
    middle = (0,) * (length // 2)
    grown, _ = substitute_tree(outer, middle, chain(2))
    assert grown.node_at(middle + (0, 0)) is outer.node_at(middle + (0,))
    assert grown.node_at(middle[:-1]) is not outer.node_at(middle[:-1])
    assert all(grown.node_at(p).label is ARROW for p in grown.node_order)


def test_substitute_a_deep_inner_tree():
    # The inner tree is copied with an explicit stack, so an inner chain
    # deeper than the recursion limit substitutes like a short one, and
    # the outer node's children hang below its leaf.
    length = 1500
    result, remap = substitute_tree(single_node_tree(0, ARROW), (), chain(length))
    assert result.node_count == length
    assert result == chain(length)
    assert remap((0,)) == (0,) * length
    # The replaced node's address reads as its output edge, now the inner
    # tree's root edge.
    assert remap(()) == ()
    outer = chain(2)
    result, remap = substitute_tree(outer, (), chain(length))
    assert result.node_count == length + 1
    assert result.node_at((0,) * length) is outer.node_at((0,))
    assert remap((0,)) == (0,) * length and remap((0, 0)) == (0,) * (length + 1)
    assert result.leaf_order == ((0,) * (length + 1),)
    assert result.node_order == ((0,) * length,) + tuple((0,) * d for d in reversed(range(length)))


def test_substitute_empty_deletes_unary_node():
    outer = chain(2)
    result, _ = substitute_tree(outer, (0,), empty_tree(0, ARROW))
    assert result.node_count == 1
    assert leaf_paths(result) == [(0,)]


def test_deleting_a_unary_node_fuses_its_edges_in_the_remap():
    # The deleted node's output edge keeps its address, its input edge
    # fuses with it, and what hung below moves up one slot.
    outer = chain(3)
    result, remap = substitute_tree(outer, (0,), empty_tree(0, ARROW))
    assert remap(()) == () and remap((0,)) == (0,)
    assert remap((0, 0)) == (0,) and remap((0, 0, 0)) == (0, 0)
    assert result.node_at(remap((0, 0))) is outer.node_at((0, 0))
    assert result.leaf_order == ((0, 0),)


def test_substitute_empty_at_root_collapses_to_empty():
    outer = single_node_tree(0, ARROW)
    result, _ = substitute_tree(outer, (), empty_tree(0, ARROW))
    assert result.is_empty
    assert result.edge_type is ARROW


def test_substitute_empty_at_fed_root_promotes_child():
    result, _ = substitute_tree(chain(2), (), empty_tree(0, ARROW))
    assert result.node_count == 1
    assert result.node_order == ((),)


def test_substitute_leaf_count_mismatch_rejected():
    from opetopes import enumerate_opetopes

    twos = enumerate_opetopes(2, 2)
    unary = next(s for s in twos if s.arity == 1)
    binary = next(s for s in twos if s.arity == 2)
    outer = single_node_tree(1, unary)
    inner = single_node_tree(1, binary)
    with pytest.raises(IllTyped):
        substitute_tree(outer, (), inner)


def test_nodes_and_trees_compare_and_hash_structurally():
    a, b = chain(3), chain(3)
    assert a.root is not b.root
    assert a.root == b.root and hash(a.root) == hash(b.root)
    assert a == b and hash(a) == hash(b)
    assert len({a, b, chain(2)}) == 2
    # The node order is part of a tree; the root it hangs on is the same.
    reordered = PasteTree(0, a.root, None, tuple(reversed(a.node_order)), a.leaf_order)
    assert reordered.root == a.root and reordered != a
    assert TreeNode(ARROW, (None,)) != (ARROW, (None,))


@pytest.mark.parametrize("length", [600, 1200])
def test_deep_chains_compare_and_hash_without_recursion(length):
    # Equality and hashing walk the nodes with an explicit stack, so two
    # distinct chains deeper than the recursion limit compare like short ones.
    from opetopes import from_code

    a, b = chain(length), chain(length)
    assert a.root is not b.root
    assert a.root == b.root and hash(a.root) == hash(b.root)
    assert a == b and hash(a) == hash(b)
    assert a.root != chain(length - 1).root and a != chain(length + 1)
    code = "[" + "(ar:" * length + "_" + ")" * length + "|n%s|l0]" % ".".join(
        map(str, range(length))
    )
    hash(from_code(code).tree.root)

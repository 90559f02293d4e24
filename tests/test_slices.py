"""Slice construction: types, operations, grafting, and substitution."""

import math

import pytest

from opetopes import (
    ARROW,
    CompositeMismatch,
    NoSuchNode,
    Opetope,
    OperadLevel,
    UnsupportedOperad,
    check_operad_axioms,
    enumerate_opetopes,
    initial_operad,
    slice_operad,
)
from opetopes.operads import TableOperad
from opetopes.shapes import compose, graft
from opetopes.trees import PasteTree, TreeNode, empty_tree, single_node_tree
from reference_slices import substitute


def test_slice_of_initial_has_one_type():
    sliced = slice_operad(initial_operad())
    assert sliced.level == 1
    types = sliced.types()
    assert len(types) == 1
    assert types[0] is ARROW


def test_double_slice_has_factorially_many_kary_types():
    double = slice_operad(slice_operad(initial_operad()))
    for k in range(5):
        types = [t for t in double.types(k) if t.arity == k]
        assert len(types) == math.factorial(k)
        # equivalently: the k-ary operations of the single slice
        ops = OperadLevel(1).operations(k, arity=k)
        assert len(ops) == math.factorial(k)


def test_slice_rejects_table_operads():
    table = TableOperad(("x",), {"e": (("x",), "x")}, {"x": "e"}, {("e", ("e",)): "e"})
    with pytest.raises(UnsupportedOperad):
        slice_operad(table)


def test_slice_levels_pass_the_axiom_audit():
    for level in (1, 2, 3):
        report = check_operad_axioms(OperadLevel(level), 4)
        assert report.ok, report.violations[:3]


def test_graft_of_empty_tree_is_the_identity():
    law = graft(empty_tree(0, enumerate_opetopes(0, 1)[0]))
    assert law is ARROW
    law = graft(empty_tree(1, ARROW))
    assert law is next(s for s in enumerate_opetopes(2, 2) if s.arity == 1)


def test_graft_of_identity_chains_is_the_identity():
    # any level-0 tree composes to the lone operation
    node = TreeNode(ARROW, (TreeNode(ARROW, (None,)),))
    tree = PasteTree(0, node, None, ((0,), ()), ((0, 0),))
    assert graft(tree) is ARROW


def test_graft_is_independent_of_evaluation_order():
    binary = next(s for s in enumerate_opetopes(2, 2) if s.arity == 2)
    root = TreeNode(binary, (TreeNode(binary, (None, None)), TreeNode(binary, (None, None))))
    tree = PasteTree(
        1,
        root,
        None,
        ((0,), (), (1,)),
        ((0, 0), (0, 1), (1, 0), (1, 1)),
    )
    all_at_once = graft(tree)

    # Feed the arguments one at a time, in both possible orders; by
    # associativity and the unit laws every route lands in the same place.
    f = g = binary
    ident = OperadLevel(1).identity(f.inputs[0])
    step_lr = compose(compose(f, [g, ident]), [ident, ident, g])
    step_rl = compose(compose(f, [ident, g]), [g, ident, ident])
    assert step_lr == step_rl
    assert all_at_once is step_lr


def test_graft_applies_the_leaf_order():
    binary = next(s for s in enumerate_opetopes(2, 2) if s.arity == 2)
    root = TreeNode(binary, (TreeNode(binary, (None, None)), None))
    planar = PasteTree(1, root, None, ((0,), ()), ((0, 0), (0, 1), (1,)))
    twisted = PasteTree(1, root, None, ((0,), ()), ((1,), (0, 0), (0, 1)))
    from opetopes.shapes import permute_inputs

    assert graft(twisted) is permute_inputs(graft(planar), (2, 0, 1))


def test_substitute_into_corolla_returns_the_inner_tree():
    binary = next(s for s in enumerate_opetopes(2, 2) if s.arity == 2)
    ternary_ops = [s for s in enumerate_opetopes(3, 4) if s.output == binary]
    inner = ternary_ops[0].tree
    outer = single_node_tree(1, binary)
    assert substitute(outer, (), inner) == inner


def test_substitute_empty_tree_deletes_identity_node():
    unary = next(s for s in enumerate_opetopes(2, 2) if s.arity == 1)
    binary = next(s for s in enumerate_opetopes(2, 2) if s.arity == 2)
    # binary root with an identity node above slot 0
    root = TreeNode(binary, (TreeNode(unary, (None,)), None))
    tree = PasteTree(1, root, None, ((0,), ()), ((0, 0), (1,)))
    result = substitute(tree, (0,), empty_tree(1, ARROW))
    assert result.node_count == 1
    assert result.node_order == ((),)


def test_substitute_checks_composite_and_node():
    binary = next(s for s in enumerate_opetopes(2, 2) if s.arity == 2)
    outer = single_node_tree(1, binary)
    with pytest.raises(NoSuchNode):
        substitute(outer, (1, 2), outer)
    wrong = single_node_tree(1, next(s for s in enumerate_opetopes(2, 2) if s.arity == 1))
    with pytest.raises(CompositeMismatch):
        substitute(outer, (), wrong)


def test_substitution_preserves_composites_on_many_instances():
    # Every (outer, node, inner) triple of three listings: an inner tree
    # is the tree of a listed shape whose output is the node's label.
    checked = 0
    for dim, bound in ((3, 4), (4, 4), (3, 5)):
        listing = enumerate_opetopes(dim, bound)
        by_output = {}
        for s in listing:
            by_output.setdefault(s.output, []).append(s.tree)
        for outer in listing:
            for path in outer.tree.node_order:
                for inner in by_output.get(outer.tree.node_at(path).label, ()):
                    result = substitute(outer.tree, path, inner)
                    assert graft(result) is outer.output
                    checked += 1
    assert checked == 20167


def test_reduction_law_recomputes_its_composite():
    binary = next(s for s in enumerate_opetopes(2, 2) if s.arity == 2)
    tree = single_node_tree(1, binary)
    assert graft(tree) is binary
    # The law read as an operation of the slice level.
    as_operation = Opetope(tree.level + 2, tree)
    assert as_operation.dim == 3
    assert as_operation.arity == 1
    assert as_operation is OperadLevel(2).identity(binary)


def test_symmetric_action_is_free_up_to_k_five():
    # Exhaustive orbit computation: the k-ary operations of the first
    # slice form a single free orbit of size k!.
    import itertools

    from opetopes import permute_inputs

    for k in range(6):
        ops = OperadLevel(1).operations(k, arity=k)
        assert len(ops) == math.factorial(k)
        orbit = {permute_inputs(ops[0], sigma) for sigma in itertools.permutations(range(k))}
        assert len(orbit) == math.factorial(k)
        assert orbit == set(ops)

"""Algebras: evaluation, the algebra laws, and the slice-semantics bridge
between the single slice's algebras and finite monoid tables."""

import random

import pytest

from opetopes import (
    Algebra,
    CarrierMismatch,
    OperadLevel,
    check_algebra_axioms,
    eval_algebra,
    initial_operad,
)
from opetopes.fixtures import chain_product


def set_algebra(elements):
    """An algebra of the initial operad: a plain set."""
    operad = initial_operad()
    point_type = operad.types()[0]
    return Algebra(
        operad=operad,
        carrier={point_type: tuple(elements)},
        action=lambda op: (lambda a: a),
    )


def monoid_algebra(elements, unit, table, bound=3):
    """The slice-level algebra induced by a binary table with a unit.

    A k-ary operation acts by folding its arguments in the diagram order
    of its chain; the nullary operations act as the unit.
    """
    operad = OperadLevel(1)
    arrow_type = operad.types()[0]

    def action(op):
        def apply(*args):
            return chain_product(op, args, table, unit)

        return apply

    return Algebra(operad=operad, carrier={arrow_type: tuple(elements)}, action=action)


def test_identity_acts_as_identity():
    alg = set_algebra(("a", "b"))
    identity = initial_operad().operations(arity=1)[0]
    assert eval_algebra(alg, identity, ("a",)) == "a"
    with pytest.raises(CarrierMismatch):
        eval_algebra(alg, identity, ("zzz",))
    with pytest.raises(CarrierMismatch):
        eval_algebra(alg, identity, ("a", "b"))


def test_algebras_of_the_initial_operad_are_plain_sets():
    alg = set_algebra((0, 1, 2))
    report = check_algebra_axioms(alg, 2)
    assert report.ok


def _z3():
    elements = ("0", "1", "2")
    table = {(a, b): str((int(a) + int(b)) % 3) for a in elements for b in elements}
    return elements, "0", table


def test_monoid_algebra_satisfies_the_laws():
    elements, unit, table = _z3()
    alg = monoid_algebra(elements, unit, table)
    report = check_algebra_axioms(alg, 3)
    assert report.ok, report.violations[:3]


def test_composite_and_stepwise_evaluation_agree_on_random_instances():
    elements, unit, table = _z3()
    alg = monoid_algebra(elements, unit, table)
    operad = OperadLevel(1)
    ops = operad.operations(3)
    by_output = {}
    for g in ops:
        by_output.setdefault(g.output, []).append(g)
    rng = random.Random(11)
    for _ in range(100):
        f = rng.choice(ops)
        gs = [rng.choice(by_output[t]) for t in f.inputs]
        composite = operad.compose(f, gs)
        args = tuple(rng.choice(elements) for _ in range(composite.arity))
        start = 0
        mids = []
        for g in gs:
            mids.append(eval_algebra(alg, g, args[start : start + g.arity]))
            start += g.arity
        assert eval_algebra(alg, composite, args) == eval_algebra(alg, f, tuple(mids))


def test_eval_algebra_builds_no_listing(monkeypatch):
    # Evaluating reads the operation's own inputs and output; no listing of
    # the level's operations is built per call.
    from opetopes import shapes

    elements, unit, table = _z3()
    alg = monoid_algebra(elements, unit, table)
    operad = OperadLevel(1)
    diag2 = _diag2(operad)
    composite = operad.compose(diag2, [diag2, operad.identity(diag2.inputs[0])])

    def no_listing(*args):
        raise AssertionError("eval_algebra enumerated shapes")

    monkeypatch.setattr(shapes, "enumerate_opetopes", no_listing)
    assert eval_algebra(alg, composite, ("1", "2", "2")) == "2"
    assert eval_algebra(alg, diag2, ("1", "1")) == "2"


def _diag2(operad):
    return next(
        op
        for op in operad.operations(2)
        if op.arity == 2
        and sorted(op.tree.node_order, key=len, reverse=True) == list(op.tree.node_order)
    )


def test_both_bracketings_are_the_same_slice_operation():
    # This is what forces associativity on every algebra of the slice:
    # plugging the binary operation into either input of itself yields the
    # identical ternary operation.
    operad = OperadLevel(1)
    diag2 = _diag2(operad)
    ident = operad.identity(diag2.inputs[0])
    left = operad.compose(diag2, [diag2, ident])
    right = operad.compose(diag2, [ident, diag2])
    assert left == right


def test_nonassociative_table_cannot_extend_to_the_slice():
    # With both bracketings equal as operations, the composition law pins
    # the ternary action to the left fold and to the right fold at once;
    # a non-associative table makes those disagree, so no algebra exists.
    elements = ("0", "1", "2")
    table = {(a, b): str((int(a) + int(b)) % 3) for a in elements for b in elements}
    table[("1", "1")] = "0"
    conflicts = [
        (x, y, z)
        for x in elements
        for y in elements
        for z in elements
        if table[(table[(x, y)], z)] != table[(x, table[(y, z)])]
    ]
    assert conflicts, "the altered table should be non-associative"


def test_unit_breaking_table_is_caught_mechanically():
    # A table whose designated unit fails makes the composition law fail
    # on a small instance (a nullary operation feeding the binary one).
    elements = ("0", "1")
    table = {(a, b): str((int(a) + int(b)) % 2) for a in elements for b in elements}
    table[("0", "1")] = "0"
    alg = monoid_algebra(elements, "0", table)
    report = check_algebra_axioms(alg, 3)
    assert not report.ok
    assert any(v.axiom == "alg-a" for v in report.violations)

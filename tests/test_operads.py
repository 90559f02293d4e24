"""Operad surface: the initial operad, composition, permutation actions,
block permutations, and the axiom audit."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from opetopes import (
    ArityMismatch,
    DegreeMismatch,
    OperadLevel,
    TableOperad,
    TypeMismatch,
    block_permutation,
    check_operad_axioms,
    compose,
    compose_perms,
    direct_sum_permutation,
    enumerate_opetopes,
    from_code,
    initial_operad,
    permute_inputs,
)
from opetopes import shapes
from opetopes.operads import AxiomViolation
from opetopes.trees import PasteTree, TreeNode
from opetopes import ARROW, POINT


def diagram_chain(k):
    """The k-ary level-1 operation whose input order is diagram order."""
    node = None
    for _ in range(k):
        node = TreeNode(ARROW, (node,))
    paths = sorted(((0,) * d for d in range(k)), key=len, reverse=True)
    from opetopes import Opetope

    tree = PasteTree(0, node, None, tuple(paths), ((0,) * k,))
    return Opetope(2, tree)


def test_initial_operad_has_one_type_and_one_operation():
    operad = initial_operad()
    assert len(operad.types()) == 1
    assert operad.types()[0].code == "pt"
    ops = operad.operations(arity=1)
    assert len(ops) == 1
    identity = ops[0]
    assert compose(identity, [identity]) == identity


def test_compose_arity_and_type_errors():
    two = diagram_chain(2)
    one = diagram_chain(1)
    with pytest.raises(ArityMismatch):
        compose(two, [one])
    # mixing levels is a type error
    with pytest.raises(TypeMismatch):
        compose(two, [one, initial_operad().operations(arity=1)[0]])
    # at level 2 the types are the 2-dimensional shapes, so outputs can
    # genuinely fail to match an input slot
    level2 = enumerate_opetopes(3, 4)
    f = next(op for op in level2 if op.arity == 1)
    mismatched = next(g for g in level2 if g.output != f.inputs[0])
    with pytest.raises(TypeMismatch):
        compose(f, [mismatched])


def test_compose_chains_is_explicit_grafting():
    # Hand oracle: grafting a 1-chain and a 2-chain into a 2-chain gives
    # the 3-chain, with the argument blocks concatenated in order.
    f = diagram_chain(2)
    g1 = diagram_chain(1)
    g2 = diagram_chain(2)
    result = compose(f, [g1, g2])
    assert result == diagram_chain(3)
    assert result.inputs == g1.inputs + g2.inputs
    assert result.output == f.output


def test_tower_level_rejects_shapes_of_another_dimension():
    # A level-1 operation is a 2-dimensional shape and a level-1 type is
    # the arrow; every protocol method checks the dimension it is handed.
    operad = OperadLevel(1)
    f = diagram_chain(2)
    three = enumerate_opetopes(3, 2)[0]
    for call in (
        lambda: operad.arity(three),
        lambda: operad.inputs(ARROW),
        lambda: operad.output(three),
        lambda: operad.key(ARROW),
        lambda: operad.size(three),
        lambda: operad.identity(f),
        lambda: operad.compose(three, [three]),
        lambda: operad.compose(f, [f, ARROW]),
        lambda: operad.permute(three, (0,)),
        lambda: OperadLevel(2).compose(f, [f, f]),
    ):
        with pytest.raises(TypeMismatch):
            call()
    assert operad.identity(ARROW) == diagram_chain(1)
    assert operad.key(f) == f.code and operad.size(f) == f.size == 2


def test_permute_identity_is_identity():
    f = diagram_chain(3)
    assert permute_inputs(f, (0, 1, 2)) == f
    with pytest.raises(DegreeMismatch):
        permute_inputs(f, (0, 1))
    with pytest.raises(DegreeMismatch):
        permute_inputs(f, (0, 0, 2))


def test_orbit_of_three_chain_has_size_six():
    f = diagram_chain(3)
    orbit = {permute_inputs(f, sigma).code for sigma in itertools.permutations(range(3))}
    assert len(orbit) == 6


def test_block_permutation_examples():
    # identity on blocks of sizes 2,3 is the identity on 5 elements
    assert block_permutation((0, 1), (2, 3)) == (0, 1, 2, 3, 4)
    # unit blocks reduce to the permutation itself
    assert block_permutation((1, 0), (1, 1)) == (1, 0)
    # a block of size 2 moves after a block of size 1:
    # positions (1,2,3) -> (3,1,2) in 1-indexed terms
    assert block_permutation((1, 0), (2, 1)) == (2, 0, 1)


def test_direct_sum_permutation():
    assert direct_sum_permutation(((1, 0), (0, 1, 2))) == (1, 0, 2, 3, 4)


@st.composite
def level1_ops(draw, max_size=4):
    return draw(st.sampled_from(enumerate_opetopes(2, max_size)))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_permute_is_a_right_group_action(data):
    f = data.draw(level1_ops())
    k = f.arity
    sigma = tuple(data.draw(st.permutations(range(k))))
    tau = tuple(data.draw(st.permutations(range(k))))
    assert permute_inputs(permute_inputs(f, sigma), tau) == permute_inputs(
        f, compose_perms(sigma, tau)
    )
    assert permute_inputs(f, tuple(range(k))) == f


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_equivariance_laws_on_random_trees(data):
    f = data.draw(level1_ops(max_size=3))
    pool = enumerate_opetopes(2, 2)
    gs = [data.draw(st.sampled_from(pool)) for _ in range(f.arity)]
    sigma = tuple(data.draw(st.permutations(range(f.arity))))
    lhs = compose(permute_inputs(f, sigma), [gs[sigma[i]] for i in range(f.arity)])
    rhs = permute_inputs(compose(f, gs), block_permutation(sigma, [g.arity for g in gs]))
    assert lhs == rhs
    sigmas = [tuple(data.draw(st.permutations(range(g.arity)))) for g in gs]
    lhs = compose(f, [permute_inputs(g, s) for g, s in zip(gs, sigmas)])
    rhs = permute_inputs(compose(f, gs), direct_sum_permutation(sigmas))
    assert lhs == rhs


def test_unit_laws_exactly():
    operad = OperadLevel(1)
    for f in operad.operations(3):
        unit_out = operad.identity(f.output)
        assert compose(unit_out, [f]) == f
        assert compose(f, [operad.identity(t) for t in f.inputs]) == f


def test_axiom_audit_is_clean_on_the_initial_operad():
    report = check_operad_axioms(initial_operad(), 3)
    assert report.ok and report.violations == []


def test_axiom_audit_independent_recomputation_sample():
    # Re-evaluate a few associativity instances by hand, outside the
    # checker, to keep the audit honest.
    operad = OperadLevel(1)
    ops = operad.operations(3)
    by_output = {}
    for g in ops:
        by_output.setdefault(g.output, []).append(g)
    f = next(op for op in ops if op.arity == 2)
    gs = [by_output[t][0] for t in f.inputs]
    hs = [by_output[t][0] for g in gs for t in g.inputs]
    start = 0
    mids = []
    for g in gs:
        mids.append(compose(g, hs[start : start + g.arity]))
        start += g.arity
    assert compose(f, mids) == compose(compose(f, gs), hs)


def _corrupted_table():
    return TableOperad(
        type_names=("x",),
        ops={"e": (("x",), "x"), "u": (("x",), "x"), "v": (("x",), "x")},
        identities={"x": "e"},
        table={
            ("e", ("e",)): "e",
            ("e", ("u",)): "u",
            ("e", ("v",)): "v",
            ("u", ("e",)): "u",
            ("v", ("e",)): "v",
            ("u", ("u",)): "v",
            ("u", ("v",)): "u",
            ("v", ("u",)): "e",
            ("v", ("v",)): "v",
        },
    )


def test_corrupted_table_reports_associativity_violation():
    report = check_operad_axioms(_corrupted_table(), 3)
    assert not report.ok
    assert any(v.axiom == "a" for v in report.violations)


def test_audit_report_identical_across_runs():
    first = check_operad_axioms(_corrupted_table(), 3)
    second = check_operad_axioms(_corrupted_table(), 3)
    assert first.violations == second.violations != []
    one = check_operad_axioms(OperadLevel(1), 3)
    again = check_operad_axioms(OperadLevel(1), 3)
    assert one == again and one.violations == []


def test_audit_on_warm_shape_memos_matches_a_cold_run(fresh_shapes):
    # The first run fills an empty intern table and the shape memos; the
    # second reads them warm, and a third on tables emptied again must
    # report the same.
    cold = check_operad_axioms(OperadLevel(1), 4)
    warm = check_operad_axioms(OperadLevel(1), 4)
    fresh_shapes()
    again = check_operad_axioms(OperadLevel(1), 4)
    assert cold == warm == again
    assert cold.instances == {"a": 86, "b": 34, "c": 14050, "d": 75, "e": 75}
    assert cold.violations == []


def test_deeper_audit_on_warm_shape_memos_matches_a_cold_run(fresh_shapes):
    # At level 3 the operations are 4-dimensional shapes and compose works
    # through substituted trees.
    cold = check_operad_axioms(OperadLevel(3), 5)
    warm = check_operad_axioms(OperadLevel(3), 5)
    fresh_shapes()
    again = check_operad_axioms(OperadLevel(3), 5)
    assert cold == warm == again
    assert cold.instances == {"a": 160, "b": 229, "c": 253, "d": 162, "e": 162}
    assert cold.violations == []


LEVEL1_BOUND4 = {"a": 86, "b": 34, "c": 14050, "d": 75, "e": 75}


def _corrupt_composite(monkeypatch, f, gs, wrong):
    """Make the unmemoised composite of ``f (gs)`` return ``wrong``."""
    real = shapes._composed

    def corrupted(g, args):
        if g == f and tuple(args) == tuple(gs):
            return wrong
        return real(g, args)

    monkeypatch.setattr(shapes, "_composed", corrupted)


def test_wrong_shared_composite_breaks_equivariance(fresh_shapes, monkeypatch):
    # f (g, e) with f and g binary and e nullary is the only shape of its
    # kind at level 1 bound 4; its composite feeds (d), (e) and (a).  At
    # level 1 every type is the arrow, so the other binary shape is a
    # well-typed wrong value.  (a) cannot show it here: the inner tuple
    # has to be nullary, and composing the wrong binary shape with two
    # nullaries gives the same nullary shape as the right one.
    ops = enumerate_opetopes(2, 4)
    binary = [s for s in ops if s.arity == 2]
    nullary = next(s for s in ops if s.arity == 0)
    f, g = binary[0], binary[1]
    gs = (g, nullary)
    right = shapes._composed(f, gs)
    wrong = next(s for s in binary if s != right)
    _corrupt_composite(monkeypatch, f, gs, wrong)
    report = check_operad_axioms(OperadLevel(1), 4)
    assert report.instances == LEVEL1_BOUND4
    # Other instances that compose f (g, e) on one side fail too.
    assert {v.axiom for v in report.violations} == {"d", "e"}
    keys = (f.code, g.code, nullary.code)
    named = {(v.axiom, v.operands[:3]) for v in report.violations}
    assert {("d", keys), ("e", keys)} <= named


def test_wrong_composite_code_breaks_equivariance(fresh_shapes, monkeypatch):
    # A composite is found by the code its walk predicts, so a walk that
    # names another interned shape with the same output must show up in the
    # audit exactly as a wrongly built composite does.
    ops = enumerate_opetopes(2, 4)
    binary = [s for s in ops if s.arity == 2]
    nullary = next(s for s in ops if s.arity == 0)
    f, g = binary[0], binary[1]
    gs = (g, nullary)
    real = shapes._composite_code
    right = from_code(real(f, gs))
    wrong = next(s for s in binary if s != right and s.output == right.output)

    def corrupted(h, args):
        return wrong.code if (h, args) == (f, gs) else real(h, args)

    monkeypatch.setattr(shapes, "_composite_code", corrupted)
    report = check_operad_axioms(OperadLevel(1), 4)
    assert report.instances == LEVEL1_BOUND4
    keys = (f.code, g.code, nullary.code)
    named = {(v.axiom, v.operands[:3]) for v in report.violations}
    assert {("d", keys), ("e", keys)} <= named


def test_wrong_identity_composite_breaks_the_left_unit(fresh_shapes, monkeypatch):
    ops = enumerate_opetopes(2, 4)
    binary = [s for s in ops if s.arity == 2]
    f = binary[0]
    wrong = binary[1]
    _corrupt_composite(monkeypatch, shapes.identity_on(f.output), (f,), wrong)
    report = check_operad_axioms(OperadLevel(1), 4)
    assert report.instances == LEVEL1_BOUND4
    assert AxiomViolation("b", (f.code, "left-unit"), wrong.code, f.code) in report.violations


def test_type_round_trip_on_five_hundred_shapes():
    # A shape is a type one level up from the operation it is; its key is
    # its code, and the code parses back to the same interned shape.
    pool = list(enumerate_opetopes(2, 6)) + list(enumerate_opetopes(3, 4))
    assert len(pool) >= 500
    for shape in pool[:500]:
        assert from_code(OperadLevel(shape.dim - 1).key(shape)) is shape
    assert OperadLevel(0).types() == (POINT,)

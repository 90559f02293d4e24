"""Operad surface: the initial operad, composition, permutation actions,
block permutations, and the axiom audit."""

import functools
import itertools
import random

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
from opetopes import Algebra, check_algebra_axioms, eval_algebra, operads, shapes
from opetopes.errors import OpetopeError, UnsupportedOperad
from opetopes.fixtures import chain_product
from opetopes.operads import AxiomReport, AxiomViolation
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
    # The first run fills an empty intern table and the derived table; the
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


def test_unbounded_listings_stop_where_the_tower_becomes_infinite():
    # Levels 0 and 1 have finitely many types, level 0 finitely many
    # operations; from there on a listing needs a bound.
    assert OperadLevel(1).types() == (ARROW,)
    assert OperadLevel(0).operations() == (ARROW,)
    with pytest.raises(ValueError, match="level >= 2 has infinitely many types"):
        OperadLevel(2).types()
    with pytest.raises(ValueError, match="level >= 1 has infinitely many operations"):
        OperadLevel(1).operations()


def test_a_shape_of_another_dimension_is_not_an_operation():
    with pytest.raises(TypeMismatch, match="^a level-1 operation is a 2-dimensional shape$"):
        OperadLevel(1).arity(ARROW)


# -- the action read off tables, against a per-instance replay ------------------


def _replayed_audit(operad, size_bound):
    """The audit replayed instance by instance, the reference for
    ``check_operad_axioms``: every law instance asks ``operad.permute`` for
    the permuted operations it uses, except that law (c) reads its left
    side from the operation's own permutations."""
    sized = operads._sized(operad, size_bound)
    by_output = operads._by_output(operad, sized)
    report = AxiomReport(size_bound=size_bound)
    for f, f_size in sized:
        counts, violations = _replayed_operation(operad, by_output, size_bound - f_size, f)
        for axiom, count in counts.items():
            report.instances[axiom] = report.instances.get(axiom, 0) + count
        report.violations.extend(violations)
    report.violations.sort()
    return report


def _replayed_operation(operad, by_output, budget, f):
    key = operad.key
    out = []
    counts = {"b": 1}

    left = operad.compose(operad.identity(operad.output(f)), [f])
    right = operad.compose(f, [operad.identity(t) for t in operad.inputs(f)])
    if left != f:
        out.append(AxiomViolation("b", (key(f), "left-unit"), key(left), key(f)))
    if right != f:
        out.append(AxiomViolation("b", (key(f), "right-unit"), key(right), key(f)))

    perms = tuple(itertools.permutations(range(operad.arity(f))))
    permuted = {sigma: operad.permute(f, sigma) for sigma in perms}
    counts["c"] = len(perms) ** 2
    for sigma in perms:
        f_sigma = permuted[sigma]
        for tau in perms:
            lhs = permuted[compose_perms(sigma, tau)]
            rhs = operad.permute(f_sigma, tau)
            if lhs != rhs:
                out.append(AxiomViolation("c", (key(f), repr(sigma), repr(tau)), key(lhs), key(rhs)))

    for gs, gs_size in operads._arg_tuples(by_output, operad.inputs(f), budget):
        fg = operad.compose(f, gs)
        gs_keys = (key(f),) + tuple(map(key, gs))
        arities = [operad.arity(g) for g in gs]

        counts["d"] = counts.get("d", 0) + 1
        for sigma in perms:
            lhs = operad.compose(permuted[sigma], [gs[i] for i in sigma])
            rhs = operad.permute(fg, block_permutation(sigma, arities))
            if lhs != rhs:
                out.append(AxiomViolation("d", gs_keys + (repr(sigma),), key(lhs), key(rhs)))

        counts["e"] = counts.get("e", 0) + 1
        pools = [tuple(itertools.permutations(range(k))) for k in arities]
        for sigmas in itertools.product(*pools):
            lhs = operad.compose(f, [operad.permute(g, s) for g, s in zip(gs, sigmas)])
            rhs = operad.permute(fg, direct_sum_permutation(sigmas))
            if lhs != rhs:
                out.append(AxiomViolation("e", gs_keys + (repr(sigmas),), key(lhs), key(rhs)))

        inner_types = tuple(t for g in gs for t in operad.inputs(g))
        for hs, _ in operads._arg_tuples(by_output, inner_types, budget - gs_size):
            counts["a"] = counts.get("a", 0) + 1
            blocks = []
            start = 0
            for k in arities:
                blocks.append(hs[start : start + k])
                start += k
            lhs = operad.compose(f, [operad.compose(g, b) for g, b in zip(gs, blocks)])
            rhs = operad.compose(fg, hs)
            if lhs != rhs:
                keys = gs_keys + tuple(map(key, hs))
                out.append(AxiomViolation("a", keys, key(lhs), key(rhs)))
    return counts, out


def _outcome(audit, operad, size_bound):
    """The report as compared (instance counts in first-run order, the
    violations in order), or the class and message of the error raised."""
    try:
        report = audit(operad, size_bound)
    except OpetopeError as exc:
        return type(exc), str(exc)
    return list(report.instances.items()), report.violations


def _same_as_the_replay(operad, size_bound):
    outcome = _outcome(check_operad_axioms, operad, size_bound)
    assert outcome == _outcome(_replayed_audit, operad, size_bound)
    return outcome


@pytest.mark.parametrize("level, bound", [(0, 3), (1, 3), (1, 4), (2, 4), (2, 5), (3, 5)])
def test_tables_match_the_per_instance_replay_on_the_tower(level, bound):
    instances, violations = _same_as_the_replay(OperadLevel(level), bound)
    assert violations == [] and dict(instances)["c"] > 0


def _swap_table(perms, table=()):
    """Two types x and y; the units ex and ey; m, a binary operation from
    x, x to y, and n, meant to be m with its inputs swapped."""
    entries = {
        ("ex", ("ex",)): "ex",
        ("ey", ("ey",)): "ey",
        ("ey", ("m",)): "m",
        ("ey", ("n",)): "n",
        ("m", ("ex", "ex")): "m",
        ("n", ("ex", "ex")): "n",
    }
    entries.update(table)
    return TableOperad(
        type_names=("x", "y"),
        ops={"ex": (("x",), "x"), "ey": (("y",), "y"), "m": (("x", "x"), "y"), "n": (("x", "x"), "y")},
        identities={"x": "ex", "y": "ey"},
        table=entries,
        perms=perms,
    )


SWAP = (1, 0)


def test_a_lawful_swap_table_audits_clean():
    instances, violations = _same_as_the_replay(_swap_table({("m", SWAP): "n", ("n", SWAP): "m"}), 1)
    assert violations == []
    assert instances == [("b", 4), ("c", 10), ("d", 6), ("e", 6), ("a", 8)]


def test_a_permutation_table_that_breaks_law_c_once():
    # n . (1 0) = n makes n's action trivial: m . ((1 0)(1 0)) = m, but
    # (m . (1 0)) . (1 0) = n . (1 0) = n.  Every other instance of every
    # law holds, so the audit reports that one pair of permutations only.
    _, violations = _same_as_the_replay(_swap_table({("m", SWAP): "n", ("n", SWAP): "n"}), 1)
    assert violations == [AxiomViolation("c", ("m", repr(SWAP), repr(SWAP)), "m", "n")]


def test_a_permutation_table_that_breaks_law_e():
    # w carries y to z and composes m and n to q and r.  Both q and r are
    # fixed by the swap, a lawful action on each, but w (m . (1 0)) = r
    # while w (m) . (1 0) = q: law (e) fails and no other law does.
    operad = _swap_table(
        {("m", SWAP): "n", ("n", SWAP): "m", ("q", SWAP): "q", ("r", SWAP): "r"},
        {
            ("ez", ("ez",)): "ez",
            ("ez", ("w",)): "w",
            ("ez", ("q",)): "q",
            ("ez", ("r",)): "r",
            ("w", ("ey",)): "w",
            ("w", ("m",)): "q",
            ("w", ("n",)): "r",
            ("q", ("ex", "ex")): "q",
            ("r", ("ex", "ex")): "r",
        },
    )
    operad.ops.update({"ez": (("z",), "z"), "w": (("y",), "z"), "q": (("x", "x"), "z"), "r": (("x", "x"), "z")})
    operad.identities["z"] = "ez"
    _, violations = _same_as_the_replay(operad, 1)
    assert violations == [
        AxiomViolation("e", ("w", "m", repr((SWAP,))), "r", "q"),
        AxiomViolation("e", ("w", "n", repr((SWAP,))), "q", "r"),
    ]


def test_a_missing_permutation_entry_raises_as_the_replay_does():
    operad = _swap_table({("m", SWAP): "n"})
    assert _same_as_the_replay(operad, 1) == (UnsupportedOperad, "no permutation table entry for 'n'(1, 0)")
    with pytest.raises(UnsupportedOperad, match=r"no permutation table entry for 'n'\(1, 0\)"):
        check_operad_axioms(operad, 1)


def test_an_ill_typed_permutation_entry_raises():
    # b . (1 0) names the unary i, which the audit then permutes by a
    # permutation of two inputs: the table is ill-formed input, not a
    # violation to report.
    operad = TableOperad(
        ("x",),
        {"b": (("x", "x"), "x"), "i": (("x",), "x")},
        {"x": "i"},
        {("i", ("b",)): "b", ("b", ("i", "i")): "b", ("i", ("i",)): "i"},
        {("b", (1, 0)): "i"},
    )
    with pytest.raises(DegreeMismatch, match=r"^degree 1 expected, got 2$"):
        check_operad_axioms(operad, 1)


def _random_table(seed):
    """A table operad drawn at random.  Its types are x, y and w.  Into x
    go the unit ex, u and the nullary z; into y the unit ey, v and y_k of
    arity k from x, for k = 0, 1, 2; into w the unit ew and two operations
    for each list of inputs with at most three x once each y counts as two,
    named by the list (w_xy0 takes x, y).  So composites and permutations
    stay in the table.  The unit entries are right; every other composite
    or permutation is either operation of its signature.  Half the tables
    lack some permutation entries, and a few entries change the arity.
    The operations into w sort before the y_k they take, so law (e) can
    read a row that no earlier instance has built.
    """
    rng = random.Random(seed)
    ops = {
        "ex": (("x",), "x"),
        "u": (("x",), "x"),
        "z": ((), "x"),
        "ey": (("y",), "y"),
        "v": (("y",), "y"),
        "y_0": ((), "y"),
        "y_1": (("x",), "y"),
        "y_2": (("x", "x"), "y"),
        "ew": (("w",), "w"),
    }
    for k in range(4):
        for ins in itertools.product("xy", repeat=k):
            if ins.count("x") + 2 * ins.count("y") <= 3:
                for i in range(2):
                    ops["w_%s%d" % ("".join(ins), i)] = (ins, "w")
    identities = {"x": "ex", "y": "ey", "w": "ew"}
    names = sorted(ops)
    by_signature = {}
    for name in names:
        by_signature.setdefault(ops[name], []).append(name)
    table = {}
    for f in names:
        ins, out = ops[f]
        for gs in itertools.product(*[[g for g in names if ops[g][1] == t] for t in ins]):
            if f == identities[out]:
                table[(f, gs)] = gs[0]
            elif all(g == identities[t] for g, t in zip(gs, ins)):
                table[(f, gs)] = f
            else:
                signature = (sum((ops[g][0] for g in gs), ()), out)
                table[(f, gs)] = rng.choice(by_signature[signature])
    missing = rng.random() < 0.5
    perms = {}
    for f in names:
        ins, out = ops[f]
        for sigma in itertools.permutations(range(len(ins))):
            if missing and rng.random() < 0.05:
                continue
            pool = by_signature[(tuple(ins[i] for i in sigma), out)] if rng.random() < 0.995 else names
            perms[(f, sigma)] = rng.choice(pool)
    return TableOperad(("w", "x", "y"), ops, identities, table, perms)


def test_tables_match_the_per_instance_replay_on_random_table_operads():
    # Seed 57 lacks entries where a row built whole for law (e) would
    # raise before the replay's first failing call does.
    outcomes = [_same_as_the_replay(_random_table(seed), 1) for seed in list(range(40)) + [57]]
    raised = {kind for kind, _ in outcomes if isinstance(kind, type)}
    assert raised == {UnsupportedOperad, TypeMismatch, DegreeMismatch}
    assert sum(1 for kind, violations in outcomes if not isinstance(kind, type) and violations) >= 20


def _replayed_algebra_audit(alg, size_bound):
    """The algebra laws replayed instance by instance, the reference for
    ``check_algebra_axioms``: one ``operad.permute`` call per permutation,
    the inverse worked out per argument tuple and each arity read per
    block."""
    operad = alg.operad
    sized = operads._sized(operad, size_bound)
    by_output = operads._by_output(operad, sized)
    key = operad.key
    report = AxiomReport(size_bound=size_bound)

    def args_for(f):
        return itertools.product(*[alg.carrier[t] for t in operad.inputs(f)])

    for f, f_size in sized:
        report.instances["alg-b"] = report.instances.get("alg-b", 0) + 1
        for t in operad.inputs(f):
            unit = operad.identity(t)
            for (a,) in itertools.product(alg.carrier[t]):
                if eval_algebra(alg, unit, (a,)) != a:
                    report.violations.append(AxiomViolation("alg-b", (key(unit), repr(a)), repr(a), "identity"))
        k = operad.arity(f)
        for sigma in itertools.permutations(range(k)):
            report.instances["alg-c"] = report.instances.get("alg-c", 0) + 1
            fs = operad.permute(f, sigma)
            for args in args_for(fs):
                inverse = [0] * k
                for i in range(k):
                    inverse[sigma[i]] = i
                rearranged = tuple(args[inverse[j]] for j in range(k))
                if eval_algebra(alg, fs, args) != eval_algebra(alg, f, rearranged):
                    report.violations.append(AxiomViolation("alg-c", (key(f), repr(sigma), repr(args)), "", ""))
        for gs, _ in operads._arg_tuples(by_output, operad.inputs(f), size_bound - f_size):
            report.instances["alg-a"] = report.instances.get("alg-a", 0) + 1
            composite = operad.compose(f, gs)
            for args in args_for(composite):
                start = 0
                mids = []
                for g in gs:
                    block = args[start : start + operad.arity(g)]
                    start += operad.arity(g)
                    mids.append(eval_algebra(alg, g, block))
                lhs = eval_algebra(alg, composite, args)
                rhs = eval_algebra(alg, f, tuple(mids))
                if lhs != rhs:
                    report.violations.append(
                        AxiomViolation("alg-a", (key(f),) + tuple(map(key, gs)) + (repr(args),), repr(lhs), repr(rhs))
                    )
    report.violations.sort()
    return report


def _left_zero_algebra(in_shape_order):
    """The monoid {e, a, b} with x y = x for x, y in {a, b} and unit e, which
    is not commutative, on level 1.  An operation folds its arguments in
    its chain's diagram order, or, when ``in_shape_order`` is false, in
    the order given, which ignores how the operation permutes them."""
    table = {(x, y): (y if x == "e" else x) for x in "eab" for y in "eab"}

    def action(op):
        if in_shape_order:
            return lambda *args: chain_product(op, args, table, "e")
        return lambda *args: functools.reduce(lambda x, y: table[(x, y)], args, "e")

    return Algebra(OperadLevel(1), {ARROW: ("e", "a", "b")}, action)


@pytest.mark.parametrize("in_shape_order", [True, False])
def test_algebra_laws_match_the_per_instance_replay(in_shape_order):
    alg = _left_zero_algebra(in_shape_order)
    report = check_algebra_axioms(alg, 3)
    assert report == _replayed_algebra_audit(alg, 3)
    assert list(report.instances.items()) == list(_replayed_algebra_audit(alg, 3).instances.items())
    assert report.instances == {"alg-b": 10, "alg-c": 42, "alg-a": 17}
    assert {v.axiom for v in report.violations} == (set() if in_shape_order else {"alg-c"})


def test_algebra_laws_on_a_table_operad_match_the_per_instance_replay():
    # The swap table's m and n act as "first" and "second" on {0, 1}.
    def action(op):
        return {"ex": lambda a: a, "ey": lambda a: a, "m": lambda a, b: a, "n": lambda a, b: b}[op]

    lawful = _swap_table({("m", SWAP): "n", ("n", SWAP): "m"})
    alg = Algebra(lawful, {"x": (0, 1), "y": (0, 1)}, action)
    report = check_algebra_axioms(alg, 1)
    assert report == _replayed_algebra_audit(alg, 1) and report.ok
    broken = Algebra(_swap_table({("m", SWAP): "m", ("n", SWAP): "n"}), alg.carrier, action)
    report = check_algebra_axioms(broken, 1)
    assert report == _replayed_algebra_audit(broken, 1)
    assert [v.operands for v in report.violations] == [
        ("m", repr(SWAP), repr((0, 1))), ("m", repr(SWAP), repr((1, 0))),
        ("n", repr(SWAP), repr((0, 1))), ("n", repr(SWAP), repr((1, 0))),
    ]
    missing = Algebra(_swap_table({("m", SWAP): "n"}), alg.carrier, action)
    assert _outcome(check_algebra_axioms, missing, 1) == _outcome(_replayed_algebra_audit, missing, 1)
    assert _outcome(check_algebra_axioms, missing, 1) == (
        UnsupportedOperad, "no permutation table entry for 'n'(1, 0)"
    )

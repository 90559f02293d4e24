"""Enumeration counts, canonical codes, faces, metatree round-trips, and
shape interning."""

import hashlib
import itertools

import pytest

from opetopes import (
    ARROW,
    POINT,
    ZeroDimensional,
    enumerate_opetopes,
    faces,
    from_code,
    from_metatree,
    identity_on,
    metatree_stages,
)


def factorial(k):
    out = 1
    for i in range(2, k + 1):
        out *= i
    return out


def test_unique_low_dimensions():
    assert enumerate_opetopes(0, 7) == (POINT,)
    assert enumerate_opetopes(1, 7) == (ARROW,)


def test_two_dimensional_counts_are_factorials():
    twos = enumerate_opetopes(2, 5)
    for k in range(6):
        assert sum(1 for s in twos if s.arity == k) == factorial(k)


def test_enumeration_is_sorted_and_duplicate_free():
    for dim, bound in ((2, 4), (3, 3), (4, 3)):
        listing = enumerate_opetopes(dim, bound)
        codes = [s.code for s in listing]
        assert codes == sorted(codes)
        assert len(set(codes)) == len(codes)
        assert all(s.size <= bound for s in listing)


def test_codes_round_trip_on_five_hundred_shapes():
    pool = list(enumerate_opetopes(2, 6)) + list(enumerate_opetopes(3, 4))
    assert len(pool) >= 500
    for shape in pool[:500]:
        assert from_code(shape.code) == shape


def test_point_code_is_the_documented_constant():
    assert POINT.code == "pt"
    assert ARROW.code == "ar"


def test_codes_distinct_for_the_six_ternary_shapes():
    ternary = [s for s in enumerate_opetopes(2, 3) if s.arity == 3]
    codes = {s.code for s in ternary}
    assert len(codes) == 6


def test_construction_order_does_not_affect_code():
    # Build the same two-node level-1 tree assigning slots in both orders.
    from opetopes.trees import PasteTree, TreeNode

    twos = enumerate_opetopes(2, 2)
    binary = next(s for s in twos if s.arity == 2)
    unary = next(s for s in twos if s.arity == 1)

    def build(slot_first):
        slots = {0: TreeNode(unary, (None,)), 1: None}
        order = [0, 1] if slot_first else [1, 0]
        children = [None, None]
        for j in order:
            children[j] = slots[j]
        root = TreeNode(binary, tuple(children))
        return PasteTree(1, root, None, ((), (0,)), ((0, 0), (1,)))

    from opetopes import Opetope

    assert Opetope(3, build(True)).code == Opetope(3, build(False)).code


def test_faces_of_arrow_and_two_cells():
    assert faces(ARROW) == ((POINT,), POINT)
    with pytest.raises(ZeroDimensional):
        faces(POINT)
    for shape in enumerate_opetopes(2, 4):
        ins, out = faces(shape)
        assert all(f == ARROW for f in ins)
        assert out == ARROW
        assert len(ins) == shape.arity


def test_faces_respect_dimension():
    for shape in enumerate_opetopes(3, 4):
        ins, out = faces(shape)
        assert all(f.dim == 2 for f in ins)
        assert out.dim == 2


def test_three_cell_from_two_triangles_has_square_outface():
    # Two 2-inface shapes glued in a two-node tree compose to a 3-inface one.
    from opetopes.trees import PasteTree, TreeNode

    binary = next(s for s in enumerate_opetopes(2, 2) if s.arity == 2)
    root = TreeNode(binary, (TreeNode(binary, (None, None)), None))
    tree = PasteTree(1, root, None, ((0,), ()), ((0, 0), (0, 1), (1,)))
    from opetopes import Opetope

    shape = Opetope(3, tree)
    ins, out = faces(shape)
    assert [f.arity for f in ins] == [2, 2]
    assert out.arity == 3


def test_identity_on_point_is_arrow():
    assert identity_on(POINT) == ARROW


def test_metatree_round_trip():
    pool = (
        list(enumerate_opetopes(0, 1))
        + list(enumerate_opetopes(1, 1))
        + list(enumerate_opetopes(2, 4))
        + list(enumerate_opetopes(3, 4))
        + list(enumerate_opetopes(4, 3))
    )
    for shape in pool:
        stages = metatree_stages(shape)
        assert len(stages) == shape.dim
        assert from_metatree(stages) == shape


@pytest.mark.parametrize(
    "field, order",
    [
        ("node_order", [-1, 0]),
        ("node_order", [True, False]),
        ("node_order", [5, 0]),
        ("node_order", ["0", 1]),
        ("node_order", [0.0, 1]),
        ("leaf_order", [3]),
        ("node_order", [2, 0]),
    ],
)
def test_metatree_orders_must_be_in_range_ints(field, order):
    from opetopes import IllTyped

    binary = next(s for s in enumerate_opetopes(2, 2) if s.arity == 2)
    stages = metatree_stages(binary)
    assert stages[-1]["trees"][0]["node_order"] == [0, 1]
    stages[-1]["trees"][0][field] = order
    with pytest.raises(IllTyped, match="%s must list indices in range" % field):
        from_metatree(stages)


def _drop_root(stages):
    del stages[1]["trees"][0]["root"]


def _empty_stage_one(stages):
    stages[0]["trees"] = []


def _slots_not_a_list(stages):
    stages[1]["trees"][0]["root"]["slots"] = 3


def _stage_not_an_object(stages):
    stages[0] = stages[0]["trees"]


@pytest.mark.parametrize(
    "damage, message",
    [
        (_empty_stage_one, "metatree stage 1 has too few trees"),
        (_drop_root, "malformed metatree (KeyError: 'root')"),
        (_slots_not_a_list, "malformed metatree (TypeError: "),
        (_stage_not_an_object, "malformed metatree (TypeError: "),
    ],
)
def test_a_malformed_metatree_is_ill_typed(damage, message):
    # Every error of the public API is an OpetopeError: a metatree document
    # that is not laid out as metatree_stages writes it is IllTyped, not a
    # bare IndexError, KeyError or TypeError.
    from opetopes import IllTyped

    binary = next(s for s in enumerate_opetopes(2, 2) if s.arity == 2)
    stages = metatree_stages(binary)
    damage(stages)
    with pytest.raises(IllTyped) as raised:
        from_metatree(stages)
    assert str(raised.value).startswith(message)


def test_enumeration_deterministic_across_calls():
    a = [s.code for s in enumerate_opetopes(3, 4)]
    b = [s.code for s in enumerate_opetopes(3, 4)]
    assert a == b


def test_size_counts_all_stages():
    for shape in enumerate_opetopes(2, 4):
        assert shape.size == shape.arity
    ternary = [s for s in enumerate_opetopes(3, 4) if s.tree.node_count == 1]
    for shape in ternary:
        assert shape.size == 1 + shape.inputs[0].size
    # The size by its definition: the node count plus the labels' sizes,
    # or the edge type's for an empty tree.
    for dim, bound in [(3, 5), (4, 5), (5, 4)]:
        for shape in enumerate_opetopes(dim, bound):
            tree = shape.tree
            below = [tree.edge_type] if tree.is_empty else shape.inputs
            assert shape.size == tree.node_count + sum(s.size for s in below) <= bound


def test_malformed_codes_are_rejected_cleanly():
    from opetopes import IllTyped

    for bad in ("", "[", "[!pt", "[(ar:_)|n0", "zz", "pt garbage", "[(ar:_)|n7|l0]"):
        with pytest.raises(IllTyped):
            from_code(bad)


@pytest.mark.parametrize(
    "spelling",
    [
        "[!ar|n|l0.0]",  # leaf indices on an empty tree are not ignored
        "[!ar|n|l]",
        "[(ar:_)|n00|l0]",  # a zero-padded index
        "[([(ar:_)|n00|l0]:_)|n0|l0]",  # inside a label
    ],
)
def test_non_canonical_spellings_are_rejected(spelling):
    from opetopes import IllTyped

    with pytest.raises(IllTyped, match="not the canonical code"):
        from_code(spelling)


def test_parse_errors_quote_a_long_code_only_in_part():
    from opetopes import IllTyped
    from opetopes.shapes import QUOTE_LIMIT

    def message(code):
        with pytest.raises(IllTyped) as caught:
            from_code(code)
        return str(caught.value)

    assert message("[x") == "expected node at offset 1 in '[x'"
    at_limit = "[" + "x" * (QUOTE_LIMIT - 1)
    assert message(at_limit) == "expected node at offset 1 in %r" % at_limit
    long = "[" + "x" * 5000
    assert message(long) == "expected node at offset 1 in %r... (5001 characters)" % long[:QUOTE_LIMIT]
    assert message("pt" + "x" * 5000) == (
        "trailing garbage in code %r... (5002 characters)" % ("pt" + "x" * (QUOTE_LIMIT - 2))
    )


def test_negative_node_bound_is_rejected():
    from opetopes import IllTyped

    for dim in (0, 2, 3):
        with pytest.raises(IllTyped):
            enumerate_opetopes(dim, -1)
    assert enumerate_opetopes(2, 0) == (from_code("[!pt|n|l0]"),)


def test_metatree_text_rendering():
    from opetopes import render_metatree

    binary = next(s for s in enumerate_opetopes(2, 2) if s.arity == 2)
    text = render_metatree(binary)
    assert text.splitlines()[0].startswith("dim 1: |")
    assert "dim 2: ((_))" in text
    nullary3 = next(s for s in enumerate_opetopes(3, 1) if s.arity == 0)
    assert "!" in render_metatree(nullary3)


# -- interning and the derived table ---------------------------------------------


def test_codes_parse_to_the_interned_shape():
    for dim in range(5):
        for bound in range(6):
            for shape in enumerate_opetopes(dim, bound):
                assert from_code(shape.code) is shape


def test_permute_and_compose_return_interned_shapes():
    from opetopes.shapes import compose, permute_inputs

    for f in enumerate_opetopes(2, 4):
        for sigma in itertools.permutations(range(f.arity)):
            g = permute_inputs(f, sigma)
            assert from_code(g.code) is g
            assert permute_inputs(f, list(sigma)) is g
    unary = next(s for s in enumerate_opetopes(2, 1) if s.arity == 1)
    for f in enumerate_opetopes(3, 4):
        gs = [identity_on(t) for t in f.inputs]
        h = compose(f, gs)
        assert h is f
        assert compose(f, gs) is h
    binary = next(s for s in enumerate_opetopes(2, 2) if s.arity == 2)
    h = compose(binary, [unary, binary])
    assert from_code(h.code) is h
    assert h.arity == 3


def test_directly_built_shapes_equal_their_interned_twin():
    import copy
    import pickle

    from opetopes import Opetope

    for f in enumerate_opetopes(3, 3):
        assert Opetope(f.dim, f.tree) is f
        assert copy.copy(f) is f and copy.deepcopy(f) is f
        assert pickle.loads(pickle.dumps(f)) is f


def test_errors_are_not_memoised():
    from opetopes import DegreeMismatch
    from opetopes.shapes import permute_inputs

    ternary = next(s for s in enumerate_opetopes(2, 3) if s.arity == 3)
    for _ in range(2):
        with pytest.raises(DegreeMismatch):
            permute_inputs(ternary, (0, 0, 1))
    assert permute_inputs(ternary, (0, 1, 2)) is ternary


def test_label_listing_is_the_bounded_listing_one_down():
    # Enumeration draws labels from the listing one bound down; that listing
    # must be exactly the size filter of the larger one.
    for dim in range(5):
        for bound in range(1, 7):
            smaller = enumerate_opetopes(dim, bound - 1)
            larger = enumerate_opetopes(dim, bound)
            assert smaller == tuple(s for s in larger if s.size <= bound - 1)


def test_bound_six_listings_are_pinned(fresh_shapes):
    # Built cold and largest first, so no smaller listing is cached yet.  The
    # digest was taken from an enumerator that drew its labels from the full
    # bound-6 listing of the dimension below.
    four = enumerate_opetopes(4, 6)
    digest = hashlib.sha256("\n".join(s.code for s in four).encode()).hexdigest()
    assert digest == "26fb53ff1069d788da71f1c7b918b8b2eadaaab2e35f0f0b6a30710e1b0638cf"
    assert len(four) == 1857
    assert len(enumerate_opetopes(3, 6)) == 16867
    assert len(enumerate_opetopes(2, 6)) == 874


def test_deep_listings_do_not_depend_on_the_cache(fresh_shapes):
    # The listings below are filled bottom-up, so a deep dimension lists the
    # same shapes in a fresh cache as after a listing just below it.
    from opetopes import IllTyped
    from opetopes.shapes import MAX_ENUM_DIM

    cold = enumerate_opetopes(2000, 0)
    assert len(cold) == 1 and len(cold[0].code) == 8002
    fresh_shapes()
    enumerate_opetopes(1900, 0)
    assert [s.code for s in enumerate_opetopes(2000, 0)] == [s.code for s in cold]
    assert MAX_ENUM_DIM >= 2000
    with pytest.raises(IllTyped, match="^dimension %d is too deep to enumerate$" % (MAX_ENUM_DIM + 1)):
        enumerate_opetopes(MAX_ENUM_DIM + 1, 0)


def test_the_deepest_listed_code_parses_back(fresh_shapes):
    # Nested codes are parsed innermost first, so the bound-0 code at
    # MAX_ENUM_DIM, about 1,000 brackets deep, reads back on an empty intern
    # table (as in a new process reading a document) to the shape listed.
    from opetopes.shapes import MAX_ENUM_DIM

    code = enumerate_opetopes(MAX_ENUM_DIM, 0)[0].code
    fresh_shapes()
    shape = from_code(code)
    assert shape.code == code and shape.dim == MAX_ENUM_DIM
    assert enumerate_opetopes(MAX_ENUM_DIM, 0) == (shape,)


def test_a_malformed_code_reports_its_first_error():
    # The bracketed piece "[!zz]" fails on its own, at offset 10, but the
    # code is read left to right and fails first at offset 7.
    from opetopes import IllTyped

    with pytest.raises(IllTyped, match=r"^expected node order at offset 7 in '\[\(ar:_\)Z\[!zz\]'$"):
        from_code("[(ar:_)Z[!zz]")


def test_memo_does_not_make_the_audit_vacuous(fresh_shapes, monkeypatch):
    # A wrong permutation must still show up as a law (c) violation: the
    # audit compares results, it never assumes a law.
    from opetopes import OperadLevel, check_operad_axioms, shapes

    target = next(s for s in enumerate_opetopes(2, 3) if s.arity == 3)
    bad_sigma = (1, 0, 2)
    built = []
    genuine = shapes._permuted

    def corrupted(f, sigma):
        if f == target and sigma == bad_sigma:
            built.append(sigma)
            return f
        return genuine(f, sigma)

    monkeypatch.setattr(shapes, "_permuted", corrupted)
    report = check_operad_axioms(OperadLevel(1), 3)
    assert built == [bad_sigma]
    law_c = [v for v in report.violations if v.axiom == "c"]
    assert any(v.operands == (target.code, repr(bad_sigma), repr((0, 2, 1))) for v in law_c)


def test_threads_intern_one_object_per_code(fresh_shapes):
    import sys
    import threading

    from opetopes.shapes import permute_inputs

    codes = [s.code for s in enumerate_opetopes(3, 4)]
    chain = enumerate_opetopes(2, 5)[-1]
    perms = list(itertools.permutations(range(chain.arity)))
    fresh_shapes()
    chain = from_code(chain.code)
    results = {}

    def work(index):
        parsed = [from_code(code) for code in codes]
        permuted = [permute_inputs(chain, sigma) for sigma in perms]
        results[index] = parsed + permuted

    workers = [threading.Thread(target=work, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in workers)
    assert sorted(results) == list(range(8))
    first = results[0]
    for index in range(1, 8):
        assert all(a is b for a, b in zip(results[index], first))
    assert all(from_code(s.code) is s for s in first)


# Reference builders: each derived shape built as a tree, the way compose,
# permute_inputs and identity_on built every result before they looked
# results up by code.


def _reference_composite(f, gs):
    """Substitute each operand's tree for its node, deepest first so
    pending addresses never move."""
    from opetopes.shapes import Opetope
    from opetopes.trees import substitute_tree

    if f.dim == 1:
        return ARROW
    tree, original = f.tree, f.tree.node_order
    for i in sorted(range(len(gs)), key=lambda i: len(original[i]), reverse=True):
        tree, _ = substitute_tree(tree, original[i], gs[i].tree)
    return Opetope(f.dim, tree)


def _reference_permuted(f, sigma):
    from opetopes.shapes import Opetope
    from opetopes.trees import PasteTree

    if f.dim == 1 or sigma == tuple(range(f.arity)):
        return f
    tree = f.tree
    order = tuple(tree.node_order[s] for s in sigma)
    return Opetope(f.dim, PasteTree(tree.level, tree.root, None, order, tree.leaf_order))


def _reference_identity(shape):
    from opetopes.shapes import Opetope
    from opetopes.trees import single_node_tree

    return Opetope(shape.dim + 1, single_node_tree(shape.dim - 1, shape))


REFERENCE_BUILDERS = {
    "_composed": _reference_composite,
    "_permuted": _reference_permuted,
    "_identity_on": _reference_identity,
}


class _Births(dict):
    """An intern table that numbers its codes in the order they are added;
    the table never drops a code, so a number says what was interned when."""

    def __init__(self, table):
        super().__init__(table)
        self.born = {code: n for n, code in enumerate(table)}

    def setdefault(self, code, shape):
        if code not in self:
            self.born[code] = len(self.born)
        return super().setdefault(code, shape)


def test_derived_shapes_found_by_code_match_the_reference_builders(fresh_shapes, monkeypatch):
    # Every composite, permutation and identity the audits derive, first on
    # an empty intern table, then with the table kept and the derived table
    # emptied, so every result is looked up by code.  Within their bounds
    # the audits never compose or permute into a new code, so a last pass
    # goes past the bound for those.
    from opetopes import OperadLevel, check_operad_axioms, shapes

    seen = []  # (builder, was the code interned before the call, args, result)

    def record(name, real):
        def checked(*args):
            # The table keeps every shape, the reference's too, so what was
            # interned is read off the clock taken before either builder runs.
            clock = len(shapes._INTERNED.born)
            result = real(*args)
            assert REFERENCE_BUILDERS[name](*args) is result
            seen.append((name, shapes._INTERNED.born[result.code] < clock, args, result))
            return result

        return checked

    def taken():
        # Building a result interns it, so every result is the interned shape.
        assert all(shapes._INTERNED.get(result.code) is result for *_, result in seen)
        return [(name, known) for name, known, *_ in seen]

    monkeypatch.setattr(shapes, "_INTERNED", _Births(shapes._INTERNED))
    for name in REFERENCE_BUILDERS:
        monkeypatch.setattr(shapes, name, record(name, getattr(shapes, name)))
    levels = [(1, 4), (2, 5), (3, 6)]
    cold = [check_operad_axioms(OperadLevel(level), bound) for level, bound in levels]
    cold_calls, cold_taken = list(seen), taken()
    seen.clear()
    monkeypatch.setattr(shapes, "_DERIVED", {})
    warm = [check_operad_axioms(OperadLevel(level), bound) for level, bound in levels]
    warm_taken = taken()
    assert cold == warm
    assert all(report.violations == [] for report in cold)
    # Past the bound, on an empty table: composites of listed shapes, and
    # their reversals, are mostly new codes.
    seen.clear()
    fresh_shapes()
    monkeypatch.setattr(shapes, "_INTERNED", _Births(shapes._INTERNED))
    for dim, bound in ((3, 4), (4, 5)):
        listing = enumerate_opetopes(dim, bound)
        by_output = {}
        for g in listing:
            by_output.setdefault(g.output, []).append(g)
        for f in listing:
            pools = [by_output.get(t, []) for t in f.inputs]
            for gs in itertools.islice(itertools.product(*pools), 20):
                composite = shapes.compose(f, gs)
                shapes.permute_inputs(composite, tuple(reversed(range(composite.arity))))
    past_taken = taken()
    for name in REFERENCE_BUILDERS:
        assert {known for n, known in warm_taken if n == name} == {True}
    assert {known for n, known in cold_taken if n == "_identity_on"} == {False, True}
    for name in ("_composed", "_permuted"):
        assert {known for n, known in past_taken if n == name} == {False, True}
    # A composite's tree is empty when identities delete every node.
    composites = [result for name, _, _, result in cold_calls if name == "_composed"]
    assert any(r.dim >= 2 and r.tree.is_empty for r in composites)


def test_a_non_canonical_composite_code_is_rejected_on_a_cold_table(fresh_shapes, monkeypatch):
    from opetopes import IllTyped, compose, shapes

    f = next(s for s in enumerate_opetopes(3, 4) if s.arity == 2)
    gs = tuple(identity_on(t) for t in f.inputs)
    real = shapes._composite_code
    right = real(f, gs)
    head, _, tail = right.rpartition("|n")
    padded = head + "|n0" + tail  # a zero-padded first node index
    fresh_shapes()
    f, gs = from_code(f.code), tuple(from_code(g.code) for g in gs)
    monkeypatch.setattr(shapes, "_composite_code", lambda g, args: padded)
    with pytest.raises(IllTyped):
        compose(f, gs)
    monkeypatch.setattr(shapes, "_composite_code", real)
    assert compose(f, gs).code == right


# The reference for graft: the compose fold it ran before it read each
# composite off one code walk, with the identity on its type in every
# dangling slot.


def _reference_graft(tree):
    from opetopes.shapes import permute_inputs

    if tree.is_empty:
        return identity_on(tree.edge_type)
    if tree.level == 0:
        return ARROW
    leaves = tree.index.leaves
    return permute_inputs(_reference_fold(tree.root), tuple(leaves[leaf] for leaf in tree.leaf_order))


def _reference_fold(node):
    from opetopes.shapes import compose

    args = [
        identity_on(node.label.inputs[j]) if child is None else _reference_fold(child)
        for j, child in enumerate(node.children)
    ]
    return compose(node.label, args)


def test_graft_walk_matches_the_compose_fold(fresh_shapes, monkeypatch):
    # Every output of each listing, first on an empty table, grafted as
    # soon as its shape is parsed and before the reference folds it, then
    # warm, with the outputs forgotten and the table kept.
    from opetopes import shapes

    listings = [
        [s.code for s in enumerate_opetopes(dim, bound)] for dim, bound in ((2, 6), (3, 5), (4, 6), (5, 5))
    ]
    walks = []  # (was the composite interned before, operands)
    real = shapes._composite_code

    def recorded(f, gs):
        code = real(f, gs)
        walks.append((code in shapes._INTERNED, gs))
        return code

    monkeypatch.setattr(shapes, "_composite_code", recorded)
    for codes in listings:
        fresh_shapes()
        parsed = []
        for code in codes:
            shape = from_code(code)
            assert shape.output is _reference_graft(shape.tree)
            parsed.append(shape)
        for shape in parsed:
            shape._output = None
        assert all(shape.output is _reference_graft(shape.tree) for shape in parsed)
    assert {hit for hit, _ in walks} == {False, True}
    # An empty operand tree deletes its unary node.
    assert any(g is not None and g.dim >= 2 and g.tree.is_empty for _, gs in walks for g in gs)


def test_the_shape_layer_leaves_no_cyclic_garbage(fresh_shapes):
    # Parsing, enumeration, the audit and grafting free everything they
    # drop by reference counting: no recursive walk leaves a cycle behind.
    import gc

    from opetopes import OperadLevel, check_operad_axioms

    listing = enumerate_opetopes(3, 5)
    codes = [s.code for s in listing]
    stages = [metatree_stages(s) for s in listing]
    fresh_shapes()
    gc.collect()
    gc.disable()
    try:
        parsed = [from_code(code) for code in codes]
        assert enumerate_opetopes(3, 5) == tuple(parsed)
        check_operad_axioms(OperadLevel(1), 4)
        check_operad_axioms(OperadLevel(3), 5)
        assert all(s.output.dim == 2 for s in parsed)
        assert [from_metatree(st) for st in stages] == parsed
        assert [metatree_stages(s) for s in parsed] == stages
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_parsing_finds_nested_labels_by_code(fresh_shapes, monkeypatch):
    # The 83 shape codes of Z/4 with the recursion-complete dim-3 layer,
    # parsed cold: each nested label is looked up before its structure is
    # parsed, so every node built is a node of one of the 83 trees.
    from opetopes import shapes
    from opetopes.fixtures import monoid_set

    elements = ["0", "1", "2", "3"]
    table = {(a, b): str((int(a) + int(b)) % 4) for a in elements for b in elements}
    oset = monoid_set(elements, "0", table, shape_bound=3, deep_dim3=True)
    codes = sorted(set(oset.cells.values()))
    assert len(codes) == 83
    fresh_shapes()
    built = []
    real = shapes.TreeNode

    def counted(label, children):
        built.append(label)
        return real(label, children)

    monkeypatch.setattr(shapes, "TreeNode", counted)
    parsed = [from_code(code) for code in codes]
    assert [s.code for s in parsed] == codes
    assert len(built) == 157 == sum(s.tree.node_count for s in parsed if s.dim >= 2)


def test_a_root_is_validated_once_and_only_itself():
    # Building a shape marks its tree's root validated, so the permuted
    # variants on that root skip the walk over the slots.  A later tree on
    # the root still has its level and its root label checked, and the
    # mark belongs to the node object, not to its structure.
    from opetopes import IllTyped, Opetope
    from opetopes.trees import PasteTree, TreeNode

    threes = enumerate_opetopes(3, 3)
    unary = next(s for s in threes if s.arity == 1 and s.inputs[0].arity == 2)
    fits = next(s for s in threes if s.output == unary.inputs[0])
    misfits = next(s for s in threes if s.output.dim == 2 and s.output != unary.inputs[0])

    def root(child_label):
        return TreeNode(unary, (TreeNode(child_label, (None,) * child_label.arity),))

    def tree(level, node):
        nodes, leaves = node.index
        return PasteTree(level, node, None, tuple(nodes), tuple(leaves))

    good = root(fits)
    assert not good._valid
    shape = Opetope(4, tree(2, good))
    assert good._valid
    for dim, level, message in [
        (5, 2, "a 5-dimensional shape needs a level-3 tree"),
        (4, 3, "a 4-dimensional shape needs a level-2 tree"),
        (5, 3, "node labels must be 4-dimensional shapes"),
    ]:
        with pytest.raises(IllTyped) as raised:
            Opetope(dim, tree(level, good))
        assert str(raised.value) == message
    with pytest.raises(IllTyped) as raised:
        Opetope(5, tree(3, root(fits)))
    assert str(raised.value) == "node labels must be 4-dimensional shapes"
    twin = root(fits)
    assert twin == good and twin is not good and not twin._valid
    assert Opetope(4, tree(2, twin)) is shape and twin._valid

    messages = []
    for bad in (root(misfits), root(misfits)):
        for _ in range(2):
            with pytest.raises(IllTyped) as raised:
                Opetope(4, tree(2, bad))
            messages.append(str(raised.value))
        assert not bad._valid
    assert messages == [
        "slot 0 of node () expects %s, child composes to %s" % (unary.inputs[0].code, misfits.output.code)
    ] * 4


# -- the derived table and shared corolla structure ------------------------------


def test_a_cold_audit_keeps_one_derived_table_and_shares_corolla_indexes(fresh_shapes, monkeypatch):
    # Derived shapes live in one table, never in a slot of the shape; it
    # keeps composites under their operands (f, g_1, ..., g_k) and ray
    # shapes under one tag, but no identity or permutation, which are
    # found by code; and the corollas that identities build share one
    # index per arity.
    from opetopes import Opetope, OperadLevel, check_operad_axioms, shapes

    corollas = []
    real = shapes.single_node_tree

    def recorded(level, label):
        tree = real(level, label)
        corollas.append(tree)
        return tree

    monkeypatch.setattr(shapes, "single_node_tree", recorded)
    report = check_operad_axioms(OperadLevel(3), 6)
    assert report.violations == []
    assert "_memo" not in Opetope.__slots__ and not hasattr(POINT, "_memo")
    assert shapes._DERIVED
    arities = set()
    for key, result in shapes._DERIVED.items():
        f, *rest = key
        if rest and isinstance(rest[0], str):
            assert rest[0] == "ray"
            continue
        assert len(key) == 1 + f.arity
        assert all(isinstance(g, Opetope) for g in key)
        assert result.output is f.output
        assert result.inputs == tuple(x for g in rest for x in g.inputs)
        arities.add(f.arity)
    assert 0 in arities and len(arities) > 2
    indexes = {}
    for tree in corollas:
        assert tree.node_count == 1 and not any(tree.root.children)
        indexes.setdefault(tree.leaf_count, set()).add(id(tree.root.index))
    assert len(corollas) > len(indexes) > 1
    assert all(len(ids) == 1 for ids in indexes.values())


def test_the_identity_permutation_is_its_shape_and_stores_nothing(fresh_shapes):
    from opetopes import shapes
    from opetopes.shapes import permute_inputs

    listing = enumerate_opetopes(3, 3)[:40]
    before = dict(shapes._DERIVED)
    assert permute_inputs(ARROW, (0,)) is ARROW
    for shape in listing:
        assert permute_inputs(shape, range(shape.arity)) is shape
    assert shapes._DERIVED == before


def test_identities_and_permutations_are_found_again_by_code(fresh_shapes):
    # Neither is kept in the derived table: a repeat call finds the shape
    # the first call interned, on emptied tables as on warm ones.
    from opetopes import shapes
    from opetopes.shapes import permute_inputs

    rounds = []
    for _ in range(2):
        f = next(s for s in enumerate_opetopes(3, 5) if s.arity == 3)
        before = dict(shapes._DERIVED)
        derive = [
            lambda: identity_on(f),
            lambda: identity_on(f.output),
            lambda: permute_inputs(f, (2, 0, 1)),
            lambda: permute_inputs(f, [1, 0, 2]),
        ]
        made = [d() for d in derive]
        assert all(d() is g for d, g in zip(derive, made))
        assert all(shapes._INTERNED[g.code] is g for g in made)
        assert shapes._DERIVED == before
        assert [g.arity for g in made] == [1, 1, 3, 3]
        assert made[2].inputs == (f.inputs[2], f.inputs[0], f.inputs[1])
        rounds.append(made)
        fresh_shapes()
    assert [g.code for g in rounds[0]] == [g.code for g in rounds[1]]
    assert not any(a is b for a, b in zip(*rounds))


def test_permutation_errors_are_unchanged():
    from opetopes import DegreeMismatch, TypeMismatch
    from opetopes.shapes import permute_inputs

    twos = enumerate_opetopes(2, 2)
    unary = next(s for s in twos if s.arity == 1)
    binary = next(s for s in twos if s.arity == 2)
    for f, sigma, error, message in [
        (POINT, (), TypeMismatch, "the point cannot be permuted"),
        (ARROW, (), DegreeMismatch, "permutation () does not act on arity 1"),
        (unary, (0, 1), DegreeMismatch, "permutation (0, 1) does not act on arity 1"),
        (binary, (0, 0), DegreeMismatch, "permutation (0, 0) does not act on arity 2"),
        (binary, (1,), DegreeMismatch, "permutation (1,) does not act on arity 2"),
    ]:
        for _ in range(2):
            with pytest.raises(error) as raised:
                permute_inputs(f, sigma)
            assert str(raised.value) == message


def test_single_node_trees_of_one_arity_share_their_structure():
    from opetopes.trees import single_node_tree

    twos = enumerate_opetopes(2, 3)
    for k in range(4):
        labels = [s for s in twos if s.arity == k][:3]
        trees = [single_node_tree(0, label) for label in labels]
        first = trees[0]
        assert first.node_order == ((),) and first.leaf_order == tuple((j,) for j in range(k))
        assert first.root.children == (None,) * k
        assert first.index == ({(): 0}, {(j,): j for j in range(k)})
        for tree, label in zip(trees, labels):
            assert tree.root.label is label and tree.level == 0
            assert tree.root.index is first.root.index
            assert tree.leaf_order is first.leaf_order
            assert tree.root.children is first.root.children


@pytest.mark.parametrize("length", [600, 1200])
def test_a_deep_chain_builds_without_recursion(fresh_shapes, length):
    # Indexing, encoding and parsing a tree walk it with an explicit stack,
    # so a chain deeper than the interpreter's recursion limit still builds
    # and its code reads back on an empty intern table.
    from opetopes import Opetope
    from opetopes.trees import PasteTree, TreeNode

    root = None
    for _ in range(length):
        root = TreeNode(ARROW, (root,))
    nodes, leaves = root.index
    assert list(nodes) == [(0,) * d for d in range(length)]
    assert list(leaves) == [(0,) * length]
    shape = Opetope(2, PasteTree(0, root, None, tuple(nodes), tuple(leaves)))
    assert shape.arity == length and shape.inputs == (ARROW,) * length
    code = "[%s_%s|n%s|l0]" % ("(ar:" * length, ")" * length, ".".join(map(str, range(length))))
    assert shape.code == code
    fresh_shapes()
    parsed = from_code(code)
    assert parsed is not shape and parsed.code == code and parsed.arity == length
    assert parsed.tree.node_order == shape.tree.node_order


@pytest.mark.parametrize("length", [600, 1200])
def test_a_deep_chain_has_a_metatree_without_recursion(length):
    # The metatree is written, rendered and read back by walks that keep
    # an explicit stack, so a chain deeper than the recursion limit
    # round-trips like a short one.
    from opetopes import Opetope, render_metatree
    from opetopes.trees import PasteTree, TreeNode

    root = None
    for _ in range(length):
        root = TreeNode(ARROW, (root,))
    nodes, leaves = root.index
    shape = Opetope(2, PasteTree(0, root, None, tuple(nodes), tuple(leaves)))
    stages = metatree_stages(shape)
    assert stages[0] == {"dim": 1, "trees": [{"arrow": True}] * length}
    spec = stages[1]["trees"][0]["root"]
    for _ in range(length - 1):
        assert len(spec) == 1 and len(spec["slots"]) == 1
        spec = spec["slots"][0]
    assert spec == {"slots": [None]}
    order = ".".join(map(str, range(length)))
    assert render_metatree(shape) == "dim 1: %s\ndim 2: %s_%s n%s l0" % (
        "  ".join(["|"] * length), "(" * length, ")" * length, order
    )
    assert from_metatree(stages) is shape


def test_a_shape_deeper_than_the_recursion_limit_has_a_size_and_a_metatree(fresh_shapes):
    # The metatree is written and read one stage at a time and the size is
    # summed lowest dimension first, so a shape of dimension 1,200 sizes,
    # renders and round-trips like a low one, on cold tables.
    from opetopes import render_metatree

    shape = POINT
    for _ in range(1200):
        shape = identity_on(shape)
    assert shape.dim == 1200 and shape.size == 1199
    stages = metatree_stages(shape)
    assert [stage["dim"] for stage in stages] == list(range(1, 1201))
    assert stages[0]["trees"] == [{"arrow": True}]
    unary = [{"root": {"slots": [None]}, "node_order": [0], "leaf_order": [0]}]
    assert all(stage["trees"] == unary for stage in stages[1:])
    lines = render_metatree(shape).split("\n")
    assert lines[0] == "dim 1: |" and lines[1:] == ["dim %d: (_) n0 l0" % d for d in range(2, 1201)]
    assert from_metatree(stages) is shape
    fresh_shapes()
    rebuilt = from_metatree(stages)
    assert rebuilt is not shape and rebuilt.code == shape.code and rebuilt.size == 1199


@pytest.mark.parametrize("length", [600, 1200])
def test_a_deep_tree_composes_without_recursion(fresh_shapes, length):
    # Grafting a tree and writing a composite's code walk with an explicit
    # stack, so a shape whose tree, or whose label's tree, is deeper than
    # the interpreter's recursion limit still composes.
    from opetopes import compose

    unary = identity_on(ARROW)
    assert unary.code == "[(ar:_)|n0|l0]"
    order = ".".join(map(str, range(length)))
    tower = from_code("[%s_%s|n%s|l0]" % (("(%s:" % unary.code) * length, ")" * length, order))
    assert tower.dim == 3 and tower.arity == length
    assert tower.output is unary
    chain = from_code("[%s_%s|n%s|l0]" % ("(ar:" * length, ")" * length, order))
    assert compose(chain, (unary,) * length) is chain
    # The chain on the root, the unary shape on its first slot.
    code = "[(%s:(%s:_)%s)|n0.1|l%s]" % (chain.code, unary.code, ",_" * (length - 1), order)
    shape = from_code(code)
    assert shape.code == code and shape.inputs == (chain, unary)
    assert shape.output is chain

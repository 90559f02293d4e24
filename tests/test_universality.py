"""The universality/balancedness recursion and the weak n-category check."""

import itertools

import pytest

from opetopes import (
    CheckContext,
    DimensionOverflow,
    InsufficientDimension,
    InvalidSet,
    MalformedConfig,
    OpetopicSet,
    UnknownCell,
    Verdict,
    check_weak_n_category,
    enumerate_opetopes,
    is_balanced,
    is_universal,
    make_config,
    occupants,
    validate,
)
from opetopes.fixtures import _standard_binary, monoid_set, z2_weak2
from opetopes.osets import competitors, enumerate_configs, outface_extensions
from opetopes.universality import _note_dim, ray_shape
from reference_configs import config_with, niche_of, ray_niche, ray_on_input, ray_on_output
from reference_slices import composites


def diagram_binary():
    return _standard_binary(enumerate_opetopes(2, 2))


def two_occupant_set():
    """A binary niche with two distinct fillers (different outfaces)."""
    arrow = enumerate_opetopes(1, 1)[0]
    shape = diagram_binary()
    cells = {
        "o": "pt",
        "a": arrow.code,
        "b": arrow.code,
        "c1": shape.code,
        "c2": shape.code,
    }
    faces = {
        "a": (("o",), "o"),
        "b": (("o",), "o"),
        "c1": (("a", "a"), "a"),
        "c2": (("a", "a"), "b"),
    }
    return OpetopicSet(2, 2, cells, faces)


# -- is_universal ------------------------------------------------------------


def test_unique_occupants_above_n_are_universal(z2_set):
    ctx = CheckContext(z2_set, 1)
    for cell in z2_set.cells_of_dim(2):
        verdict = is_universal(ctx, cell)
        assert verdict.value
        assert verdict.witnesses == (cell,)


def test_two_occupants_above_n_are_both_non_universal():
    oset = two_occupant_set()
    ctx = CheckContext(oset, 1)
    assert not is_universal(ctx, "c1")
    assert not is_universal(ctx, "c2")
    # Falsy through its value: as a plain tuple a verdict with witnesses
    # would be true.
    assert is_universal(ctx, "c1").witnesses == ("c1", "c2")


def test_golden_universal_one_cells(z2_set, z3_set, broken_set):
    # Hand-unfolded recursion at n = 1: a 1-cell is universal exactly when
    # pasting it before a missing arrow reaches every filler, i.e. when
    # left translation by its element is surjective.  Groups: everything.
    # The corrupted table kills exactly the element 1.
    golden = {
        "z2": {"a0": True, "a1": True},
        "z3": {"a0": True, "a1": True, "a2": True},
        "broken": {"a0": True, "a1": False, "a2": True},
    }
    for name, oset in (("z2", z2_set), ("z3", z3_set), ("broken", broken_set)):
        ctx = CheckContext(oset, 1)
        for cell, expected in golden[name].items():
            assert bool(is_universal(ctx, cell)) is expected, (name, cell)


def test_zero_cells_are_vacuously_universal(z2_set):
    ctx = CheckContext(z2_set, 1)
    assert is_universal(ctx, "o").value


# -- is_balanced -------------------------------------------------------------


def test_punctured_niche_above_n_plus_one_is_balanced(z3_set):
    # dim 2 punctured niches are trivially balanced when n = 0
    ctx = CheckContext(z3_set, 0)
    shape = diagram_binary()
    cfg = make_config(z3_set, shape.code, ("a1", None), None, {(): "o"})
    assert cfg.kind == "punctured_niche"
    assert is_balanced(ctx, cfg).value


def test_balancedness_requires_a_punctured_niche(z2_set):
    ctx = CheckContext(z2_set, 1)
    with pytest.raises(MalformedConfig):
        is_balanced(ctx, niche_of(z2_set, z2_set.cells_of_dim(2)[0]))


def test_balanced_z2_punctured_niche_forced_filler(z2_set):
    # (?, g) -> ? with the far pin at the base point: condition 1 reduces
    # to solving g * x = b in Z/2, so the configuration is balanced.
    ctx = CheckContext(z2_set, 1)
    shape = diagram_binary()
    cfg = make_config(z2_set, shape.code, ("a1", None), None, {(): "o"})
    assert is_balanced(ctx, cfg).value


def test_unfillable_punctured_niche_is_not_balanced():
    # No 2-cells at all: the outface extension (any arrow) cannot extend
    # to an occupant, so condition 1 fails.
    arrow = enumerate_opetopes(1, 1)[0]
    oset = OpetopicSet(2, 2, {"o": "pt", "a": arrow.code}, {"a": (("o",), "o")})
    ctx = CheckContext(oset, 1)
    shape = diagram_binary()
    cfg = make_config(oset, shape.code, ("a", None), None, {(): "o"})
    verdict = is_balanced(ctx, cfg)
    assert not verdict.value
    assert any("no-universal-filler" in w for w in verdict.witnesses)


def test_faithfulness_skips_non_universal_occupants():
    # At n = 2 the punctured niche (a, ?) -> ? has two occupants over its
    # one extension a.  Y = (a, c) -> a is universal: 3-cells paste the
    # unary cell ia : a -> a onto its output, and ic : c -> c and
    # r : c2 -> c onto its input c, so its output composition and its
    # input competitions at c and c2 are filled.  V = (a, c2) -> a is not
    # universal, as nothing fills its output composition, and its input
    # competition at c (met by Y) has no 3-cell either.  So the niche is
    # balanced only because faithfulness skips V.
    arrow = enumerate_opetopes(1, 1)[0]
    binary = diagram_binary()
    unary = next(s for s in enumerate_opetopes(2, 2) if s.arity == 1)
    cells = {"o": "pt", "p": "pt"}
    faces = {}

    def add(name, shape, infaces, outface):
        cells[name] = shape.code
        faces[name] = (tuple(infaces), outface)

    add("a", arrow, ("p",), "o")
    add("c", arrow, ("o",), "o")
    add("c2", arrow, ("o",), "o")
    add("Y", binary, ("a", "c"), "a")
    add("V", binary, ("a", "c2"), "a")
    add("ia", unary, ("a",), "a")
    add("ic", unary, ("c",), "c")
    add("r", unary, ("c2",), "c")
    for mirrored in (False, True):
        for ray, (big, pos), outface in (
            ("ia", ray_shape(binary, -1, mirrored), "Y"),
            ("ic", ray_shape(binary, 1, mirrored), "Y"),
            ("r", ray_shape(binary, 1, mirrored), "V"),
        ):
            infaces = [ray, ray]
            infaces[pos] = "Y"
            add("%s-%d" % (ray, mirrored), big, infaces, outface)
    oset = OpetopicSet(3, 3, cells, faces)
    assert validate(oset).ok
    ctx = CheckContext(oset, 2)
    assert is_universal(ctx, "Y") and not is_universal(ctx, "V")
    cfg = make_config(oset, binary.code, ("a", None), None, {(): "o"})
    assert outface_extensions(oset, cfg) == ("a",)
    assert occupants(oset, cfg) == ("V", "Y")
    assert is_balanced(ctx, cfg) == Verdict(True)


# -- the ray shapes -----------------------------------------------------------


@pytest.mark.parametrize(
    "dim, bound, outputs, inputs", [(2, 5, 308, 1438), (3, 4, 110, 132), (4, 3, 26, 6)]
)
def test_ray_shape_is_the_directly_built_ray(dim, bound, outputs, inputs):
    # Every slot of every base in both orders: the derived ray is the
    # interned copy of the directly built one, with its base position.
    triples = {"output": 0, "input": 0}
    for base in enumerate_opetopes(dim, bound):
        for mirrored in (False, True):
            for slot in range(-1, base.arity):
                if slot < 0:
                    reference, kind = ray_on_output(base, mirrored), "output"
                else:
                    reference, kind = ray_on_input(base, slot, mirrored), "input"
                shape, cell_pos = ray_shape(base, slot, mirrored)
                assert shape is reference[0] and cell_pos == reference[1], (base.code, slot, mirrored)
                triples[kind] += 1
    assert triples == {"output": outputs, "input": inputs}


# -- composites ---------------------------------------------------------------


def test_composites_read_off_the_multiplication_table(z2_set):
    ctx = CheckContext(z2_set, 1)
    shape = diagram_binary()
    niche = make_config(z2_set, shape.code, ("a1", "a1"), None)
    assert composites(ctx, niche) == ("a0",)


def test_composites_of_an_unfilled_niche_are_empty():
    oset = two_occupant_set()
    ctx = CheckContext(oset, 1)
    shape = diagram_binary()
    niche = make_config(oset, shape.code, ("b", "b"), None)
    assert composites(ctx, niche) == ()


def test_nullary_composite_is_the_unit(z3_set):
    ctx = CheckContext(z3_set, 1)
    nullary = next(s for s in enumerate_opetopes(2, 2) if s.arity == 0)
    niche = make_config(z3_set, nullary.code, (), None, {(): "o"})
    assert composites(ctx, niche) == ("a0",)


def test_composites_unique_at_dimension_n_plus_one(z3_set):
    ctx = CheckContext(z3_set, 1)
    for cfg in enumerate_configs(z3_set, 2)[:100]:
        assert len(composites(ctx, cfg)) <= 1


# -- the full check -----------------------------------------------------------


def test_point_passes_at_n_zero(point_set):
    verdict = check_weak_n_category(point_set, 0, 2)
    assert verdict.ok


def test_z2_and_z3_pass_at_n_one(z2_set, z3_set):
    assert check_weak_n_category(z2_set, 1, 2).ok
    assert check_weak_n_category(z3_set, 1, 4).ok


def test_broken_magma_fails_with_a_witness(broken_set):
    verdict = check_weak_n_category(broken_set, 1, 4)
    assert not verdict.ok
    assert verdict.failure["condition"] == 2
    assert verdict.failure["niche"]


def test_insufficient_dimension_is_rejected(point_set):
    with pytest.raises(InsufficientDimension, match=r"^max_dim 1 < n\+1 = 2$"):
        check_weak_n_category(point_set, 1, 2)


def test_invalid_sets_are_rejected():
    arrow = enumerate_opetopes(1, 1)[0]
    bad = OpetopicSet(1, 2, {"o": "pt", "a": arrow.code}, {"a": (("o",), "missing")})
    with pytest.raises(InvalidSet):
        check_weak_n_category(bad, 0, 2)


def test_every_top_niche_has_exactly_one_occupant_in_passing_sets(z2_set, z3_set):
    for oset, bound in ((z2_set, 2), (z3_set, 4)):
        assert check_weak_n_category(oset, 1, bound).ok
        for cfg in enumerate_configs(oset, 2, size_bound=bound):
            assert len(occupants(oset, cfg)) == 1


def test_deleting_a_filler_breaks_condition_one(z2_set):
    target = next(
        c
        for c in z2_set.cells_of_dim(2)
        if z2_set.shape(z2_set.cells[c]).arity == 2
    )
    # drop the filler and everything whose boundary mentions it
    doomed = {target}
    changed = True
    while changed:
        changed = False
        for name, (ins, out) in z2_set.faces.items():
            if name not in doomed and (doomed & set(ins) or out in doomed):
                doomed.add(name)
                changed = True
    cells = {k: v for k, v in z2_set.cells.items() if k not in doomed}
    faces = {k: v for k, v in z2_set.faces.items() if k not in doomed}
    pruned = OpetopicSet(z2_set.max_dim, z2_set.shape_bound, cells, faces)
    verdict = check_weak_n_category(pruned, 1, 2)
    assert not verdict.ok
    assert any(r["universal_occupant"] is None for r in verdict.condition1)


def test_memoisation_is_transparent(broken_set):
    # A verdict read off the context's table is the one the reference
    # decides afresh on every call, witnesses included.
    ctx, reference = CheckContext(broken_set, 1), CheckContext(broken_set, 1)
    for cell in sorted(broken_set.cells):
        assert is_universal(ctx, cell) == reference_is_universal(reference, cell, None, LISTED), cell


def test_verdicts_identical_across_runs(z2_set, broken_set):
    for oset, bound in ((z2_set, 2), (broken_set, 4)):
        one = check_weak_n_category(oset, 1, bound)
        two = check_weak_n_category(oset, 1, bound)
        assert (one.ok, one.condition1, one.condition2, one.failure) == (
            two.ok,
            two.condition1,
            two.condition2,
            two.failure,
        )


def test_each_context_has_a_memo_of_its_own(z2_set):
    first, second = CheckContext(z2_set, 1), CheckContext(z2_set, 1)
    assert first.verdicts == {} and first.verdicts is not second.verdicts
    verdict = is_universal(first, "a0")
    assert first.verdicts["a0"] == verdict and second.verdicts == {}


def test_verdicts_reports_and_contexts_compare_by_value(z2_set, broken_set):
    assert validate(z2_set) == validate(z2_set)
    assert validate(z2_set) != validate(broken_set)
    assert check_weak_n_category(broken_set, 1, 4) == check_weak_n_category(broken_set, 1, 4)
    assert check_weak_n_category(broken_set, 1, 4) != check_weak_n_category(broken_set, 1, 3)
    assert CheckContext(z2_set, 1) == CheckContext(z2_set, 1)
    assert CheckContext(z2_set, 1) != CheckContext(z2_set, 2)
    assert CheckContext(z2_set, 1) != (z2_set, 1, {}, 0)


def test_recursion_never_climbs_past_n_plus_two(z2_set, z3_set, broken_set):
    for oset, bound in ((z2_set, 2), (z3_set, 4), (broken_set, 4)):
        verdict = check_weak_n_category(oset, 1, bound)
        assert verdict.max_dim_reached <= 1 + 2


def test_mirror_variant_order_changes_nothing(z2_set, broken_set):
    for oset in (z2_set, broken_set):
        plain, swapped, memo = CheckContext(oset, 1), CheckContext(oset, 1), {}
        for cell in oset.cells:
            expected = reference_is_universal(swapped, cell, memo, SWAPPED)
            assert is_universal(plain, cell).value == expected.value, cell


# -- the deeper recursion (n = 2) ----------------------------------------------


def test_recursion_complete_z2_passes_at_n_two():
    from opetopes.fixtures import z2_weak2
    from opetopes.osets import validate

    full = z2_weak2()
    assert validate(full).ok
    verdict = check_weak_n_category(full, 2, 2)
    assert verdict.ok
    assert verdict.max_dim_reached <= 2 + 2
    assert verdict.niche_counts == {1: 1, 2: 11, 3: 5}


def test_plain_z2_is_not_a_weak_two_category(z2_set):
    verdict = check_weak_n_category(z2_set, 2, 2)
    assert not verdict.ok
    assert verdict.failure["condition"] == 1


def test_input_competition_branch_runs_at_n_two(monkeypatch):
    # The balancedness condition that climbs a dimension only fires for
    # m + 1 <= n + 1; at n = 2 it must have consulted punctured niches
    # pasted on an inface: the missing unary cell sits above a slot of the
    # root node, so its far end is a depth-two edge.
    from opetopes import universality
    from opetopes.fixtures import z2_weak2

    asked = []
    genuine = universality._balanced

    def recording(ctx, shape, infaces, extensions):
        asked.append((shape, infaces))
        return genuine(ctx, shape, infaces, extensions)

    monkeypatch.setattr(universality, "_balanced", recording)
    full = z2_weak2()
    ctx = CheckContext(full, 2)
    for cell in full.cells_of_dim(1):
        assert is_universal(ctx, cell).value
    missing_paths = {shape.tree.node_order[infaces.index(None)] for shape, infaces in asked}
    assert () in missing_paths, "no output-composition niche was ever consulted"
    input_competition = [path for path in missing_paths if len(path) == 1]
    assert input_competition, "no input-competition niche was ever consulted"


# sha256 of the verdict document of each check, as ``check --out`` writes it.
CHECKED_VERDICTS = {
    ("z3_monoid", 1, 4): "3e530b76b9e2ab1ba356a5b6aea6f5333d73a8dc873aca04d40a8a5052917ec9",
    ("broken_magma", 1, 4): "bc62e0751945860bc2e248b69bbc710a30f6c324b49a57b1dd41f6f0839c93af",
    ("z2_weak2", 2, 2): "c6ad4e9d572631b8c4f0f5ee8640791a59e066b705c54ac237b4a46c2f50bfcc",
}


def test_the_check_builds_no_configuration_with_make_config(monkeypatch):
    # Niches come checked from enumeration, and the recursion reads every
    # punctured niche, its outface extensions and fillers off the indexes.
    import hashlib
    import sys

    from opetopes import documents, osets
    from opetopes.fixtures import FIXTURES

    def refuse(*args, **kwargs):
        raise AssertionError("make_config was called")

    genuine = osets.make_config
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "opetopes" and getattr(module, "make_config", None) is genuine:
            monkeypatch.setattr(module, "make_config", refuse)
    builders = {**FIXTURES, "z2_weak2": z2_weak2}
    for (name, n, bound), digest in CHECKED_VERDICTS.items():
        verdict = check_weak_n_category(builders[name](), n, bound)
        text = documents.dumps(documents.verdict_to_document(verdict))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, name


def test_faithfulness_failure_decides_a_deep_fixture_without_h2_0():
    # Without the 3-cell h2_0 the set stays valid, and a0 loses universality
    # only through the faithfulness condition: around the universal
    # occupant f1_00, competition at the restored inface is unbalanced.
    from opetopes.fixtures import z2_weak2
    from opetopes.osets import validate

    full = z2_weak2()
    cells = {k: v for k, v in full.cells.items() if k != "h2_0"}
    faces = {k: v for k, v in full.faces.items() if k != "h2_0"}
    pruned = OpetopicSet(full.max_dim, full.shape_bound, cells, faces)
    assert validate(pruned).ok
    verdict = check_weak_n_category(pruned, 2, 2)
    assert not verdict.ok
    assert verdict.failure["condition"] == 2
    assert verdict.failure["niche"] == "[!pt|n|l0]()->?[root=o]"
    assert verdict.failure["non_universal_composite"]["trace"] == [
        "competitor:o",
        "occupant:f1_00",
        "competitor:a0",
        "no-universal-filler-over:f1_00",
    ]
    assert not is_universal(CheckContext(pruned, 2), "a0")


def test_memo_transparent_at_n_two():
    from opetopes.fixtures import z2_weak2

    full = z2_weak2()
    ctx, reference = CheckContext(full, 2), CheckContext(full, 2)
    for cell in sorted(full.cells):
        assert is_universal(ctx, cell) == reference_is_universal(reference, cell, None, LISTED), cell


def test_mirror_variant_order_changes_nothing_at_n_two():
    from opetopes.fixtures import z2_weak2

    full = z2_weak2()
    plain, swapped, memo = CheckContext(full, 2), CheckContext(full, 2), {}
    for cell in full.cells:
        expected = reference_is_universal(swapped, cell, memo, SWAPPED)
        assert is_universal(plain, cell).value == expected.value, cell


def test_dimension_overflow_when_the_set_is_too_shallow(z2_set):
    from opetopes import DimensionOverflow, OpetopicSet

    cells = {k: v for k, v in z2_set.cells.items() if z2_set.dim_of(k) <= 2}
    faces = {k: v for k, v in z2_set.faces.items() if k in cells}
    shallow = OpetopicSet(2, 2, cells, faces)
    ctx = CheckContext(shallow, 2)
    with pytest.raises(
        DimensionOverflow, match="^universality at dimension 2 needs configurations at 3 > max_dim$"
    ):
        is_universal(ctx, shallow.cells_of_dim(2)[0])


def test_deep_fixture_still_passes_at_lower_n():
    from opetopes.fixtures import z2_weak2

    full = z2_weak2()
    assert check_weak_n_category(full, 1, 2).ok


def test_deep_fixture_builds_deterministically():
    from opetopes.fixtures import z2_weak2
    from opetopes import documents

    assert documents.set_to_document(z2_weak2()) == documents.set_to_document(z2_weak2())


def test_multielement_monoids_are_not_weak_zero_categories(z2_set):
    verdict = check_weak_n_category(z2_set, 0, 2)
    assert not verdict.ok
    assert verdict.failure["condition"] == 1


# -- the pruned recursion against the unpruned reference ------------------------


# The two listing orders of a two-node punctured niche, as ``mirrored``
# flags: in the order the checker tries them, and swapped.
LISTED, SWAPPED = (False, True), (True, False)


def reference_is_universal(ctx, cell, memo, orders):
    """Universality as the recursion read before it skipped anything: every
    frame-competitor's punctured niche is built and tested, and above n
    the niche is built through ``niche_of``.  ``memo`` keeps the verdicts
    decided so far (None decides every call afresh); ``orders`` is the
    order the two listing orders are tried in.  ``ctx`` only supplies the
    set and n and records the highest dimension reached."""
    if cell not in ctx.oset.cells:
        raise UnknownCell("no cell named %r" % cell)
    if memo is not None and cell in memo:
        return memo[cell]
    verdict = _reference_universal(ctx, cell, memo, orders)
    if memo is not None:
        memo[cell] = verdict
    return verdict


def _reference_universal(ctx, cell, memo, orders):
    j = ctx.oset.dim_of(cell)
    _note_dim(ctx, j)
    if j == 0:
        return Verdict(True, (cell,))
    if j > ctx.n:
        occ = occupants(ctx.oset, niche_of(ctx.oset, cell))
        if occ == (cell,):
            return Verdict(True, (cell,))
        return Verdict(False, occ)
    if j + 1 > ctx.oset.max_dim:
        raise DimensionOverflow(
            "universality at dimension %d needs configurations at %d > max_dim"
            % (j, j + 1)
        )
    outface = ctx.oset.outface_of(cell)
    for d_prime in competitors(ctx.oset, outface):
        for mirrored in orders:
            pn = ray_niche(ctx.oset, cell, -1, d_prime, mirrored)
            sub = reference_is_balanced(ctx, pn, memo, orders)
            if not sub:
                return Verdict(False, ("competitor:%s" % d_prime,) + sub.witnesses)
    return Verdict(True, (cell,))


def reference_is_balanced(ctx, cfg, memo, orders):
    """Balancedness over ``reference_is_universal``."""
    if cfg.kind != "punctured_niche":
        raise MalformedConfig("balancedness is asked of punctured niches")
    shape = ctx.oset.shape(cfg.shape_code)
    m = shape.dim
    _note_dim(ctx, m)
    if m > ctx.n + 1:
        return Verdict(True)
    slot = cfg.infaces.index(None)
    for b in outface_extensions(ctx.oset, cfg):
        extended = config_with(ctx.oset, cfg, outface=b)
        fillers = [
            u for u in occupants(ctx.oset, extended) if reference_is_universal(ctx, u, memo, orders)
        ]
        if not fillers:
            return Verdict(False, ("no-universal-filler-over:%s" % b,))
    if m + 1 <= ctx.n + 1:
        for u in occupants(ctx.oset, cfg):
            if not reference_is_universal(ctx, u, memo, orders):
                continue
            restored = ctx.oset.infaces_of(u)[slot]
            for a_prime in competitors(ctx.oset, restored):
                for mirrored in orders:
                    pn = ray_niche(ctx.oset, u, slot, a_prime, mirrored)
                    sub = reference_is_balanced(ctx, pn, memo, orders)
                    if not sub:
                        witness = (
                            "occupant:%s" % u,
                            "competitor:%s" % a_prime,
                        ) + sub.witnesses
                        return Verdict(False, witness)
    return Verdict(True)


def assert_verdicts_match_the_reference(oset, n):
    """Every cell's verdict, value and witnesses, and the highest dimension
    reached agree with the reference; run in the swapped listing order,
    the reference gives every cell the same value."""
    pruned, reference, swapped = (CheckContext(oset, n) for _ in range(3))
    memo, swapped_memo = {}, {}
    for cell in sorted(oset.cells):
        expected = reference_is_universal(reference, cell, memo, LISTED)
        assert is_universal(pruned, cell) == expected, (n, cell)
        in_swapped_order = reference_is_universal(swapped, cell, swapped_memo, SWAPPED)
        assert in_swapped_order.value == expected.value, (n, cell)
    assert pruned.max_dim_reached == reference.max_dim_reached


def unital_tables(order):
    """Every table on ``order`` elements with unit "0": the products of two
    non-units range over all elements."""
    elements = tuple(str(i) for i in range(order))
    free = [(a, b) for a in elements[1:] for b in elements[1:]]
    for products in itertools.product(elements, repeat=len(free)):
        table = {}
        for x in elements:
            table[("0", x)] = table[(x, "0")] = x
        table.update(zip(free, products))
        yield elements, table


def is_associative(elements, table):
    return all(
        table[(table[(x, y)], z)] == table[(x, table[(y, z)])]
        for x, y, z in itertools.product(elements, repeat=3)
    )


def without_h2_0():
    full = z2_weak2()
    cells = {k: v for k, v in full.cells.items() if k != "h2_0"}
    faces = {k: v for k, v in full.faces.items() if k != "h2_0"}
    return OpetopicSet(full.max_dim, full.shape_bound, cells, faces)


@pytest.mark.parametrize("n", [1, 2])
def test_skipping_unreached_competitors_changes_no_verdict(z2_set, z3_set, broken_set, n):
    for oset in (z2_set, z3_set, broken_set, z2_weak2(), without_h2_0()):
        assert_verdicts_match_the_reference(oset, n)


def test_skipping_unreached_competitors_changes_no_verdict_on_order_three_magmas():
    tables = list(unital_tables(3))
    assert len(tables) == 81
    for elements, table in tables:
        oset = monoid_set(elements, "0", table, shape_bound=3, deep_dim3=True)
        assert_verdicts_match_the_reference(oset, 2)


def test_universal_one_cells_are_the_invertible_elements():
    # At n = 1 an arrow is universal when every arrow out of its source
    # factors uniquely through it, which in a monoid means a two-sided
    # inverse.  Ten of these eleven monoids are not groups.
    monoids = [(e, t) for e, t in unital_tables(3) if is_associative(e, t)]
    assert len(monoids) == 11
    groups = 0
    for elements, table in monoids:
        oset = monoid_set(elements, "0", table, shape_bound=4)
        ctx = CheckContext(oset, 1)
        invertible = {
            m: any(table[(m, k)] == "0" == table[(k, m)] for k in elements)
            for m in elements
        }
        groups += all(invertible.values())
        for m in elements:
            assert bool(is_universal(ctx, "a" + m)) is invertible[m], (table, m)
    assert groups == 1

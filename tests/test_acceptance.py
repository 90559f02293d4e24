"""Acceptance criteria A1-A7.

Each test prints one PASS line when its criterion holds (run with ``-s``
to see them); a failing criterion fails the test outright.
"""

import itertools
import random
import time

from opetopes import (
    CheckContext,
    OperadLevel,
    brute_force_count,
    build_fixture,
    check_algebra_axioms,
    check_operad_axioms,
    check_weak_n_category,
    enumerate_opetopes,
    is_universal,
)
from opetopes.cli import main
from opetopes.fixtures import induced_binary_table
from tests.test_algebras import monoid_algebra
from tests.test_universality import LISTED, reference_is_universal


def report(line):
    print(line, flush=True)


def test_a1_opetope_counts():
    start = time.time()
    assert enumerate_opetopes(0, 5) == enumerate_opetopes(0, 1)
    assert len(enumerate_opetopes(0, 5)) == 1
    assert len(enumerate_opetopes(1, 5)) == 1
    twos = enumerate_opetopes(2, 5)
    for k, expected in enumerate((1, 1, 2, 6, 24, 120)):
        assert sum(1 for s in twos if s.arity == k) == expected
    elapsed = time.time() - start
    assert elapsed < 1.0
    report("A1 PASS: dims 0 and 1 are singletons; k-inface 2-shapes number k! (%.2fs)" % elapsed)


def test_a2_oracle_equivalence():
    start = time.time()
    # disjoint code paths: the oracle module imports nothing from the
    # enumerator's module
    import opetopes.counting as counting
    import opetopes.shapes as shapes_module

    assert shapes_module not in vars(counting).values()
    assert not any(
        getattr(value, "__module__", "") == "opetopes.shapes"
        for value in vars(counting).values()
    )
    for dim in range(4):
        for bound in range(1, 5):
            assert brute_force_count(dim, bound) == len(enumerate_opetopes(dim, bound))
    elapsed = time.time() - start
    assert elapsed < 30.0
    report("A2 PASS: brute force equals enumeration for dim<=3, bound<=4 (%.2fs)" % elapsed)


def test_a3_operad_axioms_hold_on_the_tower():
    for level in (0, 1, 2):
        audit = check_operad_axioms(OperadLevel(level), 4)
        assert audit.ok, audit.violations[:3]
    report("A3 PASS: axiom audit clean on levels 0, 1, 2 at size bound 4")


def test_a4_weak_category_verdicts():
    start = time.time()
    z3 = build_fixture("z3_monoid")
    verdict = check_weak_n_category(z3, 1, 4)
    assert verdict.ok

    broken = build_fixture("broken_magma")
    bad = check_weak_n_category(broken, 1, 4)
    assert not bad.ok
    assert bad.failure is not None and bad.failure["niche"]

    # independent confirmation: the induced binary table is associative
    # for the honest fixture and non-associative for the corrupted one
    honest = induced_binary_table(z3)
    elements = sorted({a for a, _ in honest})
    assert all(
        honest[(honest[(x, y)], z)] == honest[(x, honest[(y, z)])]
        for x, y, z in itertools.product(elements, repeat=3)
    )
    table = induced_binary_table(broken)
    conflicts = [
        (x, y, z)
        for x, y, z in itertools.product(elements, repeat=3)
        if table[(table[(x, y)], z)] != table[(x, table[(y, z)])]
    ]
    assert conflicts
    elapsed = time.time() - start
    assert elapsed < 60.0
    report(
        "A4 PASS: z3 passes, broken fails at %s; non-associative triple %s (%.2fs)"
        % (bad.failure["niche"], conflicts[0], elapsed)
    )


def _random_tables(count):
    """Seeded stream of (elements, unit, table, associative_and_unital)."""
    rng = random.Random(20250810)
    families = []
    # honest monoids: cyclic addition, min with top unit, boolean and
    for size in (1, 2, 3):
        elements = tuple(str(i) for i in range(size))
        families.append(
            (elements, "0", {(a, b): str((int(a) + int(b)) % size) for a in elements for b in elements})
        )
        families.append(
            (elements, str(size - 1), {(a, b): str(min(int(a), int(b))) for a in elements for b in elements})
        )
    out = []
    while len(out) < count:
        elements, unit, table = families[rng.randrange(len(families))]
        if rng.random() < 0.5 or len(elements) == 1:
            out.append((elements, unit, dict(table), True))
            continue
        corrupted = dict(table)
        while True:
            a = rng.choice(elements)
            b = rng.choice(elements)
            wrong = rng.choice(elements)
            if corrupted[(a, b)] != wrong:
                corrupted[(a, b)] = wrong
                break
        broken = not _is_monoid(elements, unit, corrupted)
        out.append((elements, unit, corrupted, not broken))
    return out


def _is_monoid(elements, unit, table):
    if any(table[(unit, x)] != x or table[(x, unit)] != x for x in elements):
        return False
    return all(
        table[(table[(x, y)], z)] == table[(x, table[(y, z)])]
        for x, y, z in itertools.product(elements, repeat=3)
    )


def test_a5_slice_algebra_semantics():
    # Both bracketings collapse to one slice operation, so its action is
    # forced from two sides at once; lawful tables extend, broken ones
    # cannot.
    operad = OperadLevel(1)
    from tests.test_algebras import _diag2

    diag2 = _diag2(operad)
    ident = operad.identity(diag2.inputs[0])
    assert operad.compose(diag2, [diag2, ident]) == operad.compose(diag2, [ident, diag2])

    instances = _random_tables(50)
    lawful = flawed = 0
    for elements, unit, table, good in instances:
        if good and _is_monoid(elements, unit, table):
            alg = monoid_algebra(elements, unit, table)
            audit = check_algebra_axioms(alg, 3)
            assert audit.ok, (elements, unit, table, audit.violations[:2])
            lawful += 1
        else:
            broken_unit = any(
                table[(unit, x)] != x or table[(x, unit)] != x for x in elements
            )
            conflicts = [
                (x, y, z)
                for x, y, z in itertools.product(elements, repeat=3)
                if table[(table[(x, y)], z)] != table[(x, table[(y, z)])]
            ]
            assert conflicts or broken_unit
            flawed += 1
    assert lawful + flawed == 50 and lawful >= 10 and flawed >= 10
    report(
        "A5 PASS: %d lawful tables extend to slice algebras, %d corrupted ones cannot"
        % (lawful, flawed)
    )


def test_a6_recursion_contract():
    from opetopes.fixtures import z2_weak2

    cases = [
        ("point", build_fixture("point"), 0, 2),
        ("two_parallel_arrows", build_fixture("two_parallel_arrows"), 0, 2),
        ("z2_monoid", build_fixture("z2_monoid"), 1, 2),
        ("z3_monoid", build_fixture("z3_monoid"), 1, 4),
        ("broken_magma", build_fixture("broken_magma"), 1, 4),
        ("z2_weak2", z2_weak2(), 2, 2),
    ]
    for name, oset, n, bound in cases:
        verdict = check_weak_n_category(oset, n, bound)
        if name == "two_parallel_arrows":
            # not a weak 0-category (parallel arrows break uniqueness),
            # but the recursion contract still holds
            assert not verdict.ok
        assert verdict.max_dim_reached <= n + 2
        again = check_weak_n_category(oset, n, bound)
        assert (verdict.ok, verdict.condition1, verdict.condition2, verdict.failure) == (
            again.ok,
            again.condition1,
            again.condition2,
            again.failure,
        )
        # per-cell universality terminates under the same bound, and a
        # verdict read off the context's table is the one the unmemoised
        # reference decides afresh
        ctx, reference = CheckContext(oset, n), CheckContext(oset, n)
        for cell in sorted(oset.cells):
            expected = reference_is_universal(reference, cell, None, LISTED)
            assert is_universal(ctx, cell) == expected, (name, cell)
        assert ctx.max_dim_reached <= n + 2
    report("A6 PASS: depth <= n+2, memo-transparent, run-to-run identical on all fixtures")


def test_a7_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["enumerate", "--dim", "2", "--bound", "4", "--out", str(a)]) == 0
    assert main(["enumerate", "--dim", "2", "--bound", "4", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()

    fix = tmp_path / "z2.json"
    main(["fixture", "z2_monoid", "--out", str(fix)])
    v1, v2 = tmp_path / "v1.json", tmp_path / "v2.json"
    assert main(["check", str(fix), "--n", "1", "--bound", "2", "--out", str(v1)]) == 0
    assert main(["check", str(fix), "--n", "1", "--bound", "2", "--out", str(v2)]) == 0
    assert v1.read_bytes() == v2.read_bytes()
    report("A7 PASS: enumerate and check outputs byte-identical across runs")

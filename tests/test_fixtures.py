"""The golden fixtures: their exact bytes, and their dim-3 layer against an
independent reading of the multiplication table."""

import hashlib
import itertools

import pytest

from opetopes import build_fixture, check_weak_n_category, documents, universality
from opetopes.cli import main
from opetopes.fixtures import FIXTURES, _cyclic_table, monoid_set, z2_weak2
from opetopes.osets import outface_extensions
from reference_configs import niche_of

# sha256 of ``documents.dumps(set_to_document(...))``.  Cell names and faces
# are part of these bytes, so any change to how a fixture is filled shows.
SET_DIGESTS = {
    "point": "890db70f5c4dd373ce493e3c4044bf300fe8e8c863bd969f6f6f74ae50eb9573",
    "two_parallel_arrows": "1169407d620909b0332e2d89edaf99b52588603a4d075c2ebb11b7e6e19e54dc",
    "z2_monoid": "b9487f3b45fe952b5adbe4bd9c02c6e381852e361166f88a4092bc8752e4ba7c",
    "z3_monoid": "467f7ef0b57e00daca645bc9ed8b9a056ceedb126595ab453b97efdf19b96f8a",
    "broken_magma": "4d0c0aa18e98535e90a601abad691efc9c11c306f334b6671e25921f1cd7a27e",
    "z2_weak2": "143b111d75d2c3b4566970bd4ae9e22a6f952783df899882dd685200cc27fb00",
}

# sha256 of the verdict file written by ``check --n 1 --bound 4 --out``.
VERDICT_DIGESTS = {
    "z3_monoid": "3e530b76b9e2ab1ba356a5b6aea6f5333d73a8dc873aca04d40a8a5052917ec9",
    "broken_magma": "bc62e0751945860bc2e248b69bbc710a30f6c324b49a57b1dd41f6f0839c93af",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _build(name):
    return z2_weak2() if name == "z2_weak2" else build_fixture(name)


def test_every_fixture_is_pinned():
    assert set(SET_DIGESTS) == set(FIXTURES) | {"z2_weak2"}


@pytest.mark.parametrize("name", sorted(SET_DIGESTS))
def test_fixture_document_bytes_are_pinned(name):
    text = documents.dumps(documents.set_to_document(_build(name)))
    assert _sha256(text.encode("utf-8")) == SET_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(VERDICT_DIGESTS))
def test_verdict_bytes_are_pinned(tmp_path, name):
    fix, out = tmp_path / "set.json", tmp_path / "verdict.json"
    assert main(["fixture", name, "--out", str(fix)]) == 0
    main(["check", str(fix), "--n", "1", "--bound", "4", "--out", str(out)])
    assert _sha256(out.read_bytes()) == VERDICT_DIGESTS[name]


# -- association witnesses against the table --------------------------------


def _cyclic(order):
    elements = [str(i) for i in range(order)]
    table = {(a, b): str((int(a) + int(b)) % order) for a in elements for b in elements}
    return elements, table


def _oracle_witnesses(elements, table, binary, shape_bound):
    """``g<a><b><c><L|R>`` for each bracketing the fillers close up.

    ``binary`` is the product the binary fillers carry; the ternary filler
    carries the table's left fold.  The ternary chain shape has size 3, so
    without it (below bound 3) no witness has an outface to fill.
    """
    if shape_bound < 3:
        return set()
    names = set()
    for a, b, c in itertools.product(elements, repeat=3):
        fold = table[(table[(a, b)], c)]
        if fold == binary[(binary[(a, b)], c)]:
            names.add("g%s%s%sL" % (a, b, c))
        if fold == binary[(a, binary[(b, c)])]:
            names.add("g%s%s%sR" % (a, b, c))
    return names


@pytest.mark.parametrize(
    "name, order, override, count",
    [
        ("z2_monoid", 2, {}, 0),
        ("z3_monoid", 3, {}, 54),
        ("broken_magma", 3, {("1", "1"): "0"}, 42),
    ],
)
def test_association_witnesses_match_the_table(name, order, override, count):
    oset = build_fixture(name)
    elements, table = _cyclic(order)
    binary = {**table, **override}
    expected = _oracle_witnesses(elements, table, binary, oset.shape_bound)
    witnesses = {c for c in oset.cells_of_dim(3) if c.startswith("g")}
    assert witnesses == expected
    assert len(witnesses) == count
    assert len(oset.cells_of_dim(3)) == count


@pytest.mark.parametrize("name", ["z2_monoid", "z3_monoid", "broken_magma", "z2_weak2"])
def test_every_filled_niche_has_exactly_one_outface_extension(name):
    oset = _build(name)
    for cell in oset.cells_of_dim(3):
        assert outface_extensions(oset, niche_of(oset, cell)) == (oset.outface_of(cell),)


# -- the recursion-complete layer against the rays the check asks for --------


@pytest.mark.parametrize(
    "order, bound, asked_for",
    [(2, 2, 14), (4, 3, 26)],
    ids=["z2_weak2", "z4_deep"],
)
def test_the_recursion_complete_layer_holds_every_ray_the_check_asks_for(
    monkeypatch, order, bound, asked_for
):
    # ``z2_weak2`` and the Z/4 set the check workload builds, checked at
    # n = 2: every dim-3 ray shape the recursion pastes is some cell's shape.
    oset = monoid_set(*_cyclic_table(order), shape_bound=bound, deep_dim3=True)
    asked = set()
    real = universality.ray_shape

    def recorded(base, slot, mirrored):
        shape, cell_pos = real(base, slot, mirrored)
        asked.add(shape)
        return shape, cell_pos

    monkeypatch.setattr(universality, "ray_shape", recorded)
    assert check_weak_n_category(oset, 2, bound).ok
    assert len(asked) == asked_for
    rays = [shape for shape in asked if shape.dim == 3]
    assert rays and set(shape.code for shape in rays) <= set(oset.cells.values())

"""Golden opetopic sets: finite monoids encoded as one-object categories,
plus the degenerate sets used by the boundary-machinery tests.

A monoid with element set M is encoded as:

* one 0-cell ``o``;
* one 1-cell ``a<m>`` per element, a loop on ``o``;
* for every 2-dimensional shape within the declared bound and every
  assignment of elements to its inface positions, exactly one 2-cell whose
  outface is the product of the assigned elements in diagram order (the
  chain read from its leaf end to its root, folded left);
* one 3-cell per dim-3 niche that closes up, over a list of 3-shapes:
  each niche's outface is forced by the incidence relations, and the
  niche is filled exactly when a stored 2-cell has that forced boundary.
  Niches that do not close up stay empty, so a deliberately corrupted
  table still yields a valid set.

One fill loop builds the dim-3 layer; its two variants differ only in the
shapes they fill and in how a filler is named.  By default the shapes are
the two bracketings of the diagram-ordered binary shape, and a filler is
the association witness ``g<a><b><c><L|R>`` of the triple it brackets.
With ``deep_dim3`` the layer is *recursion-complete*: the shapes are those
within the declared bound plus the two-node ray shapes the universality
recursion pastes (in both listing orders), and a filler is named
``h<shape>_<niche>`` by its positions in the shape and niche listings.
The resulting sets satisfy the weak 2-category conditions, so they drive
the deeper branches of the balancedness recursion.

``broken_magma`` is the Z/3 encoding with exactly one dim-2 filler's
outface reassigned; its dim-3 layer keeps whichever witnesses survive.
"""

from __future__ import annotations

import itertools
from functools import reduce
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import UnknownFixture
from .osets import BoundaryConfig, OpetopicSet, enumerate_configs, outface_extensions
from .shapes import Opetope, enumerate_opetopes, from_code
from .universality import ray_shape

Element = str
Table = Dict[Tuple[Element, Element], Element]


def _diagram_positions(shape: Opetope) -> List[int]:
    """Inface positions ordered from the chain's leaf end to its root."""
    paths = sorted(shape.tree.node_order, key=len, reverse=True)
    return [shape.tree.node_order.index(p) for p in paths]


def chain_product(
    shape: Opetope, assignment: Sequence[Element], table: Table, unit: Element
) -> Element:
    """Fold the assigned elements in diagram order, left to right."""
    elems = [assignment[i] for i in _diagram_positions(shape)]
    if not elems:
        return unit
    return reduce(lambda x, y: table[(x, y)], elems)


def monoid_set(
    elements: Sequence[Element],
    unit: Element,
    table: Table,
    shape_bound: int,
    override: Optional[Dict[Tuple[str, Tuple[Element, ...]], Element]] = None,
    deep_dim3: bool = False,
) -> OpetopicSet:
    """Encode a finite binary table as an opetopic set (see module doc).

    ``override`` reassigns the outface element of individual dim-2 fillers
    keyed by (shape code, assignment); it is how the corrupted fixture
    differs from the honest one by exactly one entry.
    """
    elements = tuple(elements)
    override = override or {}
    cells: Dict[str, str] = {"o": "pt"}
    faces: Dict[str, Tuple[Tuple[str, ...], str]] = {}
    arrow = enumerate_opetopes(1, 1)[0]
    for m in elements:
        cells["a" + m] = arrow.code
        faces["a" + m] = (("o",), "o")

    two_shapes = enumerate_opetopes(2, shape_bound)
    for si, shape in enumerate(two_shapes):
        for assignment in itertools.product(elements, repeat=shape.arity):
            product = override.get(
                (shape.code, assignment),
                chain_product(shape, assignment, table, unit),
            )
            name = "f%d_%s" % (si, "".join(assignment) or "nil")
            cells[name] = shape.code
            faces[name] = (tuple("a" + m for m in assignment), "a" + product)

    if deep_dim3:
        layer = _recursion_shapes(two_shapes, shape_bound)
    else:
        layer = _bracketings(_standard_binary(enumerate_opetopes(2, 2)))
    # The fill reads only the cells below dimension 2 and the 2-cells of the
    # layer's face shapes (every 2-shape, for the ray shapes).
    read = {"pt", arrow.code} | {s.code for shape3 in layer for s in (*shape3.inputs, shape3.output)}
    kept = {name: code for name, code in cells.items() if code in read}
    base = OpetopicSet(3, shape_bound, kept, {name: faces[name] for name in kept if name in faces})
    # The encoding stores one 2-cell per (shape, infaces), so a niche has at
    # most one outface extension: the filler exists iff the niche closes up.
    for si, shape3 in enumerate(layer):
        niches = enumerate_configs(base, 3, size_bound=shape3.size, shape=shape3)
        for index, cfg in enumerate(niches):
            for outface in outface_extensions(base, cfg):
                name = "h%d_%d" % (si, index) if deep_dim3 else _witness_name(base, si, cfg)
                cells[name] = shape3.code
                faces[name] = (cfg.infaces, outface)

    return OpetopicSet(3, shape_bound, cells, faces)


def _standard_binary(two_shapes: Sequence[Opetope]) -> Opetope:
    """The binary 2-shape whose position order equals diagram order."""
    for shape in two_shapes:
        if shape.arity == 2 and _diagram_positions(shape) == [0, 1]:
            return shape
    raise AssertionError("binary shapes missing from the enumeration")


def _bracketings(q2: Opetope) -> Tuple[Opetope, Opetope]:
    """The two 3-shapes pasting one ``q2`` node onto input slot 0 (L) or
    slot 1 (R) of another: the inner node is listed first, the leaves in
    planar order."""
    return tuple(
        from_code("[(%s:%s)|n1.0|l0.1.2]" % (q2.code, slots % q2.code))
        for slots in ("(%s:_,_),_", "_,(%s:_,_)")
    )


def _witness_name(base: OpetopicSet, slot: int, cfg: BoundaryConfig) -> str:
    """``g<a><b><c><L|R>``: the inner cell's elements spliced into slot
    ``slot`` of the outer cell's, read off the niche's infaces."""
    inner, outer = (base.infaces_of(cell) for cell in cfg.infaces)
    chain = outer[:slot] + inner + outer[slot + 1:]
    return "g%s%s" % ("".join(m[1:] for m in chain), "LR"[slot])


def _recursion_shapes(two_shapes: Sequence[Opetope], bound: int) -> List[Opetope]:
    """The dim-3 shapes the n = 2 recursion can ask about: those within the
    bound, plus the two-node ray shapes it pastes over every stored
    2-shape, at its output and every input, in both listing orders."""
    layer = set(enumerate_opetopes(3, bound))
    for q in two_shapes:
        for mirrored in (False, True):
            layer.update(ray_shape(q, slot, mirrored)[0] for slot in range(-1, q.arity))
    return sorted(layer)


# -- named fixtures --------------------------------------------------------------


def point_set() -> OpetopicSet:
    """One 0-cell plus its unit loop, so the n = 0 check has its data."""
    arrow = enumerate_opetopes(1, 1)[0]
    return OpetopicSet(
        max_dim=1,
        shape_bound=2,
        cells={"o": "pt", "i": arrow.code},
        faces={"i": (("o",), "o")},
    )


def two_parallel_arrows() -> OpetopicSet:
    arrow = enumerate_opetopes(1, 1)[0]
    return OpetopicSet(
        max_dim=1,
        shape_bound=2,
        cells={"s": "pt", "t": "pt", "f": arrow.code, "g": arrow.code},
        faces={"f": (("s",), "t"), "g": (("s",), "t")},
    )


def _cyclic_table(order: int) -> Tuple[Tuple[Element, ...], Element, Table]:
    elements = tuple(str(i) for i in range(order))
    table = {
        (str(i), str(j)): str((i + j) % order)
        for i in range(order)
        for j in range(order)
    }
    return elements, "0", table


def z2_monoid() -> OpetopicSet:
    elements, unit, table = _cyclic_table(2)
    return monoid_set(elements, unit, table, shape_bound=2)


def z3_monoid() -> OpetopicSet:
    elements, unit, table = _cyclic_table(3)
    return monoid_set(elements, unit, table, shape_bound=4)


def broken_magma() -> OpetopicSet:
    """Z/3 with one binary filler reassigned: the (1,1) product becomes 0."""
    elements, unit, table = _cyclic_table(3)
    q2 = _standard_binary(enumerate_opetopes(2, 2))
    return monoid_set(
        elements,
        unit,
        table,
        shape_bound=4,
        override={(q2.code, ("1", "1")): "0"},
    )


def z2_weak2() -> OpetopicSet:
    """Z/2 with a recursion-complete dim-3 layer; passes at n = 2.

    Not a named CLI fixture: it exists to drive the deeper branches of the
    balancedness recursion (the input-competition niches) in the tests.
    """
    elements, unit, table = _cyclic_table(2)
    return monoid_set(elements, unit, table, shape_bound=2, deep_dim3=True)


def induced_binary_table(oset: OpetopicSet) -> Table:
    """Read the binary composition table off a monoid encoding's fillers.

    Uses the diagram-ordered binary shape; this is what the independent
    associativity search runs on.
    """
    q2 = _standard_binary(enumerate_opetopes(2, 2))
    table: Table = {}
    for name, code in oset.cells.items():
        if code != q2.code:
            continue
        ins, out = oset.faces[name]
        table[(ins[0][1:], ins[1][1:])] = out[1:]
    return table


FIXTURES = {
    "point": point_set,
    "two_parallel_arrows": two_parallel_arrows,
    "z2_monoid": z2_monoid,
    "z3_monoid": z3_monoid,
    "broken_magma": broken_magma,
}


def build_fixture(name: str) -> OpetopicSet:
    try:
        builder = FIXTURES[name]
    except KeyError:
        raise UnknownFixture(
            "no fixture %r; known: %s" % (name, ", ".join(sorted(FIXTURES)))
        )
    return builder()

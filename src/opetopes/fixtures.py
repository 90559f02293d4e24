"""Golden opetopic sets: finite monoids encoded as one-object categories,
plus the degenerate sets used by the boundary-machinery tests.

A monoid with element set M is encoded as:

* one 0-cell ``o``;
* one 1-cell ``a<m>`` per element, a loop on ``o``;
* for every 2-dimensional shape within the declared bound and every
  assignment of elements to its inface positions, exactly one 2-cell whose
  outface is the product of the assigned elements in diagram order (the
  chain read from its leaf end to its root, folded left);
* one 3-cell per association witness that actually closes up: for each
  ordered triple and each way of bracketing it, the two binary 2-cells
  paste onto the ternary 2-cell when the table composes consistently
  there.  Witnesses that fail the incidence relations are simply not
  cells, so a deliberately corrupted table still yields a valid set.

With ``deep_dim3`` the dim-3 layer is instead made *recursion-complete*:
every 3-dimensional niche over the stored 2-cells is filled -- both the
shapes within the declared bound and the two-node ray shapes the
universality recursion pastes (in both listing orders).  The resulting
sets satisfy the weak 2-category conditions, so they drive the deeper
branches of the balancedness recursion.

``broken_magma`` is the Z/3 encoding with exactly one dim-2 filler's
outface reassigned; its dim-3 layer keeps whichever witnesses survive.
"""

from __future__ import annotations

import itertools
from functools import reduce
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import MalformedConfig, UnknownFixture
from .osets import OpetopicSet, enumerate_configs, forced_outface_boundary, make_config
from .shapes import Opetope, enumerate_opetopes

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
    max_dim: int = 3,
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
    filler: Dict[Tuple[str, Tuple[str, ...]], str] = {}
    for si, shape in enumerate(two_shapes):
        for assignment in itertools.product(elements, repeat=shape.arity):
            product = override.get(
                (shape.code, assignment),
                chain_product(shape, assignment, table, unit),
            )
            name = "f%d_%s" % (si, "".join(assignment) or "nil")
            infaces = tuple("a" + m for m in assignment)
            cells[name] = shape.code
            faces[name] = (infaces, "a" + product)
            filler[(shape.code, infaces)] = name

    if max_dim >= 3:
        base = OpetopicSet(3, shape_bound, cells, faces)
        if deep_dim3:
            _fill_dim3_layer(base, filler, cells, faces)
        else:
            _add_association_witnesses(base, filler, cells, faces)

    return OpetopicSet(max_dim, shape_bound, cells, faces)


def _standard_binary(two_shapes: Sequence[Opetope]) -> Opetope:
    """The binary 2-shape whose position order equals diagram order."""
    for shape in two_shapes:
        if shape.arity == 2 and _diagram_positions(shape) == [0, 1]:
            return shape
    raise AssertionError("binary shapes missing from the enumeration")


def _try_fill(base: OpetopicSet, filler, cfg) -> Optional[Tuple[Tuple[str, ...], str]]:
    """The boundary of the unique filler of a dim-3 niche, if it closes up.

    The outface cell is forced by the incidence relations; it must be the
    stored 2-cell with the forced infaces, and carry the forced outface.
    """
    wanted_infaces, wanted_out = forced_outface_boundary(base, cfg)
    out_code = base.shape(cfg.shape_code).output.code
    name = filler.get((out_code, wanted_infaces))
    if name is None or base.faces[name][1] != wanted_out:
        return None
    return tuple(c for c in cfg.infaces), name


def _add_association_witnesses(base, filler, cells, faces) -> None:
    """One 3-cell per bracketing of each triple that closes up."""
    from .trees import PasteTree, TreeNode

    q2 = _standard_binary(enumerate_opetopes(2, 2))
    elements = sorted(n[1:] for n, c in base.cells.items() if c == "ar")
    for a in elements:
        for b in elements:
            for c in elements:
                for tag, first_slot in (("L", 0), ("R", 1)):
                    inner_pair = (a, b) if first_slot == 0 else (b, c)
                    inner = filler.get((q2.code, tuple("a" + m for m in inner_pair)))
                    if inner is None:
                        continue
                    inner_out = base.faces[inner][1][1:]
                    outer_pair = (inner_out, c) if first_slot == 0 else (a, inner_out)
                    outer = filler.get((q2.code, tuple("a" + m for m in outer_pair)))
                    if outer is None:
                        continue
                    children: List[Optional[TreeNode]] = [None, None]
                    children[first_slot] = TreeNode(q2, (None, None))
                    root = TreeNode(q2, tuple(children))
                    tree = PasteTree(
                        1,
                        root,
                        None,
                        ((first_slot,), ()),
                        tuple(sorted([(first_slot, 0), (first_slot, 1), (1 - first_slot,)])),
                    )
                    shape3 = Opetope(3, tree)
                    try:
                        cfg = make_config(base, shape3.code, (inner, outer), None)
                    except MalformedConfig:
                        continue
                    found = _try_fill(base, filler, cfg)
                    if found is None:
                        continue
                    infaces3, outface3 = found
                    name = "g%s%s%s%s" % (a, b, c, tag)
                    cells[name] = shape3.code
                    faces[name] = (infaces3, outface3)


def _fill_dim3_layer(base, filler, cells, faces) -> None:
    """Fill every dim-3 niche the n = 2 recursion can ask about.

    Shapes covered: those within the set's bound, plus the two-node ray
    shapes pasted by the universality recursion over every stored 2-shape,
    in both listing orders.  Each consistent niche gets exactly one
    filler, named after its position in the canonical niche order.
    """
    from .universality import ray_on_input_shape, ray_on_output_shape

    shapes = set(enumerate_opetopes(3, base.shape_bound))
    stored = sorted({base.shape(code) for code in base._by_shape if base.shape(code).dim == 2})
    for q in stored:
        for mirrored in (False, True):
            shapes.add(ray_on_output_shape(q, mirrored)[0])
            for slot in range(q.arity):
                shapes.add(ray_on_input_shape(q, slot, mirrored)[0])
    for si, shape3 in enumerate(sorted(shapes)):
        for index, cfg in enumerate(
            enumerate_configs(base, "niche", 3, size_bound=shape3.size, shape=shape3)
        ):
            found = _try_fill(base, filler, cfg)
            if found is None:
                continue
            infaces3, outface3 = found
            name = "h%d_%d" % (si, index)
            cells[name] = shape3.code
            faces[name] = (infaces3, outface3)


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

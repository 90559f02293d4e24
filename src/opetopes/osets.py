"""Finite opetopic sets: cells indexed by shape, face maps, and boundary
configurations (frames, niches, punctured niches) with their occupants.

Every cell of dimension >= 1 stores one face cell per inface position and
one for the outface.  Well-formedness is the local incidence discipline
read off the shape's pasting tree: every tree edge names exactly two
lower-dimensional faces -- one from below (the node consuming the edge, or
the outface's outface for the root edge) and one from above (the node
producing it, or the outface's own inface for a leaf) -- and those two
cells must coincide.  A set is checked once, by the same pass over its
cells that groups them by shape when it is built, and ``validate``
returns that pass's report.

Each shape's references are read off its tree once, when the set first
meets the shape, as a plan of small integers per edge (``edge_incidences``,
kept in ``ShapeEntry``); validation, every configuration and an edge's type
all read that plan.

A boundary configuration assigns cells to some of the face positions.
Edges none of whose two references land on an assigned face are *free*;
a configuration pins each free edge with an explicit cell two dimensions
down, which is what distinguishes, say, the nullary niches sitting at two
different base cells.  A configuration is just those four fields: shape,
infaces, outface and pins.  Its *occupants* are the cells whose boundary
extends it, and ``cells_with`` is the one lookup that finds them, for
configurations, niches, frames and outface fillers alike.  It reads two
indexes per shape, its cells by infaces (the niche index) and by outface,
built on the first lookup that needs them (``OpetopicSet._shape_index``),
so a set keeps only the indexes of the shapes it has been asked about.
``enumerate_configs`` lists niches, the configurations the weak
n-category conditions quantify over, checking each inface as it assigns it.
"""

from __future__ import annotations

import itertools
import threading
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .errors import DimOutOfRange, IllTyped, MalformedConfig, UnknownCell
from . import shapes
from .records import Record, Value
from .shapes import Opetope
from .trees import Path

EdgeKey = Path
# A plan row: the two face references meeting on one edge, (upper slot,
# upper face, lower slot, lower face).  A slot picks a face of the boundary
# and a face picks a face of that face: i is inface i and -1 the outface.
PlanRow = Tuple[int, int, int, int]


def edge_incidences(shape: Opetope) -> Dict[EdgeKey, PlanRow]:
    """The plan of the shape: one row per edge of its tree, in sorted edge
    order, read off the tree in one pass (none below dimension 2).  From
    above, an edge is its node's outface, or at a leaf the outface's
    inface; from below, it is the parent's inface, or at the root the
    outface's outface.  The empty tree's one edge runs from the outface's
    only inface to its outface."""
    if shape.dim < 2:
        return {}
    tree = shape.tree
    if tree.is_empty:
        return {(): (-1, 0, -1, -1)}
    node_slot = {p: i for i, p in enumerate(tree.node_order)}
    leaf_slot = {p: i for i, p in enumerate(tree.leaf_order)}
    plan: Dict[EdgeKey, PlanRow] = {}
    # Each edge is the path of the node it leaves or of a leaf, and the
    # index lists each kind in sorted order, so the sort merges two runs.
    for edge in sorted([*tree.index.nodes, *tree.index.leaves]):
        upper = (node_slot[edge], -1) if edge in node_slot else (-1, leaf_slot[edge])
        plan[edge] = upper + ((node_slot[edge[:-1]], edge[-1]) if edge else (-1, -1))
    return plan


class ShapeEntry(NamedTuple):
    """What the set reads off one shape, derived once per shape code.

    ``input_codes`` is empty and ``output_code`` None for the point.
    ``plan`` is ``edge_incidences(shape)``: one ``PlanRow`` per edge, in
    sorted edge order.  An edge's type is read off its row (``_edge_type``).
    """

    shape: Opetope
    input_codes: Tuple[str, ...]
    output_code: Optional[str]
    plan: Dict[EdgeKey, PlanRow]

    @classmethod
    def of(cls, shape: Opetope) -> "ShapeEntry":
        if shape.dim == 0:
            return cls(shape, (), None, {})
        return cls(
            shape, tuple(s.code for s in shape.inputs), shape.output.code, edge_incidences(shape)
        )


# One shape code's cells by infaces and by outface, each entry in name order.
ShapeIndex = Tuple[Dict[Tuple[str, ...], Tuple[str, ...]], Dict[str, Tuple[str, ...]]]

# Guards the miss path of every set's ``_shape_index``.
_LOCK = threading.Lock()


class OpetopicSet:
    """An immutable finite opetopic set, checked once when it is built.

    ``cells`` maps cell names to shape codes; ``faces`` maps each cell of
    dimension >= 1 to its inface tuple and outface.  ``shape_bound`` is the
    declared size cap used when boundary configurations are enumerated.
    Building never fails on a malformed set: one pass over the cells in
    name order groups them by shape and records every violation for
    ``validate``.  The set copies ``cells``, keeping one string per
    distinct code, and keeps the face pairs it is handed.  Each shape's
    two indexes are built on first query.
    """

    def __init__(
        self,
        max_dim: int,
        shape_bound: int,
        cells: Dict[str, str],
        faces: Dict[str, Tuple[Tuple[str, ...], str]],
    ):
        self.max_dim = max_dim
        self.shape_bound = shape_bound
        # One string per distinct code: a document's parser makes one per cell.
        codes: Dict[str, str] = {}
        self.cells = cells = dict(zip(cells, map(codes.setdefault, cells.values(), cells.values())))
        # The face pairs are kept as handed; only a pair whose infaces are
        # not a tuple is rebuilt.
        self.faces = faces = {
            name: pair if type(pair) is tuple and type(pair[0]) is tuple else (tuple(pair[0]), pair[1])
            for name, pair in faces.items()
        }
        # One entry per shape code, filled on first use, and the error
        # message of each code that does not parse, so each code is parsed once.
        self._table: Dict[str, ShapeEntry] = {}
        self._unparsed: Dict[str, str] = {}
        # Each shape code's two indexes, built on the first ``cells_with``
        # query for that code (see ``_shape_index``).
        self._indexes: Dict[str, ShapeIndex] = {}
        by_shape: Dict[str, List[str]] = {}
        violations = [
            "cell %s: has faces but is missing from cells" % name
            for name in sorted(faces.keys() - cells.keys())
        ]
        checked = 0
        for name in sorted(cells):
            code = cells[name]
            by_shape.setdefault(code, []).append(name)
            try:
                entry = self.shape_entry(code)
            except IllTyped as exc:
                violations.append("cell %s: unparseable shape %s (%s)" % (name, shapes.quote(code), exc))
                continue
            dim = entry.shape.dim
            if dim > max_dim:
                violations.append("cell %s: dimension %d exceeds max_dim %d" % (name, dim, max_dim))
            if dim == 0:
                if name in faces:
                    violations.append("cell %s: 0-cells have no faces" % name)
                continue
            if name not in faces:
                violations.append("cell %s: missing face assignment" % name)
                continue
            ins, out = faces[name]
            if len(ins) != len(entry.input_codes):
                violations.append(
                    "cell %s: %d infaces assigned, shape has %d"
                    % (name, len(ins), len(entry.input_codes))
                )
                continue
            reported = len(violations)
            for i, face in enumerate(ins):
                if face not in cells:
                    violations.append("cell %s: unknown inface %r" % (name, face))
                elif cells[face] != entry.input_codes[i]:
                    violations.append(
                        "cell %s: inface %d is %s-shaped, expected %s"
                        % (name, i, shapes.clip(cells[face]), shapes.clip(entry.input_codes[i]))
                    )
            if out not in cells:
                violations.append("cell %s: unknown outface %r" % (name, out))
            elif cells[out] != entry.output_code:
                violations.append(
                    "cell %s: outface is %s-shaped, expected %s"
                    % (name, shapes.clip(cells[out]), shapes.clip(entry.output_code))
                )
            if len(violations) > reported:  # a face is unknown or of the wrong shape
                continue
            boundary = ins + (out,)
            for edge, (su, fu, sl, fl) in entry.plan.items():
                try:
                    face = faces[boundary[su]]
                    a = face[1] if fu < 0 else face[0][fu]
                    face = faces[boundary[sl]]
                    b = face[1] if fl < 0 else face[0][fl]
                except (IndexError, KeyError):
                    # A face's own face entry is missing or has the wrong
                    # length; that cell's check reports it.
                    violations.append(
                        "cell %s: edge %r runs through a face with malformed faces" % (name, edge)
                    )
                    continue
                checked += 1
                if a != b:
                    violations.append("cell %s: edge %r joins %s and %s" % (name, edge, a, b))
        self._by_shape = {code: tuple(names) for code, names in by_shape.items()}
        self._violations = tuple(sorted(violations))
        self._relations_checked = checked

    def shape_entry(self, code: str) -> ShapeEntry:
        """The table entry of a shape code; IllTyped if it does not parse."""
        entry = self._table.get(code)
        if entry is None:
            failed = self._unparsed.get(code)
            if failed is not None:
                raise IllTyped(failed)
            try:
                entry = self._table[code] = ShapeEntry.of(shapes.from_code(code))
            except IllTyped as exc:
                self._unparsed[code] = str(exc)
                raise
        return entry

    def _shape_index(self, code: str) -> ShapeIndex:
        """The cells of shape ``code`` by infaces and by outface, built on
        the first query for the code from its cells in name order.  A cell
        is indexed iff its code parses, its shape has dimension >= 1 and it
        has a face entry; the build pass reports every other fault."""
        found = self._indexes.get(code)
        if found is None:
            with _LOCK:
                found = self._indexes.get(code)
                if found is None:
                    found = self._indexes[code] = _built_index(self, code)
        return found

    def shape(self, code: str) -> Opetope:
        return self.shape_entry(code).shape

    def shape_of(self, cell: str) -> Opetope:
        if cell not in self.cells:
            raise UnknownCell("no cell named %r" % cell)
        return self.shape(self.cells[cell])

    def dim_of(self, cell: str) -> int:
        return self.shape_of(cell).dim

    def cells_of_shape(self, code: str) -> Tuple[str, ...]:
        return self._by_shape.get(code, ())

    def cells_of_dim(self, dim: int) -> Tuple[str, ...]:
        out = []
        for code in sorted(self._by_shape):
            if self.shape(code).dim == dim:
                out.extend(self._by_shape[code])
        return tuple(out)

    def infaces_of(self, cell: str) -> Tuple[str, ...]:
        return self.faces[cell][0]

    def outface_of(self, cell: str) -> str:
        return self.faces[cell][1]


def _built_index(oset: OpetopicSet, code: str) -> ShapeIndex:
    by_infaces: Dict[Tuple[str, ...], Tuple[str, ...]] = {}
    by_outface: Dict[str, Tuple[str, ...]] = {}
    entry = oset._table.get(code)
    if entry is not None and entry.shape.dim >= 1:
        faces = oset.faces
        for name in oset.cells_of_shape(code):
            pair = faces.get(name)
            if pair is not None:
                ins, out = pair
                by_infaces[ins] = by_infaces.get(ins, ()) + (name,)
                by_outface[out] = by_outface.get(out, ()) + (name,)
    return by_infaces, by_outface


# -- validation ---------------------------------------------------------------


class ValidationReport(Record):
    """Every violation found, sorted, and how many incidences were checked."""

    __slots__ = ("violations", "relations_checked")
    _fields = __slots__

    def __init__(self, violations: Sequence[str] = (), relations_checked: int = 0):
        self.violations = list(violations)
        self.relations_checked = relations_checked

    @property
    def ok(self) -> bool:
        return not self.violations


def validate(oset: OpetopicSet) -> ValidationReport:
    """The report of the checks the set made when it was built.

    Each cell's faces are checked against its shape, and each incidence
    whose two references resolve is compared: the report lists every
    violation and counts those incidences.  The set is immutable, so the
    report never goes stale; each call returns a fresh copy.
    """
    return ValidationReport(oset._violations, oset._relations_checked)


# -- boundary configurations ---------------------------------------------------


class BoundaryConfig(Value):
    """A partially assigned boundary of one shape.

    ``infaces`` has one entry per inface position (None = missing) and
    ``outface`` is None when missing.  ``pins`` assigns a cell to every
    free edge (an edge neither of whose face references is assigned).
    """

    __slots__ = ("shape_code", "infaces", "outface", "pins")
    _fields = __slots__

    def __init__(
        self,
        shape_code: str,
        infaces: Tuple[Optional[str], ...],
        outface: Optional[str],
        pins: Tuple[Tuple[EdgeKey, str], ...],
    ):
        self.shape_code = shape_code
        self.infaces = infaces
        self.outface = outface
        self.pins = pins

    @property
    def kind(self) -> str:
        missing = self.infaces.count(None)
        if self.outface is not None and not missing:
            return "frame"
        if self.outface is None and not missing:
            return "niche"
        if self.outface is None and missing == 1:
            return "punctured_niche"
        return "partial"


def make_config(
    oset: OpetopicSet,
    shape_code: str,
    infaces: Sequence[Optional[str]],
    outface: Optional[str],
    pins: Optional[Dict[EdgeKey, str]] = None,
) -> BoundaryConfig:
    """Build and normalise a configuration, checking all incidences.

    Every edge whose two references both resolve must agree; every free
    edge must be pinned with a cell of the edge's type (pins on resolvable
    edges are checked and then dropped, so equal configurations have equal
    representations).
    """
    entry = oset.shape_entry(shape_code)
    cells = oset.cells
    infaces = tuple(infaces)
    if len(infaces) != len(entry.input_codes):
        raise MalformedConfig("expected %d inface slots" % len(entry.input_codes))
    for i, cell in enumerate(infaces):
        if cell is None:
            continue
        if cell not in cells:
            raise UnknownCell("no cell named %r" % cell)
        if cells[cell] != entry.input_codes[i]:
            raise MalformedConfig(
                "inface %d must be %s-shaped" % (i, entry.input_codes[i])
            )
    if outface is not None:
        if outface not in cells:
            raise UnknownCell("no cell named %r" % outface)
        if cells[outface] != entry.output_code:
            raise MalformedConfig("outface must be %s-shaped" % entry.output_code)
    pins = dict(pins) if pins else {}
    kept: List[Tuple[EdgeKey, str]] = []
    faces = oset.faces
    boundary = infaces + (outface,)
    for edge, (su, fu, sl, fl) in entry.plan.items():
        try:
            face = boundary[su]
            a = None if face is None else (faces[face][1] if fu < 0 else faces[face][0][fu])
            face = boundary[sl]
            b = None if face is None else (faces[face][1] if fl < 0 else faces[face][0][fl])
        except (KeyError, IndexError):
            raise MalformedConfig("the faces of %r do not reach edge %r" % (face, edge)) from None
        pin = pins.pop(edge, None)
        cell = b if a is None else a
        if (b is not None and b != cell) or (pin is not None and cell is not None and pin != cell):
            raise MalformedConfig(
                "edge %r of %s resolves inconsistently: %s"
                % (edge, shape_code, sorted({v for v in (a, b, pin) if v is not None}))
            )
        if cell is None:
            if pin is None:
                raise MalformedConfig("edge %r of %s needs a pin" % (edge, shape_code))
            if pin not in cells:
                raise UnknownCell("no cell named %r" % pin)
            edge_type = _edge_type(oset, entry, edge)
            if cells[pin] != edge_type:
                raise MalformedConfig("pin on edge %r must be %s-shaped" % (edge, edge_type))
            kept.append((edge, pin))
    if pins:
        raise MalformedConfig("pins on unknown edges: %r" % sorted(pins))
    return BoundaryConfig(shape_code, infaces, outface, tuple(kept))


def _edge_type(oset: OpetopicSet, entry: ShapeEntry, edge: EdgeKey) -> str:
    """The shape code of the cells on an edge: face f of the shape at slot
    s, for the upper end (s, f) of the edge's row, read through the set's
    shape table."""
    s, f = entry.plan[edge][:2]
    face = oset.shape_entry(entry.output_code if s < 0 else entry.input_codes[s])
    return face.output_code if f < 0 else face.input_codes[f]


def cells_with(
    oset: OpetopicSet,
    code: str,
    infaces: Tuple[Optional[str], ...],
    outface: Optional[str] = None,
    pins: Tuple[Tuple[EdgeKey, str], ...] = (),
) -> Tuple[str, ...]:
    """The cells of shape ``code`` whose boundary extends a partly
    assigned one, in name order: their infaces agree with ``infaces`` and
    their outface with ``outface`` where these assign one (None = free),
    and each pinned edge carries its pin.  A cell with no face entry
    matches no query that assigns a face, one whose inface count differs
    from its shape's matches no partly assigned infaces, and one whose
    boundary does not reach a pinned edge (a face on the way has no face
    entry or too few infaces, or the shape has no such edge) matches no
    query that pins it.  The candidates are one lookup, already in name
    order: in the shape's index by infaces when all are assigned, else in
    its index by outface when it is, else every cell of the shape.  The
    shape's indexes are built by the first lookup that reads one."""
    faces = oset.faces
    if None not in infaces:
        pool = oset._shape_index(code)[0].get(infaces, ())
        if outface is not None:
            pool = tuple(c for c in pool if faces[c][1] == outface)
    else:
        if outface is not None:
            pool = oset._shape_index(code)[1].get(outface, ())
        else:
            pool = oset.cells_of_shape(code)
        assigned = [(i, a) for i, a in enumerate(infaces) if a is not None]
        if assigned:
            arity = oset.shape(code).arity
            pool = tuple(
                c for c in pool
                if c in faces and len(faces[c][0]) == arity and all(faces[c][0][i] == a for i, a in assigned)
            )
    if pins:
        plan = oset.shape_entry(code).plan
        pool = tuple(
            c for c in pool if all(e in plan and _carries(oset, c, plan[e], pin) for e, pin in pins)
        )
    return pool


def _carries(oset: OpetopicSet, cell: str, row: PlanRow, pin: str) -> bool:
    """Does the edge of this plan row carry ``pin`` on the cell's boundary?
    It does not when the cell's boundary does not reach the edge: when
    the cell or the face the row reads has no face entry, or has too few
    infaces for the row."""
    try:
        ins, out = oset.faces[cell]
        face = oset.faces[out if row[0] < 0 else ins[row[0]]]
        return (face[1] if row[1] < 0 else face[0][row[1]]) == pin
    except (KeyError, IndexError):
        return False


def occupants(oset: OpetopicSet, cfg: BoundaryConfig) -> Tuple[str, ...]:
    """All cells of the configuration's shape extending it, sorted: one
    ``cells_with`` lookup on its four fields."""
    return cells_with(oset, cfg.shape_code, cfg.infaces, cfg.outface, cfg.pins)


def niche_occupants(oset: OpetopicSet, cell: str) -> Tuple[str, ...]:
    """The occupants of the cell's niche, sorted, without building it.

    The niche keeps the cell's infaces and pins the edges whose two
    references both lie on the outface (only empty-tree shapes have one)
    with the cells its own outface puts there.  On a validated set this
    equals ``occupants`` of the niche ``make_config`` builds.
    """
    code = oset.cells[cell]
    entry = oset.shape_entry(code)
    if entry.shape.dim < 1:
        raise MalformedConfig("0-cells occupy no niche")
    ins, out = oset.faces[cell]
    pins = tuple(
        (edge, oset.faces[out][0][fu])
        for edge, (su, fu, sl, fl) in entry.plan.items()
        if su == sl == -1
    )
    return cells_with(oset, code, ins, None, pins)


def forced_outface_boundary(
    oset: OpetopicSet, cfg: BoundaryConfig
) -> Tuple[Tuple[str, ...], str]:
    """The boundary any outface filler of the configuration must have.

    Each face of the would-be outface cell is met by one reference of one
    edge of the shape; the edge's other reference names the face's cell,
    read off an assigned face of the configuration, or else off the
    edge's pin.  MalformedConfig below dimension 2, where no relation
    meets the outface's faces, and for a free edge without a pin.
    """
    entry = oset.shape_entry(cfg.shape_code)
    if entry.shape.dim < 2:
        raise MalformedConfig("configurations below dimension 2 force no outface boundary")
    faces = oset.faces
    boundary = cfg.infaces + (cfg.outface,)
    pins = dict(cfg.pins)
    forced: Dict[int, str] = {}
    for edge, (su, fu, sl, fl) in entry.plan.items():
        for slot, face, other, other_face in ((su, fu, sl, fl), (sl, fl, su, fu)):
            if slot != -1:
                continue
            cell = boundary[other]
            if cell is not None:
                cell = faces[cell][1] if other_face < 0 else faces[cell][0][other_face]
            elif edge in pins:
                cell = pins[edge]
            else:
                raise MalformedConfig("edge %r of %s needs a pin" % (edge, cfg.shape_code))
            forced[face] = cell
    return tuple(forced[k] for k in range(len(forced) - 1)), forced[-1]


def outface_extensions(oset: OpetopicSet, cfg: BoundaryConfig) -> Tuple[str, ...]:
    """Cells that can fill the configuration's outface slot, sorted.

    These are the cells ``b`` that ``make_config`` accepts as the outface
    of ``cfg`` (same infaces and pins): the only edges that assigning
    ``b`` can break are those meeting the outface, and each already names
    a cell in ``cfg``, so ``b`` must have exactly the forced boundary.
    Shapes below dimension 2 have no relations, and every cell of the
    outface shape fits.
    """
    if cfg.outface is not None:
        return (cfg.outface,)
    entry = oset.shape_entry(cfg.shape_code)
    if entry.shape.dim < 2:
        return oset.cells_of_shape(entry.output_code)
    ins, out = forced_outface_boundary(oset, cfg)
    return cells_with(oset, entry.output_code, ins, out)


def competitors(oset: OpetopicSet, cell: str) -> Tuple[str, ...]:
    """Occupants of the cell's frame, the cell included, sorted.

    They are the cells with its shape, infaces and outface, read off the
    niche index without building or checking the frame.
    """
    if oset.dim_of(cell) == 0:
        # All 0-cells share the one degenerate boundary.
        return oset.cells_of_dim(0)
    return cells_with(oset, oset.cells[cell], *oset.faces[cell])


# -- configuration enumeration ---------------------------------------------------


def enumerate_configs(
    oset: OpetopicSet,
    dim: int,
    size_bound: Optional[int] = None,
    shape: Optional[Opetope] = None,
) -> Tuple[BoundaryConfig, ...]:
    """All niches at one dimension, each once and in canonical order:
    shape code, infaces slot by slot (each slot's cells in name order),
    then pins.  Shapes are those listed at the set's bound (or the
    override).  Each plan row is checked when the later of its node slots
    is assigned, dropping the assignment if the row's ends disagree or it
    reads a face its cell lacks, as ``cells_with`` leaves such cells out.
    An empty tree's one row is pinned with every cell of its type."""
    if dim < 1 or dim > oset.max_dim:
        raise DimOutOfRange("dimension %d not in 1..%d" % (dim, oset.max_dim))
    bound = oset.shape_bound if size_bound is None else size_bound
    candidates = (shape,) if shape is not None else shapes.enumerate_opetopes(dim, bound)
    faces = oset.faces
    found: List[BoundaryConfig] = []
    for sh in candidates:
        if sh.dim != dim or sh.size > bound:
            continue
        entry = oset.shape_entry(sh.code)
        # Each row, at its later node slot s, as (face f of s, the other slot t, face g of t).
        reads: List[List[Tuple[int, int, int]]] = [[] for _ in entry.input_codes]
        free: List[EdgeKey] = []
        for edge, row in entry.plan.items():
            (s, f), (t, g) = sorted((row[:2], row[2:]), reverse=True)
            if s < 0:
                free.append(edge)
            else:
                reads[s].append((f, t, g))
        assigned: List[Tuple[str, ...]] = [()]
        for code, rows in zip(entry.input_codes, reads):
            assigned = [
                prefix + (cell,) for prefix in assigned for cell in oset.cells_of_shape(code)
                if _agrees(faces, prefix, cell, rows)
            ]
        pools = [oset.cells_of_shape(_edge_type(oset, entry, edge)) for edge in free]
        pinnings = [tuple(zip(free, combo)) for combo in itertools.product(*pools)]
        found += [BoundaryConfig(sh.code, ins, None, pins) for ins in assigned for pins in pinnings]
    return tuple(found)


def _agrees(faces, prefix: Tuple[str, ...], cell: str, rows: List[Tuple[int, int, int]]) -> bool:
    """Do the rows read at ``cell``'s slot, the one after ``prefix``, pass?
    A row whose other end is the outface (t < 0) is only read, and a read
    of a face the cell lacks fails."""
    try:
        for f, t, g in rows:
            a = faces[cell][1] if f < 0 else faces[cell][0][f]
            if t >= 0 and a != (faces[prefix[t]][1] if g < 0 else faces[prefix[t]][0][g]):
                return False
    except (KeyError, IndexError):
        return False
    return True


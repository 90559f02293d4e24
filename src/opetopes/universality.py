"""Universal niche-occupants, balanced punctured niches, and the weak
n-category check.

Universality and balancedness are mutually recursive relative to a target
dimension n.  An occupant of a j-dimensional niche with j > n is universal
exactly when it is the only occupant; for j <= n universality defers to
the balancedness, in both listing orders, of a (j+1)-dimensional punctured
niche built from the occupant and a frame-competitor of its outface.
Balancedness of an m-dimensional punctured niche is trivial for m > n+1
and otherwise combines an existence condition (every outface filling
extends to a full occupant universal in its niche) with a faithfulness
condition that climbs one more dimension.  Dimensions only ever climb, so
the recursion terminates; no configuration above dimension n+1 is ever
consulted, and each cell has exactly one verdict, which the context's
verdict table keeps.

Every punctured niche of the recursion pastes one missing unary ray cell
onto a cell, so the boundary an outface filler is forced to have is known,
and the recursion reads all it needs off each shape's two indexes (its
cells by infaces and by outface, built on the set's first query for the
shape), each read one ``osets.cells_with`` lookup, without building a
configuration:

* the one ray step pastes the ray onto a cell at a slot (-1 its output,
  i its input i) and asks both listing orders of that punctured niche to
  be balanced; output composition is the step at slot -1, input
  competition the step at the restored inface's slot;
* output composition of a cell c at d' forces (c's infaces, d'), so its
  outface extensions are the occupants of c's niche with outface d';
* input competition of an occupant u at a slot with a' forces (u's
  infaces with a' at the slot, u's outface): one infaces-index lookup,
  filtered by outface;
* the fillers over an extension b are the cells of the ray shape with
  outface b and the cell at its position: once the outface is assigned
  every edge resolves, so no pin is left to check;
* the niche's occupants are the fillers over all its extensions.

Output compositions are visited only at the outfaces d' of the occupants
of c's niche.  On a validated set each such d' is a frame-competitor of
c's outface, and any other competitor forces a boundary no cell has, so
its niche has no outface extension and no occupant: it is balanced in
both listing orders, and leaving it out changes no verdict or witness.
That step, the occupants as fillers, and the occupants read off the
niche index above n rest on a validated set, which
``check_weak_n_category`` ensures before the recursion starts.

The two listing orders of each two-node punctured niche are genuinely
different shapes (inface order is part of a shape), which is why both are
always checked, in the order ``_ORDERS``.
"""

from __future__ import annotations

from typing import List, NamedTuple, Tuple

from .errors import (
    DimensionOverflow,
    InsufficientDimension,
    InvalidSet,
    MalformedConfig,
)
from .osets import (
    BoundaryConfig,
    OpetopicSet,
    cells_with,
    competitors,
    enumerate_configs,
    niche_occupants,
    occupants,
    outface_extensions,
    validate,
)
from .records import Record
from .shapes import Opetope, derived, identity_on
from .trees import PasteTree, TreeNode


class Verdict(NamedTuple):
    """A boolean answer with a deterministic witness trail.

    For successful uniqueness checks above dimension n the witness names
    the unique occupant; for failures it names the first offending
    configuration or cell in canonical order.  Its truth is ``value``
    (as a tuple it would always be true).
    """

    value: bool
    witnesses: Tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.value


# The listing orders of a two-node punctured niche, as ``mirrored`` flags.
_ORDERS = (False, True)


class CheckContext(Record):
    """Shared state for one run of the recursion: the set, n, the highest
    dimension reached, and ``verdicts``, each cell's universality verdict
    once decided.  Each context starts with an empty table of its own."""

    __slots__ = ("oset", "n", "verdicts", "max_dim_reached")
    _fields = __slots__

    def __init__(self, oset: OpetopicSet, n: int):
        self.oset = oset
        self.n = n
        self.verdicts = {}
        self.max_dim_reached = 0


def _note_dim(ctx: CheckContext, dim: int) -> None:
    if dim > ctx.max_dim_reached:
        ctx.max_dim_reached = dim
    if dim > ctx.n + 2:
        raise DimensionOverflow(
            "recursion touched dimension %d > n+2 = %d" % (dim, ctx.n + 2)
        )


def ray_shape(base: Opetope, slot: int, mirrored: bool) -> Tuple[Opetope, int]:
    """The two-node shape pasting a unary cell onto one face of ``base``:
    at ``slot`` -1 its output, at i its input i, as in ``osets.PlanRow``.

    The unary node, the identity shape on that face, lies below the base
    node on its output or above it on input i; the composite outface has
    the base's own shape.  The upper node is listed first unless
    ``mirrored``, which gives the other of the two genuinely distinct
    shapes.  Returns the shape with the inface position of the base node.
    The shape is kept in the derived table (see
    :func:`opetopes.shapes.derived`) under the base shape and one tag.
    """
    shape = derived(base, ("ray", slot, mirrored), _ray, base, slot, mirrored)
    return shape, int(mirrored == (slot < 0))


def _ray(base: Opetope, slot: int, mirrored: bool) -> Opetope:
    if slot < 0:
        lower, upper, k = identity_on(base.output), base, 0
    else:
        lower, upper, k = base, identity_on(base.inputs[slot]), slot
    children = [None] * lower.arity
    children[k] = TreeNode(upper, (None,) * upper.arity)
    leaves = [(p,) for p in range(lower.arity)]
    leaves[k:k + 1] = [(k, q) for q in range(upper.arity)]
    node_order = ((), (k,)) if mirrored else ((k,), ())
    tree = PasteTree(base.dim - 1, TreeNode(lower, tuple(children)), None, node_order, tuple(leaves))
    return Opetope(base.dim + 1, tree)


def is_universal(ctx: CheckContext, cell: str) -> Verdict:
    """Is the cell universal in its niche, relative to the context's n?

    Cells of dimension 0 occupy no niche and count as universal, so the
    closure condition on composites of universal cells is well-posed at
    the bottom of the tower.  The set must be validated (see the module
    docstring): the verdict reads occupants off the niche index, and
    visits output compositions only at the outfaces they reach.  The
    verdict is decided once per context and then read off its table.
    """
    verdict = ctx.verdicts.get(cell)
    if verdict is None:
        verdict = ctx.verdicts[cell] = _universal(ctx, cell)
    return verdict


def _universal(ctx: CheckContext, cell: str) -> Verdict:
    """The verdict ``is_universal`` stores on a miss, decided afresh."""
    shape = ctx.oset.shape_of(cell)
    j = shape.dim
    _note_dim(ctx, j)
    if j == 0:
        return Verdict(True, (cell,))
    occ = niche_occupants(ctx.oset, cell)
    if j > ctx.n:
        if occ == (cell,):
            return Verdict(True, (cell,))
        return Verdict(False, occ)
    if j + 1 > ctx.oset.max_dim:
        raise DimensionOverflow(
            "universality at dimension %d needs configurations at %d > max_dim"
            % (j, j + 1)
        )
    outface_of = ctx.oset.outface_of
    for d_prime in sorted({outface_of(u) for u in occ}):
        extensions = tuple(u for u in occ if outface_of(u) == d_prime)
        sub = _ray_step(ctx, shape, cell, -1, d_prime, extensions)
        if not sub:
            return sub
    return Verdict(True, (cell,))


def is_balanced(ctx: CheckContext, cfg: BoundaryConfig) -> Verdict:
    """Is the punctured niche balanced, relative to the context's n?  ``cfg``
    must pin its free edges, as ``make_config`` and enumeration do, and the
    set be validated."""
    if cfg.kind != "punctured_niche":
        raise MalformedConfig("balancedness is asked of punctured niches")
    shape = ctx.oset.shape(cfg.shape_code)
    if shape.dim > ctx.n + 1:
        _note_dim(ctx, shape.dim)
        return Verdict(True)
    return _balanced(ctx, shape, cfg.infaces, outface_extensions(ctx.oset, cfg))


def _balanced(ctx: CheckContext, shape: Opetope, infaces: tuple, extensions: tuple) -> Verdict:
    """Balancedness of the punctured niche of ``shape`` with these infaces
    (one missing), at most n+1-dimensional, given its outface extensions;
    fillers and occupants are read off the indexes (module docstring)."""
    oset = ctx.oset
    m = shape.dim
    _note_dim(ctx, m)
    slot = infaces.index(None)

    # Existence: every outface filling extends to a full occupant that is
    # universal in its niche.
    occ: List[str] = []
    for b in extensions:
        over = cells_with(oset, shape.code, infaces, b)
        fillers = [u for u in over if is_universal(ctx, u)]
        if not fillers:
            return Verdict(False, ("no-universal-filler-over:%s" % b,))
        occ.extend(over)

    # Faithfulness: around every universal occupant, competition at the
    # restored inface stays balanced one dimension up.
    if m + 1 <= ctx.n + 1:
        for u in sorted(occ):
            if not is_universal(ctx, u):
                continue
            ins, out = oset.faces[u]
            for a_prime in competitors(oset, ins[slot]):
                forced = ins[:slot] + (a_prime,) + ins[slot + 1:]
                extended = cells_with(oset, shape.code, forced, out)
                sub = _ray_step(ctx, shape, u, slot, a_prime, extended)
                if not sub:
                    return Verdict(False, ("occupant:%s" % u,) + sub.witnesses)
    return Verdict(True)


def _ray_step(
    ctx: CheckContext, shape: Opetope, cell: str, slot: int, competitor: str, extensions: tuple
) -> Verdict:
    """The ray step: are the punctured niches pasting a missing unary cell
    onto ``cell``, of ``shape``, at ``slot`` (see ``ray_shape``), its far
    end on ``competitor``, balanced in both listing orders, given their
    outface extensions?  A failure's witnesses follow the competitor's."""
    for mirrored in _ORDERS:
        big, cell_pos = ray_shape(shape, slot, mirrored)
        infaces = (cell, None) if cell_pos == 0 else (None, cell)
        sub = _balanced(ctx, big, infaces, extensions)
        if not sub:
            return Verdict(False, ("competitor:%s" % competitor,) + sub.witnesses)
    return Verdict(True)


class CheckVerdict(Record):
    """The result of the weak n-category check, with per-niche records."""

    __slots__ = (
        "ok", "n", "shape_bound", "condition1", "condition2", "failure",
        "niche_counts", "max_dim_reached",
    )
    _fields = __slots__ + ("rule",)

    rule = (
        "condition 2 is checked as: for every niche within the bound whose "
        "infaces are all universal cells, every universal occupant of that "
        "niche has a universal outface"
    )

    def __init__(self, ok: bool, n: int, shape_bound: int):
        self.ok = ok
        self.n = n
        self.shape_bound = shape_bound
        self.condition1 = []
        self.condition2 = []
        self.failure = None
        self.niche_counts = {}
        self.max_dim_reached = 0


def _config_label(cfg: BoundaryConfig) -> str:
    faces = ",".join(c or "?" for c in cfg.infaces)
    pins = ";".join("%s=%s" % ("".join(map(str, e)) or "root", c) for e, c in cfg.pins)
    label = "%s(%s)->%s" % (cfg.shape_code, faces, cfg.outface or "?")
    return label + ("[%s]" % pins if pins else "")


def check_weak_n_category(oset: OpetopicSet, n: int, shape_bound: int) -> CheckVerdict:
    """Decide both weak n-category conditions over the bounded niche space.

    Condition 1: every niche of dimension 1..n+1 whose shape fits the
    bound has an occupant universal in it.  Condition 2: for every such
    niche whose infaces are all universal, every universal occupant has a
    universal outface.  Records are produced in canonical order, so the
    verdict is deterministic.
    """
    report = validate(oset)
    if not report.ok:
        raise InvalidSet("the set fails validation: %s" % report.violations[0], report)
    if oset.max_dim < n + 1:
        raise InsufficientDimension(
            "max_dim %d < n+1 = %d" % (oset.max_dim, n + 1)
        )
    ctx = CheckContext(oset, n)
    verdict = CheckVerdict(ok=True, n=n, shape_bound=shape_bound)
    for dim in range(1, n + 2):
        niches = enumerate_configs(oset, "niche", dim, size_bound=shape_bound)
        verdict.niche_counts[dim] = len(niches)
        for cfg in niches:
            label = _config_label(cfg)
            occ = occupants(oset, cfg)
            universal = [u for u in occ if is_universal(ctx, u)]
            rec1 = {
                "niche": label,
                "occupants": len(occ),
                "universal_occupant": universal[0] if universal else None,
            }
            verdict.condition1.append(rec1)
            if rec1["universal_occupant"] is None:
                verdict.ok = False
                if verdict.failure is None:
                    verdict.failure = {"condition": 1, **rec1}
            if not all(is_universal(ctx, c) for c in cfg.infaces):
                continue
            bad = None
            for u in universal:
                out = oset.outface_of(u)
                out_verdict = is_universal(ctx, out)
                if not out_verdict:
                    bad = {
                        "occupant": u,
                        "outface": out,
                        "trace": list(out_verdict.witnesses),
                    }
                    break
            rec2 = {
                "niche": label,
                "universal_occupants": len(universal),
                "non_universal_composite": bad,
            }
            verdict.condition2.append(rec2)
            if bad is not None:
                verdict.ok = False
                if verdict.failure is None:
                    verdict.failure = {"condition": 2, **rec2}
    verdict.max_dim_reached = ctx.max_dim_reached
    return verdict

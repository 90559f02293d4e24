"""Configuration builders and an occupant test kept as test references.

The checker reads frames, niches and the punctured niches of its
recursion off the set's indexes and never builds them.  These builders
make the same configurations the checked way, through ``make_config``, so
the tests can compare the two readings; ``ray_on_output`` and
``ray_on_input`` build the recursion's ray shapes directly, as a
reference for ``ray_shape``.  ``cell_matches`` tests one cell
against a configuration, field by field, as a scan reference for the
index lookups of ``osets.cells_with``.  ``reference_configs`` lists
frames, niches and punctured niches: one product per missing inface,
each assignment checked over the whole plan, then a dedup set and a
sort.  It is the only lister of frames and punctured niches, and for
niches the reference for ``osets.enumerate_configs``, which checks each
inface slot as it assigns it and builds the canonical order directly.
``reference_incidences`` and ``reference_edge_type`` name each edge's two
face references and its type straight off the tree, as references for
the plan rows of ``osets.edge_incidences`` and the types read off them.
"""

import itertools

from opetopes import BoundaryConfig, MalformedConfig, Opetope, make_config
from opetopes import shapes
from opetopes.shapes import identity_on
from opetopes.trees import PasteTree, TreeNode
from opetopes.universality import ray_shape


# An incidence reference is one of:
#   ("ii", i, j)  inface i's j-th inface
#   ("oi", i)     inface i's outface
#   ("io", p)     the outface's p-th inface
#   ("oo",)       the outface's outface


def reference_incidences(shape):
    """The two references (upper, lower) meeting on each edge of the
    shape's tree, by edge; none below dimension 2."""
    if shape.dim < 2:
        return {}
    tree = shape.tree
    if tree.is_empty:
        return {(): (("io", 0), ("oo",))}
    node_index = {p: i for i, p in enumerate(tree.node_order)}
    leaf_index = {p: i for i, p in enumerate(tree.leaf_order)}
    out = {}
    for edge in tree.iter_edge_paths():
        lower = ("oo",) if edge == () else ("ii", node_index[edge[:-1]], edge[-1])
        upper = ("oi", node_index[edge]) if edge in node_index else ("io", leaf_index[edge])
        out[edge] = (upper, lower)
    return out


def reference_edge_type(shape, edge):
    """The shape code of the cells on an edge, read off the tree's labels."""
    tree = shape.tree
    if tree.is_empty:
        return tree.edge_type.code
    if edge == ():
        return tree.node_at(()).label.output.code
    return tree.node_at(edge[:-1]).label.inputs[edge[-1]].code


def frame_of(oset, cell):
    """The cell's frame: its infaces and outface."""
    shape = oset.shape_of(cell)
    if shape.dim < 1:
        raise MalformedConfig("0-cells have no frame configuration")
    ins, out = oset.faces[cell]
    return make_config(oset, shape.code, ins, out)


def niche_of(oset, cell):
    """The cell's niche: its infaces, outface missing, the edges no inface
    reaches pinned from the cell's own boundary."""
    shape = oset.shape_of(cell)
    if shape.dim < 1:
        raise MalformedConfig("0-cells occupy no niche")
    ins, out = oset.faces[cell]
    pins = {
        edge: oset.faces[out][0][fu]
        for edge, (su, fu, sl, fl) in oset.shape_entry(shape.code).plan.items()
        if su == sl == -1
    }
    return make_config(oset, shape.code, ins, None, pins)


def config_with(oset, cfg, *, outface):
    """A copy of ``cfg`` with its outface assigned; pins are re-derived."""
    return make_config(oset, cfg.shape_code, cfg.infaces, outface, dict(cfg.pins))


def ray_niche(oset, cell, slot, competitor, mirrored):
    """The punctured niche pasting ``cell`` with a missing unary cell on
    its face at ``slot`` (-1 its outface, i its i-th inface), the far end
    pinned to the frame-competitor ``competitor``."""
    big, cell_pos = ray_shape(oset.shape_of(cell), slot, mirrored)
    infaces = [None, None]
    infaces[cell_pos] = cell
    far_end = () if slot < 0 else (slot, 0)
    return make_config(oset, big.code, infaces, None, {far_end: competitor})


def ray_on_output(base, mirrored):
    """The shape pasting a unary cell onto the output of ``base``, built
    directly, with the position of the base node: the unary node is the
    root, and the base node, above it, is listed first unless mirrored."""
    ray = identity_on(base.output)
    root = TreeNode(ray, (TreeNode(base, (None,) * base.arity),))
    leaf_order = tuple((0, p) for p in range(base.arity))
    base_path, ray_path = (0,), ()
    node_order = (ray_path, base_path) if mirrored else (base_path, ray_path)
    tree = PasteTree(base.dim - 1, root, None, node_order, leaf_order)
    return Opetope(base.dim + 1, tree), 1 if mirrored else 0


def ray_on_input(base, slot, mirrored):
    """The shape pasting a unary cell onto input ``slot`` of ``base``, built
    directly, with the position of the base node: the base node is the
    root, and the unary node, above it, is listed first unless mirrored."""
    ray = identity_on(base.inputs[slot])
    children = [None] * base.arity
    children[slot] = TreeNode(ray, (None,))
    root = TreeNode(base, tuple(children))
    leaf_order = tuple((p, 0) if p == slot else (p,) for p in range(base.arity))
    base_path, ray_path = (), (slot,)
    node_order = (base_path, ray_path) if mirrored else (ray_path, base_path)
    tree = PasteTree(base.dim - 1, root, None, node_order, leaf_order)
    return Opetope(base.dim + 1, tree), 0 if mirrored else 1


def cell_matches(oset, cfg, cell):
    """Does the cell's boundary extend the configuration (pins included)?"""
    if oset.cells[cell] != cfg.shape_code:
        return False
    ins, out = oset.faces[cell]
    for want, have in zip(cfg.infaces, ins):
        if want is not None and want != have:
            return False
    if cfg.outface is not None and cfg.outface != out:
        return False
    boundary = ins + (out,)
    plan = oset.shape_entry(cfg.shape_code).plan
    for edge, pin in cfg.pins:
        su, fu = plan[edge][:2]
        face = oset.faces[boundary[su]]
        if (face[1] if fu < 0 else face[0][fu]) != pin:
            return False
    return True


def _sort_key(cfg):
    """The canonical order as a key: a missing face reads as ``""``, so it
    sorts before every cell of a set with no cell named ``""``."""
    return (cfg.shape_code, tuple(c or "" for c in cfg.infaces), cfg.outface or "", cfg.pins)


def reference_configs(oset, kind, dim, size_bound=None, shape=None):
    """Every configuration of one kind at one dimension, by a product per
    missing inface, deduplicated and sorted by ``_sort_key``."""
    bound = oset.shape_bound if size_bound is None else size_bound
    candidates = (shape,) if shape is not None else shapes.enumerate_opetopes(dim, bound)
    found = []
    for sh in candidates:
        if sh.dim != dim or sh.size > bound:
            continue
        entry = oset.shape_entry(sh.code)
        pools = [oset.cells_of_shape(code) for code in entry.input_codes]
        outs = oset.cells_of_shape(entry.output_code) if kind == "frame" else (None,)
        missing_choices = range(len(pools)) if kind == "punctured_niche" else (None,)
        for missing in missing_choices:
            slots = [(None,) if i == missing else pool for i, pool in enumerate(pools)]
            for *infaces, out in itertools.product(*slots, outs):
                found.extend(_pin_completions(oset, entry, tuple(infaces), out))
    return tuple(sorted(set(found), key=_sort_key))


def _pin_completions(oset, entry, infaces, outface):
    """The configurations over one assignment, its free edges pinned with
    every cell of their types, checked as ``make_config`` would: none when
    the assignment breaks an incidence or reads a face its cell lacks."""
    faces = oset.faces
    boundary = infaces + (outface,)
    free = []
    for edge, (su, fu, sl, fl) in entry.plan.items():
        try:
            face = boundary[su]
            a = None if face is None else (faces[face][1] if fu < 0 else faces[face][0][fu])
            face = boundary[sl]
            b = None if face is None else (faces[face][1] if fl < 0 else faces[face][0][fl])
        except (KeyError, IndexError):
            return
        if a is None:
            if b is None:
                free.append(edge)
        elif b is not None and a != b:
            return
    pools = [oset.cells_of_shape(reference_edge_type(entry.shape, edge)) for edge in free]
    for combo in itertools.product(*pools):
        yield BoundaryConfig(entry.shape.code, infaces, outface, tuple(zip(free, combo)))

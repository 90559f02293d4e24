"""Configuration builders and an occupant test kept as test references.

The checker reads frames, niches and the punctured niches of its
recursion off the set's indexes and never builds them.  These builders
make the same configurations the checked way, through ``make_config``, so
the tests can compare the two readings.  ``cell_matches`` tests one cell
against a configuration, field by field, as a scan reference for the
index lookups of ``osets.cells_with``.
"""

from opetopes import MalformedConfig, make_config
from opetopes.universality import ray_on_input_shape, ray_on_output_shape


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


def output_composition_niche(oset, cell, d_prime, mirrored):
    """The punctured niche pasting ``cell`` with a missing unary cell on
    its outface, the far end pinned to the frame-competitor ``d_prime``."""
    big, cell_pos = ray_on_output_shape(oset.shape_of(cell), mirrored)
    infaces = [None, None]
    infaces[cell_pos] = cell
    return make_config(oset, big.code, infaces, None, {(): d_prime})


def input_competition_niche(oset, cell, slot, a_prime, mirrored):
    """The punctured niche pasting ``cell`` with a missing unary cell on
    its ``slot``-th inface, the far end pinned to ``a_prime``."""
    big, cell_pos = ray_on_input_shape(oset.shape_of(cell), slot, mirrored)
    infaces = [None, None]
    infaces[cell_pos] = cell
    return make_config(oset, big.code, infaces, None, {(slot, 0): a_prime})


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

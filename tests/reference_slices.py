"""Slice substitution and niche composites kept as test references.

The engine works out every composite from canonical codes
(``shapes.compose``, ``shapes.graft``) and never substitutes a tree into a
node to compose in the slice, nor lists the composites of a niche.  These
two functions do it the direct way, so the tests can compare the readings.
"""

from opetopes import CompositeMismatch, MalformedConfig, is_universal, occupants
from opetopes.shapes import graft
from opetopes.trees import substitute_tree


def substitute(outer, at_node, inner):
    """Replace a node of ``outer`` by a tree composing to the node's label.

    This is slice-level composition in the small: the inner tree's root
    edge takes over the node's output edge and its leaves take over the
    node's input slots, in leaf order.  Substituting an empty tree deletes
    a unary identity node.
    """
    expected = outer.node_at(at_node).label
    actual = graft(inner)
    if actual != expected:
        raise CompositeMismatch(
            "inner tree composes to %s, node is labelled %s" % (actual.code, expected.code)
        )
    result, _ = substitute_tree(outer, at_node, inner)
    return result


def composites(ctx, niche):
    """The outfaces of the niche's universal occupants, deduplicated and
    sorted; at dimension n+1 there is at most one."""
    if niche.kind != "niche":
        raise MalformedConfig("composites are asked of niches")
    out = {
        ctx.oset.outface_of(u)
        for u in occupants(ctx.oset, niche)
        if is_universal(ctx, u)
    }
    return tuple(sorted(out))

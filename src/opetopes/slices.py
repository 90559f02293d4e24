"""The slice construction for tower operads.

Slicing sends the tower level ``d`` to level ``d + 1``: the types of the
slice are the operations below, and the operations of the slice are the
reduction laws below -- pasting trees paired with their composite.
Composition in the slice is substitution of trees into tree nodes.

Only tower levels can be sliced here; a finite table operad has genuine
relations, and identifying its reduction laws is out of scope.
"""

from __future__ import annotations

from .errors import CompositeMismatch, UnsupportedOperad
from . import shapes
from .shapes import Opetope
from .operads import OperadLevel
from .records import Value
from .trees import PasteTree, Path, substitute_tree


def slice_operad(operad) -> OperadLevel:
    """The slice of a tower level: types become the operations below."""
    if not isinstance(operad, OperadLevel):
        raise UnsupportedOperad("only tower levels can be sliced")
    return OperadLevel(operad.level + 1)


def graft_composite(tree: PasteTree) -> Opetope:
    """Compose all node labels of a well-typed pasting tree bottom-up.

    The empty tree composes to the identity on its edge type.  The result
    does not depend on the order the nodes are folded; associativity
    guarantees this, and the property tests replay it.
    """
    return shapes.graft(tree)


class ReductionLaw(Value):
    """A reduction law: a pasting tree together with its composite.

    The composite is recomputed on construction, so the pair is consistent
    by definition.  Reduction laws at level ``d`` are exactly the
    operations of the slice at level ``d + 1``.
    """

    __slots__ = ("tree", "composite")
    _fields = __slots__

    def __init__(self, tree: PasteTree):
        self.tree = tree
        self.composite = graft_composite(tree)


def substitute(outer: PasteTree, at_node: Path, inner: PasteTree) -> PasteTree:
    """Replace a node of ``outer`` by a tree composing to the node's label.

    This is slice-level composition in the small: the inner tree's root
    edge takes over the node's output edge and its leaves take over the
    node's input slots, in leaf order.  Substituting an empty tree deletes
    a unary identity node.
    """
    expected = outer.node_at(at_node).label
    actual = shapes.graft(inner)
    if actual != expected:
        raise CompositeMismatch(
            "inner tree composes to %s, node is labelled %s" % (actual.code, expected.code)
        )
    result, _ = substitute_tree(outer, at_node, inner)
    return result

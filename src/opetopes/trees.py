"""Pasting trees: the rooted, slot-attached trees underlying everything else.

A pasting tree at level ``d`` is either empty (a single edge carrying a
type) or a rooted tree whose nodes are labelled by shapes one dimension up.
Each node has exactly ``label.arity`` child slots; a slot either holds a
child node or is a dangling input edge (a leaf).  Children are attached to
*slots*, so trees are rigid: there is no residual planar or non-planar
symmetry to quotient away.

Two orderings travel with every tree and carry all the symmetric-group
content of the theory:

* ``node_order`` lists the node addresses in *input order*: when the tree
  is read as an operation one level up, its i-th input is the label of
  ``node_order[i]``.
* ``leaf_order`` lists the leaf addresses in *input order*: when the tree
  is composed down to a single operation, that operation's i-th input sits
  on the edge ``leaf_order[i]``.

Addresses are tuples of slot indices from the root; the root node is
``()``; the edge entering slot ``j`` of the node at ``p`` is ``p + (j,)``;
the root edge (the tree's output) is also addressed ``()``.  For the empty
tree the single edge is simultaneously the root edge and the unique leaf,
both addressed ``()``.

This module is purely structural.  Labels are opaque objects exposing an
integer ``arity`` attribute; type discipline between labels and edges is
enforced one layer up, in :mod:`opetopes.shapes`.

Nodes and trees are slotted classes (see :mod:`opetopes.records`) that
compare and hash structurally.  Like shapes they are immutable by
convention: nothing assigns to a built node or tree, except the index a
node keeps once it is first read and the flag a root keeps once its tree
is validated (see :func:`opetopes.shapes._validate_tree`).  A node's
index may be shared and must never be mutated: the corollas that
:func:`single_node_tree` builds share one index, one children tuple and
one leaf order per arity, since a corolla's index depends only on its
arity.

One mechanism walks trees: ``preorder`` lists a tree's nodes and dangling
slots with an explicit stack, and ``fold`` folds the tree bottom up over
that list reversed.  Equality, hashing and substitution here, and
grafting and the metatree in :mod:`opetopes.shapes`, use the two, so any
depth compares, hashes, substitutes, grafts and serialises.  Indexing
keeps its own walk, as it needs each node's path.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, Dict, Iterator, NamedTuple, Optional, Tuple

from .errors import IllTyped, NoSuchNode
from .records import Value

Path = Tuple[int, ...]


class TreeIndex(NamedTuple):
    """Every node path with its preorder position and every leaf path with
    its planar (depth-first slot) position; each dict lists its paths in
    that order."""

    nodes: Dict[Path, int]
    leaves: Dict[Path, int]


# The empty tree's single edge is its only leaf.
_EMPTY_INDEX = TreeIndex({}, {(): 0})


class TreeNode(Value):
    """One node of a pasting tree: a label plus one child per slot.

    ``children`` has exactly ``label.arity`` entries; ``None`` marks a
    dangling slot (a leaf edge).  Nodes compare and hash by their
    ``preorder`` label lists, so any depth compares and hashes.
    """

    __slots__ = ("label", "children", "_index", "_valid")
    _fields = ("label", "children")

    def __init__(self, label: object, children: Tuple[Optional["TreeNode"], ...]):
        if len(children) != label.arity:
            raise IllTyped(
                "node labelled %r needs %d child slots, got %d"
                % (label, label.arity, len(children))
            )
        self.label = label
        self.children = children
        self._index = None
        # True once a shape's tree rooted here has passed the typing walk
        # of ``shapes``; the other trees on this root (the order variants
        # of one shape) then skip the walk, as they share the index.
        self._valid = False

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or _labels(self) == _labels(other)

    def __hash__(self) -> int:
        return hash(tuple(_labels(self)))

    @property
    def index(self) -> TreeIndex:
        """The index of the tree rooted at this node.

        Computed on first use and kept on the node, so every tree sharing
        this root (the permuted variants of one shape) reads the same one.
        A corolla from ``single_node_tree`` starts with its arity's shared one.
        Threads racing on first use build equal indexes; either is kept.
        """
        found = self._index
        if found is None:
            found = self._index = _index_tree(self)
        return found


_CHILDREN = attrgetter("children")


def preorder(root, children: Callable = _CHILDREN) -> list:
    """The nodes of the tree at ``root`` and its dangling slots (``None``)
    in depth-first slot order, listed with one explicit stack, so any depth
    is walked.  ``children(node)`` gives a node's slots: a ``TreeNode``'s
    children, or with ``itemgetter("slots")`` a metatree slot spec's."""
    listed = []
    stack = [root]
    while stack:
        node = stack.pop()
        listed.append(node)
        if node is not None:
            stack += reversed(children(node))
    return listed


def fold(root, leaf: Callable, node: Callable, children: Callable = _CHILDREN):
    """The tree at ``root`` folded bottom up: ``leaf(i)`` is the value of
    the dangling slot at index ``i`` of the planar order, counted from the
    end (-1 is the last), and ``node(n, values)`` that of a node ``n`` with
    ``values`` the list of its slots' values.  It reads ``preorder(root,
    children)`` backwards, so ``node`` meets the nodes in reverse
    preorder, and keeps the values on one stack."""
    i = 0
    values: list = []
    for n in reversed(preorder(root, children)):
        if n is None:
            i -= 1
            values.append(leaf(i))
        else:
            values.append(node(n, [values.pop() for _ in children(n)]))
    return values.pop()


def _labels(root: TreeNode) -> list:
    """The preorder labels, ``None`` at each dangling slot; with arities they fix the tree."""
    return [None if n is None else n.label for n in preorder(root)]


def _index_tree(root: TreeNode) -> TreeIndex:
    """Number the nodes in preorder and the leaves in planar order, by one
    walk that keeps the nodes it will come back to on an explicit stack,
    each with its path and next slot, so any depth indexes.  It is not a
    ``preorder`` walk because it needs each node's path."""
    nodes: Dict[Path, int] = {(): 0}
    leaves: Dict[Path, int] = {}
    stack = []
    node, path, j = root, (), 0
    while True:
        children = node.children
        while j < len(children):
            child = children[j]
            if child is None:
                leaves[path + (j,)] = len(leaves)
                j += 1
            else:
                stack.append((node, path, j + 1))
                node, path, j, children = child, path + (j,), 0, child.children
                nodes[path] = len(nodes)
        if not stack:
            return TreeIndex(nodes, leaves)
        node, path, j = stack.pop()


class PasteTree(Value):
    """A pasting tree with its two input orderings.

    ``level`` is the tower level of the edges (labels live one level up).
    An empty tree has ``root is None`` and carries the type of its single
    edge in ``edge_type``; a nonempty tree has ``edge_type is None``.
    Trees compare and hash structurally.
    """

    __slots__ = ("level", "root", "edge_type", "node_order", "leaf_order")
    _fields = __slots__

    def __init__(
        self,
        level: int,
        root: Optional[TreeNode],
        edge_type: object,
        node_order: Tuple[Path, ...],
        leaf_order: Tuple[Path, ...],
    ):
        self.level = level
        self.root = root
        self.edge_type = edge_type
        self.node_order = node_order
        self.leaf_order = leaf_order
        self.__post_init__()

    def __post_init__(self):
        """Check the orders against the tree.  ``__init__`` calls this once
        per tree; perfbench's tracer wraps it to count the trees built."""
        if self.root is None:
            if self.edge_type is None:
                raise IllTyped("empty tree needs an edge type")
            if self.node_order != () or self.leaf_order != ((),):
                raise IllTyped("empty tree has no nodes and exactly one leaf")
            return
        if self.edge_type is not None:
            raise IllTyped("nonempty tree must not carry an edge type")
        nodes, leaves = self.root.index
        if nodes.keys() != set(self.node_order) or len(self.node_order) != len(nodes):
            raise IllTyped("node_order is not a permutation of the node set")
        if leaves.keys() != set(self.leaf_order) or len(self.leaf_order) != len(leaves):
            raise IllTyped("leaf_order is not a permutation of the leaf set")

    # -- basic queries ----------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return self.root is None

    @property
    def node_count(self) -> int:
        return len(self.node_order)

    @property
    def leaf_count(self) -> int:
        return len(self.leaf_order)

    def node_at(self, path: Path) -> TreeNode:
        node = self.root
        if node is None:
            raise NoSuchNode("empty tree has no nodes")
        for j in path:
            if j >= len(node.children) or node.children[j] is None:
                raise NoSuchNode("no node at %r" % (path,))
            node = node.children[j]
        return node

    @property
    def index(self) -> TreeIndex:
        """Preorder and planar leaf positions, shared by all trees on one root."""
        return _EMPTY_INDEX if self.root is None else self.root.index

    def iter_node_paths(self) -> Iterator[Path]:
        """Node addresses in preorder (root first, slots left to right)."""
        return iter(self.index.nodes)

    def iter_edge_paths(self) -> Iterator[Path]:
        """All edge addresses: the root edge, then every slot edge."""
        yield ()
        for path in self.iter_node_paths():
            node = self.node_at(path)
            for j in range(len(node.children)):
                yield path + (j,)


def empty_tree(level: int, edge_type: object) -> PasteTree:
    return PasteTree(level, None, edge_type, (), ((),))


# The children tuple, leaf order and index of the corollas of each arity.
_COROLLAS: Dict[int, Tuple[tuple, Tuple[Path, ...], TreeIndex]] = {}


def single_node_tree(level: int, label: object) -> PasteTree:
    """A one-node tree with all slots dangling (the corolla on ``label``).

    Corollas of one arity share their children tuple, leaf order and index."""
    k = label.arity
    shared = _COROLLAS.get(k)
    if shared is None:
        leaf_order = tuple((j,) for j in range(k))
        index = TreeIndex({(): 0}, {leaf: j for j, leaf in enumerate(leaf_order)})
        shared = _COROLLAS.setdefault(k, ((None,) * k, leaf_order, index))
    children, leaf_order, index = shared
    node = TreeNode(label, children)
    node._index = index
    return PasteTree(level, node, None, ((),), leaf_order)


# -- substitution ---------------------------------------------------------


def _rebuild_with(node: TreeNode, path: Path, replacement) -> Optional[TreeNode]:
    """Return the tree rooted at ``node`` with the node at ``path`` swapped
    for ``replacement``.

    ``replacement`` is a TreeNode or None; None empties that position.  The
    ancestors along ``path`` are collected walking down and rebuilt walking
    up, so a deep path cannot exhaust the interpreter's recursion limit.
    """
    ancestors = []
    for j in path:
        ancestors.append(node)
        node = node.children[j]
    for parent, j in zip(reversed(ancestors), reversed(path)):
        replacement = TreeNode(
            parent.label, parent.children[:j] + (replacement,) + parent.children[j + 1 :]
        )
    return replacement


def substitute_tree(
    tree: PasteTree, path: Path, inner: PasteTree
) -> Tuple[PasteTree, Callable[[Path], Path]]:
    """Replace the node at ``path`` by the pasting tree ``inner``.

    The inner tree's root edge merges with the node's output edge, and the
    inner tree's i-th leaf (per its leaf order) merges with the node's i-th
    input slot.  Substituting an empty inner tree deletes the node, fusing
    its single input edge with its output edge.

    Returns the new tree together with a remap taking old addresses (node
    or edge) to their new addresses.  The replaced node's own address
    reads as its output edge, which keeps its address as the inner tree's
    root edge or as the fused edge, so ``remap(path) == path``.  The new
    tree's node order splices the inner order in place of the replaced
    node; the leaf order is the outer one, remapped.
    """
    victim = tree.node_at(path)
    arity = len(victim.children)
    if inner.leaf_count != arity:
        raise IllTyped(
            "substituting a %d-leaf tree for a node with %d slots"
            % (inner.leaf_count, arity)
        )

    if inner.is_empty:
        # The node must be unary; its input edge fuses with its output edge.
        child = victim.children[0]

        def remap(q: Path) -> Path:
            if q[: len(path)] == path and len(q) > len(path):
                if q[len(path)] != 0:
                    raise NoSuchNode("address %r lost in substitution" % (q,))
                return path + q[len(path) + 1 :]
            return q

        new_root = _rebuild_with(tree.root, path, child)
        if new_root is None:
            new_tree = empty_tree(tree.level, inner.edge_type)
        else:
            pos = tree.node_order.index(path)
            node_order = tuple(
                remap(q) for q in tree.node_order[:pos] + tree.node_order[pos + 1 :]
            )
            leaf_order = tuple(remap(q) for q in tree.leaf_order)
            new_tree = PasteTree(tree.level, new_root, None, node_order, leaf_order)
        return new_tree, remap

    # Nonempty inner tree: wire slot j of the victim to inner leaf j.
    slot_target = {j: inner.leaf_order[j] for j in range(arity)}

    def remap(q: Path) -> Path:
        if q[: len(path)] == path and len(q) > len(path):
            j = q[len(path)]
            return path + slot_target[j] + q[len(path) + 1 :]
        return q

    grafted = _filled(inner, victim.children)

    new_root = _rebuild_with(tree.root, path, grafted)
    pos = tree.node_order.index(path)
    spliced = (
        tuple(remap(q) for q in tree.node_order[:pos])
        + tuple(path + q for q in inner.node_order)
        + tuple(remap(q) for q in tree.node_order[pos + 1 :])
    )
    leaf_order = tuple(remap(q) for q in tree.leaf_order)
    new_tree = PasteTree(tree.level, new_root, None, spliced, leaf_order)
    return new_tree, remap


def _filled(inner: PasteTree, hung: tuple) -> TreeNode:
    """The inner tree with ``hung[j]`` on its j-th leaf in leaf order."""
    planar = [None] * len(hung)
    leaves = inner.index.leaves
    for leaf, child in zip(inner.leaf_order, hung):
        planar[leaves[leaf]] = child
    return fold(inner.root, planar.__getitem__, lambda n, kids: TreeNode(n.label, tuple(kids)))

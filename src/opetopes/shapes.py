"""Opetopes: the shapes of the iterated-slice tower over the initial operad.

The unique 0-dimensional shape is the point and the unique 1-dimensional
shape is the arrow.  An n-dimensional shape for n >= 2 is a pasting tree
at tower level ``n - 2``: nodes are labelled by (n-1)-dimensional shapes,
edges are typed by (n-2)-dimensional shapes, and the tree carries a node
order (which node is the i-th inface) and a leaf order (which dangling
edge is the i-th input of the composite outface).

Read as an *operation* at tower level ``n - 1``, a shape has

* ``arity``    -- the number of nodes of its tree,
* ``inputs``   -- the node labels, in node order,
* ``output``   -- the composite of the tree (grafting all labels).

So the infaces of a shape are its inputs and the outface is its output.
Distinct node orders are distinct shapes; this is what makes the
symmetric-group action on k-ary shapes free and yields k! two-dimensional
shapes with k infaces.

Canonical codes are parseable byte strings, and enumeration everywhere is
sorted by code.  The code grammar and the staged metatree serialization are
documented in FORMAT.md.

Building a shape interns it (hash-consing): ``Opetope(dim, tree)``
validates the tree, works out its code and returns the one shape with
that code, so two shapes are equal exactly when they are the same object;
there is no comparison by code.  The walk that types the tree's slots
runs once per root node: the root keeps a validated flag as it keeps its
index, so the order variants of one tree, which share its root, check
only their level, their root label and (as pasting trees) their orders.
Copying or unpickling a shape also returns the interned one.  The intern
table is a plain dict and keeps its shapes for the life of the process:
the enumeration cache holds every listed shape and the derived table the
operands and results of every composite anyway, and an identity or a
permutation is found again only by its code, so a weak table would free
little, cost a weak reference per new shape and rebuild each dropped
identity or permutation on its next use.
Composites and the ray shapes of ``universality`` are kept in one
module-level table, a composite keyed by its operands and a ray shape
by its base and a tagged key, so each is found once and a shape carries
no table of its own.  Identities and permutations are kept in no table
but the intern table: their code is cheap to work out from the operand,
so looking it up there is their whole memo.  The identity permutation
returns its shape.
``compose``, ``permute_inputs`` and ``identity_on`` find their result by
code: each works out the result's code from its operands and looks it
up, and builds a tree only for a new code (a new composite is parsed from
its code by ``from_code``, which validates it and rejects a non-canonical
spelling).  ``graft`` reads the composite at each node with children off
the same code walk as ``compose``, without its operand checks, which the
validated tree already guarantees.  Parsing looks up each nested label by
the code up to its matching bracket, and parses only a new label's
structure, innermost first, so its recursion does not deepen with nesting.
Grafting a tree and writing and reading its staged metatree walk it with
``trees.preorder`` and ``trees.fold``.  Writing a tree's code, reading
its nodes back and writing a composite's code are the audit's hot path
and keep inline walks of their own, each with an explicit stack, since a
walk through callbacks measured about four times as slow there.  So a tree
of any depth builds, parses, composes and serialises.  The metatree goes
stage by stage and ``size`` counts the nodes in the code, so a shape of
any dimension has both too.
"""

from __future__ import annotations

import itertools
import re
import threading
from operator import itemgetter
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .errors import ArityMismatch, DegreeMismatch, IllTyped, TypeMismatch, ZeroDimensional
from .trees import PasteTree, Path, TreeNode, empty_tree, fold, preorder, single_node_tree


# One shape per code, held for the life of the process; the lock guards the
# miss paths of construction and ``derived``, which run once per distinct
# shape or key.
_INTERNED: Dict[str, "Opetope"] = {}
# Composites and ray shapes (see ``derived``), keyed by (shape,) + key.
_DERIVED: Dict[tuple, "Opetope"] = {}
_LOCK = threading.Lock()
# A metatree slot spec's slots, the children ``trees.preorder`` walks.
_SLOTS = itemgetter("slots")


class _Interned(type):
    """Construction returns the live shape with the new shape's code."""

    def __call__(cls, dim: int, tree: Optional[PasteTree]) -> "Opetope":
        shape = super().__call__(dim, tree)
        found = _INTERNED.get(shape.code)
        if found is None:
            with _LOCK:
                found = _INTERNED.setdefault(shape.code, shape)
        return found


class Opetope(metaclass=_Interned):
    """An n-dimensional shape; immutable and interned, so equality is identity."""

    __slots__ = ("dim", "tree", "code", "_inputs", "_output", "_size")

    def __init__(self, dim: int, tree: Optional[PasteTree]):
        if dim < 0:
            raise IllTyped("dimension must be a natural number")
        if dim <= 1:
            if tree is not None:
                raise IllTyped("the point and the arrow carry no pasting tree")
        else:
            if tree is None:
                raise IllTyped("shapes of dimension >= 2 need a pasting tree")
            _validate_tree(dim, tree)
        self.dim = dim
        self.tree = tree
        self._inputs = None
        self._output = None
        self._size = None
        self.code = _encode(self)

    # -- operation view ----------------------------------------------------

    @property
    def arity(self) -> int:
        """Input count when read as an operation (= number of infaces)."""
        if self.dim == 0:
            raise ZeroDimensional("the point is not an operation")
        if self.dim == 1:
            return 1
        return self.tree.node_count

    @property
    def inputs(self) -> Tuple["Opetope", ...]:
        if self.dim == 0:
            raise ZeroDimensional("the point is not an operation")
        if self.dim == 1:
            return (POINT,)
        if self._inputs is None:
            self._inputs = tuple(self.tree.node_at(p).label for p in self.tree.node_order)
        return self._inputs

    @property
    def output(self) -> "Opetope":
        if self.dim == 0:
            raise ZeroDimensional("the point is not an operation")
        if self.dim == 1:
            return POINT
        if self._output is None:
            self._output = graft(self.tree)
        return self._output

    @property
    def size(self) -> int:
        """Total node count over all metatree stages; the enumeration bound.

        It is the number of ``(`` in the code: a node writes one and its
        label's code, and an empty tree its edge type's code, so a shape's
        size is its node count plus its labels' sizes, or its edge type's,
        counted without recursion."""
        if self._size is None:
            self._size = self.code.count("(")
        return self._size

    # -- dunder ------------------------------------------------------------

    def __reduce__(self):
        return from_code, (self.code,)

    def __lt__(self, other):
        return (self.dim, self.code) < (other.dim, other.code)

    def __repr__(self):
        return "Opetope(%r)" % self.code


# -- derived shapes -----------------------------------------------------------


def derived(shape: Opetope, key: tuple, build: Callable[..., Opetope], *args) -> Opetope:
    """``build(*args)``, the shape derived from ``shape`` under ``key``.

    Results are kept in the one table ``_DERIVED`` under ``(shape,) + key``,
    so the key must determine the result; each distinct key is built once.
    A composite is keyed by its operands alone, ``(f, g_1, ..., g_k)``;
    every other key starts with a string tag, so its full key, whose second
    entry is that string, never equals a composite's, whose entries are
    all shapes.  An error raised by ``build`` propagates and nothing is
    kept.
    """
    full = (shape,) + key
    found = _DERIVED.get(full)
    if found is None:
        found = build(*args)
        with _LOCK:
            found = _DERIVED.setdefault(full, found)
    return found


def _validate_tree(dim: int, tree: PasteTree) -> None:
    """IllTyped unless ``tree`` can be the tree of a ``dim``-dimensional
    shape.  The walk over the slots runs once per root: it marks the root
    validated, and a later tree on that root checks only its level and
    its root label, since every label has the root label's dimension and
    the slots do not depend on the orders."""
    if tree.level != dim - 2:
        raise IllTyped("a %d-dimensional shape needs a level-%d tree" % (dim, dim - 2))
    if tree.is_empty:
        t = tree.edge_type
        if not isinstance(t, Opetope) or t.dim != dim - 2:
            raise IllTyped("empty-tree edge type must be a %d-dimensional shape" % (dim - 2))
        return
    root = tree.root
    if root._valid:
        label = root.label
        if not isinstance(label, Opetope) or label.dim != dim - 1:
            raise IllTyped("node labels must be %d-dimensional shapes" % (dim - 1))
        return
    for path in tree.node_order:
        node = tree.node_at(path)
        label = node.label
        if not isinstance(label, Opetope) or label.dim != dim - 1:
            raise IllTyped("node labels must be %d-dimensional shapes" % (dim - 1))
        for j, child in enumerate(node.children):
            if child is not None and child.label.output != label.inputs[j]:
                raise IllTyped(
                    "slot %d of node %r expects %s, child composes to %s"
                    % (j, path, label.inputs[j].code, child.label.output.code)
                )
    root._valid = True


# -- identities, composition, permutation -----------------------------------


def identity_on(shape: Opetope) -> Opetope:
    """The unary shape on ``shape``: the identity operation at its level.
    It is found by its code, so it is kept in no table but the intern table."""
    if shape.dim == 0:
        return ARROW
    return _identity_on(shape)


def _identity_on(shape: Opetope) -> Opetope:
    """``identity_on`` above the point: the corolla on ``shape``, found by code."""
    k = shape.arity
    code = "[(%s:%s)|n0|l%s]" % (shape.code, ",".join("_" * k), ".".join(map(str, range(k))))
    found = _INTERNED.get(code)
    if found is None:
        found = _built(code, Opetope(shape.dim + 1, single_node_tree(shape.dim - 1, shape)))
    return found


def _built(code: str, shape: Opetope) -> Opetope:
    """``shape``, which a derived operation predicted to have ``code``;
    IllTyped if its code is another."""
    if shape.code != code:
        raise IllTyped("predicted code %r, built %r" % (code, shape.code))
    return shape


def compose(f: Opetope, gs: Sequence[Opetope]) -> Opetope:
    """The operadic composite ``f (g_1, ..., g_k)`` one level up from edges.

    All operands are shapes of the same dimension; ``g_i`` must compose to
    the i-th input of ``f``.  The result's inputs are the concatenation of
    the ``g_i`` inputs and its output equals ``f``'s output.
    """
    gs = tuple(gs)
    return derived(f, gs, _composed, f, gs)


def _composed(f: Opetope, gs: Tuple[Opetope, ...]) -> Opetope:
    """``compose`` without the table: check the operands, then find the
    composite by its code, parsing the code only when it is new."""
    if f.dim < 1:
        raise TypeMismatch("the point cannot be composed")
    if len(gs) != f.arity:
        raise ArityMismatch("operation of arity %d applied to %d arguments" % (f.arity, len(gs)))
    for i, g in enumerate(gs):
        if g.dim != f.dim:
            raise TypeMismatch("argument %d has dimension %d, expected %d" % (i, g.dim, f.dim))
        if g.output != f.inputs[i]:
            raise TypeMismatch(
                "argument %d composes to %s, slot expects %s"
                % (i, g.output.code, f.inputs[i].code)
            )
    if f.dim == 1:
        return ARROW
    return from_code(_composite_code(f, gs))


def _composite_code(f: Opetope, gs: Tuple[Optional[Opetope], ...]) -> str:
    """The code of ``f (gs)``, read off one walk of ``f``'s tree in which
    each node is replaced by its operand's tree.

    The walk grafts as ``substitute_tree`` does: slot j of the replaced
    node hangs from the operand tree's j-th leaf in its leaf order, and an
    empty operand tree deletes its unary node.  An operand ``None`` keeps
    its node, as the identity on the node's label would.  The composite's
    node order is the operands' node orders in turn, and its leaf order is
    ``f``'s.
    """
    tree = f.tree
    if tree.is_empty:
        return f.code
    operand = dict(zip(tree.node_order, gs))
    parts: List[str] = []
    numbers: Dict[Tuple[Path, Path], int] = {}  # (f node, operand node) -> preorder number
    planar: Dict[Path, int] = {}  # f leaf -> planar leaf position
    _composite_walk(tree.root, operand, parts, numbers, planar)
    if not numbers:
        return "[!%s|n|l0]" % operand[()].tree.edge_type.code
    nu = ".".join(
        str(numbers[p, q])
        for p, g in zip(tree.node_order, gs)
        for q in (_KEPT if g is None else g.tree.node_order)
    )
    lam = ".".join(str(planar[leaf]) for leaf in tree.leaf_order)
    return "[%s|n%s|l%s]" % ("".join(parts), nu, lam)


# The node order of a kept node, read as the one-node tree it stays.
_KEPT: Tuple[Path, ...] = ((),)


# Inline, not a ``trees.fold``: this walk runs for every new composite.
def _composite_walk(root: TreeNode, operand, parts, numbers, planar) -> None:
    """Write the composite above the root edge of f's tree.

    The walk keeps what it has still to write on an explicit stack, so a
    deep tree cannot exhaust the recursion limit.  A task is a literal; an
    edge of f's tree, as the node it enters and its path; or a node of the
    operand tree that replaces a node of f's, as f's node, its path, the
    slot of f's node that each operand leaf takes, the operand node and
    its path.  A node's tasks are pushed last slot first, so nodes and
    leaves are numbered in the order of a depth-first walk.
    """
    todo: list = [(root, ())]
    while todo:
        task = todo.pop()
        if task.__class__ is str:
            parts.append(task)
            continue
        if len(task) == 2:
            node, at = task
            while node is not None:
                g = operand[at]
                if g is None or not g.tree.is_empty:
                    break
                node, at = node.children[0], at + (0,)
            if node is None:
                planar[at] = len(planar)
                parts.append("_")
                continue
            if g is None:
                numbers[at, ()] = len(numbers)
                parts.append("(%s:" % node.label.code)
                todo.append(")")
                children = node.children
                for j in range(len(children) - 1, -1, -1):
                    todo.append((children[j], at + (j,)))
                    if j:
                        todo.append(",")
                continue
            inner = g.tree
            slots = {leaf: j for j, leaf in enumerate(inner.leaf_order)}
            task = (node, at, slots, inner.root, ())
        node, at, slots, sub, q = task
        numbers[at, q] = len(numbers)
        parts.append("(%s:" % sub.label.code)
        todo.append(")")
        children = sub.children
        for j in range(len(children) - 1, -1, -1):
            child = children[j]
            if child is None:
                k = slots[q + (j,)]
                todo.append((node.children[k], at + (k,)))
            else:
                todo.append((node, at, slots, child, q + (j,)))
            if j:
                todo.append(",")


def permute_inputs(f: Opetope, sigma: Sequence[int]) -> Opetope:
    """The right action ``f . sigma``: input i of the result is input
    ``sigma[i]`` of ``f`` (0-indexed).  The output is unchanged.  The
    result is found by its code, so it is kept in no table but the intern
    table."""
    sigma = tuple(sigma)
    if f.dim >= 1 and len(sigma) == f.arity and sigma == tuple(range(len(sigma))):
        return f
    return _permuted(f, sigma)


def _permuted(f: Opetope, sigma: Tuple[int, ...]) -> Opetope:
    """``permute_inputs`` off the identity: check ``sigma``, then find the
    result by its code, building its tree only when the code is new."""
    if f.dim < 1:
        raise TypeMismatch("the point cannot be permuted")
    if len(sigma) != f.arity or sorted(sigma) != list(range(f.arity)):
        raise DegreeMismatch("permutation %r does not act on arity %d" % (sigma, f.arity))
    # Only the node-order field changes; it is the last "|n" of the code,
    # since the leaf-order field after it holds digits and dots only.
    head, _, tail = f.code.rpartition("|n")
    nu, _, lam = tail.partition("|l")
    indices = nu.split(".")
    code = "%s|n%s|l%s" % (head, ".".join([indices[s] for s in sigma]), lam)
    found = _INTERNED.get(code)
    if found is None:
        tree = f.tree
        order = tuple(tree.node_order[s] for s in sigma)
        found = _built(code, Opetope(f.dim, PasteTree(tree.level, tree.root, None, order, tree.leaf_order)))
    return found


def graft(tree: PasteTree) -> Opetope:
    """Compose a pasting tree's labels down to a single operation.

    The empty tree composes to the identity on its edge type.  The result's
    i-th input sits on the tree's i-th leaf, so the final answer is the
    planar fold, each node's composite made from its children's, corrected
    by the tree's leaf order.
    """
    if tree.is_empty:
        return identity_on(tree.edge_type)
    if tree.level == 0:
        return ARROW
    planar = fold(tree.root, lambda i: None, _composite_at)
    leaves = tree.index.leaves
    sigma = tuple(leaves[leaf] for leaf in tree.leaf_order)
    return permute_inputs(planar, sigma)


def _composite_at(node: TreeNode, gs: List[Optional[Opetope]]) -> Opetope:
    """``node``'s label composed with ``gs``, its children's composites,
    found by the code of one walk of the label's tree.  A dangling slot
    (``None``) keeps its node, so a node with no children composes to its
    label.  The validated tree already matches each child's output to its
    slot, so no operand is checked again."""
    if any(gs):
        return from_code(_composite_code(node.label, tuple(gs)))
    return node.label


def faces(shape: Opetope) -> Tuple[Tuple[Opetope, ...], Opetope]:
    """Infaces (in inface order) and the outface of a shape of dim >= 1."""
    if shape.dim == 0:
        raise ZeroDimensional("the point has no faces")
    return shape.inputs, shape.output


# -- enumeration -------------------------------------------------------------


def enumerate_opetopes(dim: int, node_bound: int) -> Tuple[Opetope, ...]:
    """All shapes of the given dimension with size <= node_bound, sorted.

    ``size`` totals the node counts of every metatree stage, so the listing
    is finite in every dimension.  Dimensions 0 and 1 ignore the bound.
    The listings it rests on are filled bottom-up, lowest dimension first,
    so the answer never depends on what the cache already holds; IllTyped
    above ``MAX_ENUM_DIM``.
    """
    if dim < 0:
        raise IllTyped("dimension must be a natural number")
    if node_bound < 0:
        raise IllTyped("node bound must be a natural number")
    if dim > MAX_ENUM_DIM:
        raise IllTyped("dimension %d is too deep to enumerate" % dim)
    # The listing at (d, b) reads those at (d - 2, b) and (d - 1, b - 1).
    needed, todo = set(), [(dim, node_bound)]
    while todo:
        d, b = key = todo.pop()
        if key not in _ENUM_CACHE and key not in needed:
            needed.add(key)
            if d >= 2:
                todo += [(d - 2, b), (d - 1, max(b - 1, 0))]
    for key in sorted(needed):
        _ENUM_CACHE[key] = _listing(*key)
    return _ENUM_CACHE[(dim, node_bound)]


# The deepest dimension listed.  A listing fills the cache at every
# dimension below it, with codes about 4d characters long at dimension d,
# so even at bound 0 the cache grows with the square of the dimension:
# 8 MB of codes at 2000, 50 MB at 5000.  ``from_code`` reads every listed
# code back, since it parses nested codes innermost first.
MAX_ENUM_DIM = 2000

_ENUM_CACHE: Dict[Tuple[int, int], Tuple[Opetope, ...]] = {}


def _listing(dim: int, bound: int) -> Tuple[Opetope, ...]:
    """The listing at (dim, bound), from the cached listings below it."""
    if dim == 0:
        return (POINT,)
    if dim == 1:
        return (ARROW,)
    shapes = []
    for t in _ENUM_CACHE[(dim - 2, bound)]:
        if t.size <= bound:
            shapes.append(Opetope(dim, empty_tree(dim - 2, t)))
    # A label costs its own size plus its node, so only the listing one
    # bound down can supply labels; the filter drops dims 0 and 1 at bound 0.
    labels = [op for op in _ENUM_CACHE[(dim - 1, max(bound - 1, 0))] if op.size + 1 <= bound]
    by_output: Dict[Opetope, List[Opetope]] = {}
    for op in labels:
        by_output.setdefault(op.output, []).append(op)
    for label in labels:
        for root, _ in _gen_sub(label, bound, by_output):
            nodes, leaves = root.index
            for nu in itertools.permutations(nodes):
                for lam in itertools.permutations(leaves):
                    shapes.append(Opetope(dim, PasteTree(dim - 2, root, None, nu, lam)))
    shapes.sort(key=lambda s: s.code)
    return tuple(shapes)


def _gen_children(slot_types, budget, by_output):
    if not slot_types:
        yield (), 0
        return
    head, rest = slot_types[0], slot_types[1:]
    for tail, tail_used in _gen_children(rest, budget, by_output):
        yield (None,) + tail, tail_used
        for label in by_output.get(head, ()):
            cost = 1 + label.size
            if cost + tail_used > budget:
                continue
            for sub, sub_used in _gen_sub(label, budget - tail_used, by_output):
                yield (sub,) + tail, sub_used + tail_used


def _gen_sub(label, budget, by_output) -> Iterator[Tuple[TreeNode, int]]:
    cost = 1 + label.size
    if cost > budget:
        return
    for children, used in _gen_children(label.inputs, budget - cost, by_output):
        yield TreeNode(label, children), cost + used


# -- canonical codes ----------------------------------------------------------


def _encode(shape: Opetope) -> str:
    if shape.dim == 0:
        return "pt"
    if shape.dim == 1:
        return "ar"
    tree = shape.tree
    if tree.is_empty:
        body = "!" + tree.edge_type.code
    else:
        body = _encode_node(tree.root)
    nodes, leaves = tree.index
    nu = ".".join([str(nodes[p]) for p in tree.node_order])
    lam = ".".join([str(leaves[p]) for p in tree.leaf_order])
    return "[%s|n%s|l%s]" % (body, nu, lam)


# Inline, not a ``trees.fold``: every new shape's code is written here.
def _encode_node(root: TreeNode) -> str:
    """The code of the tree at ``root``, written by one walk that keeps
    the nodes it will come back to on an explicit stack, each with its
    next slot, so a deep tree cannot exhaust the recursion limit."""
    parts = ["(", root.label.code, ":"]
    stack: List[Tuple[TreeNode, int]] = []
    node, j = root, 0
    while True:
        children = node.children
        while j < len(children):
            if j:
                parts.append(",")
            child = children[j]
            j += 1
            if child is None:
                parts.append("_")
            else:
                stack.append((node, j))
                node, j, children = child, 0, child.children
                parts += ("(", node.label.code, ":")
        parts.append(")")
        if not stack:
            return "".join(parts)
        node, j = stack.pop()


# Built once the encoder exists; building interns them.
POINT = Opetope(0, None)
ARROW = Opetope(1, None)


# Error messages quote at most this many characters of a code and then give
# its length, so one bad code cannot make a message of any size.
QUOTE_LIMIT = 100


def clip(code: str) -> str:
    """The code as an error message shows it: whole when it has at most
    QUOTE_LIMIT characters, else its first QUOTE_LIMIT and its length."""
    if len(code) <= QUOTE_LIMIT:
        return code
    return "%s... (%d characters)" % (code[:QUOTE_LIMIT], len(code))


def quote(code: str) -> str:
    """Like ``clip``, with the quoted part in ``repr`` quotes."""
    if len(code) <= QUOTE_LIMIT:
        return repr(code)
    return "%r... (%d characters)" % (code[:QUOTE_LIMIT], len(code))


def from_code(code: str) -> Opetope:
    """Parse a canonical code back into a shape (inverse of ``.code``).

    Only the canonical spelling parses: a code that would build a shape
    with another code (say ``n00`` for ``n0``, or leaf indices on an empty
    tree) is rejected.
    """
    found = _INTERNED.get(code)
    if found is not None:
        return found
    close = _closing_brackets(code)
    try:
        # Each bracketed code, innermost first, so the recursion does not
        # deepen with the nesting; a piece that does not parse ends this
        # pass, and the parse of the whole code reports its first error.
        for start in close:
            _parse(code, start, close)
    except (IllTyped, IndexError, RecursionError):
        pass
    try:
        shape, rest = _parse(code, 0, close)
    except IndexError:
        raise IllTyped("truncated code %s" % quote(code))
    except RecursionError:
        raise IllTyped("code nested too deeply to parse")
    if rest != len(code):
        raise IllTyped("trailing garbage in code %s" % quote(code))
    return shape


_BRACKET = re.compile(r"[\[\]]")


def _closing_brackets(code: str) -> Dict[int, int]:
    """The offset of the matching ``]`` of every ``[`` that has one, inner pairs first."""
    close: Dict[int, int] = {}
    opened: List[int] = []
    for m in _BRACKET.finditer(code):
        if m.group() == "[":
            opened.append(m.start())
        elif opened:
            close[opened.pop()] = m.start()
    return close


def _parse(s: str, i: int, close: Dict[int, int]) -> Tuple[Opetope, int]:
    """The shape whose code starts at offset ``i`` and the offset after it.

    A code that is already interned is found by the substring up to its
    matching bracket; only a new one is parsed, label by label."""
    if s.startswith("pt", i):
        return POINT, i + 2
    if s.startswith("ar", i):
        return ARROW, i + 2
    end = close.get(i)
    if end is not None:
        found = _INTERNED.get(s[i : end + 1])
        if found is not None:
            return found, end + 1
    if i >= len(s) or s[i] != "[":
        raise IllTyped("bad code at offset %d in %s" % (i, quote(s)))
    start = i
    i += 1
    if s[i] == "!":
        edge, i = _parse(s, i + 1, close)
        tree_dim = edge.dim + 2
        root = None
    else:
        root, i = _parse_node(s, i, close)
        tree_dim = root.label.dim + 1
    if s[i] != "|" or s[i + 1] != "n":
        raise IllTyped("expected node order at offset %d in %s" % (i, quote(s)))
    i += 2
    nu_idx, i = _parse_indices(s, i)
    if s[i] != "|" or s[i + 1] != "l":
        raise IllTyped("expected leaf order at offset %d in %s" % (i, quote(s)))
    i += 2
    lam_idx, i = _parse_indices(s, i)
    if s[i] != "]":
        raise IllTyped("unterminated code at offset %d in %s" % (i, quote(s)))
    i += 1
    if root is None:
        tree = empty_tree(tree_dim - 2, edge)
        nodes, leaves = tree.index
    else:
        nodes, leaves = root.index
    pre, planar = tuple(nodes), tuple(leaves)
    try:
        nu = tuple(pre[k] for k in nu_idx)
        lam = tuple(planar[k] for k in lam_idx)
    except IndexError:
        raise IllTyped("order index out of range in %s" % quote(s))
    if root is not None:
        tree = PasteTree(tree_dim - 2, root, None, nu, lam)
    shape = Opetope(tree_dim, tree)
    if s[start:i] != shape.code:
        raise IllTyped("%s is not the canonical code %s" % (quote(s[start:i]), quote(shape.code)))
    return shape, i


# Inline, not a ``trees.fold``: it reads a string, not a tree, and runs per new code.
def _parse_node(s: str, i: int, close: Dict[int, int]) -> Tuple[TreeNode, int]:
    """The node whose code starts at offset ``i`` and the offset after it.

    The nodes whose slots are being read are kept on an explicit stack, so
    a deep tree cannot exhaust the interpreter's recursion limit; the
    checks, and so the first error reported, are those of a recursive
    descent."""
    stack: List[Tuple[Opetope, List[Optional[TreeNode]]]] = []
    while True:
        # A node starts at i.
        if s[i] != "(":
            raise IllTyped("expected node at offset %d in %s" % (i, quote(s)))
        start = i + 1
        label, i = _parse(s, start, close)
        if label.dim == 0:
            raise IllTyped("the point labels no node, at offset %d in %s" % (start, quote(s)))
        if s[i] != ":":
            raise IllTyped("expected ':' at offset %d in %s" % (i, quote(s)))
        i += 1
        stack.append((label, []))
        at_slot = s[i] != ")"
        while True:
            if at_slot:
                if s[i] != "_":
                    break  # a child node starts at i
                stack[-1][1].append(None)
                i += 1
            else:
                if s[i] != ")":
                    raise IllTyped("unterminated node at offset %d in %s" % (i, quote(s)))
                label, children = stack.pop()
                node = TreeNode(label, tuple(children))
                i += 1
                if not stack:
                    return node, i
                stack[-1][1].append(node)
            at_slot = s[i] == ","
            if at_slot:
                i += 1


def _parse_indices(s: str, i: int) -> Tuple[Tuple[int, ...], int]:
    out = []
    while i < len(s) and s[i].isdigit():
        j = i
        while s[j].isdigit():
            j += 1
        out.append(int(s[i:j]))
        i = j
        if i < len(s) and s[i] == "." and i + 1 < len(s) and s[i + 1].isdigit():
            i += 1
            continue
        break
    return tuple(out), i


# -- metatree serialization ---------------------------------------------------


def metatree_stages(shape: Opetope) -> List[dict]:
    """The staged metatree: one entry per dimension from 1 up to ``dim``.

    Stage d lists the top trees describing the d-dimensional structure; the
    single tree of the top stage is the shape's own pasting tree, and the
    trees of stage d-1 are, in order, the top trees of the labels of every
    stage-d node (concatenated tree by tree, nodes in preorder).  Stage 1
    entries are arrow markers.  Empty trees carry their edge type's code.
    See FORMAT.md for the exact layout.  The stages are written one at a
    time from the top down, so no walk recurses once per dimension.
    """
    stages = []
    level = [shape]
    for dim in range(shape.dim, 0, -1):
        trees, below = [], []
        for op in level:
            tree = op.tree
            if dim == 1:
                trees.append({"arrow": True})
            elif tree.is_empty:
                trees.append({"empty": True, "type_code": tree.edge_type.code})
            else:
                nodes, leaves = tree.index
                spec = fold(tree.root, lambda i: None, lambda node, slots: {"slots": slots})
                trees.append(
                    {
                        "root": spec,
                        "node_order": [nodes[p] for p in tree.node_order],
                        "leaf_order": [leaves[p] for p in tree.leaf_order],
                    }
                )
                below += [node.label for node in preorder(tree.root) if node is not None]
        stages.append({"dim": dim, "trees": trees})
        level = below
    stages.reverse()
    return stages


def render_metatree(shape: Opetope) -> str:
    """A compact text view of the staged metatree, one line per stage.

    Node labels are positional (stage-d tree i labels global node i of
    stage d+1), so only the slot structure and the two orders are shown:
    ``(_,(_))`` marks slots, ``n``/``l`` carry the orders, ``|`` is an
    arrow marker and ``!code`` an empty tree on the coded type.
    """
    lines = []
    for stage in metatree_stages(shape):
        parts = []
        for tree in stage["trees"]:
            if tree.get("arrow"):
                parts.append("|")
            elif tree.get("empty"):
                parts.append("!" + tree["type_code"])
            else:
                slots = fold(tree["root"], lambda i: "_", lambda spec, s: "(%s)" % ",".join(s), _SLOTS)
                parts.append(
                    "%s n%s l%s"
                    % (
                        slots,
                        ".".join(map(str, tree["node_order"])),
                        ".".join(map(str, tree["leaf_order"])),
                    )
                )
        lines.append("dim %d: %s" % (stage["dim"], "  ".join(parts)))
    return "\n".join(lines)


def from_metatree(stages: Sequence[dict]) -> Opetope:
    """Rebuild a shape from its staged metatree (inverse of the above).

    The stages are read from the lowest up: the trees of each stage take
    as labels the shapes of the stage below, in turn, so no walk recurses
    once per dimension.  IllTyped unless every tree is used and the top
    stage holds one, and for a document not laid out as
    ``metatree_stages`` writes it."""
    if not stages:
        return POINT
    shapes: List[Opetope] = []
    try:
        for dim, stage in enumerate(stages, 1):
            shapes = _stage_shapes(dim, stage["trees"], shapes)
    except (LookupError, TypeError, AttributeError) as exc:
        raise IllTyped("malformed metatree (%s: %s)" % (type(exc).__name__, exc))
    if len(shapes) != 1:
        raise IllTyped("the top metatree stage holds %d trees, not one" % len(shapes))
    return shapes[0]


def _stage_shapes(dim: int, entries: Sequence[dict], labels: List[Opetope]) -> List[Opetope]:
    """The shapes of one stage's trees, whose nodes take ``labels``, the
    shapes of the stage below, in turn."""
    built = []
    taken = 0
    for entry in entries:
        if entry.get("arrow"):
            built.append(ARROW)
            continue
        if entry.get("empty"):
            built.append(Opetope(dim, empty_tree(dim - 2, from_code(entry["type_code"]))))
            continue
        spec = entry["root"]
        count = sum(node is not None for node in preorder(spec, _SLOTS))
        if taken + count > len(labels):
            raise IllTyped("metatree stage %d has too few trees" % (dim - 1))
        # The fold meets the nodes in reverse preorder.
        mine = reversed(labels[taken : taken + count])
        taken += count
        root = fold(
            spec, lambda i: None, lambda node, children: TreeNode(next(mine), tuple(children)), _SLOTS
        )
        nu = _picked(tuple(root.index.nodes), entry["node_order"], "node_order")
        lam = _picked(tuple(root.index.leaves), entry["leaf_order"], "leaf_order")
        built.append(Opetope(dim, PasteTree(dim - 2, root, None, nu, lam)))
    if taken != len(labels):
        raise IllTyped("metatree stages contain unused trees")
    return built


def _picked(paths: Tuple[Path, ...], indices, name: str) -> Tuple[Path, ...]:
    """The paths at ``indices``; IllTyped unless each index is an ``int``
    (not a ``bool``) in ``range(len(paths))``, as in a code's order blocks."""
    if not isinstance(indices, list) or any(
        type(k) is not int or not 0 <= k < len(paths) for k in indices
    ):
        raise IllTyped("%s must list indices in range(%d), got %r" % (name, len(paths), indices))
    return tuple(paths[k] for k in indices)

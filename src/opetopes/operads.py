"""Typed operads: the tower over the initial operad, finite table operads,
permutation plumbing, algebras, and the axiom audit.

The tower is the only family of operads that gets sliced; level ``d`` has
the d-dimensional shapes as types and the (d+1)-dimensional shapes as
operations.  Finite table operads exist for algebra fixtures and as
negative controls for the axiom audit; they are never sliced.  Both kinds
implement one protocol -- ``operations``, ``arity``, ``inputs``,
``output``, ``key``, ``size``, ``compose``, ``permute`` and ``identity``
-- which the audit and the algebras read directly.

``check_operad_axioms`` exhaustively replays the five operad laws
(associativity, units, and the three equivariance laws) over every
instance whose operands' total size stays within the bound, and reports
each violation of a law instead of raising.  An ill-typed table (say, a
permutation entry naming an operation of another arity, or a composite
whose inputs do not match where it is plugged) is ill-formed input, and
the audit raises on it (``DegreeMismatch``, ``TypeMismatch``), as
``errors`` states for every ill-formed input.  The audit reads the
symmetric-group action off tables: per arity, the permutations and their
product table, and per operation a row of its permuted forms, shared by
the whole audit.  So ``permute`` is asked once per operation of arity 2
or more and permutation, and a law instance looks its permuted sides up
by index.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .errors import (
    ArityMismatch,
    CarrierMismatch,
    DegreeMismatch,
    TypeMismatch,
    UnsupportedOperad,
)
from . import shapes
from .records import Record
from .shapes import Opetope


# -- permutations -------------------------------------------------------------

Perm = Tuple[int, ...]


def identity_perm(k: int) -> Perm:
    return tuple(range(k))


def check_perm(sigma: Sequence[int], degree: Optional[int] = None) -> Perm:
    sigma = tuple(sigma)
    if sorted(sigma) != list(range(len(sigma))):
        raise DegreeMismatch("%r is not a permutation" % (sigma,))
    if degree is not None and len(sigma) != degree:
        raise DegreeMismatch("degree %d expected, got %d" % (degree, len(sigma)))
    return sigma


def compose_perms(sigma: Sequence[int], tau: Sequence[int]) -> Perm:
    """Function composition ``sigma . tau`` (apply ``tau`` first)."""
    sigma, tau = check_perm(sigma), check_perm(tau, len(sigma))
    return tuple(map(sigma.__getitem__, tau))


def block_permutation(sigma: Sequence[int], block_sizes: Sequence[int]) -> Perm:
    """Permute concatenated blocks of the given sizes as wholes.

    Position-wise (0-indexed): the i-th output block is the ``sigma[i]``-th
    input block, kept in its internal order.  Acting on the right of an
    operation, this is the induced homomorphism used by the equivariance
    law for permuted composition.
    """
    sigma = check_perm(sigma, len(block_sizes))
    offsets = []
    total = 0
    for size in block_sizes:
        offsets.append(total)
        total += size
    image: List[int] = []
    for i in range(len(block_sizes)):
        src = sigma[i]
        image.extend(range(offsets[src], offsets[src] + block_sizes[src]))
    return tuple(image)


def direct_sum_permutation(sigmas: Sequence[Sequence[int]]) -> Perm:
    """The block-diagonal permutation acting as ``sigma_i`` inside block i."""
    image: List[int] = []
    offset = 0
    for sigma in sigmas:
        sigma = check_perm(sigma)
        image.extend(offset + sigma[j] for j in range(len(sigma)))
        offset += len(sigma)
    return tuple(image)


# -- the tower -------------------------------------------------------------------


class OperadLevel(NamedTuple):
    """The tower operad at a given level.

    Types are the level-dimensional shapes and operations the shapes one
    dimension up; a shape is its own handle, keyed by its code.  For an
    operation of level >= 1 the inputs are the node labels of its tree in
    node order and the output is the tree's composite.  Levels 0 and 1
    have finitely many types and (level 0) operations; elsewhere
    enumeration requires a size bound.
    """

    level: int

    def types(self, size_bound: Optional[int] = None) -> Tuple[Opetope, ...]:
        if size_bound is None:
            if self.level >= 2:
                raise ValueError("level >= 2 has infinitely many types; pass a bound")
            size_bound = 0
        return shapes.enumerate_opetopes(self.level, size_bound)

    def operations(
        self, size_bound: Optional[int] = None, arity: Optional[int] = None
    ) -> Tuple[Opetope, ...]:
        if size_bound is None:
            if self.level >= 1:
                raise ValueError("level >= 1 has infinitely many operations; pass a bound")
            size_bound = 0
        ops = shapes.enumerate_opetopes(self.level + 1, size_bound)
        if arity is None:
            return ops
        return tuple(op for op in ops if op.arity == arity)

    def _op(self, f) -> Opetope:
        if f.dim != self.level + 1:
            raise TypeMismatch(
                "a level-%d operation is a %d-dimensional shape" % (self.level, self.level + 1)
            )
        return f

    def arity(self, f: Opetope) -> int:
        return self._op(f).arity

    def inputs(self, f: Opetope) -> Tuple[Opetope, ...]:
        return self._op(f).inputs

    def output(self, f: Opetope) -> Opetope:
        return self._op(f).output

    def key(self, f: Opetope) -> str:
        return self._op(f).code

    def size(self, f: Opetope) -> int:
        return self._op(f).size

    def identity(self, t: Opetope) -> Opetope:
        if t.dim != self.level:
            raise TypeMismatch("a level-%d type is a %d-dimensional shape" % (self.level, self.level))
        return shapes.identity_on(t)

    def compose(self, f: Opetope, gs: Sequence[Opetope]) -> Opetope:
        # shapes.compose rejects arguments of another dimension than f.
        return shapes.compose(self._op(f), gs)

    def permute(self, f: Opetope, sigma: Sequence[int]) -> Opetope:
        return shapes.permute_inputs(self._op(f), sigma)


def initial_operad() -> OperadLevel:
    """The initial untyped operad: one type, one operation, level 0."""
    return OperadLevel(0)


def slice_operad(operad) -> OperadLevel:
    """The slice of a tower level: level ``d`` goes to level ``d + 1``.

    The types of the slice are the operations below, and its operations
    are the reduction laws below: pasting trees paired with their
    composite, which ``shapes.graft`` works out from canonical codes.  Only
    tower levels can be sliced; a table operad has genuine relations, and
    identifying its reduction laws is out of scope.
    """
    if not isinstance(operad, OperadLevel):
        raise UnsupportedOperad("only tower levels can be sliced")
    return OperadLevel(operad.level + 1)


# -- finite table operads -------------------------------------------------------


class TableOperad(NamedTuple):
    """A finite operad presented by explicit tables.

    Supported for algebra fixtures and for auditing axiom violations in
    deliberately corrupted data; table operads cannot be sliced.  The
    permutation action may be omitted when every operation is unary.
    """

    type_names: Tuple[str, ...]
    ops: Dict[str, Tuple[Tuple[str, ...], str]]
    identities: Dict[str, str]
    table: Dict[Tuple[str, Tuple[str, ...]], str]
    perms: Optional[Dict[Tuple[str, Perm], str]] = None

    def operations(self, size_bound: Optional[int] = None) -> Tuple[str, ...]:
        """Every operation name, sorted; table operations have size 0."""
        return tuple(sorted(self.ops))

    def key(self, f: str) -> str:
        return f

    def size(self, f: str) -> int:
        return 0

    def arity(self, f: str) -> int:
        return len(self.ops[f][0])

    def inputs(self, f: str) -> Tuple[str, ...]:
        return self.ops[f][0]

    def output(self, f: str) -> str:
        return self.ops[f][1]

    def compose(self, f: str, gs: Sequence[str]) -> str:
        gs = tuple(gs)
        if len(gs) != self.arity(f):
            raise ArityMismatch("operation %r has arity %d" % (f, self.arity(f)))
        for g, t in zip(gs, self.inputs(f)):
            if self.output(g) != t:
                raise TypeMismatch("cannot plug %r into %r" % (g, f))
        try:
            return self.table[(f, gs)]
        except KeyError:
            raise TypeMismatch("composition table has no entry for %r%r" % (f, gs))

    def permute(self, f: str, sigma: Sequence[int]) -> str:
        sigma = check_perm(sigma, self.arity(f))
        if sigma == identity_perm(len(sigma)):
            return f
        if self.perms is None or (f, sigma) not in self.perms:
            raise UnsupportedOperad("no permutation table entry for %r%r" % (f, sigma))
        return self.perms[(f, sigma)]

    def identity(self, t: str) -> str:
        return self.identities[t]


# -- the axiom audit -------------------------------------------------------------


class AxiomViolation(NamedTuple):
    """One failed law instance; violations sort as tuples, field by field."""

    axiom: str
    operands: Tuple[str, ...]
    lhs: str
    rhs: str


class AxiomReport(Record):
    """The instance count per law and every violation, sorted."""

    __slots__ = ("size_bound", "instances", "violations")
    _fields = __slots__

    def __init__(self, size_bound: int):
        self.size_bound = size_bound
        self.instances = {}
        self.violations = []

    @property
    def ok(self) -> bool:
        return not self.violations


def _audited(operad):
    """The operad itself, if the audit and algebras can read it."""
    if not isinstance(operad, (OperadLevel, TableOperad)):
        raise UnsupportedOperad("cannot audit %r" % (operad,))
    return operad


def _sized(operad, size_bound: int) -> List[Tuple[object, int]]:
    """Every operation within the bound with its size, each size read once."""
    return [(f, operad.size(f)) for f in operad.operations(size_bound)]


def _by_output(operad, sized) -> Dict[object, List[Tuple[object, int]]]:
    """The (operation, size) pairs grouped by output type, in operation order."""
    by_output: Dict[object, List[Tuple[object, int]]] = {}
    for pair in sized:
        by_output.setdefault(operad.output(pair[0]), []).append(pair)
    return by_output


def _arg_tuples(by_output, input_types, budget) -> Iterator[Tuple[tuple, int]]:
    """All tuples of operations matching the given input types, with total
    size within budget."""
    if not input_types:
        yield (), 0
        return
    head, rest = input_types[0], input_types[1:]
    for g, used in by_output.get(head, ()):
        if used > budget:
            continue
        for tail, tail_used in _arg_tuples(by_output, rest, budget - used):
            yield (g,) + tail, used + tail_used


class _Action:
    """The permutation action of one operad, read off tables for one audit.

    ``perms(k)`` lists the permutations of ``k`` in ``itertools.permutations``
    order, and ``product(k)[i][j]`` is the index in that list of
    ``compose_perms(perms[i], perms[j])``; both are built on first use.  The
    row of an operation ``g`` of arity ``k`` lists ``operad.permute(g,
    sigma)`` for every sigma of ``perms(k)``, in that order.  A row fills
    in order as far as a law reads it, so for arity 2 and up
    ``operad.permute`` runs once per operation and permutation, in the
    order in which a law-by-law replay would first call it, and an operad
    without some permutation fails at the same first call.  Rows are kept
    per arity, so a ``permute`` that changes the arity fails as that
    replay does.
    """

    __slots__ = ("operad", "_perms", "_products", "_rows")

    def __init__(self, operad):
        self.operad = operad
        self._perms: Dict[int, Tuple[Perm, ...]] = {}
        self._products: Dict[int, Tuple[Tuple[int, ...], ...]] = {}
        self._rows: Dict[int, Dict[object, list]] = {}

    def perms(self, k: int) -> Tuple[Perm, ...]:
        found = self._perms.get(k)
        if found is None:
            found = self._perms[k] = tuple(itertools.permutations(range(k)))
        return found

    def product(self, k: int) -> Tuple[Tuple[int, ...], ...]:
        found = self._products.get(k)
        if found is None:
            perms = self.perms(k)
            index = {sigma: i for i, sigma in enumerate(perms)}
            # compose_perms(sigma, tau), unchecked: both are permutations of k
            found = self._products[k] = tuple(
                tuple([index[tuple(map(sigma.__getitem__, tau))] for tau in perms]) for sigma in perms
            )
        return found

    def row(self, g, k: int, length: Optional[int] = None) -> list:
        """The row of ``g``, an operation of arity ``k``, filled through
        its first ``length`` entries (by default, all of them)."""
        perms = self.perms(k)
        if k < 2:
            # A row of one, the identity's, is not kept: most operations
            # have arity 0 or 1, and their rows cost more memory than the
            # calls they save.
            return [self.operad.permute(g, perms[0])]
        row = self._rows.setdefault(k, {}).setdefault(g, [])
        end = len(perms) if length is None else length
        if len(row) < end:
            permute = self.operad.permute
            row.extend([permute(g, sigma) for sigma in perms[len(row) : end]])
        return row


def check_operad_axioms(operad, size_bound: int) -> AxiomReport:
    """Exhaustively verify the operad laws on the bounded instance space.

    Quantified operands range over the operations of size <= size_bound;
    an instance participates when the total size of all its operands stays
    within the bound.  Permutations always range over the full symmetric
    group of the relevant arity.  The instances of each operation run
    together, and violations are sorted by canonical key.  One ``_Action``
    serves the whole audit, so each operation's row is built once.
    """
    if size_bound < 1:
        raise ValueError("size_bound must be >= 1")
    operad = _audited(operad)
    sized = _sized(operad, size_bound)
    by_output = _by_output(operad, sized)
    action = _Action(operad)
    report = AxiomReport(size_bound=size_bound)
    for f, f_size in sized:
        counts, violations = _audit_operation(action, by_output, size_bound - f_size, f)
        for axiom, count in counts.items():
            report.instances[axiom] = report.instances.get(axiom, 0) + count
        report.violations.extend(violations)
    report.violations.sort()
    return report


def _audit_operation(action: _Action, by_output, budget: int, f):
    """Every law instance whose outermost operation is ``f``, its arguments
    within the size ``budget`` that ``f`` leaves of the bound: the unit law
    (b), the permutation law (c) over all pairs of permutations, and for
    each argument tuple ``gs`` the equivariance laws (d) and (e) and
    associativity (a) over every inner tuple ``hs``.

    The permuted operations are read off ``action``'s rows: law (c) reads
    its left side ``f . (sigma tau)`` as ``row(f)[product[i][j]]`` and its
    right side ``(f . sigma) . tau`` as ``row(f . sigma)[j]``, law (d)
    reads ``f . sigma`` from ``row(f)`` and law (e) reads each ``g . s``
    from ``row(g)``.  ``f (gs)`` is built once and shared by (d), (e) and
    (a), and the right sides of (d) and (e) permute it.  Returns the
    instance count per law, in first-run order, and the violations found.
    """
    operad = action.operad
    key = operad.key
    out: List[AxiomViolation] = []
    counts: Dict[str, int] = {"b": 1}

    left = operad.compose(operad.identity(operad.output(f)), [f])
    right = operad.compose(f, [operad.identity(t) for t in operad.inputs(f)])
    if left != f:
        out.append(AxiomViolation("b", (key(f), "left-unit"), key(left), key(f)))
    if right != f:
        out.append(AxiomViolation("b", (key(f), "right-unit"), key(right), key(f)))

    k = operad.arity(f)
    perms = action.perms(k)
    row_f = action.row(f, k)
    counts["c"] = len(perms) ** 2
    for sigma, f_sigma, products in zip(perms, row_f, action.product(k)):
        lhs = [row_f[p] for p in products]
        rhs = action.row(f_sigma, k)
        if lhs != rhs:
            for tau, l, r in zip(perms, lhs, rhs):
                if l != r:
                    out.append(AxiomViolation("c", (key(f), repr(sigma), repr(tau)), key(l), key(r)))

    for gs, gs_size in _arg_tuples(by_output, operad.inputs(f), budget):
        fg = operad.compose(f, gs)
        gs_keys = (key(f),) + tuple(map(key, gs))
        arities = [operad.arity(g) for g in gs]

        counts["d"] = counts.get("d", 0) + 1
        for sigma, f_sigma in zip(perms, row_f):
            lhs = operad.compose(f_sigma, [gs[i] for i in sigma])
            rhs = operad.permute(fg, block_permutation(sigma, arities))
            if lhs != rhs:
                out.append(AxiomViolation("d", gs_keys + (repr(sigma),), key(lhs), key(rhs)))

        counts["e"] = counts.get("e", 0) + 1
        pools = [tuple(enumerate(action.perms(j))) for j in arities]
        for picks in itertools.product(*pools):
            sigmas = tuple([s for _, s in picks])
            lhs = operad.compose(
                f, [action.row(g, j, i + 1)[i] for g, j, (i, _) in zip(gs, arities, picks)]
            )
            rhs = operad.permute(fg, direct_sum_permutation(sigmas))
            if lhs != rhs:
                out.append(AxiomViolation("e", gs_keys + (repr(sigmas),), key(lhs), key(rhs)))

        inner_types = tuple(t for g in gs for t in operad.inputs(g))
        for hs, _ in _arg_tuples(by_output, inner_types, budget - gs_size):
            counts["a"] = counts.get("a", 0) + 1
            blocks = []
            start = 0
            for j in arities:
                blocks.append(hs[start : start + j])
                start += j
            lhs = operad.compose(f, [operad.compose(g, b) for g, b in zip(gs, blocks)])
            rhs = operad.compose(fg, hs)
            if lhs != rhs:
                keys = gs_keys + tuple(map(key, hs))
                out.append(AxiomViolation("a", keys, key(lhs), key(rhs)))
    return counts, out


# -- algebras ---------------------------------------------------------------------


class Algebra(NamedTuple):
    """An algebra: a finite carrier per type and a function per operation.

    ``carrier`` maps types to tuples of elements; ``action`` maps an
    operation to the function interpreting it.  The operad the algebra is
    for is kept alongside so the laws can be replayed.
    """

    operad: object
    carrier: Dict[object, tuple]
    action: Callable[[object], Callable]


def eval_algebra(alg: Algebra, f, args: Sequence) -> object:
    """Apply the algebra's interpretation of ``f`` to ``args``."""
    operad = _audited(alg.operad)
    types = operad.inputs(f)
    if len(args) != len(types):
        raise CarrierMismatch("operation of arity %d applied to %d arguments" % (len(types), len(args)))
    for a, t in zip(args, types):
        if a not in alg.carrier[t]:
            raise CarrierMismatch("%r is not in the carrier of %r" % (a, t))
    value = alg.action(f)(*args)
    output = operad.output(f)
    if value not in alg.carrier[output]:
        raise CarrierMismatch("%r landed outside the carrier of %r" % (value, output))
    return value


def check_algebra_axioms(alg: Algebra, size_bound: int) -> AxiomReport:
    """Replay the algebra laws over all bounded operations and all argument
    tuples from the finite carriers; law alg-c reads each ``f . sigma``
    off ``f``'s row."""
    operad = _audited(alg.operad)
    sized = _sized(operad, size_bound)
    by_output = _by_output(operad, sized)
    key = operad.key

    report = AxiomReport(size_bound=size_bound)

    def args_for(f) -> Iterator[tuple]:
        pools = [alg.carrier[t] for t in operad.inputs(f)]
        return itertools.product(*pools)

    action = _Action(operad)
    for f, f_size in sized:
        report.instances["alg-b"] = report.instances.get("alg-b", 0) + 1
        # unit law via the identities on f's input types
        for t in operad.inputs(f):
            unit = operad.identity(t)
            for (a,) in itertools.product(alg.carrier[t]):
                if eval_algebra(alg, unit, (a,)) != a:
                    report.violations.append(
                        AxiomViolation("alg-b", (key(unit), repr(a)), repr(a), "identity")
                    )
        k = operad.arity(f)
        for i, sigma in enumerate(action.perms(k)):
            report.instances["alg-c"] = report.instances.get("alg-c", 0) + 1
            fs = action.row(f, k, i + 1)[i]
            inverse = [0] * k
            for j in range(k):
                inverse[sigma[j]] = j
            for args in args_for(fs):
                rearranged = tuple([args[j] for j in inverse])
                if eval_algebra(alg, fs, args) != eval_algebra(alg, f, rearranged):
                    report.violations.append(
                        AxiomViolation("alg-c", (key(f), repr(sigma), repr(args)), "", "")
                    )
        for gs, _ in _arg_tuples(by_output, operad.inputs(f), size_bound - f_size):
            report.instances["alg-a"] = report.instances.get("alg-a", 0) + 1
            composite = operad.compose(f, gs)
            blocks = []
            start = 0
            for g in gs:
                end = start + operad.arity(g)
                blocks.append((g, start, end))
                start = end
            for args in args_for(composite):
                mids = tuple([eval_algebra(alg, g, args[start:end]) for g, start, end in blocks])
                lhs = eval_algebra(alg, composite, args)
                rhs = eval_algebra(alg, f, mids)
                if lhs != rhs:
                    report.violations.append(
                        AxiomViolation(
                            "alg-a",
                            (key(f),) + tuple(map(key, gs)) + (repr(args),),
                            repr(lhs),
                            repr(rhs),
                        )
                    )
    report.violations.sort()
    return report

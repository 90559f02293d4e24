"""Exception types shared across the package.

Every error raised by the public API derives from OpetopeError, so callers
can catch one base class.  Checkers that collect violations (the operad
axiom audit, the opetopic-set validator, the weak-category checker) do not
raise; they return reports.  Exceptions are reserved for ill-formed inputs.
"""


class OpetopeError(Exception):
    """Base class for all errors raised by this package."""


class ArityMismatch(OpetopeError):
    """Number of arguments does not match an operation's arity."""


class TypeMismatch(OpetopeError):
    """Input/output types do not line up for composition."""


class DegreeMismatch(OpetopeError):
    """A permutation's degree does not match the arity it acts on."""


class CarrierMismatch(OpetopeError):
    """Algebra arguments do not belong to the expected carrier sets."""


class IllTyped(OpetopeError):
    """A pasting tree violates its edge-typing discipline."""


class CompositeMismatch(OpetopeError):
    """A tree substituted into a node does not compose to the node's label."""


class NoSuchNode(OpetopeError):
    """A node address does not exist in the tree."""


class UnsupportedOperad(OpetopeError):
    """The operation is only defined for tower levels, not table operads."""


class ZeroDimensional(OpetopeError):
    """Face extraction was requested for the 0-dimensional shape."""


class BoundExceeded(OpetopeError):
    """A tractability guard was exceeded (brute-force oracle limits)."""


class MalformedConfig(OpetopeError):
    """A boundary configuration is inconsistent or incomplete."""


class UnknownCell(OpetopeError):
    """A cell name is not present in the opetopic set."""


class DimOutOfRange(OpetopeError):
    """A dimension argument lies outside the set's declared range."""


class UnknownFixture(OpetopeError):
    """No fixture generator is registered under the requested name."""


class InvalidSet(OpetopeError):
    """The opetopic set failed validation and cannot be checked.

    ``report`` is the failing validation report, so callers can show its
    violations without validating again.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class InsufficientDimension(OpetopeError):
    """The set's max_dim is too small for the requested check."""


class DimensionOverflow(OpetopeError):
    """The recursion needed configurations above the set's max dimension."""


class DocumentError(OpetopeError):
    """A document failed to parse, or has an unknown format version."""

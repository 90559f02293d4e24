"""Value semantics for the package's slotted classes.

The value types are plain ``__slots__`` classes with a hand-written
``__init__`` (or ``NamedTuple``s), not dataclasses: importing
``dataclasses`` pulls in ``inspect`` and generates code for every decorated
class, which cost each fresh interpreter more than the rest of the
package's import.  A class lists the attributes that make up its value in
``_fields``; those, in that order, are what equality, the repr and (for a
``Value``) the hash read, as a dataclass's fields would be.
"""

from __future__ import annotations

from typing import Tuple


class Record:
    """A mutable record: equal to a record of its own class with equal
    fields, and unhashable."""

    __slots__ = ()
    _fields: Tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        return "%s(%s)" % (
            type(self).__name__,
            ", ".join("%s=%r" % (name, getattr(self, name)) for name in self._fields),
        )


class Value(Record):
    """A record that is immutable by convention, as ``Opetope`` is, and so
    also hashes by its fields."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

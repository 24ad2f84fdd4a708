"""Immutable value classes, written out by hand.

A ``Frozen`` class names its fields in ``__slots__`` (with ``__dict__``
last where a ``cached_property`` needs one) and sets each once, in
``__init__`` or a custom constructor, through ``init_field``; assigning or
deleting an attribute afterwards raises ``AttributeError``.  A ``Value``
also compares and hashes: two instances of one class are equal when the
fields its ``_key`` reads are, and equal values hash alike.
"""

from __future__ import annotations

init_field = object.__setattr__  # one call per field: the cheapest way past a refusing __setattr__


class Frozen:
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Value(Frozen):
    __slots__ = ()
    _key = None  # an operator.attrgetter of the compared fields, set by each class

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

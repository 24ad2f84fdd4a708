"""Immutable value classes, each field stated once.

A ``Frozen`` class names its fields in ``__slots__`` (with ``__dict__``
last where a ``cached_property`` needs one); ``__init_subclass__`` reads
them from there into ``_fields``, with the ``__set__`` of each field's slot
descriptor, bound once, into ``_setters``, and a subclass that declares no
``__slots__`` keeps its parent's.  ``Frozen.__init__`` sets the fields
once, in that order, through those setters, which pass by the refusing
``__setattr__``: a call with exactly one positional value per field stores
them as they come, and any other call is first checked, taking keyword
values and refusing a missing, extra or unknown one with ``TypeError`` as a
written-out ``__init__`` would.  A class that checks or derives its fields
makes that one call after its checks.  Assigning or deleting an attribute
afterwards raises ``AttributeError``.  A ``Value`` also compares and
hashes: two instances of one class are equal when their fields are, and
equal values hash alike.  No code is generated: the constructor is the
same function for every class.

``cached_property`` is the library's one cached attribute: computed on its
first read and kept in the instance's ``__dict__``, which every later read
finds first.  It is ``functools.cached_property`` without the lock that
Python 3.11 takes on each first read (3.12 dropped it): the library runs
on one thread, and a race would only compute the value twice.
"""

from __future__ import annotations

import functools
from operator import attrgetter


def _call_error(cls, given: int, named: dict) -> TypeError:
    """The error Python raises for a written-out ``__init__`` taking
    ``cls._fields``, called with ``given`` positional values and ``named``."""
    fields, where = cls._fields, f"{cls.__name__}.__init__()"
    for name in named:
        if name not in fields:
            return TypeError(f"{where} got an unexpected keyword argument {name!r}")
        if fields.index(name) < given:
            return TypeError(f"{where} got multiple values for argument {name!r}")
    if given > len(fields):
        return TypeError(f"{where} takes {len(fields) + 1} positional arguments but {given + 1} were given")
    missing = [repr(name) for name in fields[given:] if name not in named]
    listed = " and ".join(missing) if len(missing) < 3 else ", ".join(missing[:-1]) + ", and " + missing[-1]
    plural = "s" if len(missing) > 1 else ""
    return TypeError(f"{where} missing {len(missing)} required positional argument{plural}: {listed}")


class cached_property(functools.cached_property):
    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.attrname] = self.func(instance)
        return value


class Frozen:
    __slots__ = ()
    _fields = _setters = ()

    def __init_subclass__(cls):
        if "__slots__" in cls.__dict__:
            cls._fields = tuple(name for name in cls.__slots__ if name != "__dict__")
            cls._setters = tuple(getattr(cls, name).__set__ for name in cls._fields)

    def __init__(self, *values, **named):
        setters = self._setters
        if named or len(values) != len(setters):  # not the exact positional call: checked as Python checks it
            fields, given = self._fields, len(values)
            values += tuple(named[name] for name in fields[given:] if name in named)
            if len(values) != len(fields) or len(values) - given != len(named):
                raise _call_error(type(self), given, named)
        i = 0  # an index, not zip: measured cheaper at a few fields
        for store in setters:
            store(self, values[i])
            i += 1

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Value(Frozen):
    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._key = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

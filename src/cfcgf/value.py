"""Immutable value objects without the cost of importing dataclasses.

A subclass lists its fields in ``__slots__``, in constructor order, and
sets them once, at the end of ``__init__``, with ``_set``.  After that
the instance is read-only; ``==``, ``hash`` and pickling use every field.
"""

from __future__ import annotations


class Value:
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _set(self, *values) -> None:
        for f, v in zip(self.__slots__, values):
            object.__setattr__(self, f, v)

    def _fields(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={v!r}" for f, v in zip(self.__slots__, self._fields()))
        return f"{type(self).__qualname__}({args})"

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, since the
        # fields cannot be set afterwards
        return (self.__class__, self._fields())

"""Immutable value records without the cost of importing ``dataclasses``.

A record's fields are its class's ``__slots__``, set once by its
constructor through ``object.__setattr__``; after that every assignment
or deletion raises AttributeError.  Records compare equal only to
records of the same class with equal fields, hash by their fields,
print as ``Name(field=value, ...)`` and pickle by calling the
constructor again, so they rebuild through its validation.
"""

from __future__ import annotations


class Record:
    """Base class: subclasses name their fields in ``__slots__``."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return self.__class__, self._fields()

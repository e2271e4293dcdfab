"""Immutable value records, defined without generated code.

A record class derives from ``Record`` and writes its own ``__init__``.  The
parameters after ``self`` are its fields, in order; ``__init__`` checks them
and stores them with ``self.__dict__.update(...)``.  Two records are equal
when they are of one class and their fields are equal in order, the hash
reads the same values, ``repr`` names each field, and setting or deleting any
attribute raises ``AttributeError``, as with a frozen dataclass.  Nothing is
generated or ``exec``-ed when a record class is defined.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    """Base of the immutable records; ``_fields`` names the fields in order."""

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1 : code.co_argcount]
        # The class, then the field values: always a tuple, even for one field.
        cls._key = attrgetter("__class__", *cls._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._key(self)[1:]))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

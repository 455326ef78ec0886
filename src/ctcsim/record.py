"""Immutable value records, the package's lightweight stand-in for frozen dataclasses.

A record class names its fields once, as annotations; each gets a slot, and
an annotated name starting with ``_`` is a private slot, such as a cached
hash, rather than a field. At class creation the record gets an ``__init__``
taking the fields in order, positionally or by name, that ends by calling
``__post_init__`` when the class defines one. Records compare equal only to
records of the same class with equal fields, hash by their fields, and reject
assignment and deletion.
"""

from __future__ import annotations

from operator import attrgetter


class _RecordType(type):
    def __new__(mcls, name, bases, namespace):
        slots = namespace["__slots__"] = tuple(namespace.get("__annotations__", ()))
        cls = super().__new__(mcls, name, bases, namespace)
        cls._fields = fields = cls._fields + tuple(s for s in slots if not s.startswith("_"))
        if not fields:
            return cls
        cls._values = attrgetter(*fields)  # a tuple of the values, or a lone field's value
        # Written out per class, as dataclasses does: slot stores by name are faster than
        # any generic loop over the field names.
        sets = "".join(f"\n    _set(self, {field!r}, {field})" for field in fields)
        post = "\n    self.__post_init__()" if hasattr(cls, "__post_init__") else ""
        code: dict = {}
        exec(f"def __init__(self, {', '.join(fields)}):{sets}{post}", {"_set": object.__setattr__}, code)
        cls.__init__ = code["__init__"]
        cls.__init__.__module__, cls.__init__.__qualname__ = cls.__module__, f"{name}.__init__"
        return cls


class Record(metaclass=_RecordType):
    """Base of the value records; a subclass declares its fields as annotations, and may
    define its own ``__eq__`` or ``__hash__``."""

    _fields = ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:  # so a one-field record never equals its field
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self) -> str:
        values = ", ".join(f"{field}={getattr(self, field)!r}" for field in self._fields)
        return f"{self.__class__.__qualname__}({values})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def replace(record: Record, **changes) -> Record:
    """A new record of `record`'s class with the named fields changed, built (so
    coerced and checked) by its ``__init__``."""
    return record.__class__(**{field: getattr(record, field) for field in record._fields}
                            | changes)

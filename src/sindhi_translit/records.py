"""The base of the package's record classes.

A record names its fields in ``__slots__`` and sets them in its own
``__init__``.  This base adds what a dataclass would: equality between
records of one class over their fields, a ``Name(field=value, ...)``
repr, copying and pickling, and for a frozen record a hash and no
assignment.  The records do not use ``dataclasses``: that module
imports ``inspect``, ``ast``, ``dis`` and ``tokenize``, a cost every
start of the command line would pay.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    __slots__ = ()

    def __init_subclass__(cls, *, frozen=False, compare=None, **kwargs):
        """``frozen``: the record is hashable and its fields cannot be
        assigned after ``__init__``, which sets them with
        ``object.__setattr__``; ``compare``: the fields that equality
        and the hash read, when not all of them."""
        super().__init_subclass__(**kwargs)
        if Record in cls.__bases__:  # a subclass of a record keeps its fields
            cls._fields = cls.__match_args__ = cls.__slots__
            cls._key = attrgetter(*(compare or cls._fields))
        if frozen:
            cls.__hash__ = _hash
            cls.__setattr__ = _refuse_assignment
            cls.__delattr__ = _refuse_deletion

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        # the fields in __init__'s order: a frozen record cannot have
        # them assigned one by one, as the default reduction does
        return self.__class__, tuple(getattr(self, name) for name in self._fields)


def _hash(self):
    return hash(self._key(self))


def _refuse_assignment(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _refuse_deletion(self, name):
    raise AttributeError(f"cannot delete field {name!r}")

"""Immutable value records, the base of every braidalg data type.

A record class declares its fields as annotations, read from the class
body (so its module has `from __future__ import annotations`); trailing
fields may have defaults.  Construction is positional, then runs
`__post_init__`.  Fields live in `__slots__` and refuse assignment;
records are equal, and hash alike, when of one class with equal fields.
Other `__slots__` a class lists hold derived state, outside construction,
equality and hashing.  Unlike `dataclasses`, no code is generated when a
class is defined.
"""

from operator import attrgetter


class _RecordType(type):
    def __new__(mcls, name, bases, ns):
        fields = tuple(ns.get("__annotations__", ()))
        required = len(fields) - sum(f in ns for f in fields)
        ns["_defaults"] = tuple(ns.pop(f) for f in fields[required:])
        ns["_fields"] = fields
        ns["__slots__"] = tuple(ns.get("__slots__", ())) + fields
        cls = super().__new__(mcls, name, bases, ns)
        # each slot's own setter, which bypasses the refusing `__setattr__`
        cls._setters = tuple(vars(cls)[f].__set__ for f in fields)
        cls._values = attrgetter(*fields) if fields else None
        return cls


class Record(metaclass=_RecordType):
    __slots__ = ()

    def __init__(self, *args):
        setters = self._setters
        if len(args) != len(setters):
            missing = len(setters) - len(args)
            if not 0 < missing <= len(self._defaults):
                raise TypeError(f"{type(self).__name__}: {len(args)} arguments")
            args += self._defaults[-missing:]
        for set_field, value in zip(setters, args):
            set_field(self, value)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._values(self) == self._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):  # copy and pickle rebuild through the constructor
        return type(self), tuple(getattr(self, f) for f in self._fields)

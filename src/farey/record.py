"""Slotted value records: the common base of the package's result types.

The result types are plain classes with ``__slots__`` rather than
dataclasses, which keeps ``dataclasses`` (and the ``inspect`` machinery
behind it) out of the package's import.  A record's fields are its
``__slots__`` in order, after those of any record it subclasses; the base
collects them in ``_fields``.  It supplies what a frozen dataclass would:
value equality and hashing that only match the same class, a
``Name(field=value, ...)`` repr, and pickling and copying through the
validating constructor.

Each subclass's ``__init__`` runs its checks on the arguments and then
stores every field with ``_set`` or a ``_setters`` setter; after that,
assigning or deleting an attribute raises AttributeError.
"""

_set = object.__setattr__
_new = object.__new__


def _setters(cls) -> tuple:
    """The slot setter of each field the class adds, in order; faster than ``_set``."""
    return tuple(cls.__dict__[name].__set__ for name in cls.__slots__)


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = cls._fields + tuple(cls.__dict__.get("__slots__", ()))
        cls.__match_args__ = cls._fields

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # Rebuild through __init__, so an unpickled record is re-checked and
        # never needs the frozen __setattr__.
        return type(self), self._values()

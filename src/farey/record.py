"""Slotted value records: the common base of the package's result types.

The result types are plain classes with ``__slots__`` rather than
dataclasses, which keeps ``dataclasses`` (and the ``inspect`` machinery
behind it) out of the package's import.  A record's fields are its stored
``__slots__`` in order, after those of any record it subclasses, then the
read-only properties it names in ``derived=`` (values its constructor can
compute from the stored ones); the base collects them in ``_fields``.  It supplies what a frozen dataclass would:
value equality and hashing that only match the same class, a
``Name(field=value, ...)`` repr, and pickling and copying through the
validating constructor.

Assigning or deleting a record's attribute raises AttributeError, so each
record class gets a ``_draft`` twin with the same bases and ``__slots__`` but
``object``'s own ``__setattr__`` and ``__delattr__``, where a field store is
one plain slot write.  A constructor runs its checks, fills a bare draft,
then sets its ``__class__`` to the record class, which CPython allows
because the two layouts are identical.
"""

_new = object.__new__


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, draft=False, derived=(), **kwargs):
        super().__init_subclass__(**kwargs)
        if not draft:
            cls._fields = cls._fields + tuple(cls.__dict__.get("__slots__", ())) + derived
            cls.__match_args__ = cls._fields
            twin = {"__slots__": cls.__slots__} if "__slots__" in cls.__dict__ else {}
            twin.update(__setattr__=object.__setattr__, __delattr__=object.__delattr__)
            cls._draft = type(cls.__name__, cls.__bases__, twin, draft=True)

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
        # Rebuild through the constructor, so an unpickled record is
        # re-checked and never needs the frozen __setattr__.
        return type(self), self._values()

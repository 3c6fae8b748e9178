"""The package's core, which every farey process loads.

It holds the exception types and the enumeration cap, ``Fraction``, ``Record``
(the slotted base of the result types) and the plain-int kernels
``_base_successor`` (the base neighbor), ``_euclid``/``_chain_of`` (the
quotient chain) and ``_convergents`` (the continued-fraction recurrence).

Every value in this package is an irreducible fraction between 0/1 and 1/1.
Python's unbounded integers keep all products exact, so there is no overflow
path to guard; results are either correct or a precondition error.
"""

from math import gcd

# The most terms an enumeration builds unless told otherwise.  It lives here,
# beside CapExceededError, so the command line can state it without loading
# the oracle.
DEFAULT_CAP = 10_000_000


class DomainError(ValueError):
    """An argument violates an operation's precondition."""


class CapExceededError(RuntimeError):
    """An enumeration would produce more terms than the configured cap."""


def _shown(k: int) -> str:
    """str(k), or k's sign and bit length once past the int-to-str digit limit."""
    try:
        return str(k)
    except ValueError:
        return f"{'a negative' if k < 0 else 'an'} int of {k.bit_length()} bits"


def _frac(f) -> str:
    """str(f) for a Fraction f, with each part rendered by _shown."""
    return f"{_shown(f.num)}/{_shown(f.den)}"


def _reducible(n: int, order: int) -> DomainError:
    return DomainError(f"{_shown(n)}/{_shown(order)} not irreducible")


_new = object.__new__


class Fraction:
    """An irreducible fraction num/den with 0 <= num <= den and den >= 1.

    Instances are reduced on construction and never mutated by the package,
    though their slots stay writable: freezing them as the records are
    frozen made a build about 1.8x slower.  Only the operations the Farey
    construction needs exist here; this is not a general rational type.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int):
        if den < 1:
            raise DomainError(f"denominator must be >= 1, got {_shown(den)}")
        if num < 0:
            raise DomainError(f"numerator must be >= 0, got {_shown(num)}")
        if num > den:
            raise DomainError(f"{_shown(num)}/{_shown(den)} lies outside [0, 1]")
        g = gcd(num, den)
        self.num = num // g
        self.den = den // g

    @staticmethod
    def _from_coprime(num: int, den: int) -> "Fraction":
        # Hot-path constructor, static so a call binds nothing: the caller
        # guarantees gcd(num, den) == 1 and 0 <= num <= den.  Used by the
        # enumeration recurrence and other loops whose outputs are reduced.
        self = _new(Fraction)
        self.num = num
        self.den = den
        return self

    @classmethod
    def parse(cls, text: str) -> "Fraction":
        """Parse the canonical "num/den" rendering; reduces on input."""
        parts = text.strip().split("/")
        if len(parts) != 2:
            raise DomainError(f"cannot parse fraction from {text!r} (expected \"num/den\")")
        try:
            num, den = int(parts[0]), int(parts[1])
        except ValueError:
            raise DomainError(f"cannot parse fraction from {text!r}") from None
        return cls(num, den)

    def complement(self) -> "Fraction":
        """1 - self; the involution that reverses the order of any F_N."""
        return Fraction._from_coprime(self.den - self.num, self.den)

    def __reduce__(self):
        # Rebuild through __init__, which re-checks; without this, pickle
        # protocols 0 and 1 cannot handle a __slots__ class.
        return type(self), (self.num, self.den)

    def __eq__(self, other):
        if not isinstance(other, Fraction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __lt__(self, other):
        return self.num * other.den < other.num * self.den

    def __le__(self, other):
        return self.num * other.den <= other.num * self.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __str__(self):
        return f"{self.num}/{self.den}"

    def __repr__(self):
        return f"Fraction({self.num}, {self.den})"


_coprime = Fraction._from_coprime


def _base_successor(a: int, b: int) -> tuple[int, int]:
    """(c, d): the term after a/b in F_b, for reduced 0 <= a < b."""
    d = b - pow(a, -1, b)
    return (1 + a * d) // b, d


def _euclid(n: int, order: int) -> tuple[list[int], int]:
    """(quotients, terminal) of the steps n/order -> (order mod n)/n that
    end at numerator 1, for 1 <= n < order; refuses n/order if they hit 0."""
    quotients = []
    a, b = n, order
    while a > 1:
        q = b // a
        quotients.append(q)
        a, b = b - q * a, a
    if a == 0:
        raise _reducible(n, order)
    return quotients, b


def _chain_of(center: Fraction) -> tuple[list[int], int]:
    """_euclid on a center, which must lie strictly between 0 and 1."""
    if center.num == 0 or center.num == center.den:
        raise DomainError(f"center must satisfy 0 < {_frac(center)} < 1")
    return _euclid(center.num, center.den)


def _convergents(n0: int, coeffs: list[int] | tuple[int, ...]) -> tuple[int, int, int, int]:
    """(p_(k-1), p_k, q_(k-1), q_k) of [n0, *coeffs]: p_i = n_i*p_(i-1) + p_(i-2), same for q."""
    p_prev, p, q_prev, q = 1, n0, 0, 1
    for c in coeffs:
        p_prev, p, q_prev, q = p, c * p + p_prev, q, c * q + q_prev
    return p_prev, p, q_prev, q


def cross_det(x: Fraction, y: Fraction) -> int:
    """Cross-multiplication determinant y.num*x.den - x.num*y.den.

    Positive exactly when x < y, and equal to 1 exactly when x and y are
    unimodular (e.g. consecutive in some Farey sequence).
    """
    return y.num * x.den - x.num * y.den


def mediant(x: Fraction, y: Fraction) -> Fraction:
    """(x.num + y.num) / (x.den + y.den), reduced.

    When cross_det(x, y) == 1 the mediant is already reduced and sits
    unimodularly between x and y.
    """
    return Fraction(x.num + y.num, x.den + y.den)


class Record:
    """Slotted value record: the common base of the package's result types.

    The result types are plain classes with ``__slots__`` rather than
    dataclasses, which keeps ``dataclasses`` (and the ``inspect`` machinery
    behind it) out of the package's import.  A record's fields are its stored
    ``__slots__`` in order, after those of any record it subclasses, then the
    read-only properties it names in ``derived=`` (values its constructor can
    compute from the stored ones); the base collects them in ``_fields``.  It
    supplies what a frozen dataclass would: value equality and hashing that
    only match the same class, a ``Name(field=value, ...)`` repr, and pickling
    and copying through the validating constructor.

    Assigning or deleting a record's attribute raises AttributeError, so each
    record class gets a ``_draft`` twin with the same bases and ``__slots__`` but
    ``object``'s own ``__setattr__`` and ``__delattr__``, where a field store is
    one plain slot write.  A constructor runs its checks, fills a bare draft,
    then sets its ``__class__`` to the record class, which CPython allows
    because the two layouts are identical.
    """

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

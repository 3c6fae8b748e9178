"""Reduced fractions on the unit interval, with exact integer arithmetic.

Every value in this package is an irreducible fraction between 0/1 and 1/1.
Python's unbounded integers keep all products exact, so there is no overflow
path to guard; results are either correct or a precondition error.
"""

from __future__ import annotations

from math import gcd

from .errors import DomainError


class Fraction:
    """An irreducible fraction num/den with 0 <= num <= den and den >= 1.

    Instances are reduced on construction and never mutated, so they can be
    shared freely between threads.  Only the operations the Farey
    construction needs exist here; this is deliberately not a general
    rational arithmetic type.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int):
        if den < 1:
            raise DomainError(f"denominator must be >= 1, got {den}")
        if num < 0:
            raise DomainError(f"numerator must be >= 0, got {num}")
        if num > den:
            raise DomainError(f"{num}/{den} lies outside [0, 1]")
        g = gcd(num, den)
        self.num = num // g
        self.den = den // g

    @classmethod
    def _from_coprime(cls, num: int, den: int) -> Fraction:
        # Hot-path constructor: caller guarantees gcd(num, den) == 1 and
        # 0 <= num <= den.  Used by the enumeration recurrence and other
        # loops whose outputs are provably reduced.
        self = object.__new__(cls)
        self.num = num
        self.den = den
        return self

    @classmethod
    def parse(cls, text: str) -> Fraction:
        """Parse the canonical "num/den" rendering; reduces on input."""
        parts = text.strip().split("/")
        if len(parts) != 2:
            raise DomainError(f"cannot parse fraction from {text!r} (expected \"num/den\")")
        try:
            num, den = int(parts[0]), int(parts[1])
        except ValueError:
            raise DomainError(f"cannot parse fraction from {text!r}") from None
        return cls(num, den)

    def complement(self) -> Fraction:
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

    def __gt__(self, other):
        return self.num * other.den > other.num * self.den

    def __ge__(self, other):
        return self.num * other.den >= other.num * self.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __str__(self):
        return f"{self.num}/{self.den}"

    def __repr__(self):
        return f"Fraction({self.num}, {self.den})"


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

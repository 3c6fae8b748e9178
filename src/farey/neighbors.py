"""Successor and predecessor queries in F_N without enumerating F_N.

The term immediately after a/b in F_N is found in two moves.  First locate
the term after a/b in the smallest sequence containing it, F_b.  That base
neighbor c/d is the right term of the triple around a/b, which one modular
inverse gives: d = b - a^(-1) mod b and c = (1 + a*d) / b
(``triples._base_successor``; the derivation is in ``triples``).

Then slide the base along the mediant ladder: with l = (N - d) // b, the
answer is (l*a + c)/(l*b + d).  Each rung raises the denominator by b, so
the result is the unique ladder element whose denominator fits under N
while the next rung would not.

Predecessors reuse the same machinery through the reflection x -> 1 - x,
which maps F_N onto itself in reverse order.  The quotient-chain and
continued-fraction triples give the same base neighbor as their right
term; ``farey verify`` checks all three constructions against
enumeration.

A ``NeighborResult`` stores the query, the order and the answer only: as
1 <= d <= b, the answer fixes l = (answer.den - 1) // b and base = answer -
l*query, so ``steps`` and ``base`` are derived on access.  Both queries fill
their record through ``_checked``, the check the public constructor runs (see
``record``), and hold the answer to its side: determinant +1 with the query
for a successor, -1 for a predecessor, so an inverse of the wrong sign is
refused there.  The constructor accepts either side, and refuses a ``steps``
or ``base`` other than the derived ones.
"""

from __future__ import annotations

from .errors import DomainError, _frac, _shown
from .fraction import Fraction, _coprime
from .record import Record, _new
from .triples import _base_successor


class NeighborResult(Record, derived=("steps", "base")):
    """A resolved successor or predecessor query.

    ``neighbor`` sits immediately beside ``query`` in the Farey sequence of
    ``order``; ``steps`` counts the mediant rungs climbed above ``base``,
    the adjacent term in the smallest sequence containing the query.
    """

    __slots__ = ("query", "order", "neighbor")

    def __new__(cls, query: Fraction, order: int, neighbor: Fraction, steps: int, base: Fraction):
        self = _checked(cls, query, order, neighbor, 0)
        if steps != self.steps:
            raise DomainError(f"step count must be {_shown(self.steps)}, got {_shown(steps)}")
        if base != self.base:
            raise DomainError(f"base of {_frac(query)} must be {_frac(self.base)}")
        return self

    @property
    def steps(self) -> int:
        return (self.neighbor.den - 1) // self.query.den

    @property
    def base(self) -> Fraction:
        q, n, steps = self.query, self.neighbor, self.steps
        return _coprime(n.num - steps * q.num, n.den - steps * q.den)


def _checked(cls, query: Fraction, order: int, neighbor: Fraction, side: int):
    """Check an answer and return it as a ``cls`` record, filled through its draft.
    ``side`` is the det(query, neighbor) required: 1 successor, -1 predecessor, 0 either."""
    if order < query.den:
        member = f"a member of the sequence of order {_shown(order)}"
        raise DomainError(f"{_frac(query)} is not {member}")
    det = neighbor.num * query.den - query.num * neighbor.den
    if det != 1 and det != -1:
        raise DomainError(f"{_frac(query)} and {_frac(neighbor)} are not unimodular")
    if side and det != side:
        which = "successor" if side == 1 else "predecessor"
        raise DomainError(f"{_frac(neighbor)} is not the {which} of {_frac(query)}")
    if neighbor.den > order:
        raise DomainError(f"{_frac(neighbor)} lies outside a sequence of order {_shown(order)}")
    if query.den + neighbor.den <= order:
        raise DomainError(
            f"{_frac(query)} and {_frac(neighbor)} are not adjacent at order "
            f"{_shown(order)}: a mediant still fits between them"
        )
    self = _new(cls._draft)
    self.query = query
    self.order = order
    self.neighbor = neighbor
    self.__class__ = cls
    return self


def base_right_neighbor(x: Fraction) -> Fraction:
    """The term immediately after x in F_(x.den), the first sequence holding x.

    For 0/1 that sequence is F_1 and the answer is 1/1; otherwise it is the
    right element of the triple around x.
    """
    if x.num == x.den:
        raise DomainError("1/1 is the last term of every sequence")
    return _coprime(*_base_successor(x.num, x.den))


def right_neighbor(x: Fraction, order: int) -> NeighborResult:
    """The term immediately after x in F_order, for any order >= x.den."""
    a, b = x.num, x.den
    if a == b:
        raise DomainError("1/1 is the last term of every sequence")
    # The neighbor has cross determinant 1 with a/b, so it is reduced; the
    # record rejects it unless order >= b.
    c, d = _base_successor(a, b)
    steps = (order - d) // b
    return _checked(NeighborResult, x, order, _coprime(steps * a + c, steps * b + d), 1)


def left_neighbor(x: Fraction, order: int) -> NeighborResult:
    """The term immediately before x in F_order, for any order >= x.den.

    Computed as the reflection of a successor query: 1 - x is followed by
    1 - answer, because t -> 1 - t reverses F_order onto itself.
    """
    a, b = x.num, x.den
    if a == 0:
        raise DomainError("0/1 is the first term of every sequence")
    c, d = _base_successor(b - a, b)
    steps = (order - d) // b
    return _checked(NeighborResult, x, order, _coprime(steps * a + d - c, steps * b + d), -1)

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

Both queries build their one ``NeighborResult`` through ``_checked``,
the check the public constructor runs, which also holds each answer to its
side: cross determinant +1 with the query for a successor, -1 for a
predecessor, so an inverse of the wrong sign is refused there.  The public
constructor has no side field and accepts either.
"""

from __future__ import annotations

from .errors import DomainError, _frac, _shown
from .fraction import Fraction, _coprime
from .record import Record, _new, _setters
from .triples import _base_successor


class NeighborResult(Record):
    """A resolved successor or predecessor query.

    ``neighbor`` sits immediately beside ``query`` in the Farey sequence of
    ``order``; ``steps`` counts the mediant rungs climbed above ``base``,
    the adjacent term in the smallest sequence containing the query.
    """

    __slots__ = ("query", "order", "neighbor", "steps", "base")

    def __init__(
        self, query: Fraction, order: int, neighbor: Fraction, steps: int, base: Fraction
    ):
        _checked(self, query, order, neighbor, steps, base, 0)


_put_query, _put_order, _put_neighbor, _put_steps, _put_base = _setters(NeighborResult)


def _checked(self, query: Fraction, order: int, neighbor: Fraction, steps: int, base, side: int):
    """Check an answer, store it in the bare record ``self`` and return it.
    ``side`` is the cross determinant det(query, neighbor) required: 1 for
    a successor, -1 for a predecessor, 0 for either."""
    if order < query.den:
        member = f"a member of the sequence of order {_shown(order)}"
        raise DomainError(f"{_frac(query)} is not {member}")
    if steps < 0:
        raise DomainError(f"step count must be >= 0, got {_shown(steps)}")
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
    _put_query(self, query)
    _put_order(self, order)
    _put_neighbor(self, neighbor)
    _put_steps(self, steps)
    _put_base(self, base)
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
    # Base and neighbor have cross determinant 1 with a/b, so both are
    # reduced; the record rejects them unless order >= b.
    c, d = _base_successor(a, b)
    steps = (order - d) // b
    neighbor = _coprime(steps * a + c, steps * b + d)
    return _checked(_new(NeighborResult), x, order, neighbor, steps, _coprime(c, d), 1)


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
    neighbor = _coprime(steps * a + d - c, steps * b + d)
    return _checked(_new(NeighborResult), x, order, neighbor, steps, _coprime(d - c, d), -1)

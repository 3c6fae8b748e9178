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
"""

from __future__ import annotations

from .errors import DomainError
from .fraction import Fraction, cross_det
from .record import Record, _set
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
        if steps < 0:
            raise DomainError(f"step count must be >= 0, got {steps}")
        if cross_det(query, neighbor) not in (1, -1):
            raise DomainError(f"{query} and {neighbor} are not unimodular")
        if neighbor.den > order:
            raise DomainError(f"{neighbor} lies outside a sequence of order {order}")
        if query.den + neighbor.den <= order:
            raise DomainError(
                f"{query} and {neighbor} are not adjacent at order "
                f"{order}: a mediant still fits between them"
            )
        _set(self, "query", query)
        _set(self, "order", order)
        _set(self, "neighbor", neighbor)
        _set(self, "steps", steps)
        _set(self, "base", base)


def _successor(a: int, b: int, order: int) -> tuple[int, tuple[int, int], tuple[int, int]]:
    """(steps, base, neighbor) for the term after a/b in F_order, with base
    and neighbor as (num, den) pairs; needs 0 <= a < b <= order.

    Both pairs are reduced: each has cross determinant 1 with a/b, so any
    common divisor divides 1.
    """
    c, d = _base_successor(a, b)
    steps = (order - d) // b
    return steps, (c, d), (steps * a + c, steps * b + d)


def _check_member(x: Fraction, order: int) -> None:
    if order < x.den:
        raise DomainError(f"{x} is not a member of the sequence of order {order}")


def base_right_neighbor(x: Fraction) -> Fraction:
    """The term immediately after x in F_(x.den), the first sequence holding x.

    For 0/1 that sequence is F_1 and the answer is 1/1; otherwise it is the
    right element of the triple around x.
    """
    if x.num == x.den:
        raise DomainError("1/1 is the last term of every sequence")
    return Fraction._from_coprime(*_base_successor(x.num, x.den))


def right_neighbor(x: Fraction, order: int) -> NeighborResult:
    """The term immediately after x in F_order, for any order >= x.den."""
    if x.num == x.den:
        raise DomainError("1/1 is the last term of every sequence")
    _check_member(x, order)
    steps, base, neighbor = _successor(x.num, x.den, order)
    return NeighborResult(
        query=x,
        order=order,
        neighbor=Fraction._from_coprime(*neighbor),
        steps=steps,
        base=Fraction._from_coprime(*base),
    )


def left_neighbor(x: Fraction, order: int) -> NeighborResult:
    """The term immediately before x in F_order, for any order >= x.den.

    Computed as the reflection of a successor query: 1 - x is followed by
    1 - answer, because t -> 1 - t reverses F_order onto itself.
    """
    if x.num == 0:
        raise DomainError("0/1 is the first term of every sequence")
    _check_member(x, order)
    steps, (c, d), (e, f) = _successor(x.den - x.num, x.den, order)
    return NeighborResult(
        query=x,
        order=order,
        neighbor=Fraction._from_coprime(f - e, f),
        steps=steps,
        base=Fraction._from_coprime(d - c, d),
    )

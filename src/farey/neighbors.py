"""Successor and predecessor queries in F_N without enumerating F_N.

The term immediately after a/b in F_N is found in two moves.  First locate
the term after a/b in the smallest sequence containing it, F_b.  That base
neighbor c/d is the right term of the triple around a/b, which one modular
inverse gives: d = b - a^(-1) mod b and c = (1 + a*d) / b
(``fraction._base_successor``; the derivation is in ``triples``).

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
l*query, so ``steps`` and ``base`` are derived on access.  Both queries pass
their answer's ints to ``_checked``, the check the public constructor runs
(see ``fraction.Record``), which builds the answer and holds it to its side:
det +1 with the query for a successor, -1 for a predecessor, so an inverse of
the wrong sign is refused.  The constructor wants the determinant of the side
the answer lies on, so it accepts either neighbor, and refuses a ``steps`` or
``base`` other than the derived ones.
"""

from .fraction import DomainError, Fraction, Record, _base_successor, _coprime, _frac, _new, _shown


class NeighborResult(Record, derived=("steps", "base")):
    """A resolved successor or predecessor query.

    ``neighbor`` sits immediately beside ``query`` in the Farey sequence of
    ``order``; ``steps`` counts the mediant rungs climbed above ``base``,
    the adjacent term in the smallest sequence containing the query.  The
    record holds its own copies of the ``query`` and ``neighbor`` passed in.
    """

    __slots__ = ("query", "order", "neighbor")

    def __new__(cls, query: Fraction, order: int, neighbor: Fraction, steps: int, base: Fraction):
        side = 1 if query < neighbor else -1
        query = _coprime(query.num, query.den)
        self = _checked(cls, query, order, neighbor.num, neighbor.den, side)
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


def _checked(cls, query: Fraction, order: int, num: int, den: int, side: int):
    """Check the answer num/den and return it with ``query``, stored as given, as
    a ``cls`` record filled through its draft.  ``side`` is the det(query, answer)
    required: 1 successor, -1 predecessor; it proves the answer coprime (no gcd)."""
    neighbor = _coprime(num, den)
    if order < query.den:
        member = f"a member of the sequence of order {_shown(order)}"
        raise DomainError(f"{_frac(query)} is not {member}")
    det = num * query.den - query.num * den
    if det != side:
        which = "successor" if side == 1 else "predecessor"
        raise DomainError(
            f"{_frac(neighbor)} is not the {which} of {_frac(query)}: "
            f"their determinant is {_shown(det)}, not {side}"
        )
    if den > order:
        raise DomainError(f"{_frac(neighbor)} lies outside a sequence of order {_shown(order)}")
    if query.den + den <= order:
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
    c, d = _base_successor(a, b)
    steps = (order - d) // b
    return _checked(NeighborResult, x, order, steps * a + c, steps * b + d, 1)


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
    return _checked(NeighborResult, x, order, steps * a + d - c, steps * b + d, -1)

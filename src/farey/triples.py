"""Three-term Farey neighborhoods built without enumerating the sequence.

For a fraction n/N in lowest terms, the three consecutive terms of F_N
centered on n/N come from one modular inverse.  The right neighbor c/d is
the unique fraction with N*c - n*d = 1 and 0 < d < N (Hardy & Wright,
ch. III: consecutive Farey terms satisfy bc - ad = 1, and a second
solution would differ by a multiple of (n, N), pushing d out of range).
Reading the determinant modulo N gives n*d = -1 (mod N), so
d = N - n^(-1) mod N and c = (1 + n*d) / N: ``pow(n, -1, N)``.  The left
neighbor is then (n - c)/(N - d), because the center of a Farey triple is
the mediant of its outer terms.  ``triple`` serves queries this way, and
the inverse, which exists exactly when gcd(n, N) = 1, decides irreducibility.

The paper's construction reaches the same triple in O(log N) exact integer
steps and is kept as a reproduction that ``farey verify`` checks:

  1. reduce the center by Euclidean quotient steps n/N -> n'/n until the
     numerator reaches 1, refusing n/N if it reaches 0 (``reduction_chain``),
  2. take the first three terms of F_T for the terminal order T reached,
     which are always 0/1, 1/T, 1/(T-1) (``base_triple``),
  3. replay the recorded quotients in reverse, each step sending a/b to
     b/(q*b + a) and reversing the triple's orientation (``lift_step``).

Each lift step maps a valid triple of F_b2 (b2 the center's denominator)
to a valid triple of F_(q*b2 + a2), so validity is preserved all the way
up and the final center is exactly the requested n/N.

``_chain_triple`` runs steps 1-3, and ``lift_chain`` steps 2-3, on plain
ints.  Every route builds one validated ``FareyTriple`` at the end.  That
single check certifies the whole answer: two unimodular pairs around n/N
with outer denominators below N single out the neighbors of n/N in F_N, so
nothing is lost by skipping the intermediate triples.  ``lift_step`` and
``base_triple`` remain the one-step, validated form of the chain.
"""

from __future__ import annotations

from .errors import DomainError, _frac, _shown
from .fraction import Fraction, _coprime
from .record import Record, _new


class FareyTriple(Record):
    """Three consecutive fractions of F_order whose middle term has
    denominator exactly ``order``.

    Construction checks the defining invariants: both adjacent pairs are
    unimodular, the center is n/order with n >= 1, and the outer
    denominators stay below ``order``.  Together these force the center to
    be the mediant of the outer terms and the outer numerators/denominators
    to sum to the center's.
    """

    __slots__ = ("left", "center", "right", "order")

    def __new__(cls, left: Fraction, center: Fraction, right: Fraction, order: int):
        return _checked(cls, left, center, right, order)


def _checked(cls, left: Fraction, center: Fraction, right: Fraction, order: int):
    """Check a triple and return it as a ``cls`` record, filled through its draft."""
    if order < 1:
        raise DomainError(f"order must be >= 1, got {_shown(order)}")
    if center.den != order or center.num < 1:
        form = f"of the form n/{_shown(order)} with n >= 1"
        raise DomainError(f"center {_frac(center)} is not {form}")
    if center.num * left.den - left.num * order != 1:
        raise DomainError(f"left pair {_frac(left)}, {_frac(center)} is not unimodular")
    if right.num * order - center.num * right.den != 1:
        raise DomainError(f"right pair {_frac(center)}, {_frac(right)} is not unimodular")
    if left.den >= order or right.den >= order:
        raise DomainError("outer denominators must be smaller than the order")
    self = _new(cls._draft)
    self.left = left
    self.center = center
    self.right = right
    self.order = order
    self.__class__ = cls
    return self


class ReductionChain(Record):
    """The Euclidean quotient steps that reduce ``start`` to 1/terminal.

    ``quotients`` is empty exactly when start already has numerator 1, in
    which case ``terminal`` equals start's denominator.
    """

    __slots__ = ("quotients", "terminal", "start")

    def __new__(cls, quotients: tuple[int, ...], terminal: int, start: Fraction):
        quotients = tuple(quotients)
        if terminal < 2:
            raise DomainError(f"terminal order must be >= 2, got {_shown(terminal)}")
        if any(q < 1 for q in quotients):
            raise DomainError("quotients must be positive")
        if (len(quotients) == 0) != (start.num == 1):
            raise DomainError("empty chain is allowed exactly for numerator-1 starts")
        if not quotients and terminal != start.den:
            raise DomainError("empty chain must terminate at the start's denominator")
        self = _new(cls._draft)
        self.quotients, self.terminal, self.start = quotients, terminal, start
        self.__class__ = cls
        return self


def lift_step(triple: FareyTriple, quotient: int) -> FareyTriple:
    """Map a triple of F_order to a triple of F_(quotient*order + center.num).

    Each element a/b goes to b/(quotient*b + a); the map reverses order, so
    the old right element becomes the new left.  Unimodularity of both
    pairs is preserved exactly, which is what makes the lifted triple a run
    of consecutive terms again.
    """
    if quotient < 1:
        raise DomainError(f"quotient must be >= 1, got {_shown(quotient)}")

    def send(f: Fraction) -> Fraction:
        # gcd(b, q*b + a) = gcd(b, a) = 1, so the image is already reduced
        return _coprime(f.den, quotient * f.den + f.num)

    order = quotient * triple.center.den + triple.center.num
    return FareyTriple(send(triple.right), send(triple.center), send(triple.left), order)


def _check_range(n: int, order: int) -> None:
    if order < 2:
        raise DomainError(f"order must be >= 2, got {_shown(order)}")
    if not 1 <= n < order:
        raise DomainError(f"numerator must satisfy 1 <= n < {_shown(order)}, got {_shown(n)}")


def _reducible(n: int, order: int) -> DomainError:
    return DomainError(f"{_shown(n)}/{_shown(order)} not irreducible")


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


def _lift(quotients: list[int] | tuple[int, ...], terminal: int) -> tuple[int, int, int, int]:
    """Outer terms a/b, c/d of the triple reached by lifting the base
    triple of F_terminal through ``quotients`` (last first).

    The lift is linear on (num, den) pairs and the base center 1/T is the
    mediant of 0/1 and 1/(T-1), so every lifted center is the mediant
    (a + c)/(b + d) of its outer terms and only those need carrying.
    """
    a, b, c, d = 0, 1, 1, terminal - 1
    for q in reversed(quotients):
        a, b, c, d = d, q * d + c, b, q * b + a
    return a, b, c, d


def reduction_chain(center: Fraction) -> ReductionChain:
    """Record the quotient steps that take center = n/N down to 1/terminal.

    One step maps n/N to (N mod n)/n, recording the quotient N // n.  The
    numerators are Euclid's remainders, which hit 1 when n/N is reduced and
    0 (refused) otherwise; the denominator at 1 is the terminal order.
    """
    quotients, terminal = _chain_of(center)
    return ReductionChain(tuple(quotients), terminal, center)


def base_triple(order: int) -> FareyTriple:
    """The first three terms of F_order: 0/1, 1/order, 1/(order-1).

    This is the triple the lift starts from; it is the only shape a
    numerator-1 center can have.
    """
    _check_range(1, order)  # gcd(1, order) is always 1
    return FareyTriple(_coprime(0, 1), _coprime(1, order), _coprime(1, order - 1), order)


def lift_chain(chain: ReductionChain) -> FareyTriple:
    """Replay a reduction chain upward from its base triple.

    Quotients are applied last-recorded-first.  Because every lift step
    reverses orientation, the side on which the lifted 0/1-image lands is
    determined by the parity of the chain length; no separate parity branch
    is needed.
    """
    a, b, c, d = _lift(chain.quotients, chain.terminal)
    # Each image b/(q*b + a) of a reduced a/b is reduced, and so is the sum
    # of a unimodular pair.
    return _checked(FareyTriple, _coprime(a, b), _coprime(a + c, b + d), _coprime(c, d), b + d)


def _base_successor(a: int, b: int) -> tuple[int, int]:
    """(c, d): the term after a/b in F_b, for reduced 0 <= a < b."""
    if a == 0:
        return 1, 1
    d = b - pow(a, -1, b)
    return (1 + a * d) // b, d


def _chain_triple(n: int, order: int) -> FareyTriple:
    """The triple around n/order by the paper's quotient chain: reduce,
    start from the base triple, lift; the reduction refuses a reducible n/order."""
    _check_range(n, order)
    a, b, c, d = _lift(*_euclid(n, order))
    return _checked(FareyTriple, _coprime(a, b), _coprime(n, order), _coprime(c, d), order)


def triple(n: int, order: int) -> FareyTriple:
    """The three consecutive terms of F_order centered on n/order.

    One modular inverse, which exists exactly when gcd(n, order) == 1 and so
    is the irreducibility check, gives the right neighbor c/d; the left one
    is (n - c)/(order - d).  Agrees with every other route on valid input.
    """
    _check_range(n, order)
    try:
        c, d = _base_successor(n, order)
    except ValueError:
        raise _reducible(n, order) from None
    # Both outer pairs have cross determinant 1 with n/order, so all three
    # terms are reduced.
    return _checked(
        FareyTriple, _coprime(n - c, order - d), _coprime(n, order), _coprime(c, d), order
    )

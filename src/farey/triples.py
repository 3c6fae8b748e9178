"""Three-term Farey neighborhoods built without enumerating the sequence.

For a fraction n/N in lowest terms, the three consecutive terms of F_N
centered on n/N come from one modular inverse.  The right neighbor c/d is
the unique fraction with N*c - n*d = 1 and 0 < d < N (Hardy & Wright,
ch. III: consecutive Farey terms satisfy bc - ad = 1, and a second
solution would differ by a multiple of (n, N), pushing d out of range).
Reading the determinant modulo N gives n*d = -1 (mod N), so
d = N - n^(-1) mod N and c = (1 + n*d) / N: ``pow(n, -1, N)``, in
``fraction._base_successor``, which the neighbor queries share without
loading this module.  The left neighbor is then (n - c)/(N - d), because the
center of a Farey triple is the mediant of its outer terms.  ``triple``
serves queries this way, and the inverse, which exists exactly when
gcd(n, N) = 1, decides irreducibility.

The paper's construction reaches the same triple in O(log N) exact integer
steps and is kept as a reproduction that ``farey verify`` checks:

  1. reduce the center by Euclidean quotient steps n/N -> n'/n until the
     numerator reaches 1, refusing n/N if it reaches 0 (``reduction_chain``;
     the steps are ``fraction._euclid``, which `farey.cf` expands without this module),
  2. take the first three terms of F_T for the terminal order T reached,
     which are always 0/1, 1/T, 1/(T-1) (``base_triple``),
  3. replay the recorded quotients in reverse, each step sending a/b to
     b/(q*b + a) and reversing the triple's orientation (``lift_step``).

Each lift step maps a valid triple of F_b2 (b2 the center's denominator)
to a valid triple of F_(q*b2 + a2), so validity is preserved all the way
up and the final center is exactly the requested n/N.

``_chain_triple`` runs steps 1-3, and ``lift_chain`` steps 2-3, on plain
ints.  The paper's second construction, ``triple_via_cf``, reads the same
triple off the continued fraction [0, q1, ..., qk, T] of the center: its
neighbors are the convergents [0, q1, ..., qk] and [0, q1, ..., qk, T - 1]
(``fraction._convergents``, which `farey.cf` shares to evaluate expansions).

Each of the three routes passes its six ints to ``_checked``, which checks them
and builds the members.  That single check certifies the whole answer: two
unimodular pairs around n/N with outer denominators below N single out the
neighbors of n/N in F_N, so nothing is lost by skipping the intermediate
triples.  ``lift_step`` and ``base_triple`` are the chain's one-step form.
"""

from .fraction import (
    DomainError, Fraction, Record, _base_successor, _chain_of, _convergents, _coprime, _euclid,
    _frac, _new, _reducible, _shown,
)


class FareyTriple(Record):
    """Three consecutive fractions of F_order whose middle term has
    denominator exactly ``order``.

    Construction checks the defining invariants: the center has denominator
    ``order``, both adjacent pairs are unimodular, and the outer
    denominators stay below ``order``.  These force order >= 1, a center
    numerator >= 1 and the center to be the mediant of the outer terms.  The
    record holds its own copies of the three fractions passed in.
    """

    __slots__ = ("left", "center", "right", "order")

    def __new__(cls, left: Fraction, center: Fraction, right: Fraction, order: int):
        if center.den != order:
            raise DomainError(f"center {_frac(center)} is not of the form n/{_shown(order)}")
        return _checked(cls, left.num, left.den, center.num, order, right.num, right.den)


def _checked(cls, a: int, b: int, n: int, order: int, c: int, d: int):
    """Check a/b, n/order, c/d and return them as a ``cls`` record, filled through
    its draft; a determinant of 1 proves each pair coprime, so no member needs a gcd."""
    left, center, right = _coprime(a, b), _coprime(n, order), _coprime(c, d)
    if n * b - a * order != 1:
        raise DomainError(f"left pair {_frac(left)}, {_frac(center)} is not unimodular")
    if c * order - n * d != 1:
        raise DomainError(f"right pair {_frac(center)}, {_frac(right)} is not unimodular")
    if b >= order or d >= order:
        raise DomainError("outer denominators must be smaller than the order")
    self = _new(cls._draft)
    self.left, self.center, self.right = left, center, right
    self.order = order
    self.__class__ = cls
    return self


class ReductionChain(Record):
    """The Euclidean quotient steps that reduce ``start`` to 1/terminal.

    Construction recomputes the chain of ``start`` and refuses any other
    ``quotients`` or ``terminal``; ``quotients`` is empty exactly when start
    has numerator 1, and ``terminal`` is then start's denominator.
    """

    __slots__ = ("quotients", "terminal", "start")

    def __new__(cls, quotients: tuple[int, ...], terminal: int, start: Fraction):
        self = _chained(cls, start)
        if tuple(quotients) != self.quotients or terminal != self.terminal:
            chain = f"quotients ending at terminal {_shown(terminal)}"
            raise DomainError(f"{chain} are not the reduction chain of {_frac(start)}")
        return self


def _chained(cls, start: Fraction):
    """The chain of ``start`` as a ``cls`` record, filled through its draft."""
    quotients, terminal = _chain_of(start)
    self = _new(cls._draft)
    self.quotients, self.terminal, self.start = tuple(quotients), terminal, start
    self.__class__ = cls
    return self


def lift_step(triple: FareyTriple, quotient: int) -> FareyTriple:
    """Map a triple of F_order to a triple of F_(quotient*order + center.num).

    Each element a/b goes to b/(quotient*b + a); the map reverses order, so
    the old right element becomes the new left.  Unimodularity of both
    pairs is preserved exactly, which is what makes the lifted triple a run
    of consecutive terms again, and the map is linear, so the new center is
    the mediant of the new outer terms.
    """
    if quotient < 1:
        raise DomainError(f"quotient must be >= 1, got {_shown(quotient)}")
    left, right = triple.left, triple.right
    a, b = right.den, quotient * right.den + right.num
    c, d = left.den, quotient * left.den + left.num
    return _checked(FareyTriple, a, b, a + c, b + d, c, d)


def _check_range(n: int, order: int) -> None:
    if order < 2:  # implied by 1 <= n < order, but its message is the clearer one
        raise DomainError(f"order must be >= 2, got {_shown(order)}")
    if not 1 <= n < order:
        raise DomainError(f"numerator must satisfy 1 <= n < {_shown(order)}, got {_shown(n)}")


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
    return _chained(ReductionChain, center)


def base_triple(order: int) -> FareyTriple:
    """The first three terms of F_order: 0/1, 1/order, 1/(order-1).

    This is the triple the lift starts from; it is the only shape a
    numerator-1 center can have.
    """
    _check_range(1, order)  # gcd(1, order) is always 1
    return _checked(FareyTriple, 0, 1, 1, order, 1, order - 1)


def lift_chain(chain: ReductionChain) -> FareyTriple:
    """Replay a reduction chain upward from its base triple.

    Quotients are applied last-recorded-first.  Because every lift step
    reverses orientation, the side on which the lifted 0/1-image lands is
    determined by the parity of the chain length; no separate parity branch
    is needed.
    """
    a, b, c, d = _lift(chain.quotients, chain.terminal)
    return _checked(FareyTriple, a, b, a + c, b + d, c, d)


def _chain_triple(n: int, order: int) -> FareyTriple:
    """The triple around n/order by the paper's quotient chain: reduce,
    start from the base triple, lift; the reduction refuses a reducible n/order."""
    _check_range(n, order)
    a, b, c, d = _lift(*_euclid(n, order))
    return _checked(FareyTriple, a, b, n, order, c, d)


def triple_via_cf(center: Fraction) -> FareyTriple:
    """The triple around ``center`` in F_(center.den), built from expansions.

    With center = [0, q1, ..., qk, T], the neighbors evaluate
    [0, q1, ..., qk] and [0, q1, ..., qk, T - 1]; an even k puts the first
    of these on the left, an odd k on the right.  The T - 1 form may end in
    a 1 (whenever T == 2) and is evaluated as-is.

    One pass of the convergent recurrence over the quotients gives p_k/q_k
    (the truncated form) and p_(k-1)/q_(k-1); the lowered form is the next
    convergent, ((T-1)*p_k + p_(k-1)) / ((T-1)*q_k + q_(k-1)).
    """
    quotients, terminal = _chain_of(center)
    p_prev, p, q_prev, q = _convergents(0, quotients)
    t = terminal - 1
    lowered = t * p + p_prev, t * q + q_prev
    if len(quotients) % 2 == 0:
        return _checked(FareyTriple, p, q, center.num, center.den, *lowered)
    return _checked(FareyTriple, *lowered, center.num, center.den, p, q)


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
    return _checked(FareyTriple, n - c, order - d, n, order, c, d)

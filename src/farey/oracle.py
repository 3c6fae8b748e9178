"""Brute-force enumeration of Farey sequences: the ground truth oracle.

Everything fast in this package is tested against the sequences produced
here.  Enumeration uses the standard next-term recurrence: from consecutive
a/b < c/d, the following term is (k*c - a)/(k*d - b) with k = (N + b) // d,
which is O(1) per term and provably correct from the mediant property.
Only `enumerate_farey` keeps the terms; the rest walk them once, after the
cap is checked against the exact length |F_N|.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from .errors import DEFAULT_CAP, CapExceededError, DomainError, _frac, _shown
from .fraction import Fraction
from .record import Record, _new
from .triples import FareyTriple, _check_range, _reducible


class FareySequence(Record):
    """A fully enumerated F_order: every irreducible a/b with b <= order,
    in increasing order from 0/1 to 1/1."""

    __slots__ = ("order", "terms")

    def __new__(cls, order: int, terms: tuple[Fraction, ...]):
        self = _new(cls._draft)
        self.order, self.terms = order, tuple(terms)
        self.__class__ = cls
        return self

    def __len__(self):
        return len(self.terms)

    def __iter__(self):
        return iter(self.terms)

    def __getitem__(self, i):
        return self.terms[i]


def iterate_farey(order: int) -> Iterator[Fraction]:
    """Yield the terms of F_order in increasing order, one at a time; the
    order is checked at the call."""
    if order < 1:
        raise DomainError(f"order must be >= 1, got {_shown(order)}")
    return _recurrence(order)


def _recurrence(order: int) -> Iterator[Fraction]:
    make = Fraction._from_coprime
    a, b, c, d = 0, 1, 1, order
    yield make(0, 1)
    while c <= order:
        k = (order + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b
        yield make(a, b)


def _farey_length(order: int) -> int:
    """|F_order| = 1 + Phi(order), Phi(n) = phi(1) + ... + phi(n), in
    O(order^(3/4)) steps: sorting the a/b with 1 <= a <= b <= n by their gcd g
    gives Phi(n // 1) + ... + Phi(n // n) = n(n + 1)/2, and the g that share
    a quotient n // g form one run."""
    known: dict[int, int] = {}

    def phi_sum(n: int) -> int:
        total = n * (n + 1) // 2
        g = 2
        while g <= n:
            q = n // g
            last = n // q
            total -= (last - g + 1) * (known[q] if q in known else phi_sum(q))
            g = last + 1
        known[n] = total
        return total

    return 1 + phi_sum(order)


def _farey_walk(order: int, cap: int | None) -> Iterator[Fraction]:
    """iterate_farey(order), once F_order is known to fit in ``cap`` terms
    (None: no cap).  |F_order| >= order + 1 refuses huge orders at once; the
    exact length settles the rest when 1 + order(order + 1)/2 is above cap."""
    terms = iterate_farey(order)  # refuses an order below 1 before any cap
    if cap is not None:
        if order + 1 > cap:
            raise CapExceededError(
                f"F_{_shown(order)} has at least {_shown(order + 1)} terms,"
                f" above the cap of {_shown(cap)}"
            )
        if 1 + order * (order + 1) // 2 > cap and _farey_length(order) > cap:
            raise CapExceededError(f"F_{order} exceeds the cap of {cap} terms")
    return terms


def enumerate_farey(order: int, cap: int | None = DEFAULT_CAP) -> FareySequence:
    """Materialize F_order, refusing before the first term a sequence of
    more than ``cap`` terms."""
    return FareySequence(order, tuple(_farey_walk(order, cap)))


class PropertyReport(Record):
    """Outcome of checking a sequence against the defining Farey properties.

    ``failure`` is None when everything holds; otherwise it names the first
    violated property and ``index`` locates it in the term list.  Unlike the
    other records, a report is mutable and therefore unhashable.
    """

    __slots__ = ("ok", "pairs", "mediants", "centers", "failure", "index")
    __hash__ = None
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__

    def __init__(
        self,
        ok: bool,
        pairs: int = 0,
        mediants: int = 0,
        centers: int = 0,
        failure: str | None = None,
        index: int | None = None,
    ):
        self.ok = ok
        self.pairs = pairs
        self.mediants = mediants
        self.centers = centers
        self.failure = failure
        self.index = index


def verify_properties(seq: FareySequence) -> PropertyReport:
    """Check every defining property of a (possibly externally supplied) F_N.

    The list must run from 0/1 to 1/1, and each adjacent pair must be
    unimodular (determinant 1) with denominators <= N summing past N.  These
    checks jointly force the list to be exactly F_N, so no separate
    completeness count is needed, and one pass over the pairs makes them,
    once an int order >= 1 and ``Fraction`` terms are checked up front.

    The other defining properties follow from the pair checks, so the same
    pass only counts them.  Every interior term f with neighbors l and r is
    their mediant: f.num*(l.den + r.den) - f.den*(l.num + r.num) is
    det(l, f) - det(f, r) = 1 - 1 = 0.  For N >= 2, the neighbors of each
    term f = n/N have numerators summing to n (each <= n) and denominators
    summing to N (each < N): a neighbor with denominator N would give a
    determinant divisible by N, so both outer denominators are below N;
    (l + r) = k*f for some integer k >= 1 because f is reduced, and
    l.den + r.den < 2N leaves k = 1; numerators are >= 0 because the terms
    rise from 0/1.
    """
    order, terms = seq.order, seq.terms
    if not isinstance(order, int) or order < 1:
        got = _shown(order) if isinstance(order, int) else f"a {type(order).__qualname__}"
        return PropertyReport(False, failure=f"order must be an int >= 1, got {got}")
    if not all(map(Fraction.__instancecheck__, terms)):  # isinstance(x, Fraction) at C speed
        i, x = next((i, x) for i, x in enumerate(terms) if not isinstance(x, Fraction))
        kind = f"{type(x).__module__}.{type(x).__qualname__}, not a farey.Fraction"
        return PropertyReport(False, failure=f"term {i} is a {kind}", index=i)
    report = PropertyReport(ok=True)
    for _ in _certified(order, terms, report):
        pass
    return report


def _certified(order: int, terms: Iterable[Fraction], report: PropertyReport) -> Iterator:
    """Yield the first of ``terms`` once it is 0/1, then each next one once
    its pair passes the checks of verify_properties.  The first failure ends
    the walk in ``report``; a clean walk writes the counts there instead."""

    def fail(message: str, index: int) -> None:
        report.ok, report.failure, report.index = False, message, index

    terms = iter(terms)
    x = next(terms, None)
    if x != Fraction(0, 1):
        return fail("first term must be 0/1", 0)
    yield x
    i = centers = 0
    for y in terms:
        d = y.num * x.den - x.num * y.den
        if d != 1:
            pair = f"{_frac(x)}, {_frac(y)}"
            return fail(f"adjacent pair {pair} has determinant {_shown(d)}, expected 1", i)
        if x.den > order or y.den > order:
            pair = f"{_frac(x)}, {_frac(y)}"
            return fail(f"denominator above order {_shown(order)} in pair {pair}", i)
        if x.den + y.den <= order:
            pair = f"{_frac(x)}, {_frac(y)}"
            return fail(f"adjacent denominators of {pair} sum to <= {_shown(order)}", i)
        if i and x.den == order:
            centers += 1
        yield y
        x = y
        i += 1
    if x != Fraction(1, 1):
        return fail("last term must be 1/1", i)
    # Every pair passed, so each interior term is a certified mediant.
    report.pairs, report.mediants, report.centers = i, i - 1, centers


def triple_by_scan(n: int, order: int, cap: int | None = DEFAULT_CAP) -> FareyTriple:
    """Walk F_order up to n/order and read off the triple around it.

    Quadratic in ``order``; exists as the ground truth the O(log) paths are
    compared against.  The cap applies to the whole of F_order.  The first
    term at or past n/order has denominator ``order`` only if n/order is reduced.
    """
    terms = _farey_walk(order, cap)
    _check_range(n, order)
    left = None
    for f in terms:
        if f.num * order >= n * f.den:
            if f.den != order:
                raise _reducible(n, order)
            return FareyTriple(left, f, next(terms), order)
        left = f

"""Brute-force enumeration of Farey sequences: the ground truth oracle.

Everything fast in this package is tested against the sequences produced
here.  Enumeration uses the standard next-term recurrence: from consecutive
a/b < c/d, the following term is (k*c - a)/(k*d - b) with k = (N + b) // d,
which is O(1) per term and provably correct from the mediant property.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterator

from .errors import DEFAULT_CAP, CapExceededError, DomainError
from .fraction import Fraction, cross_det
from .record import Record, _set
from .triples import FareyTriple, check_center


class FareySequence(Record):
    """A fully enumerated F_order: every irreducible a/b with b <= order,
    in increasing order from 0/1 to 1/1."""

    __slots__ = ("order", "terms")

    def __init__(self, order: int, terms: tuple[Fraction, ...]):
        _set(self, "order", order)
        _set(self, "terms", terms)

    def __len__(self):
        return len(self.terms)

    def __iter__(self):
        return iter(self.terms)

    def __getitem__(self, i):
        return self.terms[i]


def iterate_farey(order: int) -> Iterator[Fraction]:
    """Yield the terms of F_order in increasing order, one at a time."""
    if order < 1:
        raise DomainError(f"order must be >= 1, got {order}")
    a, b, c, d = 0, 1, 1, order
    yield Fraction._from_coprime(0, 1)
    while c <= order:
        k = (order + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b
        yield Fraction._from_coprime(a, b)


def enumerate_farey(order: int, cap: int | None = DEFAULT_CAP) -> FareySequence:
    """Materialize F_order, refusing to build more than ``cap`` terms.

    |F_order| >= order + 1, so absurdly large orders are rejected before
    any work happens; borderline ones abort as soon as the running count
    passes the cap.
    """
    if order < 1:
        raise DomainError(f"order must be >= 1, got {order}")
    if cap is not None and order + 1 > cap:
        raise CapExceededError(
            f"F_{order} has at least {order + 1} terms, above the cap of {cap}"
        )
    terms = []
    for f in iterate_farey(order):
        if cap is not None and len(terms) >= cap:
            raise CapExceededError(f"F_{order} exceeds the cap of {cap} terms")
        terms.append(f)
    return FareySequence(order, tuple(terms))


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
    completeness count is needed, and one pass over the pairs makes them.

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

    def fail(message: str, index: int) -> PropertyReport:
        return PropertyReport(ok=False, failure=message, index=index)

    if not terms or terms[0] != Fraction(0, 1):
        return fail("first term must be 0/1", 0)
    if terms[-1] != Fraction(1, 1):
        return fail("last term must be 1/1", len(terms) - 1)

    centers = 0
    for i in range(len(terms) - 1):
        x, y = terms[i], terms[i + 1]
        d = cross_det(x, y)
        if d != 1:
            return fail(f"adjacent pair {x}, {y} has determinant {d}, expected 1", i)
        if x.den > order or y.den > order:
            return fail(f"denominator above order {order} in pair {x}, {y}", i)
        if x.den + y.den <= order:
            return fail(f"adjacent denominators of {x}, {y} sum to <= {order}", i)
        if i and x.den == order:
            centers += 1

    # Every pair passed, so each interior term is a certified mediant.
    pairs = len(terms) - 1
    return PropertyReport(ok=True, pairs=pairs, mediants=pairs - 1, centers=centers)


def scan_triple(seq: FareySequence, n: int) -> FareyTriple:
    """Read the triple around n/order directly out of an enumerated sequence."""
    order = seq.order
    check_center(n, order)
    target = Fraction._from_coprime(n, order)
    i = bisect_left(seq.terms, target)
    if i >= len(seq.terms) or seq.terms[i] != target:
        raise DomainError(f"{target} not found in F_{order}")
    return FareyTriple(seq.terms[i - 1], target, seq.terms[i + 1], order)


def triple_by_scan(n: int, order: int, cap: int | None = DEFAULT_CAP) -> FareyTriple:
    """Enumerate F_order and read off the triple around n/order.

    Quadratic in ``order``; exists as the ground truth the O(log) paths are
    compared against.
    """
    return scan_triple(enumerate_farey(order, cap), n)

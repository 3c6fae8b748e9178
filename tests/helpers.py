"""Shared heavy machinery for the test suite.

The expensive ground-truth work (enumerating every sequence up to order 300
and checking it several independent ways) runs once per session and feeds
many tests.  ``sweep()`` collects per-check failure lists; individual tests
assert that their check's list is empty, so one enumeration pass certifies
many separately-stated properties without repeating the work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

from farey import (
    ContinuedFraction,
    DomainError,
    FareySequence,
    Fraction,
    cf_canonicalize,
    cf_evaluate,
    cf_expand,
    cf_of_chain,
    iterate_farey,
    left_neighbor,
    reduction_chain,
    right_neighbor,
    triple,
    triple_via_cf,
    verify_properties,
)
from farey.triples import _chain_triple

SWEEP_MAX = 300  # exhaustive three-way triple agreement bound
WALK_MAX = 120  # full successor-walk reconstruction and adjacency bound
PAIR_MAX = 200  # per-pair neighbor agreement bound
ROUNDTRIP_ORDER = 200  # expansion round-trip over every term of this sequence

GOLDEN_RATIO = (1 + math.sqrt(5)) / 2

# Per-failure cap so a systematic bug reports a digest, not megabytes.
_MAX_MESSAGES = 5


def totient(n: int) -> int:
    """Euler phi by trial-division factorization; independent of the library."""
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def totient_sum(lo: int, hi: int) -> int:
    return sum(totient(n) for n in range(lo, hi + 1))


def are_adjacent(x: Fraction, y: Fraction, order: int) -> bool:
    """True iff x and y appear as consecutive terms of F_order: a checker
    of adjacency that shares no code with the library's own checks.

    Requires x < y.  The criterion is unimodularity together with
    max(x.den, y.den) <= order < x.den + y.den: both must belong to the
    sequence, and anything that could sit between them (denominator at
    least x.den + y.den) must not.
    """
    if not x < y:
        raise DomainError(f"expected x < y, got {x} >= {y}")
    if order < 1:
        raise DomainError(f"order must be >= 1, got {order}")
    if y.num * x.den - x.num * y.den != 1:
        return False
    return max(x.den, y.den) <= order < x.den + y.den


def chain_length_bound(order: int) -> int:
    """Worst-case quotient count: the Fibonacci-like bound ceil(log_phi) + 2."""
    return math.ceil(math.log(order, GOLDEN_RATIO)) + 2


@dataclass
class SweepSummary:
    max_order: int
    centers: int
    failures: dict[str, list[str]] = field(default_factory=dict)

    def complaints(self, check: str) -> list[str]:
        return self.failures.get(check, [])


@lru_cache(maxsize=1)
def sweep() -> SweepSummary:
    """One pass over every F_N up to SWEEP_MAX, running all heavy checks.

    Checks collected, by key:
      properties     the defining-property verifier accepts the enumeration
      length         term count is 1 + running totient sum
      nesting        F_(N-1) is a subset of F_N
      triple-inverse modular-inverse triples (``triple``) match the window
      triple-chain   quotient-chain triples match the enumerated window
      triple-cf      expansion-based triples match the enumerated window
      bridge         chain read as an expansion equals the direct expansion
      chain-bound    quotient count within the Fibonacci worst-case bound
      cf-structure   neighbor expansions are the center's prefix forms
      adjacency      the pair criterion agrees with enumeration (N <= 120)
      walk           successor iteration from 0/1 rebuilds F_N (N <= 120)
      pairs          successor/predecessor agree on every pair (N <= 200)
      cf-roundtrip   expand-then-evaluate is the identity on F_200
      cf-canonical   expansions never end in 1 on F_200
    """
    failures: dict[str, list[str]] = {}

    def flag(check: str, message: str) -> None:
        messages = failures.setdefault(check, [])
        if len(messages) < _MAX_MESSAGES:
            messages.append(message)

    centers_total = 0
    totient_running = 1  # phi(1)
    prev_terms: set | None = None
    for order in range(1, SWEEP_MAX + 1):
        terms = tuple(iterate_farey(order))
        seq = FareySequence(order, terms)

        report = verify_properties(seq)
        if not report.ok:
            flag("properties", f"order {order}: {report.failure} at {report.index}")

        if order > 1:
            totient_running += totient(order)
        if len(terms) != 1 + totient_running:
            flag(
                "length",
                f"order {order}: {len(terms)} terms, expected {1 + totient_running}",
            )

        cur_terms = set(terms)
        if prev_terms is not None and not prev_terms <= cur_terms:
            missing = sorted(prev_terms - cur_terms)[:3]
            flag("nesting", f"order {order}: lost {[str(f) for f in missing]}")
        prev_terms = cur_terms

        bound = chain_length_bound(order) if order >= 2 else 0
        for i in range(1, len(terms) - 1):
            center = terms[i]
            if center.den != order:
                continue
            centers_total += 1
            expected = (terms[i - 1], center, terms[i + 1])

            got = triple(center.num, order)
            if (got.left, got.center, got.right) != expected:
                flag("triple-inverse", f"{center}: got {got.left} {got.center} {got.right}")
            got = _chain_triple(center.num, order)
            if (got.left, got.center, got.right) != expected:
                flag("triple-chain", f"{center}: got {got.left} {got.center} {got.right}")
            got = triple_via_cf(center)
            if (got.left, got.center, got.right) != expected:
                flag("triple-cf", f"{center}: got {got.left} {got.center} {got.right}")

            chain = reduction_chain(center)
            if len(chain.quotients) > bound:
                flag("chain-bound", f"{center}: {len(chain.quotients)} quotients > {bound}")
            if cf_of_chain(chain).coeffs != cf_expand(center).coeffs:
                flag("bridge", f"{center}: {cf_of_chain(chain)} != {cf_expand(center)}")

            # The sibling expansions are the center's own with the last
            # coefficient dropped / lowered by one; which sibling sits on
            # which side flips with the parity of the quotient count.
            prefix = (0,) + chain.quotients
            truncated = cf_canonicalize(ContinuedFraction(prefix))
            lowered = cf_canonicalize(
                ContinuedFraction(prefix + (chain.terminal - 1,))
            )
            if len(chain.quotients) % 2 == 1:
                truncated, lowered = lowered, truncated
            if cf_expand(expected[0]).coeffs != truncated.coeffs:
                flag("cf-structure", f"{center}: left expansion is not the prefix form")
            if cf_expand(expected[2]).coeffs != lowered.coeffs:
                flag("cf-structure", f"{center}: right expansion is not the lowered form")

        if order <= WALK_MAX:
            walked = [terms[0]]
            while walked[-1] != terms[-1] and len(walked) <= len(terms):
                walked.append(right_neighbor(walked[-1], order).neighbor)
            if tuple(walked) != terms:
                flag("walk", f"order {order}: walk diverged after {len(walked)} terms")
            for i in range(len(terms) - 1):
                if not are_adjacent(terms[i], terms[i + 1], order):
                    flag("adjacency", f"order {order}: {terms[i]}, {terms[i + 1]} rejected")
            for i in range(len(terms) - 2):
                if are_adjacent(terms[i], terms[i + 2], order):
                    flag("adjacency", f"order {order}: {terms[i]}, {terms[i + 2]} accepted")

        if order <= PAIR_MAX:
            for i in range(len(terms) - 1):
                lo, hi = terms[i], terms[i + 1]
                if right_neighbor(lo, order).neighbor != hi:
                    flag("pairs", f"order {order}: successor of {lo} is not {hi}")
                if left_neighbor(hi, order).neighbor != lo:
                    flag("pairs", f"order {order}: predecessor of {hi} is not {lo}")

        if order == ROUNDTRIP_ORDER:
            for t in terms:
                expansion = cf_expand(t)
                if cf_evaluate(expansion) != t:
                    flag("cf-roundtrip", f"{t} does not round-trip")
                if not expansion.canonical:
                    flag("cf-canonical", f"{t}: {expansion} ends in 1")

    return SweepSummary(max_order=SWEEP_MAX, centers=centers_total, failures=failures)

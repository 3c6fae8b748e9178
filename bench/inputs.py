"""Seeded workload inputs for the benchmark.

Every run measures the same three sections: library queries (`triple`,
`right_neighbor`, `left_neighbor`), an in-process `verify` sweep, and one-shot
CLI processes.  A workload fixes the inputs of each section and how the run's
seconds are shared between them.  The package never sees the seed, only the
inputs built from it here.

Nothing in this module imports `farey`: inputs are plain integer tuples and
argv lists, and the counts are derived with integer arithmetic of our own.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from math import gcd
from random import Random


@dataclass(frozen=True)
class Spec:
    """How one workload draws its inputs and spends its seconds.

    ``order`` is the query denominator N, or None for the verify domain
    (every N up to VERIFY_K).  ``pool`` queries are drawn and cycled,
    small enough that each repeats dozens of times in a run.  ``shares``
    are the fractions of the run given to the query, verify and oneshot
    sections, in that order.  ``commands`` fixes the one-shot commands;
    without it they are `triple`, `next` and `prev` on the first query.
    """

    why: str
    order: int | None
    pool: int
    shares: tuple[float, float, float]
    commands: tuple[tuple[str, ...], ...] | None = None


# PAPER.md's worked examples with their exact CLI output; cli-oneshot
# cycles through these commands.
GOLDENS = (
    (("triple", "5", "39"), "1/8 5/39 4/31"),
    (("next", "9/25", "100"), "31/86 (l=3)"),
    (("prev", "9/25", "25"), "5/14"),
    (("chain", "5/39"), "rho=[7,1] terminal=4 k=2"),
    (("cf", "9/25"), "[0,2,1,3,2]"),
)
ONESHOT_COMMANDS = tuple(argv for argv, _ in GOLDENS)
# `verify K` runs at this K on every workload.  A call takes about 40 ms, so
# a run makes dozens and their median is steady; at K = 80 a call took over
# a second and a handful of calls moved by a quarter between runs.
VERIFY_K = 24

# The "why" sentences are the reason each workload exists; BENCHMARK.json
# carries a one-line form of each.
WORKLOADS = {
    "query-1e12": Spec(
        why="N = 10^12: chains of about 23 steps on one- or two-digit ints, so"
        " fixed per-call costs (object construction, validation, call"
        " overhead) dominate",
        order=10**12,
        pool=1024,
        shares=(0.4, 0.15, 0.45),
    ),
    "query-1e100": Spec(
        why="N = 10^100: chains of about 194 steps on 333-bit ints, so per-step"
        " big-int work dominates; a change trading fixed cost for per-step"
        " cost shows opposite signs on the two query workloads",
        order=10**100,
        pool=256,
        shares=(0.4, 0.15, 0.45),
    ),
    "verify-sweep": Spec(
        why="the bulk path: `verify K` enumerates with the oracle and checks"
        " every adjacent pair with neighbor queries at tiny denominators, and"
        " the oracle does work here that it does nowhere else",
        order=None,
        pool=1024,
        shares=(0.15, 0.5, 0.35),
    ),
    "cli-oneshot": Spec(
        why="one process per PAPER.md command: interpreter start plus the"
        " import of farey.cli set the time, a layer no other workload"
        " measures; its library queries are verify-sized",
        order=None,
        pool=1024,
        shares=(0.15, 0.15, 0.7),
        commands=ONESHOT_COMMANDS,
    ),
}



@dataclass(frozen=True)
class Query:
    """One round of the query section: triple(n, N), then the successor of
    n/N at order m_next and its predecessor at order m_prev."""

    n: int
    order: int
    m_next: int
    m_prev: int


@dataclass(frozen=True)
class Inputs:
    workload: str
    seed: int
    queries: tuple[Query, ...]
    verify_k: int
    oneshot: tuple[tuple[str, ...], ...]

    def canonical(self) -> bytes:
        """One text line per input item; the digest is taken over this."""
        lines = [f"workload {self.workload}", f"verify {self.verify_k}"]
        lines += [f"query {q.n} {q.order} {q.m_next} {q.m_prev}" for q in self.queries]
        lines += ["oneshot " + " ".join(argv) for argv in self.oneshot]
        return ("\n".join(lines) + "\n").encode()

    def digest(self) -> str:
        return hashlib.sha256(self.canonical()).hexdigest()


def _coprime_numerator(rng: Random, order: int) -> int:
    while True:
        n = rng.randrange(1, order)
        if gcd(n, order) == 1:
            return n


def build(workload: str, seed: int) -> Inputs:
    """The inputs of ``workload`` for ``seed``; equal seeds give equal inputs."""
    spec = WORKLOADS[workload]
    rng = Random(f"{workload}:{seed}")
    queries = []
    for _ in range(spec.pool):
        if spec.order is None:
            # The shape of the calls `verify` makes: a term of F_m with
            # m <= K, asked about at an order between its own and K.
            order = rng.randrange(2, VERIFY_K + 1)
            m = rng.randrange(order, VERIFY_K + 1)
        else:
            order = spec.order
            # M in [N, 9N), so the ladder count l is usually > 0.
            m = rng.randrange(order, 9 * order)
        queries.append(Query(_coprime_numerator(rng, order), order, m, m))
    q = queries[0]
    oneshot = spec.commands or (
        ("triple", str(q.n), str(q.order)),
        ("next", f"{q.n}/{q.order}", str(q.m_next)),
        ("prev", f"{q.n}/{q.order}", str(q.m_prev)),
    )
    return Inputs(workload, seed, tuple(queries), VERIFY_K, oneshot)


def totients(limit: int) -> list[int]:
    """phi(0..limit) by a sieve; phi(0) is unused and left 0."""
    phi = list(range(limit + 1))
    for p in range(2, limit + 1):
        if phi[p] == p:
            for m in range(p, limit + 1, p):
                phi[m] -= phi[m] // p
    return phi


def verify_counts(k: int) -> dict[str, int]:
    """What `verify K` must report, and the work it implies, from phi alone.

    |F_N| = 1 + phi(1) + ... + phi(N); F_N has phi(N) centers of
    denominator N (N >= 2) and |F_N| - 1 adjacent pairs.
    """
    phi = totients(k)
    terms = pairs = triples = 0
    length = 1
    for order in range(1, k + 1):
        length += phi[order]
        if order >= 2:
            terms += length
            pairs += length - 1
            triples += phi[order]
    return {"orders": k - 1, "triples": triples, "terms": terms, "pairs": pairs}


def chain_length(n: int, order: int) -> int:
    """Number of quotients in the reduction chain of n/order (numerator to 1)."""
    steps = 0
    while n > 1:
        n, order = order % n, n
        steps += 1
    return steps


def base_right_den(num: int, den: int) -> int:
    """Denominator of the term after num/den in F_den, by a modular inverse.

    The successor c/d satisfies c*den - num*d = 1 with 1 <= d <= den, so
    d = -num^-1 mod den (and d = 1 for 0/1 or den = 1).
    """
    if den == 1:
        return 1
    return -pow(num, -1, den) % den


def ladder_steps(num: int, den: int, order: int) -> int:
    """The rung count l of the successor of num/den in F_order."""
    return (order - base_right_den(num, den)) // den


def counts(inputs: Inputs, sample: int) -> dict[str, str | int]:
    """Exact counts of the work the first ``sample`` queries and the verify
    sweep imply; a seed reproduces them.  Means are decimal strings to four
    places, computed with integers."""
    queries = inputs.queries[:sample]
    chains = sum(chain_length(q.n, q.order) for q in queries)
    steps = sum(
        ladder_steps(q.n, q.order, q.m_next)
        + ladder_steps(q.order - q.n, q.order, q.m_prev)
        for q in queries
    )
    verify = verify_counts(inputs.verify_k)
    return {
        "queries": len(queries),
        "triples.chain_len.mean": decimal(chains, len(queries)),
        "neighbors.steps.mean": decimal(steps, 2 * len(queries)),
        "oracle.terms": verify["terms"],
        "cli.verify.pairs": verify["pairs"],
    }


def decimal(numerator: int, denominator: int, places: int = 4) -> str:
    """numerator/denominator rounded toward zero to ``places`` decimals, as
    text; "0" when there is nothing to divide by (no call succeeded)."""
    if denominator == 0:
        return "0"
    sign = "-" if (numerator < 0) != (denominator < 0) and numerator else ""
    scaled = abs(numerator) * 10**places // abs(denominator)
    whole, frac = divmod(scaled, 10**places)
    return f"{sign}{whole}.{frac:0{places}d}"

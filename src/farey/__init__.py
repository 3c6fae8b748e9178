"""Exact-arithmetic Farey sequence toolkit.

Builds the three-term window (left neighbor, center, right neighbor) around
any irreducible n/N inside the Farey sequence F_N without enumerating it,
answers successor/predecessor queries in F_N for arbitrary N in
logarithmically many integer operations, and ships a brute-force enumeration
oracle that cross-checks every fast path.

`triple` and the neighbor queries (`right_neighbor`, `left_neighbor`) take
their base neighbor from one modular inverse, the unique solution of the
Farey determinant identity.  The paper's two constructions of the same
window are kept on purpose as reproductions: `lift_chain` climbs back up a
quotient chain from a fundamental window, while `triple_via_cf` reads the
neighbors straight off the continued fraction expansion of the center.
The agreement of all three with each other and with the oracle is the core
correctness argument, exercised by `verify_properties` and the
`farey verify` command.
"""

from .cf import (
    ContinuedFraction,
    cf_canonicalize,
    cf_evaluate,
    cf_expand,
    cf_of_chain,
    triple_via_cf,
)
from .errors import CapExceededError, DomainError
from .fraction import Fraction, cross_det, mediant
from .neighbors import NeighborResult, base_right_neighbor, left_neighbor, right_neighbor
from .oracle import (
    DEFAULT_CAP,
    FareySequence,
    PropertyReport,
    enumerate_farey,
    iterate_farey,
    scan_triple,
    triple_by_scan,
    verify_properties,
)
from .triples import (
    FareyTriple,
    ReductionChain,
    are_adjacent,
    base_triple,
    lift_chain,
    lift_step,
    reduction_chain,
    triple,
)

__version__ = "0.1.0"

__all__ = [
    "CapExceededError",
    "ContinuedFraction",
    "DEFAULT_CAP",
    "DomainError",
    "FareySequence",
    "FareyTriple",
    "Fraction",
    "NeighborResult",
    "PropertyReport",
    "ReductionChain",
    "are_adjacent",
    "base_right_neighbor",
    "base_triple",
    "cf_canonicalize",
    "cf_evaluate",
    "cf_expand",
    "cf_of_chain",
    "cross_det",
    "enumerate_farey",
    "iterate_farey",
    "left_neighbor",
    "lift_chain",
    "lift_step",
    "mediant",
    "reduction_chain",
    "right_neighbor",
    "scan_triple",
    "triple",
    "triple_by_scan",
    "triple_via_cf",
    "verify_properties",
]

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

Public names resolve on first use.  `import farey` loads no submodule; the
first lookup of a name (``farey.triple``, ``from farey import triple``)
imports the submodule that defines it, through a module ``__getattr__``
(PEP 562), and binds the name here, so later lookups are plain attribute
reads.  ``__all__``, ``from farey import *`` and ``dir(farey)`` list every
public name whether loaded or not.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each submodule and the public names it defines.
_EXPORTS = {
    "cf": (
        "ContinuedFraction",
        "cf_canonicalize",
        "cf_evaluate",
        "cf_expand",
        "cf_of_chain",
    ),
    "fraction": ("CapExceededError", "DEFAULT_CAP", "DomainError", "Fraction", "cross_det", "mediant"),
    "neighbors": ("NeighborResult", "base_right_neighbor", "left_neighbor", "right_neighbor"),
    "oracle": (
        "FareySequence",
        "PropertyReport",
        "enumerate_farey",
        "iterate_farey",
        "triple_by_scan",
        "verify_properties",
    ),
    "triples": (
        "FareyTriple",
        "ReductionChain",
        "base_triple",
        "lift_chain",
        "lift_step",
        "reduction_chain",
        "triple",
        "triple_via_cf",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)


def _load(namespace, source, name):
    """PEP 562 ``__getattr__``: bind ``name`` in ``namespace`` from its submodule in ``source``."""
    if name not in source:
        raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
    namespace[name] = getattr(import_module(f"{__name__}.{source[name]}"), name)
    return namespace[name]


def __getattr__(name):
    return _load(globals(), _SOURCE, name)


def __dir__():
    return sorted({*globals(), *__all__})

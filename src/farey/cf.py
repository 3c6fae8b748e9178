"""Simple continued fractions for rationals in [0, 1].

A terminating expansion [n0, n1, ..., nk] denotes n0 + 1/(n1 + 1/(... + 1/nk)).
The canonical form has nk >= 2 whenever the list is longer than one entry;
[..., m, 1] folds to [..., m + 1] with the same value.  The reduction chain
of a center n/N is literally its expansion's interior: n/N = [0, q1, ..., qk, T],
and the two neighbors of n/N in F_N are the evaluations of [0, q1, ..., qk]
and [0, q1, ..., qk, T - 1], assigned to the left/right slots by the parity
of k (``triples.triple_via_cf``).  The last of those forms may legitimately
end in 1, so evaluation accepts non-canonical input.

Expanding needs only Euclid's quotients (``fraction._euclid``) and evaluating
only the convergent recurrence (``fraction._convergents``), so this module
loads no other construction.
"""

from .fraction import DomainError, Fraction, Record, _convergents, _euclid, _new, _shown


class ContinuedFraction(Record):
    """Coefficients [n0, n1, ..., nk] with n0 >= 0 and ni >= 1 for i >= 1.

    Canonical form is not required; see ``canonical`` and cf_canonicalize.
    """

    __slots__ = ("coeffs",)

    def __new__(cls, coeffs: tuple[int, ...]):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise DomainError("a continued fraction needs at least one coefficient")
        if coeffs[0] < 0:
            raise DomainError(f"leading coefficient must be >= 0, got {_shown(coeffs[0])}")
        for i, c in enumerate(coeffs[1:], start=1):
            if c < 1:
                raise DomainError(f"coefficient {_shown(c)} at position {i} must be >= 1")
        self = _new(cls._draft)
        self.coeffs = coeffs
        self.__class__ = cls
        return self

    @property
    def canonical(self) -> bool:
        return len(self.coeffs) == 1 or self.coeffs[-1] >= 2

    @classmethod
    def parse(cls, text: str) -> "ContinuedFraction":
        """Parse the bracketed text form, e.g. "[0,2,1,3,2]"."""
        body = text.strip()
        if not (body.startswith("[") and body.endswith("]")):
            raise DomainError(f"cannot parse continued fraction from {text!r}")
        try:
            coeffs = tuple(int(p) for p in body[1:-1].split(","))
        except ValueError:
            raise DomainError(f"cannot parse continued fraction from {text!r}") from None
        return cls(coeffs)

    def __str__(self):
        return "[" + ",".join(str(c) for c in self.coeffs) + "]"


def cf_expand(x: Fraction) -> ContinuedFraction:
    """The canonical expansion of x: [0] for 0/1, [1] for 1/1, and otherwise
    [0, q1, ..., qk, T] from x's quotient chain (fraction._euclid).

    The chain's quotients are the Euclidean algorithm's on (num, den), and
    its terminal T >= 2, so no trailing 1 is ever produced.
    """
    if x.num == 0 or x.num == x.den:
        return ContinuedFraction((x.num,))
    quotients, terminal = _euclid(x.num, x.den)
    return ContinuedFraction((0, *quotients, terminal))


def cf_evaluate(cf: ContinuedFraction) -> Fraction:
    """The exact rational value of an expansion, canonical or not.

    Consecutive convergents are coprime, so the result needs no reduction.
    """
    _, p, _, q = _convergents(cf.coeffs[0], cf.coeffs[1:])
    return Fraction(p, q)


def cf_canonicalize(cf: ContinuedFraction) -> ContinuedFraction:
    """Fold a trailing 1 into the previous coefficient; idempotent."""
    coeffs = cf.coeffs
    if len(coeffs) > 1 and coeffs[-1] == 1:
        coeffs = coeffs[:-2] + (coeffs[-2] + 1,)
    return ContinuedFraction(coeffs)


def cf_of_chain(chain) -> ContinuedFraction:
    """[0, q1, ..., qk, terminal]: the ReductionChain ``chain`` read as an expansion.

    Evaluates back to the chain's start; equal to cf_expand(chain.start).
    """
    return ContinuedFraction((0,) + chain.quotients + (chain.terminal,))

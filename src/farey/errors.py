"""Exception types shared across the package, and the enumeration cap they
enforce."""

# The most terms an enumeration builds unless told otherwise.  It lives here,
# beside CapExceededError, so the command line can state it without loading
# the oracle.
DEFAULT_CAP = 10_000_000


class DomainError(ValueError):
    """An argument violates an operation's precondition."""


class CapExceededError(RuntimeError):
    """An enumeration would produce more terms than the configured cap."""


def _shown(k: int) -> str:
    """str(k), or k's sign and bit length once past the int-to-str digit limit."""
    try:
        return str(k)
    except ValueError:
        return f"{'a negative' if k < 0 else 'an'} int of {k.bit_length()} bits"


def _frac(f) -> str:
    """str(f) for a Fraction f, with each part rendered by _shown."""
    return f"{_shown(f.num)}/{_shown(f.den)}"


def _reducible(n: int, order: int) -> DomainError:
    return DomainError(f"{_shown(n)}/{_shown(order)} not irreducible")

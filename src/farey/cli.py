"""Command-line surface for the library.

Subcommands cover sequence listings, triple and neighbor queries, continued
fractions and reduction chains, an oracle cross-verifier, and a benchmark
contrasting direct query costs against brute-force enumeration.

Exit codes are a stable contract for scripts: 0 success, 1 usage or domain
error (or results that cannot be written), 2 enumeration cap exceeded,
3 verification mismatch, 130 interrupted (SIGINT).  Results and --help text
go to stdout through _emit alone; a closed stdout, or one a reader closes
early (quietly), ends the command with 1.  Diagnostics go to stderr through
_diagnose alone, which drops a line stderr cannot take.  Only an argv the
command tables do not read exactly (see _plain), such as --help or a usage
error, imports argparse: a query that parses and succeeds never does.

With --json every command emits one canonical document: sorted keys, compact
separators, and no floats anywhere (timings are integer nanoseconds, means
are decimal strings), so parse/re-serialize round-trips are byte-identical.

Enumeration commands refuse a sequence of more than a cap's worth of terms,
counted exactly before the first term is made: --cap wins over the FAREY_CAP
environment variable, which wins over the 10,000,000-term default.  Neither
may exceed MAX_CAP (100,000,000 terms).
"""

import os
import sys
from types import SimpleNamespace

from . import _SOURCE, _load
from .fraction import DEFAULT_CAP, CapExceededError, DomainError, Fraction

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CAP = 2
EXIT_VERIFY = 3
EXIT_INTERRUPTED = 130

# The largest enumeration cap --cap or FAREY_CAP may set: ten times the
# default, so no single token can ask for billions of terms.
MAX_CAP = 10 * DEFAULT_CAP
# The most queries `farey bench` makes per cell.
MAX_REPS = 10**6

# Names served from modules that only some commands need, each with its module:
# every public name, from the package's one table of them, then the private
# names the commands use.  farey.triples serves triple (every --method but
# oracle) and chain but not next, prev or cf, farey.cf only the cf command
# (which expands with fraction._euclid), and farey.bulk holds list, verify
# and bench.  A name loads on its first lookup as an attribute of this module
# (see __getattr__) and then stays a plain global, so patching
# farey.cli.<name> reaches every command that calls it.
_LAZY = {
    **_SOURCE,
    "_chain_triple": "triples",
    "_check_range": "triples",
    "_farey_walk": "oracle",
    "cmd_list": "bulk",
    "cmd_verify": "bulk",
    "cmd_bench": "bulk",
    "_bench_order": "bulk",
}


def __getattr__(name):
    return _load(globals(), _LAZY, name)


# This module as an object: a bare global lookup does not consult
# __getattr__, so the code here reaches the names in _LAZY through it.
_cli = sys.modules[__name__]


class UsageError(Exception):
    """Bad command line; reported on stderr with exit code 1."""


class OutputError(Exception):
    """stdout cannot take the results; exit code 1, reported on stderr
    unless the reader closed the pipe."""


def _digit_limit() -> int:
    """The most digits an integer token may have: the interpreter's
    integer-string limit (sys.get_int_max_str_digits(), 4300 by default)."""
    return sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits


def _check_digits(literal: str, token: str, limit: int) -> None:
    """Refuse a decimal literal of more than ``limit`` digits, counted
    before int() sees it, naming ``token`` in the message."""
    digits = literal.strip().lstrip("+-").replace("_", "")
    if len(digits) > limit and digits.isdecimal():
        raise DomainError(f"integer {token!r} has more than {limit} digits")


def _parse_count(text: str) -> int:
    """An integer token: plain digits, underscores, or BASE^EXP (e.g. 10^12).

    Values must print as decimal, so anything longer than the interpreter's
    integer-string limit (see _digit_limit) is refused, literal or power
    alike.  A power is sized from its exponent before it is computed, so no
    token can ask for an unbounded allocation.
    """
    limit = _digit_limit()
    token = text.strip().replace("_", "")
    base_text, caret, exp_text = token.partition("^")
    _check_digits(base_text, text, limit)
    _check_digits(exp_text, text, limit)
    try:
        base = int(base_text)
        exp = int(exp_text) if caret else 1
    except ValueError:
        raise DomainError(f"cannot parse integer from {text!r}") from None
    if caret and (base < 0 or exp < 0):
        raise DomainError(f"cannot parse integer from {text!r}")
    # For base >= 2, base**exp >= 2**(exp*bits/2), and 2**(4*limit) already
    # has more than ``limit`` digits.
    too_long = base > 1 and exp * base.bit_length() > 8 * limit
    if not too_long:
        value = base**exp
        too_long = value.bit_length() > 3 * limit and value >= 10**limit
    if too_long:
        raise DomainError(f"integer {text!r} has more than {limit} digits")
    return value


def _parse_fraction(text: str) -> Fraction:
    limit = _digit_limit()
    for literal in text.split("/"):
        _check_digits(literal, literal, limit)
    return Fraction.parse(text)


def _bounded(value: int, what: str, low: int, high: int | None = None) -> int:
    """value, unless it is below low or above high: then a DomainError
    naming ``what``."""
    if value < low:
        raise DomainError(f"{what} must be >= {low}, got {value}")
    if high is not None and value > high:
        raise DomainError(f"{what} must be <= {high:,}, got {value}")
    return value


def _resolve_cap(args) -> int:
    if args.cap is not None:
        return args.cap
    env = os.environ.get("FAREY_CAP")
    if env is None:
        return DEFAULT_CAP
    try:
        value = _parse_count(env)
    except DomainError:
        value = 0
    if value < 1:
        raise DomainError(f"FAREY_CAP must be a positive integer, got {env!r}")
    return _bounded(value, "cap", 1, MAX_CAP)


def _emit(text: str, end: str = "\n") -> None:
    """Write one line of results, or with end="" a piece of one, to stdout."""
    try:
        print(text, end=end)
    except OSError as exc:
        raise OutputError(exc) from exc


def _print_json(payload) -> None:
    import json

    _emit(json.dumps(payload, sort_keys=True, separators=(",", ":")))


def _answer(args, payload, text: str) -> int:
    """Print ``payload`` as canonical JSON under --json, else ``text``; EXIT_OK."""
    if args.json:
        _print_json(payload)
    else:
        _emit(text)
    return EXIT_OK


# The direct triple constructions, each checked against enumeration by
# verify: the modular inverse (the default), the paper's quotient chain and
# the continued fraction.
_CONSTRUCTIONS = ("inverse", "chain", "cf")


def _triple_by_method(n: int, order: int, method: str, cap: int | None):
    if method == "inverse":
        return _cli.triple(n, order)
    if method == "oracle":
        return _cli.triple_by_scan(n, order, cap)
    if method == "chain":
        return _cli._chain_triple(n, order)
    # The cf route's Euclid refuses a reducible n/order.
    _cli._check_range(n, order)
    return _cli.triple_via_cf(Fraction._from_coprime(n, order))


def cmd_triple(args) -> int:
    cap = _resolve_cap(args) if args.method == "oracle" else None
    result = _triple_by_method(args.num, args.order, args.method, cap)
    left, center, right = str(result.left), str(result.center), str(result.right)
    payload = {"left": left, "center": center, "right": right, "order": result.order}
    return _answer(args, payload, f"{left} {center} {right}")


def _neighbor_json(result, side: str) -> dict:
    return {
        "query": str(result.query),
        "order": result.order,
        "neighbor": str(result.neighbor),
        "steps": result.steps,
        "side": side,
    }


def cmd_next(args) -> int:
    result = _cli.right_neighbor(args.fraction, args.order)
    return _answer(args, _neighbor_json(result, "right"), f"{result.neighbor} (l={result.steps})")


def cmd_prev(args) -> int:
    result = _cli.left_neighbor(args.fraction, args.order)
    return _answer(args, _neighbor_json(result, "left"), str(result.neighbor))


def cmd_cf(args) -> int:
    expansion = _cli.cf_expand(args.fraction)
    payload = {"fraction": str(args.fraction), "coefficients": list(expansion.coeffs)}
    return _answer(args, payload, str(expansion))


def cmd_chain(args) -> int:
    chain = _cli.reduction_chain(args.fraction)
    quotients, terminal, k = list(chain.quotients), chain.terminal, len(chain.quotients)
    payload = {"start": str(chain.start), "quotients": quotients, "terminal": terminal, "k": k}
    rho = ",".join(map(str, quotients))
    return _answer(args, payload, f"rho=[{rho}] terminal={terminal} k={k}")


# The grammar of each command: its help line, then its arguments in order,
# each a positional name or a --flag with its add_argument settings, a type
# being the raw parser (next and prev share theirs, as do cf and chain).
# Every command also takes the _SHARED flags, before or after its name.
_A_FRACTION = {"fraction": {"type": _parse_fraction}}
_AN_ORDER = {"order": {"type": _parse_count}}
_FRACTION_ORDER = {**_A_FRACTION, **_AN_ORDER}
_COMMANDS = {
    "list": ("print every term of the sequence of a given order", _AN_ORDER),
    "triple": (
        "the term n/order and its two neighbors",
        {
            "num": {"type": _parse_count},
            **_AN_ORDER,
            "--method": {
                "choices": (*_CONSTRUCTIONS, "oracle"),
                "default": "inverse",
                "help": "construction to use (default: %(default)s)",
            },
        },
    ),
    "next": ("the term immediately after a fraction", _FRACTION_ORDER),
    "prev": ("the term immediately before a fraction", _FRACTION_ORDER),
    "cf": ("canonical continued fraction of a fraction", _A_FRACTION),
    "chain": ("quotient chain driving a fraction to numerator 1", _A_FRACTION),
    "verify": (
        "cross-check fast paths against enumeration for all orders up to a bound",
        {
            "max_order": {"type": _parse_count},
            "--jobs": {
                "type": _parse_count,
                "default": 1,
                "help": "worker processes (default %(default)s; at most one per CPU and per order)",
            },
        },
    ),
    "bench": (
        "time inverse/chain/cf/oracle queries per order",
        {
            "orders": {"help": "comma-separated orders; 10^12 notation allowed"},
            "--reps": {
                "type": _parse_count,
                "default": 25,
                "help": f"queries per cell (default %(default)s, at most {MAX_REPS:,})",
            },
        },
    ),
}
_SHARED = {
    "--json": {
        "action": "store_true",
        "default": False,
        "help": "emit one canonical JSON document (sorted keys, no floats)",
    },
    "--cap": {
        "type": lambda text: _bounded(_parse_count(text), "cap", 1, MAX_CAP),
        "default": None,
        "metavar": "TERMS",
        "help": f"refuse to enumerate more than this many terms (default"
        f" {DEFAULT_CAP:,}, at most {MAX_CAP:,}; FAREY_CAP overrides, this flag wins)",
    },
}


def build_parser():
    """The argparse parser of the command tables above."""
    import argparse
    import re

    class _Parser(argparse.ArgumentParser):
        # argparse takes "-1/2" or "-0/1" for an unknown flag; no farey flag
        # starts with a digit, so any "-<digit>" token is a value here.
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self._negative_number_matcher = re.compile(r"-\d")

        # argparse exits with status 2 on bad usage; 2 is reserved for the
        # enumeration cap here, so route usage problems through an exception.
        def error(self, message):
            raise UsageError(message)

        # Help text is output like any result.  argparse's own writer would
        # ignore a failed write and fall back to stderr for a closed stdout.
        def _print_message(self, message, file=None):
            _emit(message, end="")

    def token(parse):
        # An argparse type whose DomainError is the usage error argparse reports.
        def convert(text: str):
            try:
                return parse(text)
            except DomainError as exc:
                raise argparse.ArgumentTypeError(str(exc)) from None

        return convert

    def add(parser, arguments, **overrides):
        for name, settings in arguments.items():
            wrapped = {"type": token(settings["type"])} if "type" in settings else {}
            parser.add_argument(name, **{**settings, **wrapped, **overrides})

    parser = _Parser(
        prog="farey",
        description="Exact Farey sequence queries: triples, neighbors,"
        " continued fractions, verification, benchmarks.",
    )
    add(parser, _SHARED)
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, (help_line, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        add(p, arguments)
        # Subparsers copy their namespace over the root one: SUPPRESS keeps
        # an unset shared flag from erasing a value given before the command.
        add(p, _SHARED, default=argparse.SUPPRESS)
    return parser


def _plain(argv: list[str]) -> SimpleNamespace | None:
    """The namespace build_parser() gives ``argv`` if the tables above describe
    it exactly: shared flags, a command, then its positionals and flags in any
    order, each flag by its full name with its value as the next token.  Else
    None: help, an abbreviation, --flag=value, --, a token that its parser or
    choices refuse, or a missing or extra argument."""
    args, table, positionals = {}, _SHARED, None
    words = iter(argv)
    try:
        for word in words:
            if word[:1] == "-":
                name, settings = word[2:].replace("-", "_"), table[word]
                word = "" if "action" in settings else next(words)  # store_true: no value
                if word[:1] == "-":  # build_parser() may read it as a flag
                    return None
            elif positionals is None:
                args["command"], table = word, {**_COMMANDS[word][1], **_SHARED}
                positionals = [name for name in table if name[0] != "-"]
                continue
            else:
                name = positionals.pop(0)
                settings = table[name]
            value = True if "action" in settings else settings.get("type", str)(word)
            if value not in settings.get("choices", (value,)):
                return None
            args[name] = value
    except (ValueError, LookupError, StopIteration):
        return None
    if positionals is None or positionals:
        return None
    for flag, settings in table.items():
        if flag[0] == "-":
            args.setdefault(flag[2:].replace("-", "_"), settings["default"])
    return SimpleNamespace(**args)


def _report(kind: str, message) -> None:
    """Write ``kind: message`` to stderr, each word-initial repr (quotes kept)
    or whitespace-free run of over 40 characters cut to its first and last 16,
    then a message still over 200 characters cut to its first 100 and last 60."""
    import re

    def cut(match):
        quote, run = match[1] or "", match[2] or match[0]
        return match[0] if len(run) <= 40 else f"{quote}{run[:16]}...{run[-16:]}{quote}"

    text = re.sub(r"""(?<!\S)(['"])((?:\\.|(?!\1)[^\\])*)\1|\S{41,}""", cut, str(message))
    if len(text) > 200:
        text = f"{text[:100]}...{text[-60:]}"
    _diagnose(f"{kind}: {text}")


def _diagnose(line: str) -> None:
    """Write ``line`` to stderr, the one writer of diagnostics.  A line stderr
    cannot take is dropped: with fd 2 closed (sys.stderr is None) it never
    goes to stdout, and a failed write never changes the exit code."""
    if sys.stderr is not None:
        try:
            sys.stderr.write(line + "\n")
        except OSError:
            pass


def _detach_stdout() -> None:
    """Point stdout's file descriptor at the null device, so the flush at
    interpreter exit has nothing left to fail on (the "Note on SIGPIPE" in
    the signal module's documentation)."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return  # no stdout, or one that is not a file
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def _run(argv: list[str] | None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # With fd 1 closed, sys.stdout is None and print() drops every result.
    if sys.stdout is None:
        raise OutputError("stdout is closed")
    try:
        args = _plain(argv) or build_parser().parse_args(argv)
    except UsageError as exc:
        _report("usage error", exc)
        return EXIT_USAGE
    except SystemExit as exc:
        # --help has printed its text and asked to exit 0.
        return exc.code
    try:
        return getattr(_cli, f"cmd_{args.command}")(args)
    except (DomainError, CapExceededError) as exc:
        _report("error", exc)
        return EXIT_CAP if isinstance(exc, CapExceededError) else EXIT_USAGE


def main(argv: list[str] | None = None) -> int:
    try:
        code = _run(argv)
        try:
            sys.stdout.flush()
        except OSError as exc:
            raise OutputError(exc) from exc
    except OutputError as exc:
        _detach_stdout()
        if not isinstance(exc.__cause__, BrokenPipeError):
            _report("error", f"cannot write output: {exc}")
        return EXIT_USAGE
    except KeyboardInterrupt:
        # A --jobs pool has been shut down on the way out of cmd_verify.
        _diagnose("interrupted")
        return EXIT_INTERRUPTED
    return code


if __name__ == "__main__":
    sys.exit("error: run the command line as `python -m farey` or `farey`")

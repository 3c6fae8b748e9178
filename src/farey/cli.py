"""Command-line surface for the library.

Subcommands cover sequence listings, triple and neighbor queries, continued
fractions and reduction chains, an oracle cross-verifier, and a benchmark
contrasting direct query costs against brute-force enumeration.

Exit codes are a stable contract for scripts: 0 success, 1 usage or domain
error, 2 enumeration cap exceeded, 3 verification mismatch.  Results go to
stdout, diagnostics to stderr.

With --json every command emits one canonical document: sorted keys, compact
separators, and no floats anywhere (timings are integer nanoseconds, means
are decimal strings), so parse/re-serialize round-trips are byte-identical.

Enumeration commands refuse to materialize more than a cap's worth of terms:
--cap wins over the FAREY_CAP environment variable, which wins over the
10,000,000-term default.  Neither may exceed MAX_CAP (100,000,000 terms).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from time import perf_counter_ns

from .cf import cf_expand, triple_via_cf
from .errors import CapExceededError, DomainError
from .fraction import Fraction
from .neighbors import NeighborResult, left_neighbor, right_neighbor
from .oracle import DEFAULT_CAP, enumerate_farey, triple_by_scan, verify_properties
from .triples import FareyTriple, _chain_triple, check_center, reduction_chain, triple

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CAP = 2
EXIT_VERIFY = 3

# The largest enumeration cap --cap or FAREY_CAP may set: ten times the
# default, so no single token can ask for billions of terms.
MAX_CAP = 10 * DEFAULT_CAP


class UsageError(Exception):
    """Bad command line; reported on stderr with exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; 2 is reserved for the
    # enumeration cap here, so route usage problems through an exception.
    def error(self, message):
        raise UsageError(message)


def _digit_limit() -> int:
    """The most digits an integer token may have: the interpreter's
    integer-string limit (sys.get_int_max_str_digits(), 4300 by default)."""
    return sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits


def _shown(token: str) -> str:
    """repr of a token for an error message, cut to its ends when long."""
    if len(token) > 40:
        token = f"{token[:16]}...{token[-16:]}"
    return repr(token)


def _check_digits(literal: str, token: str, limit: int) -> None:
    """Refuse a decimal literal of more than ``limit`` digits, counted
    before int() sees it, naming ``token`` in the message."""
    digits = literal.strip().lstrip("+-").replace("_", "")
    if len(digits) > limit and digits.isdecimal():
        raise DomainError(f"integer {_shown(token)} has more than {limit} digits")


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
        raise DomainError(f"integer {_shown(text)} has more than {limit} digits")
    return value


def _int_token(text: str) -> int:
    try:
        return _parse_count(text)
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _check_cap(value: int) -> None:
    if value > MAX_CAP:
        raise DomainError(f"cap must be <= {MAX_CAP:,}, got {_shown(str(value))}")


def _cap_token(text: str) -> int:
    value = _int_token(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"cap must be >= 1, got {value}")
    try:
        _check_cap(value)
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def _fraction_token(text: str) -> Fraction:
    try:
        limit = _digit_limit()
        for literal in text.split("/"):
            _check_digits(literal, literal, limit)
        return Fraction.parse(text)
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _resolve_cap(args: argparse.Namespace) -> int:
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
    _check_cap(value)
    return value


def _print_json(payload) -> None:
    import json

    print(json.dumps(payload, sort_keys=True, separators=(",", ":")))


def cmd_list(args: argparse.Namespace, cap: int) -> int:
    seq = enumerate_farey(args.order, cap)
    if args.json:
        _print_json(
            {
                "order": seq.order,
                "count": len(seq),
                "terms": [str(t) for t in seq.terms],
            }
        )
    else:
        print(" ".join(str(t) for t in seq.terms))
    return EXIT_OK


# The direct triple constructions, each checked against enumeration by
# verify: the modular inverse (the default), the paper's quotient chain and
# the continued fraction.
_CONSTRUCTIONS = ("inverse", "chain", "cf")


def _triple_by_method(n: int, order: int, method: str, cap: int | None) -> FareyTriple:
    if method == "inverse":
        return triple(n, order)
    if method == "oracle":
        return triple_by_scan(n, order, cap)
    check_center(n, order)
    if method == "chain":
        return _chain_triple(n, order)
    return triple_via_cf(Fraction._from_coprime(n, order))


def cmd_triple(args: argparse.Namespace, cap: int) -> int:
    result = _triple_by_method(args.num, args.order, args.method, cap)
    if args.json:
        _print_json(
            {
                "left": str(result.left),
                "center": str(result.center),
                "right": str(result.right),
                "order": result.order,
            }
        )
    else:
        print(f"{result.left} {result.center} {result.right}")
    return EXIT_OK


def _neighbor_payload(result: NeighborResult, side: str) -> dict:
    return {
        "query": str(result.query),
        "order": result.order,
        "neighbor": str(result.neighbor),
        "steps": result.steps,
        "side": side,
    }


def cmd_next(args: argparse.Namespace, cap: int) -> int:
    result = right_neighbor(args.fraction, args.order)
    if args.json:
        _print_json(_neighbor_payload(result, "right"))
    else:
        print(f"{result.neighbor} (l={result.steps})")
    return EXIT_OK


def cmd_prev(args: argparse.Namespace, cap: int) -> int:
    result = left_neighbor(args.fraction, args.order)
    if args.json:
        _print_json(_neighbor_payload(result, "left"))
    else:
        print(str(result.neighbor))
    return EXIT_OK


def cmd_cf(args: argparse.Namespace, cap: int) -> int:
    expansion = cf_expand(args.fraction)
    if args.json:
        _print_json(
            {"fraction": str(args.fraction), "coefficients": list(expansion.coeffs)}
        )
    else:
        print(str(expansion))
    return EXIT_OK


def cmd_chain(args: argparse.Namespace, cap: int) -> int:
    chain = reduction_chain(args.fraction)
    if args.json:
        _print_json(
            {
                "start": str(chain.start),
                "quotients": list(chain.quotients),
                "terminal": chain.terminal,
                "k": len(chain.quotients),
            }
        )
    else:
        quotients = "[" + ",".join(str(q) for q in chain.quotients) + "]"
        print(f"rho={quotients} terminal={chain.terminal} k={len(chain.quotients)}")
    return EXIT_OK


def _verify_order(order: int, cap: int) -> tuple[int, int, str | None]:
    """Check one order end to end.

    Enumerates F_order, validates the defining properties, then requires the
    successor/predecessor queries to reproduce every adjacent pair and each
    direct triple construction to reproduce every centered triple.  Returns
    (order, centered triples checked, failure message or None).
    """
    seq = enumerate_farey(order, cap)
    report = verify_properties(seq)
    if not report.ok:
        return order, 0, (
            f"order {order}: {report.failure} at index {report.index}"
            f" (reproduce: farey list {order})"
        )
    terms = seq.terms
    for i in range(len(terms) - 1):
        lo, hi = terms[i], terms[i + 1]
        after = right_neighbor(lo, order).neighbor
        if after != hi:
            return order, 0, (
                f"order {order}: successor of {lo} came out {after},"
                f" enumeration says {hi} (reproduce: farey next {lo} {order})"
            )
        before = left_neighbor(hi, order).neighbor
        if before != lo:
            return order, 0, (
                f"order {order}: predecessor of {hi} came out {before},"
                f" enumeration says {lo} (reproduce: farey prev {hi} {order})"
            )
    centers = 0
    for i in range(1, len(terms) - 1):
        center = terms[i]
        if center.den != order:
            continue
        centers += 1
        expected = (terms[i - 1], center, terms[i + 1])
        for method in _CONSTRUCTIONS:
            got = _triple_by_method(center.num, order, method, None)
            if (got.left, got.center, got.right) != expected:
                return order, centers, (
                    f"order {order}: {method} triple at {center} came out"
                    f" {got.left} {got.center} {got.right}, enumeration says"
                    f" {expected[0]} {expected[1]} {expected[2]}"
                    f" (reproduce: farey triple {center.num} {order}"
                    f" --method {method})"
                )
    return order, centers, None


def _verify_results(orders: range, cap: int, jobs: int):
    """Yield _verify_order for each order, in order.

    With jobs > 1 a process pool does the work, holding at most 2 * jobs
    orders in flight: submitting every order up front would queue an
    unbounded number of tasks for a huge max order.
    """
    if jobs == 1:
        for order in orders:
            yield _verify_order(order, cap)
        return
    from collections import deque
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(max_workers=jobs)
    try:
        pending = deque()
        for order in orders:
            pending.append(pool.submit(_verify_order, order, cap))
            if len(pending) == 2 * jobs:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def cmd_verify(args: argparse.Namespace, cap: int) -> int:
    if args.max_order < 2:
        raise DomainError(f"max order must be >= 2, got {args.max_order}")
    if args.jobs < 1:
        raise DomainError(f"jobs must be >= 1, got {args.jobs}")
    orders = range(2, args.max_order + 1)
    # More workers than CPUs or orders would only add processes.  (len() of
    # the range would overflow for a huge max order.)
    jobs = min(args.jobs, os.cpu_count() or 1, args.max_order - 1)
    checked = 0
    triples_checked = 0
    failure = None
    results = _verify_results(orders, cap, jobs)
    try:
        for _, centers, message in results:
            checked += 1
            triples_checked += centers
            if message is not None:
                failure = message
                break
    finally:
        results.close()
    payload = {
        "max_order": args.max_order,
        "orders": checked,
        "triples": triples_checked,
        "mismatches": 0 if failure is None else 1,
        "ok": failure is None,
    }
    if failure is None:
        if args.json:
            _print_json(payload)
        else:
            print(f"OK: {checked} orders, {triples_checked:,} triples, 0 mismatches")
        return EXIT_OK
    if args.json:
        payload["failure"] = failure
        _print_json(payload)
    else:
        print(f"FAIL: {failure}")
    return EXIT_VERIFY


# The most queries `farey bench` makes per cell.
MAX_REPS = 10**6
# Back-to-back calls behind each triple timing sample: a single call of
# a few microseconds is at the mercy of the timer and the machine.
_BATCH = 16


def _time_ns(fn, calls: int = 1) -> int:
    """Integer ns per call over ``calls`` back-to-back calls of fn."""
    start = perf_counter_ns()
    for _ in range(calls):
        fn()
    return (perf_counter_ns() - start) // calls


def _timing_summary(times: list[int]) -> dict:
    import statistics

    return {
        "min_ns": min(times),
        "median_ns": statistics.median_low(times),
        "max_ns": max(times),
        "reps": len(times),
    }


def _mean_text(total: int, count: int) -> str:
    """Mean to two decimal places as a string, via integer arithmetic."""
    hundredths = (100 * total) // count
    return f"{hundredths // 100}.{hundredths % 100:02d}"


# |F_N| ~ (3/pi^2) N^2; used only to skip hopeless oracle cells quickly.
_FAREY_DENSITY_PPM = 303_964


def _estimated_terms(order: int) -> int:
    return order * order * _FAREY_DENSITY_PPM // 1_000_000


def _bench_order(order: int, reps: int, cap: int) -> dict:
    from random import Random

    rng = Random(f"bench:{order}")
    queries = []
    while len(queries) < reps:
        n = rng.randrange(1, order) if order > 2 else 1
        if math.gcd(n, order) == 1:
            queries.append(n)
    inverse_times = [_time_ns(lambda n=n: triple(n, order), _BATCH) for n in queries]
    chain_times = [_time_ns(lambda n=n: _chain_triple(n, order), _BATCH) for n in queries]
    cf_times = [
        _time_ns(lambda n=n: triple_via_cf(Fraction._from_coprime(n, order)), _BATCH)
        for n in queries
    ]
    lengths = [
        len(reduction_chain(Fraction._from_coprime(n, order)).quotients)
        for n in queries
    ]
    oracle_cell: dict | str
    estimate = _estimated_terms(order)
    if order + 1 > cap or estimate > cap:
        oracle_cell = "skipped"
    else:
        # Each oracle query enumerates F_order from scratch, so bound the
        # total enumeration effort for the cell by one cap's worth of terms.
        budget = max(1, min(reps, cap // max(1, estimate)))
        times = []
        try:
            for n in queries[:budget]:
                times.append(_time_ns(lambda n=n: triple_by_scan(n, order, cap)))
        except CapExceededError:
            oracle_cell = "skipped"
        else:
            oracle_cell = _timing_summary(times)
    return {
        "order": order,
        "inverse": _timing_summary(inverse_times),
        "chain": _timing_summary(chain_times),
        "cf": _timing_summary(cf_times),
        "oracle": oracle_cell,
        "chain_length": {"mean": _mean_text(sum(lengths), len(lengths)), "max": max(lengths)},
    }


def cmd_bench(args: argparse.Namespace, cap: int) -> int:
    try:
        orders = [_parse_count(token) for token in args.orders.split(",")]
    except DomainError:
        raise DomainError(f"cannot parse order list from {args.orders!r}") from None
    if not orders:
        raise DomainError("need at least one order to benchmark")
    for order in orders:
        if order < 2:
            raise DomainError(f"order must be >= 2, got {order}")
    if args.reps < 1:
        raise DomainError(f"reps must be >= 1, got {args.reps}")
    if args.reps > MAX_REPS:
        raise DomainError(f"reps must be <= {MAX_REPS:,}, got {_shown(str(args.reps))}")
    rows = [_bench_order(order, args.reps, cap) for order in orders]
    if args.json:
        _print_json({"cap": cap, "reps": args.reps, "rows": rows})
        return EXIT_OK
    print(
        f"{'order':>16}  {'inverse med(ns)':>15}  {'chain med(ns)':>14}"
        f"  {'cf med(ns)':>14}  {'oracle med(ns)':>16}  {'len mean/max':>12}"
    )
    for row in rows:
        oracle = row["oracle"]
        oracle_text = oracle if oracle == "skipped" else f"{oracle['median_ns']:,}"
        length = row["chain_length"]
        print(
            f"{row['order']:>16,}  {row['inverse']['median_ns']:>15,}"
            f"  {row['chain']['median_ns']:>14,}"
            f"  {row['cf']['median_ns']:>14,}  {oracle_text:>16}"
            f"  {length['mean'] + '/' + str(length['max']):>12}"
        )
    return EXIT_OK


def _add_common(parser: argparse.ArgumentParser, root: bool = False) -> None:
    # Subparsers copy their whole namespace over the root one, so their
    # copies of the shared flags must not carry defaults: SUPPRESS keeps an
    # unset subcommand flag from erasing a value given before the command.
    parser.add_argument(
        "--json",
        action="store_true",
        default=False if root else argparse.SUPPRESS,
        help="emit one canonical JSON document (sorted keys, no floats)",
    )
    parser.add_argument(
        "--cap",
        type=_cap_token,
        default=None if root else argparse.SUPPRESS,
        metavar="TERMS",
        help=f"refuse to enumerate more than this many terms (default"
        f" {DEFAULT_CAP:,}, at most {MAX_CAP:,}; FAREY_CAP overrides, this flag wins)",
    )


def build_parser() -> _Parser:
    parser = _Parser(
        prog="farey",
        description="Exact Farey sequence queries: triples, neighbors,"
        " continued fractions, verification, benchmarks.",
    )
    _add_common(parser, root=True)
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("list", help="print every term of the sequence of a given order")
    p.add_argument("order", type=_int_token)
    _add_common(p)
    p.set_defaults(handler=cmd_list)

    p = sub.add_parser("triple", help="the term n/order and its two neighbors")
    p.add_argument("num", type=_int_token)
    p.add_argument("order", type=_int_token)
    p.add_argument(
        "--method",
        choices=(*_CONSTRUCTIONS, "oracle"),
        default="inverse",
        help="construction to use (default: inverse)",
    )
    _add_common(p)
    p.set_defaults(handler=cmd_triple)

    p = sub.add_parser("next", help="the term immediately after a fraction")
    p.add_argument("fraction", type=_fraction_token)
    p.add_argument("order", type=_int_token)
    _add_common(p)
    p.set_defaults(handler=cmd_next)

    p = sub.add_parser("prev", help="the term immediately before a fraction")
    p.add_argument("fraction", type=_fraction_token)
    p.add_argument("order", type=_int_token)
    _add_common(p)
    p.set_defaults(handler=cmd_prev)

    p = sub.add_parser("cf", help="canonical continued fraction of a fraction")
    p.add_argument("fraction", type=_fraction_token)
    _add_common(p)
    p.set_defaults(handler=cmd_cf)

    p = sub.add_parser("chain", help="quotient chain driving a fraction to numerator 1")
    p.add_argument("fraction", type=_fraction_token)
    _add_common(p)
    p.set_defaults(handler=cmd_chain)

    p = sub.add_parser(
        "verify",
        help="cross-check fast paths against enumeration for all orders up to a bound",
    )
    p.add_argument("max_order", type=_int_token)
    p.add_argument(
        "--jobs",
        type=_int_token,
        default=1,
        help="worker processes (default 1; at most one per CPU and per order)",
    )
    _add_common(p)
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("bench", help="time inverse/chain/cf/oracle queries per order")
    p.add_argument("orders", help="comma-separated orders; 10^12 notation allowed")
    p.add_argument(
        "--reps",
        type=_int_token,
        default=25,
        help=f"queries per cell (default 25, at most {MAX_REPS:,})",
    )
    _add_common(p)
    p.set_defaults(handler=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:
        # --help has printed its text and asked argparse to exit 0.
        return exc.code
    try:
        cap = _resolve_cap(args)
        return args.handler(args, cap)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP


if __name__ == "__main__":
    sys.exit(main())

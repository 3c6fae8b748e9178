"""The bulk commands of the command line: ``list``, ``verify`` and ``bench``.

Each walks whole sequences or makes many queries, so a one-shot query has
no use for this code: `farey.cli` imports this module only when one of these
commands runs.  `list` and `verify` walk each sequence once, term by term,
after the oracle has checked its exact length against the cap, so they hold
O(1) terms whatever the order.  Queries, walks and bench rows go through
`farey.cli` (``cli.right_neighbor``, ``cli._farey_walk``, ``cli._bench_order``,
...), so a name patched there is the one these commands call.
"""

import math
import os
from itertools import islice
from time import perf_counter_ns

from . import cli
from .fraction import DomainError, Fraction, _euclid
from .oracle import PropertyReport, _certified, _farey_length


# Terms per write of `list`: enough to keep the writes few, few enough that
# what is held at once stays small.
_CHUNK = 4096


def cmd_list(args) -> int:
    order = args.order
    terms = map(str, cli._farey_walk(order, cli._resolve_cap(args)))
    if args.json:
        # The canonical document, written in pieces: its terms need no escape.
        head = f'{{"count":{_farey_length(order)},"order":{order},"terms":["'
        sep, tail = '","', '"]}'
    else:
        head, sep, tail = "", " ", ""
    # F_order has at least two terms, and a chunk is empty only at the end.
    cli._emit(head + sep.join(islice(terms, _CHUNK)), end="")
    while chunk := sep.join(islice(terms, _CHUNK)):
        cli._emit(sep + chunk, end="")
    cli._emit(tail)
    return cli.EXIT_OK


def _failure(order: int, what: str, reproduce: str, got=None, want=None) -> str:
    """verify's failure line: what broke at ``order``, what it ``got`` and what
    enumeration says (``want``) if given, and the command that reproduces it."""
    if got is not None:
        what = f"{what} came out {got}, enumeration says {want}"
    return f"order {order}: {what} (reproduce: farey {reproduce})"


def _verify_order(order: int, cap: int) -> tuple[int, str | None]:
    """Check one order end to end, in one walk of F_order.

    Each adjacent pair is certified against the defining properties (see
    `oracle.verify_properties`), then the successor and predecessor queries
    must reproduce it.  At each center, once both of its pairs have passed,
    each direct triple construction must reproduce the centered triple.
    Returns (centered triples checked, failure message or None).
    """
    right_neighbor, left_neighbor = cli.right_neighbor, cli.left_neighbor
    by_method, methods = cli._triple_by_method, cli._CONSTRUCTIONS
    report = PropertyReport(ok=True)
    centers = 0
    terms = _certified(order, cli._farey_walk(order, cap), report)
    left, lo = None, next(terms, None)
    # Answers match enumeration field by field; a non-Fraction never matches.
    for hi in terms:
        got = right_neighbor(lo, order).neighbor
        if not isinstance(got, Fraction) or got.num != hi.num or got.den != hi.den:
            return centers, _failure(order, f"successor of {lo}", f"next {lo} {order}", got, hi)
        got = left_neighbor(hi, order).neighbor
        if not isinstance(got, Fraction) or got.num != lo.num or got.den != lo.den:
            return centers, _failure(order, f"predecessor of {hi}", f"prev {hi} {order}", got, lo)
        # order >= 2, so a term with denominator order is interior.
        if lo.den == order:
            centers += 1
            want = (left.num, left.den, lo.num, order, hi.num, hi.den)
            for method in methods:
                got = by_method(lo.num, order, method, None)
                a, b, c = got.left, got.center, got.right
                if not (
                    isinstance(a, Fraction) and isinstance(b, Fraction) and isinstance(c, Fraction)
                    and (a.num, a.den, b.num, b.den, c.num, c.den) == want
                ):
                    what = f"{method} triple at {lo}"
                    reproduce = f"triple {lo.num} {order} --method {method}"
                    got = f"{a} {b} {c}"
                    return centers, _failure(order, what, reproduce, got, f"{left} {lo} {hi}")
        left, lo = lo, hi
    if report.ok:
        return centers, None
    return centers, _failure(order, f"{report.failure} at index {report.index}", f"list {order}")


def _worker_init() -> None:
    """Start a verify worker: SIGINT kills it quietly, even between tasks, and it
    exits once the main process is gone, under any start method, by waiting on the
    parent sentinel (a pipe the main process and later-forked workers hold open)."""
    import multiprocessing
    import signal
    import threading

    signal.signal(signal.SIGINT, signal.SIG_DFL)
    parent = multiprocessing.parent_process()

    def watch():
        parent.join()
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


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
    from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

    pool = ProcessPoolExecutor(max_workers=jobs, initializer=_worker_init)
    try:
        pending = deque()
        for order in orders:
            pending.append(pool.submit(_verify_order, order, cap))
            if len(pending) == 2 * jobs:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    except BrokenExecutor as exc:
        # A worker died on its own (a signal to it alone, the kernel out of
        # memory): reported like a domain error, in one line with exit 1.
        raise DomainError(f"a verify worker died: {exc}") from None
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def _first_order_over(cap: int) -> int:
    """The least order n >= 2 with |F_n| > cap.  Since |F_n| <= 1 + n(n + 1)/2,
    the search starts at the largest n that bound keeps within cap, doubles
    past the answer, then bisects on the exact length."""
    # lo stays below the answer: |F_lo| <= cap, or lo = 1.
    lo = max(1, (math.isqrt(8 * cap - 7) - 1) // 2)
    hi = 2 * lo
    while _farey_length(hi) <= cap:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _farey_length(mid) > cap:
            hi = mid
        else:
            lo = mid
    return hi


def cmd_verify(args) -> int:
    cap = cli._resolve_cap(args)
    cli._bounded(args.max_order, "max order", 2)
    cli._bounded(args.jobs, "jobs", 1)
    # A max order at or past the first order over the cap can only end in
    # that order's refusal, so it is raised before any order is walked.  The
    # search takes milliseconds, so a max order whose bound fits skips it.
    if 1 + args.max_order * (args.max_order + 1) // 2 > cap:
        first = _first_order_over(cap)
        if args.max_order >= first:
            cli._farey_walk(first, cap)
    orders = range(2, args.max_order + 1)
    # More workers than CPUs or orders would only add processes.  (len() of
    # the range would overflow for a huge max order.)
    jobs = min(args.jobs, os.cpu_count() or 1, args.max_order - 1)
    checked = 0
    triples_checked = 0
    failure = None
    results = _verify_results(orders, cap, jobs)
    try:
        for centers, failure in results:
            checked += 1
            triples_checked += centers
            if failure is not None:
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
        return cli._answer(
            args, payload, f"OK: {checked} orders, {triples_checked:,} triples, 0 mismatches"
        )
    payload["failure"] = failure
    cli._answer(args, payload, f"FAIL: {failure}")
    return cli.EXIT_VERIFY


# Back-to-back calls behind each triple timing sample: a single call of
# a few microseconds is at the mercy of the timer and the machine.
_BATCH = 16
# The most orders, and queries weighed by order size, one bench run may plan: a query
# costs about its order's bit length squared, so it weighs 1 + (bits // 256)^2.
_MAX_ORDERS, _MAX_WORK = 100, 10 * cli.MAX_REPS


def _time_ns(fn, calls: int = 1) -> int:
    """Integer ns per call over ``calls`` back-to-back calls of fn."""
    start = perf_counter_ns()
    for _ in range(calls):
        fn()
    return (perf_counter_ns() - start) // calls


def _timing_summary(times: list[int]) -> dict:
    return {
        "min_ns": min(times),
        "median_ns": sorted(times)[(len(times) - 1) // 2],
        "max_ns": max(times),
        "reps": len(times),
    }


def _mean_text(total: int, count: int) -> str:
    """Mean to two decimal places as a string, via integer arithmetic."""
    hundredths = (100 * total) // count
    return f"{hundredths // 100}.{hundredths % 100:02d}"


def _bench_queries(order: int, count: int):
    """The first ``count`` numerators n coprime to ``order`` drawn from a
    fresh Random(f"bench:{order}"): every pass of `bench` over an order draws
    the same sequence again, so no pass holds it."""
    from random import Random

    rng = Random(f"bench:{order}")
    while count:
        n = rng.randrange(1, order)
        if math.gcd(n, order) == 1:
            count -= 1
            yield n


def _bench_order(order: int, reps: int, cap: int) -> dict:
    by_method = cli._triple_by_method
    row: dict = {"order": order}
    for method in cli._CONSTRUCTIONS:
        # untimed: loads the route's module
        by_method(next(_bench_queries(order, 1)), order, method, None)
        row[method] = _timing_summary(
            [
                _time_ns(lambda n=n: by_method(n, order, method, None), _BATCH)
                for n in _bench_queries(order, reps)
            ]
        )
    # |F_order| >= order + 1 skips a huge order before its length is counted.
    if order + 1 > cap or (length := _farey_length(order)) > cap:
        row["oracle"] = "skipped"
    else:
        # Each oracle query walks F_order from its start, so bound the total
        # walk for the cell by one cap's worth of terms.
        budget = max(1, min(reps, cap // length))
        row["oracle"] = _timing_summary(
            [
                _time_ns(lambda n=n: by_method(n, order, "oracle", cap))
                for n in _bench_queries(order, budget)
            ]
        )
    total = longest = 0
    for n in _bench_queries(order, reps):
        steps = len(_euclid(n, order)[0])
        total, longest = total + steps, max(longest, steps)
    row["chain_length"] = {"mean": _mean_text(total, reps), "max": longest}
    return row


def cmd_bench(args) -> int:
    cap = cli._resolve_cap(args)
    try:
        orders = [cli._parse_count(token) for token in args.orders.split(",")]
    except DomainError as exc:
        raise DomainError(f"cannot parse order list from {args.orders!r}: {exc}") from None
    cli._bounded(len(orders), "number of orders", 1, _MAX_ORDERS)
    for order in orders:
        cli._bounded(order, "order", 2)
    cli._bounded(args.reps, "reps", 1, cli.MAX_REPS)
    work = sum(args.reps * (1 + (order.bit_length() >> 8) ** 2) for order in orders)
    cli._bounded(work, "planned work (reps weighed by order size)", 1, _MAX_WORK)
    rows = [cli._bench_order(order, args.reps, cap) for order in orders]
    if args.json:
        cli._print_json({"cap": cap, "reps": args.reps, "rows": rows})
        return cli.EXIT_OK
    cli._emit(
        f"{'order':>16}  {'inverse med(ns)':>15}  {'chain med(ns)':>14}"
        f"  {'cf med(ns)':>14}  {'oracle med(ns)':>16}  {'len mean/max':>12}"
    )
    for row in rows:
        oracle = row["oracle"]
        oracle_text = oracle if oracle == "skipped" else f"{oracle['median_ns']:,}"
        length = row["chain_length"]
        cli._emit(
            f"{row['order']:>16,}  {row['inverse']['median_ns']:>15,}"
            f"  {row['chain']['median_ns']:>14,}"
            f"  {row['cf']['median_ns']:>14,}  {oracle_text:>16}"
            f"  {length['mean'] + '/' + str(length['max']):>12}"
        )
    return cli.EXIT_OK

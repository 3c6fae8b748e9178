"""The three sections every run measures, each a closed loop.

One client in one process makes each call only after the previous one has
returned.  Only the call itself sits between the two clock reads; building
arguments and checking answers happen outside the timed region.

Every untraced timing is calibrated: it is divided by the time of a fixed
reference timed right next to it, and multiplied by that reference's best
time on a quiet machine (REF_NS, BARE_NS).  On a shared machine the speed of
all work swings by up to 1.6x for seconds at a time, often for a whole run;
a call and the reference beside it swing together, so the ratio holds where
raw times and even best-of-repeats do not.  The reference is fixed code of
the benchmark's own (or a bare interpreter), so only the package's own cost
moves a calibrated time.

``lib`` is the `farey` package and ``cli_main`` is `farey.cli.main`; the
benchmark's own tests pass planted stand-ins for them.  The traced variants
wrap each call into a layer in a span and also time the layers one by one, by
calling the public functions a query is built from.
"""

from __future__ import annotations

import io
import subprocess
import sys
from contextlib import redirect_stdout
from time import perf_counter_ns

import checks
from inputs import ladder_steps, totients

TRACE_SAMPLE = 128  # queries a traced run cycles through
SPAN_BUDGET = 100_000  # a traced run starts no pass that would exceed this
SPAWN_TIMEOUT_S = 60
QUERY_UNIT_NS = 50_000_000  # query rounds between two interleaving decisions
# The reference's best time on a 2-CPU x86_64 Linux VM, Python 3.11.7: a
# calibrated time reads as the call's time at that speed.
REF_NS = 20_000
# `python -c pass` from spawn to exit, best time on the same machine.
BARE_NS = 45_000_000
# Euclid's algorithm on this fixed pair of 333-bit integers (216 steps) is
# the in-process reference: pure-Python big-int work like the package's.
_REF_PAIR = (5**143, 7**118)
_BARE = ("-c", "pass")

# Fresh-interpreter probes for the import layers; each prints its own ns.
_IMPORT_PROBE = "import time; t = time.perf_counter_ns(); import {0}; print(time.perf_counter_ns() - t)"
# Span names of each section, in the order the per-layer metrics list them.
QUERY_SPANS = (
    "triples.triple",
    "neighbors.right_neighbor",
    "neighbors.left_neighbor",
    "fraction.Fraction",
    "triples.reduction_chain",
    "triples.lift_chain",
    "triples.base_triple",
    "triples.lift_step",
    "triples.FareyTriple",
    "cf.triple_via_cf",
    "cf.cf_expand",
    "cf.cf_evaluate",
    "neighbors.base_right_neighbor",
)
VERIFY_SPANS = ("cli.verify", "oracle.enumerate_farey", "oracle.verify_properties")
ONESHOT_SPANS = ("process.bare", "process.import_farey", "process.import_cli", "cli.main")
PROBES = (
    ("process.bare", ("-c", "pass")),
    ("process.import_farey", ("-c", _IMPORT_PROBE.format("farey"))),
    ("process.import_cli", ("-c", _IMPORT_PROBE.format("farey.cli"))),
)


class Tally:
    """Answers checked and answers wrong (or raised), with the first reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(reason)


def time_reference() -> int:
    """ns taken by the in-process reference work."""
    start = perf_counter_ns()
    a, b = _REF_PAIR
    while b:
        a, b = b, a % b
    return perf_counter_ns() - start


def median(values: list[int]) -> int:
    """Upper median; 0 for no values."""
    return sorted(values)[len(values) // 2] if values else 0


def _pair(f) -> tuple[int, int]:
    return f.num, f.den


def check_answer(kind: str, q, got) -> str | None:
    """Check a library answer for one operation of query round ``q``."""
    x = (q.n, q.order)
    try:
        if kind == "triple":
            return checks.check_triple(q.n, q.order, _pair(got.left), _pair(got.center), _pair(got.right))
        if kind == "next":
            reason = checks.check_next(x, q.m_next, _pair(got.neighbor))
            want = ladder_steps(q.n, q.order, q.m_next)
        else:
            reason = checks.check_prev(x, q.m_prev, _pair(got.neighbor))
            want = ladder_steps(q.order - q.n, q.order, q.m_prev)
        if reason is None and got.steps != want:
            reason = f"{kind} of {q.n}/{q.order}: l={got.steps}, want {want}"
        return reason
    except AttributeError:
        return f"{kind} of {q.n}/{q.order}: {got!r} is not an answer"


def _round_ops(lib, q, x):
    return (
        ("triple", lib.triple, (q.n, q.order)),
        ("next", lib.right_neighbor, (x, q.m_next)),
        ("prev", lib.left_neighbor, (x, q.m_prev)),
    )


class QueryLoop:
    """Rounds of triple, successor, predecessor, cycling through the pool.

    Each call is timed between two runs of the reference, and
    ``times[kind][j]`` collects the calibrated times of that kind of call on
    query j; an input's median is its cost, and the spread across inputs
    stays visible.
    """

    def __init__(self, lib, queries, tally: Tally):
        self.lib, self.queries, self.tally = lib, queries, tally
        self.times = {kind: [[] for _ in queries] for kind in ("triple", "next", "prev")}
        self.rounds = 0

    def round(self, j: int) -> None:
        q = self.queries[j]
        x = self.lib.Fraction(q.n, q.order)
        before = time_reference()
        for kind, fn, args in _round_ops(self.lib, q, x):
            start = perf_counter_ns()
            try:
                got = fn(*args)
            except Exception as exc:
                self.tally.record(f"{kind} of {q.n}/{q.order} raised {exc!r}")
                continue
            ns = perf_counter_ns() - start
            after = time_reference()
            self.times[kind][j].append(2 * ns * REF_NS // (before + after))
            before = after
            self.tally.record(check_answer(kind, q, got))

    def unit(self) -> bool:
        end = perf_counter_ns() + QUERY_UNIT_NS
        while True:
            self.round(self.rounds % len(self.queries))
            self.rounds += 1
            if perf_counter_ns() >= end:
                return True


def run_main(cli_main, argv: list[str]) -> tuple[int, str, int]:
    """In-process main(argv) with stdout captured: (code, stdout, ns)."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        start = perf_counter_ns()
        code = cli_main(argv)
        ns = perf_counter_ns() - start
    return code, buf.getvalue(), ns


class VerifyLoop:
    """`verify K --json` through main() in this process, one call a unit,
    timed between two runs of the reference; ``times`` are calibrated."""

    def __init__(self, cli_main, k: int, tally: Tally):
        self.cli_main, self.k, self.tally = cli_main, k, tally
        self.times: list[int] = []

    def unit(self) -> bool:
        before = time_reference()
        try:
            code, out, ns = run_main(self.cli_main, ["--json", "verify", str(self.k)])
        except Exception as exc:
            self.tally.record(f"verify {self.k} raised {exc!r}")
            return True
        after = time_reference()
        self.times.append(2 * ns * REF_NS // (before + after))
        self.tally.record(checks.check_verify(self.k, code, out))
        return True


def spawn(args, env, cwd) -> tuple[int, str, int]:
    """Run the interpreter with ``args`` to completion: (code, stdout, ns)."""
    start = perf_counter_ns()
    proc = subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        timeout=SPAWN_TIMEOUT_S,
    )
    return proc.returncode, proc.stdout, perf_counter_ns() - start


def spawn_calibrated(args, env, cwd) -> tuple[int, str, int, int]:
    """Spawn a bare interpreter, then ``args``: (code, stdout, calibrated
    ns, bare ns), the bare one being the reference for this process."""
    _, _, bare = spawn(_BARE, env, cwd)
    code, out, ns = spawn(args, env, cwd)
    return code, out, ns * BARE_NS // bare, bare


class OneshotLoop:
    """One `python -m farey` process per command, cycling; one process a
    unit, timed from spawn to exit and calibrated against a bare interpreter
    spawned just before it.  ``times[j]`` collects command j's times."""

    def __init__(self, commands, env, cwd, tally: Tally):
        self.commands, self.env, self.cwd, self.tally = commands, env, cwd, tally
        self.times: list[list[int]] = [[] for _ in commands]
        self.bare: list[int] = []
        self.processes = 0

    def unit(self) -> bool:
        j = self.processes % len(self.commands)
        argv = self.commands[j]
        self.processes += 1
        try:
            code, out, ns, bare = spawn_calibrated(("-m", "farey", *argv), self.env, self.cwd)
        except subprocess.TimeoutExpired:
            self.tally.record(f"{' '.join(argv)} ran past {SPAWN_TIMEOUT_S} s")
            return True
        self.times[j].append(ns)
        self.bare.append(bare)
        self.tally.record(checks.check_command(argv, code, out))
        return True


def interleave(loops, shares, seconds: int) -> None:
    """Run the loops' units until ``seconds`` have passed, each next unit
    from the loop furthest below its share of the time spent so far.

    Interleaving spreads every section over the whole run, so each sees the
    same mix of quiet and busy moments on a shared machine.  Every loop runs
    at least one unit; a loop whose unit returns False is finished.
    """
    spent = [0] * len(loops)
    live = set(range(len(loops)))
    end = perf_counter_ns() + seconds * 1_000_000_000
    while live:
        fresh = [i for i in sorted(live) if spent[i] == 0]
        if not fresh and perf_counter_ns() >= end:
            return
        i = fresh[0] if fresh else min(live, key=lambda j: spent[j] / shares[j])
        start = perf_counter_ns()
        more = loops[i].unit()
        spent[i] += max(1, perf_counter_ns() - start)
        if not more:
            live.discard(i)


def _decompose(lib, tracer, qid: int, q):
    """Time the layers of one query separately; returns answers to check."""
    call = tracer.call
    x = call("fraction.Fraction", qid, lib.Fraction, q.n, q.order)
    chain = call("triples.reduction_chain", qid, lib.reduction_chain, x)
    lifted = call("triples.lift_chain", qid, lib.lift_chain, chain)
    replay = call("triples.base_triple", qid, lib.base_triple, chain.terminal)
    for quotient in reversed(chain.quotients):
        replay = call("triples.lift_step", qid, lib.lift_step, replay, quotient)
    call("triples.FareyTriple", qid, lib.FareyTriple, lifted.left, lifted.center, lifted.right, lifted.order)
    via_cf = call("cf.triple_via_cf", qid, lib.triple_via_cf, x)
    expansion = call("cf.cf_expand", qid, lib.cf_expand, x)
    truncated = call("cf.cf_evaluate", qid, lib.cf_evaluate, lib.ContinuedFraction(expansion.coeffs[:-1]))
    base = call("neighbors.base_right_neighbor", qid, lib.base_right_neighbor, x)

    reasons = [check_answer("triple", q, t) for t in (lifted, replay, via_cf)]
    reasons.append(checks.check_next((q.n, q.order), q.order, _pair(base)))
    if checks.evaluate(list(expansion.coeffs)) != (q.n, q.order):
        reasons.append(f"cf_expand of {q.n}/{q.order} gave {expansion}")
    if _pair(truncated) not in (_pair(lifted.left), _pair(lifted.right)):
        reasons.append(f"cf_evaluate of the truncated expansion of {q.n}/{q.order} gave {truncated}")
    return reasons


class TracedQueries:
    """Whole passes over the first TRACE_SAMPLE queries, one pass a unit.

    Each round makes the three public calls untraced and again each in a
    span, which goes first alternating from round to round; the two
    wall-time totals give the tracing overhead.  Then it times the layers
    one by one.  The round's "query" span holds all of it, so that span's
    self time includes the untraced calls.  No pass starts that would
    exceed SPAN_BUDGET.
    """

    def __init__(self, lib, queries, tally: Tally, tracer):
        self.lib, self.sample, self.tally, self.tracer = lib, queries[:TRACE_SAMPLE], tally, tracer
        self.passes = self.ops = self.untraced_ns = self.traced_ns = 0
        self.per_pass = 0

    def _plain(self, q, x):
        start = perf_counter_ns()
        answers = [fn(*args) for _, fn, args in _round_ops(self.lib, q, x)]
        self.untraced_ns += perf_counter_ns() - start
        return answers

    def _spanned(self, qid: int, q, x):
        start = perf_counter_ns()
        answers = [
            self.tracer.call(name, qid, fn, *args)
            for name, (_, fn, args) in zip(QUERY_SPANS[:3], _round_ops(self.lib, q, x))
        ]
        self.traced_ns += perf_counter_ns() - start
        return answers

    def unit(self) -> bool:
        tracer, tally = self.tracer, self.tally
        before = len(tracer)
        for j, q in enumerate(self.sample):
            qid = self.passes * len(self.sample) + j + 1
            try:
                x = self.lib.Fraction(q.n, q.order)
                with tracer.span("query", qid):
                    if qid % 2:
                        plain, spanned = self._plain(q, x), self._spanned(qid, q, x)
                    else:
                        spanned, plain = self._spanned(qid, q, x), self._plain(q, x)
                    reasons = _decompose(self.lib, tracer, qid, q)
            except Exception as exc:
                tally.record(f"traced round {q.n}/{q.order} raised {exc!r}")
                continue
            self.ops += 3
            for kind, a, b in zip(("triple", "next", "prev"), plain, spanned):
                tally.record(check_answer(kind, q, a))
                tally.record(check_answer(kind, q, b))
            for reason in reasons:
                tally.record(reason)
        self.passes += 1
        self.per_pass = len(tracer) - before
        return len(tracer) + self.per_pass <= SPAN_BUDGET


class TracedVerify:
    """`verify K` in one span, then the oracle layers for every order up to
    K (enumerate, then check properties); one pass a unit."""

    def __init__(self, lib, cli_main, k: int, tally: Tally, tracer):
        self.lib, self.cli_main, self.k, self.tally, self.tracer = lib, cli_main, k, tally, tracer
        phi = totients(k)
        self.lengths = [1 + sum(phi[1 : order + 1]) for order in range(k + 1)]
        self.passes = 0

    def unit(self) -> bool:
        self.passes += 1
        call, k = self.tracer.call, self.k
        try:
            with self.tracer.span("verify", self.passes):
                code, out, _ = call("cli.verify", self.passes, run_main, self.cli_main, ["--json", "verify", str(k)])
                self.tally.record(checks.check_verify(k, code, out))
                for order in range(2, k + 1):
                    seq = call("oracle.enumerate_farey", self.passes, self.lib.enumerate_farey, order)
                    report = call("oracle.verify_properties", self.passes, self.lib.verify_properties, seq)
                    ok = report.ok and len(seq) == self.lengths[order]
                    self.tally.record(None if ok else f"oracle at order {order}: {report}")
        except Exception as exc:
            self.tally.record(f"traced verify {k} raised {exc!r}")
        return True


class TracedOneshot:
    """The import probes in fresh interpreters, then every command through
    main() in this process; one pass a unit.  ``reported`` collects the ns
    each import probe printed, by probe name."""

    def __init__(self, cli_main, commands, env, cwd, tally: Tally, tracer):
        self.cli_main, self.commands, self.env, self.cwd = cli_main, commands, env, cwd
        self.tally, self.tracer = tally, tracer
        self.reported = {name: [] for name, _ in PROBES}
        self.passes = 0

    def unit(self) -> bool:
        self.passes += 1
        call, tally = self.tracer.call, self.tally
        try:
            with self.tracer.span("oneshot", self.passes):
                for name, args in PROBES:
                    code, out, _ = call(name, self.passes, spawn, args, self.env, self.cwd)
                    if name == "process.bare":
                        tally.record(None if code == 0 else f"bare interpreter exited {code}")
                    elif code != 0 or not out.strip().isdigit():
                        tally.record(f"{name} exited {code} printing {out!r}")
                    else:
                        self.reported[name].append(int(out))
                        tally.record(None)
                for argv in self.commands:
                    code, out, _ = call("cli.main", self.passes, run_main, self.cli_main, list(argv))
                    tally.record(checks.check_command(argv, code, out))
        except Exception as exc:
            tally.record(f"traced oneshot pass raised {exc!r}")
        return True

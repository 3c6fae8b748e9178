"""End-to-end tests for the command-line surface.

Most tests drive main() in process and inspect captured stdout/stderr plus
the returned exit code. A few smoke tests run real processes: the ``farey``
console script, which setuptools builds from this checkout's
``[project.scripts]`` into a temporary venv, and ``python -m farey``, which
runs against ``src/`` on ``PYTHONPATH``.
"""

import ast
import concurrent.futures
import errno
import gc
import hashlib
import io
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from concurrent.futures.process import BrokenProcessPool
from contextlib import redirect_stderr, redirect_stdout
from math import gcd
from pathlib import Path
from random import Random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import farey
import farey.bulk as bulk
import farey.cli as cli
from farey import Fraction, enumerate_farey, iterate_farey, left_neighbor, right_neighbor
from farey.cli import main
from helpers import totient_sum

GOLDEN_LISTS = {
    1: "0/1 1/1",
    2: "0/1 1/2 1/1",
    3: "0/1 1/3 1/2 2/3 1/1",
    4: "0/1 1/4 1/3 1/2 2/3 3/4 1/1",
    5: "0/1 1/5 1/4 1/3 2/5 1/2 3/5 2/3 3/4 4/5 1/1",
}


# The longest integer the interpreter prints; the CLI refuses longer ones.
DIGIT_LIMIT = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits


class InlinePool:
    """Stands in for ProcessPoolExecutor: runs each task in process at
    submit, so no worker process is started, and counts the submissions."""

    submitted = 0

    def __init__(self, max_workers, **options):
        self.max_workers = max_workers

    def submit(self, fn, *args):
        InlinePool.submitted += 1
        if InlinePool.submitted > 1000:
            raise AssertionError("verify queued more than 1000 orders")
        future = concurrent.futures.Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future

    def shutdown(self, wait, cancel_futures):
        pass


# A non-numeric token far longer than any error message should be.
_LONG = "x" * 20000
# An integer short enough to parse, long enough that echoing it in full would
# swamp the message; negated, it is below every lower bound.
_NINES = "9" * 4000
_HUGE_NEGATIVE = "-" + _NINES


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def canonical(line: str) -> str:
    return json.dumps(json.loads(line), sort_keys=True, separators=(",", ":"))


def assert_no_floats(node) -> None:
    assert not isinstance(node, float), f"float leaked into JSON: {node!r}"
    if isinstance(node, dict):
        for key, value in node.items():
            assert_no_floats(key)
            assert_no_floats(value)
    elif isinstance(node, list):
        for value in node:
            assert_no_floats(value)


class TestList:
    @pytest.mark.parametrize("order", sorted(GOLDEN_LISTS))
    def test_golden(self, capsys, order):
        code, out, err = run_cli(capsys, "list", str(order))
        assert code == 0
        assert out == GOLDEN_LISTS[order] + "\n"
        assert err == ""

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "list", "4", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload == {
            "order": 4,
            "count": 7,
            "terms": GOLDEN_LISTS[4].split(),
        }

    @pytest.mark.parametrize("chunk, top", [(bulk._CHUNK, 200), (3, 30)])
    def test_bytes_match_a_rendering_of_the_enumeration(self, capsys, monkeypatch, chunk, top):
        # The chunked writes put out what rendering the whole sequence at
        # once would; a chunk of 3 lands the end on a chunk boundary too.
        monkeypatch.setattr(bulk, "_CHUNK", chunk)
        for order in range(1, top + 1):
            terms = [str(t) for t in enumerate_farey(order).terms]
            document = {"order": order, "count": len(terms), "terms": terms}
            text = " ".join(terms) + "\n"
            assert run_cli(capsys, "list", str(order)) == (0, text, "")
            text = json.dumps(document, sort_keys=True, separators=(",", ":")) + "\n"
            assert run_cli(capsys, "--json", "list", str(order)) == (0, text, "")


class TestTriple:
    def test_text(self, capsys):
        code, out, _ = run_cli(capsys, "triple", "5", "39")
        assert code == 0
        assert out == "1/8 5/39 4/31\n"

    def test_json_exact_bytes(self, capsys):
        code, out, _ = run_cli(capsys, "triple", "5", "39", "--json")
        assert code == 0
        assert out == '{"center":"5/39","left":"1/8","order":39,"right":"4/31"}\n'

    @pytest.mark.parametrize("method", ["inverse", "chain", "cf", "oracle"])
    def test_methods_agree_on_golden(self, capsys, method):
        code, out, _ = run_cli(capsys, "triple", "9", "25", "--method", method)
        assert code == 0
        assert out == "5/14 9/25 4/11\n"

    def test_methods_agree_on_random_queries(self, capsys):
        rng = Random("cli-methods")
        for _ in range(150):
            order = rng.randrange(2, 151)
            n = rng.randrange(1, order)
            g = gcd(n, order)
            n, order = n // g, order // g
            outputs = set()
            for method in ("inverse", "chain", "cf", "oracle"):
                code, out, _ = run_cli(
                    capsys, "triple", str(n), str(order), "--method", method, "--json"
                )
                assert code == 0
                outputs.add(out)
            assert len(outputs) == 1, f"methods disagree at {n}/{order}: {outputs}"

    def test_rejects_reducible(self, capsys):
        code, out, err = run_cli(capsys, "triple", "2", "4")
        assert code == 1
        assert out == ""
        assert "2/4 not irreducible" in err

    def test_rejects_out_of_range(self, capsys):
        for method in ("inverse", "chain", "cf", "oracle"):
            code, _, err = run_cli(capsys, "triple", "5", "5", "--method", method)
            assert code == 1
            assert "numerator must satisfy" in err


class TestNeighbors:
    def test_next_text_with_steps(self, capsys):
        code, out, _ = run_cli(capsys, "next", "9/25", "100")
        assert code == 0
        assert out == "31/86 (l=3)\n"

    def test_next_at_own_order(self, capsys):
        code, out, _ = run_cli(capsys, "next", "9/25", "25")
        assert code == 0
        assert out == "4/11 (l=0)\n"

    def test_next_json(self, capsys):
        code, out, _ = run_cli(capsys, "next", "9/25", "100", "--json")
        assert code == 0
        assert json.loads(out) == {
            "query": "9/25",
            "order": 100,
            "neighbor": "31/86",
            "steps": 3,
            "side": "right",
        }

    def test_prev_text_prints_neighbor_only(self, capsys):
        code, out, _ = run_cli(capsys, "prev", "9/25", "25")
        assert code == 0
        assert out == "5/14\n"

    def test_prev_json(self, capsys):
        code, out, _ = run_cli(capsys, "prev", "9/25", "25", "--json")
        assert code == 0
        assert json.loads(out) == {
            "query": "9/25",
            "order": 25,
            "neighbor": "5/14",
            "steps": 0,
            "side": "left",
        }

    def test_endpoints_rejected(self, capsys):
        code, _, err = run_cli(capsys, "next", "1/1", "10")
        assert code == 1
        assert "last term" in err
        code, _, err = run_cli(capsys, "prev", "0/1", "10")
        assert code == 1
        assert "first term" in err

    def test_non_member_rejected(self, capsys):
        code, _, err = run_cli(capsys, "next", "9/25", "24")
        assert code == 1
        assert "not a member" in err


class TestExpansionCommands:
    def test_cf_golden(self, capsys):
        code, out, _ = run_cli(capsys, "cf", "9/25")
        assert (code, out) == (0, "[0,2,1,3,2]\n")

    def test_cf_zero(self, capsys):
        code, out, _ = run_cli(capsys, "cf", "0/1")
        assert (code, out) == (0, "[0]\n")

    def test_cf_negative_zero(self, capsys):
        # "-0/1" is the fraction 0/1, not a flag, as "-0" is the order 0.
        code, out, _ = run_cli(capsys, "cf", "-0/1")
        assert (code, out) == (0, "[0]\n")

    def test_cf_one(self, capsys):
        code, out, _ = run_cli(capsys, "cf", "1/1")
        assert (code, out) == (0, "[1]\n")

    def test_cf_json(self, capsys):
        code, out, _ = run_cli(capsys, "cf", "9/25", "--json")
        assert code == 0
        assert json.loads(out) == {"fraction": "9/25", "coefficients": [0, 2, 1, 3, 2]}

    def test_chain_golden(self, capsys):
        code, out, _ = run_cli(capsys, "chain", "5/39")
        assert (code, out) == (0, "rho=[7,1] terminal=4 k=2\n")

    def test_chain_fundamental(self, capsys):
        code, out, _ = run_cli(capsys, "chain", "1/7")
        assert (code, out) == (0, "rho=[] terminal=7 k=0\n")

    def test_chain_json(self, capsys):
        code, out, _ = run_cli(capsys, "chain", "5/39", "--json")
        assert code == 0
        assert json.loads(out) == {
            "start": "5/39",
            "quotients": [7, 1],
            "terminal": 4,
            "k": 2,
        }

    def test_chain_rejects_endpoints(self, capsys):
        for text in ("0/1", "1/1"):
            code, _, err = run_cli(capsys, "chain", text)
            assert code == 1
            assert err != ""


class TestVerify:
    def test_exact_ok_line(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "60")
        assert code == 0
        assert out == f"OK: 59 orders, {totient_sum(2, 60):,} triples, 0 mismatches\n"

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "30", "--json")
        assert code == 0
        assert json.loads(out) == {
            "max_order": 30,
            "orders": 29,
            "triples": totient_sum(2, 30),
            "mismatches": 0,
            "ok": True,
        }

    def test_parallel_matches_sequential(self, capsys):
        code_a, out_a, _ = run_cli(capsys, "verify", "40")
        code_b, out_b, _ = run_cli(capsys, "verify", "40", "--jobs", "2")
        assert (code_a, out_a) == (code_b, out_b) == (0, out_a)

    def test_rejects_bad_arguments(self, capsys):
        code, _, err = run_cli(capsys, "verify", "1")
        assert code == 1
        assert "max order must be >= 2" in err
        code, _, err = run_cli(capsys, "verify", "10", "--jobs", "0")
        assert code == 1
        assert "jobs must be >= 1" in err

    @staticmethod
    def _triple_failure(method):
        return (
            f"order 3: {method} triple at 2/3 came out 0/1 1/3 1/2, enumeration says"
            f" 1/2 2/3 1/1 (reproduce: farey triple 2 3 --method {method})"
        )

    @staticmethod
    def _failure_json(failure, orders, triples):
        return (
            f'{{"failure":"{failure}","max_order":8,"mismatches":1,"ok":false,'
            f'"orders":{orders},"triples":{triples}}}\n'
        )

    def test_detects_planted_triple_mutation(self, capsys, monkeypatch):
        # Plant a wrong answer in each construction in turn; verify must name
        # the one that broke.
        def wrong_center(real):
            return lambda n, order: real(1, order) if n != 1 else real(n, order)

        def wrong_cf_center(real):
            return lambda c: real(Fraction(1, c.den) if c.num != 1 else c)

        planted = [
            ("inverse", "triple", wrong_center),
            ("chain", "_chain_triple", wrong_center),
            ("cf", "triple_via_cf", wrong_cf_center),
        ]
        for method, name, mutate in planted:
            monkeypatch.setattr(cli, name, mutate(getattr(cli, name)))
            code, out, err = run_cli(capsys, "verify", "8")
            monkeypatch.undo()
            assert code == 3
            assert out == f"FAIL: {self._triple_failure(method)}\n"
            assert err == ""

    def test_detects_planted_triple_mutation_json(self, capsys, monkeypatch):
        real = cli.triple

        def mutant(n, order):
            return real(1, order) if n != 1 else real(n, order)

        monkeypatch.setattr(cli, "triple", mutant)
        code, out, _ = run_cli(capsys, "verify", "8", "--json")
        assert code == 3
        assert out == self._failure_json(self._triple_failure("inverse"), 2, 3)

    def test_detects_planted_successor_mutation(self, capsys, monkeypatch):
        def mutant(x, order):
            r = right_neighbor(x, order)
            if x.num != 0 and r.neighbor != Fraction(1, 1):
                return right_neighbor(r.neighbor, order)
            return r

        monkeypatch.setattr(cli, "right_neighbor", mutant)
        failure = (
            "order 3: successor of 1/3 came out 2/3, enumeration says 1/2"
            " (reproduce: farey next 1/3 3)"
        )
        code, out, _ = run_cli(capsys, "verify", "8")
        assert (code, out) == (3, f"FAIL: {failure}\n")
        code, out, _ = run_cli(capsys, "--json", "verify", "8")
        assert (code, out) == (3, self._failure_json(failure, 2, 1))

    def test_detects_planted_predecessor_mutation(self, capsys, monkeypatch):
        # A predecessor query that skips one term, except onto 0/1.
        def mutant(x, order):
            r = left_neighbor(x, order)
            return left_neighbor(r.neighbor, order) if r.neighbor.num != 0 else r

        monkeypatch.setattr(cli, "left_neighbor", mutant)
        failure = (
            "order 2: predecessor of 1/1 came out 0/1, enumeration says 1/2"
            " (reproduce: farey prev 1/1 2)"
        )
        code, out, _ = run_cli(capsys, "verify", "8")
        assert (code, out) == (3, f"FAIL: {failure}\n")
        code, out, _ = run_cli(capsys, "--json", "verify", "8")
        assert (code, out) == (3, self._failure_json(failure, 1, 0))

    def test_detects_a_walk_that_fails_its_certificate(self, capsys, monkeypatch):
        # A walk of F_5 that drops 1/3 fails the oracle's determinant check
        # before any query runs on the broken pair.
        real = cli._farey_walk

        def mutant(order, cap):
            return (t for t in real(order, cap) if order != 5 or t != Fraction(1, 3))

        monkeypatch.setattr(cli, "_farey_walk", mutant)
        failure = (
            "order 5: adjacent pair 1/4, 2/5 has determinant 3, expected 1 at index 2"
            " (reproduce: farey list 5)"
        )
        code, out, _ = run_cli(capsys, "verify", "8")
        assert (code, out) == (3, f"FAIL: {failure}\n")
        code, out, _ = run_cli(capsys, "--json", "verify", "8")
        assert (code, out) == (3, self._failure_json(failure, 4, 6))

    def test_every_pair_and_center_is_queried(self, capsys, monkeypatch):
        # One successor and one predecessor query per adjacent pair, each on a
        # Fraction, and one call per construction per center: however verify
        # compares the answers, it cannot skip a query.
        queried, built = Counter(), Counter()

        def spy(name):
            real = getattr(cli, name)

            def counted(x, order):
                assert type(x) is Fraction
                queried[name] += 1
                return real(x, order)

            return counted

        real_by_method = cli._triple_by_method

        def by_method(n, order, method, cap):
            built[n, order, method] += 1
            return real_by_method(n, order, method, cap)

        for name in ("right_neighbor", "left_neighbor"):
            monkeypatch.setattr(cli, name, spy(name))
        monkeypatch.setattr(cli, "_triple_by_method", by_method)
        code, out, _ = run_cli(capsys, "verify", "12")
        assert (code, out) == (0, f"OK: 11 orders, {totient_sum(2, 12):,} triples, 0 mismatches\n")
        pairs = sum(totient_sum(1, n) for n in range(2, 13))  # |F_n| - 1 = Phi(n)
        assert queried == {"right_neighbor": pairs, "left_neighbor": pairs}
        assert sum(built.values()) == 3 * totient_sum(2, 12)
        assert built == {
            (n, order, method): 1
            for order in range(2, 13)
            for n in range(1, order)
            if gcd(n, order) == 1
            for method in ("inverse", "chain", "cf")
        }

    @pytest.mark.parametrize(
        "name, answer, failure",
        [
            pytest.param(
                "right_neighbor", None, "successor of 0/1 (reproduce: farey next 0/1 2)", id="next"
            ),
            pytest.param(
                "left_neighbor", None, "predecessor of 1/2 (reproduce: farey prev 1/2 2)", id="prev"
            ),
            pytest.param(
                "right_neighbor",
                SimpleNamespace(num=1, den=2),
                "successor of 0/1 came out namespace(num=1, den=2), enumeration says 1/2"
                " (reproduce: farey next 0/1 2)",
                id="next-lookalike",
            ),
        ],
    )
    def test_an_answer_that_is_not_a_fraction_is_a_mismatch(
        self, capsys, monkeypatch, name, answer, failure
    ):
        monkeypatch.setattr(cli, name, lambda x, order: SimpleNamespace(neighbor=answer))
        code, out, err = run_cli(capsys, "verify", "8")
        assert (code, out, err) == (3, f"FAIL: order 2: {failure}\n", "")

    def test_a_triple_with_a_term_that_is_not_a_fraction_is_a_mismatch(self, capsys, monkeypatch):
        real = cli._triple_by_method

        def by_method(n, order, method, cap):
            got = real(n, order, method, cap)
            if method != "chain":
                return got
            right = SimpleNamespace(num=got.right.num, den=got.right.den)
            return SimpleNamespace(left=got.left, center=got.center, right=right)

        monkeypatch.setattr(cli, "_triple_by_method", by_method)
        failure = (
            "order 2: chain triple at 1/2 came out 0/1 1/2 namespace(num=1, den=1),"
            " enumeration says 0/1 1/2 1/1 (reproduce: farey triple 1 2 --method chain)"
        )
        code, out, err = run_cli(capsys, "verify", "8")
        assert (code, out, err) == (3, f"FAIL: {failure}\n", "")


class TestBench:
    def test_json_shape_and_no_floats(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "5,8", "--reps", "2", "--json")
        assert code == 0
        payload = json.loads(out)
        assert_no_floats(payload)
        assert payload["reps"] == 2
        assert [row["order"] for row in payload["rows"]] == [5, 8]
        for row in payload["rows"]:
            for column in ("inverse", "chain", "cf", "oracle"):
                cell = row[column]
                assert set(cell) == {"min_ns", "median_ns", "max_ns", "reps"}
                assert cell["min_ns"] <= cell["median_ns"] <= cell["max_ns"]
            assert set(row["chain_length"]) == {"mean", "max"}
            assert isinstance(row["chain_length"]["mean"], str)

    def test_every_cell_times_the_triple_route(self, capsys, monkeypatch):
        # Each cell times what `farey triple --method M` runs, and nothing else.
        real, methods = cli._triple_by_method, set()

        def recorder(n, order, method, cap):
            methods.add(method)
            return real(n, order, method, cap)

        monkeypatch.setattr(cli, "_triple_by_method", recorder)
        code, out, _ = run_cli(capsys, "bench", "5", "--reps", "2", "--json")
        assert code == 0
        assert methods == {"inverse", "chain", "cf", "oracle"}

    def test_each_route_is_loaded_before_its_first_sample(self):
        # cli.triple imports farey.triples on its first lookup, which must
        # not land in a timed sample; a fresh interpreter has not loaded it.
        probe = (
            "import sys\n"
            "from farey import bulk\n"
            "seen, real = [], bulk._time_ns\n"
            "def spy(fn, calls=1):\n"
            "    seen.append('farey.triples' in sys.modules)\n"
            "    return real(fn, calls)\n"
            "bulk._time_ns = spy\n"
            "bulk._bench_order(39, 2, 10**7)\n"
            "print(seen)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            env=_src_env(),
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        # Two samples per route, in the order inverse, chain, cf, oracle.
        assert proc.stdout == "[True, True, True, True, True, True, True, True]\n"

    @pytest.mark.parametrize(
        "times, median", [([5, 1, 4, 2], 2), ([3, 9, 1], 3), ([7], 7), ([2, 2, 8, 1, 9, 4], 2)]
    )
    def test_timing_summary_takes_the_low_median(self, times, median):
        summary = bulk._timing_summary(times)
        assert summary["median_ns"] == median == statistics.median_low(times)
        assert summary == {
            "min_ns": min(times),
            "median_ns": median,
            "max_ns": max(times),
            "reps": len(times),
        }

    def test_chain_length_cells(self, capsys, monkeypatch):
        # The seeded queries fix each row's chain lengths; timings are stubbed.
        monkeypatch.setattr(bulk, "_time_ns", lambda fn, calls=1: 0)
        code, out, _ = run_cli(capsys, "--json", "bench", "2,3,39,10^12", "--reps", "7")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [(row["order"], row["chain_length"]) for row in rows] == [
            (2, {"max": 0, "mean": "0.00"}),
            (3, {"max": 1, "mean": "0.42"}),
            (39, {"max": 4, "mean": "2.85"}),
            (10**12, {"max": 26, "mean": "21.57"}),
        ]
        assert [row["oracle"] == "skipped" for row in rows] == [False, False, False, True]

    def test_text_table_bytes(self, capsys, monkeypatch):
        monkeypatch.setattr(bulk, "_time_ns", lambda fn, calls=1: 0)
        code, out, _ = run_cli(capsys, "bench", "2,39", "--reps", "3")
        assert code == 0
        assert out == (
            "           order  inverse med(ns)   chain med(ns)      cf med(ns)"
            "    oracle med(ns)  len mean/max\n"
            "               2                0               0               0"
            "                 0        0.00/0\n"
            "              39                0               0               0"
            "                 0        3.33/4\n"
        )

    def test_queries_are_drawn_per_pass_not_held(self, monkeypatch):
        # Holding the reps queries of a 1000-digit order would cost reps times
        # one query's size over a 50-digit order; drawn per pass, the peaks
        # differ by one call's temporaries.  Timings and chain lengths are
        # stubbed, so only the draws and the warm-up calls run.
        monkeypatch.setattr(bulk, "_time_ns", lambda fn, calls=1: 0)
        monkeypatch.setattr(bulk, "_euclid", lambda n, order: ((), order))
        reps, small, big = 500, 10**50 + 1, 10**1000 + 1
        bulk._bench_order(39, 1, 10**7)  # loads every route's module

        def peak(order):
            tracemalloc.start()
            try:
                bulk._bench_order(order, reps, 10**7)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(big) - peak(small) < reps * sys.getsizeof(big) // 4

    def test_low_cap_skips_oracle(self, capsys):
        code, out, _ = run_cli(capsys, "--cap", "3", "bench", "5", "--reps", "2", "--json")
        assert code == 0
        assert json.loads(out)["rows"][0]["oracle"] == "skipped"

    def test_huge_order_text_row(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "10^12", "--reps", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split() == [
            "order",
            "inverse",
            "med(ns)",
            "chain",
            "med(ns)",
            "cf",
            "med(ns)",
            "oracle",
            "med(ns)",
            "len",
            "mean/max",
        ]
        assert "1,000,000,000,000" in lines[1]
        assert "skipped" in lines[1]

    @pytest.mark.parametrize("reps", ["1000001", "10^100", f"10^{DIGIT_LIMIT - 1}"])
    def test_reps_above_the_ceiling_are_refused(self, capsys, monkeypatch, reps):
        def unreachable(*args):
            raise AssertionError("bench ran past a refused --reps")

        monkeypatch.setattr(cli, "_bench_order", unreachable)
        code, out, err = run_cli(capsys, "bench", "5", "--reps", reps)
        assert code == 1
        assert out == ""
        assert "reps must be <= 1,000,000" in err
        assert len(err) < 200

    def test_reps_at_the_ceiling_are_accepted(self, capsys, monkeypatch):
        asked = []

        def stub(order, reps, cap):
            asked.append(reps)
            return {"order": order}

        monkeypatch.setattr(cli, "_bench_order", stub)
        code, out, _ = run_cli(capsys, "--json", "bench", "5", "--reps", "10^6")
        assert code == 0
        assert asked == [cli.MAX_REPS] == [10**6]
        assert json.loads(out)["reps"] == 10**6

    @pytest.mark.parametrize(
        "orders, reps, message",
        [
            # 10^6 queries at 4,300 digits: about a second each, some 12 days.
            (f"10^{DIGIT_LIMIT - 1}", "10^6", "planned work (reps weighed by order size) must be"
             " <= 10,000,000, got 3026000000"),
            (",".join(["5"] * 11), "10^6", "planned work (reps weighed by order size) must be"
             " <= 10,000,000, got 11000000"),
            (",".join(["5"] * 101), "1", "number of orders must be <= 100, got 101"),
        ],
        ids=["4300 digits", "11 full cells", "101 orders"],
    )
    def test_runs_over_the_work_budget_are_refused(self, capsys, monkeypatch, orders, reps, message):
        def unreachable(*args):
            raise AssertionError("bench ran past a refused plan")

        monkeypatch.setattr(cli, "_bench_order", unreachable)
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "bench", orders, "--reps", reps)
        assert time.perf_counter() - start < 1
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "orders, reps",
        [(",".join(["5"] * 10), "10^6"), (",".join(["10^76"] * 10), "10^6"), (",".join(["5"] * 100), "1")],
        ids=["10 full cells", "10 full cells below 2^256", "100 orders"],
    )
    def test_runs_at_the_work_budget_are_accepted(self, capsys, monkeypatch, orders, reps):
        asked = []
        monkeypatch.setattr(cli, "_bench_order", lambda order, reps, cap: asked.append(order) or {})
        code, _, err = run_cli(capsys, "--json", "bench", orders, "--reps", reps)
        assert (code, err) == (0, "")
        assert asked == [cli._parse_count(order) for order in orders.split(",")]

    def test_rejects_bad_orders(self, capsys):
        for orders, reason in (
            ("5,x", "cannot parse integer from 'x'"),
            ("", "cannot parse integer from ''"),
            (",", "cannot parse integer from ''"),
            ("10^5000", "integer '10^5000' has more than 4300 digits"),
            ("2^14286", "integer '2^14286' has more than 4300 digits"),
        ):
            code, out, err = run_cli(capsys, "bench", orders)
            assert (code, out) == (1, "")
            assert err == f"error: cannot parse order list from {orders!r}: {reason}\n"
        code, _, err = run_cli(capsys, "bench", "1")
        assert code == 1
        assert "order must be >= 2" in err


class TestExitCodesAndCap:
    def test_usage_errors(self, capsys):
        assert run_cli(capsys)[0] == 1
        assert run_cli(capsys, "frobnicate", "1")[0] == 1
        assert run_cli(capsys, "list", "ten")[0] == 1
        assert run_cli(capsys, "list", "2^-3")[0] == 1

    @pytest.mark.parametrize("argv", [("cf", "-1/2"), ("next", "-1/2", "5")], ids=" ".join)
    def test_a_negative_fraction_is_refused_as_itself(self, capsys, argv):
        # argparse alone takes "-1/2" for an unknown flag and blames the next token.
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == "usage error: argument fraction: numerator must be >= 0, got -1\n"

    def test_cap_boundary_via_flag(self, capsys):
        assert run_cli(capsys, "--cap", "11", "list", "5")[0] == 0
        code, out, err = run_cli(capsys, "--cap", "10", "list", "5")
        assert code == 2
        assert out == ""
        assert "cap" in err

    def test_cap_flag_after_subcommand(self, capsys):
        assert run_cli(capsys, "list", "5", "--cap", "10")[0] == 2
        assert run_cli(capsys, "list", "5", "--cap", "11")[0] == 0

    def test_cap_env(self, capsys, monkeypatch):
        monkeypatch.setenv("FAREY_CAP", "10")
        assert run_cli(capsys, "list", "5")[0] == 2

    def test_cap_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("FAREY_CAP", "10")
        assert run_cli(capsys, "--cap", "100", "list", "5")[0] == 0

    def test_bad_cap_env(self, capsys, monkeypatch):
        monkeypatch.setenv("FAREY_CAP", "lots")
        code, _, err = run_cli(capsys, "list", "5")
        assert code == 1
        assert "FAREY_CAP must be a positive integer" in err

    @pytest.mark.parametrize(
        "argv, out",
        [
            pytest.param(argv, out, id=" ".join(argv))
            for argv, out in (
                (("cf", "9/25"), "[0,2,1,3,2]\n"),
                (("chain", "5/39"), "rho=[7,1] terminal=4 k=2\n"),
                (("next", "9/25", "100"), "31/86 (l=3)\n"),
                (("prev", "9/25", "25"), "5/14\n"),
                (("triple", "5", "39"), "1/8 5/39 4/31\n"),
                (("triple", "5", "39", "--method", "chain"), "1/8 5/39 4/31\n"),
                (("triple", "5", "39", "--method", "cf"), "1/8 5/39 4/31\n"),
                (("list", "5"), None),
                (("verify", "8"), None),
                (("bench", "5", "--reps", "1"), None),
                (("triple", "9", "25", "--method", "oracle"), None),
            )
        ],
    )
    def test_bad_cap_env_stops_only_commands_that_walk(self, capsys, monkeypatch, argv, out):
        # A command that walks no sequence never reads FAREY_CAP.
        monkeypatch.setenv("FAREY_CAP", "lots")
        code, stdout, err = run_cli(capsys, *argv)
        if out is None:
            assert (code, stdout) == (1, "")
            assert err == "error: FAREY_CAP must be a positive integer, got 'lots'\n"
        else:
            assert (code, stdout, err) == (0, out, "")

    def test_cap_reaches_oracle_method(self, capsys):
        code, _, err = run_cli(
            capsys, "--cap", "100", "triple", "9", "25", "--method", "oracle"
        )
        assert code == 2
        assert "cap" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("list", "25"),
            ("--json", "list", "25"),
            ("verify", "25"),
            ("--json", "verify", "25"),
            ("triple", "9", "25", "--method", "oracle"),
        ],
        ids=" ".join,
    )
    def test_cap_boundary_is_the_exact_length(self, capsys, argv):
        length = len(enumerate_farey(25))
        code, out, err = run_cli(capsys, "--cap", str(length), *argv)
        assert (code, err) == (0, "")
        assert out
        code, out, err = run_cli(capsys, "--cap", str(length - 1), *argv)
        assert (code, out) == (2, "")
        assert err == f"error: F_25 exceeds the cap of {length - 1} terms\n"
        if "verify" not in argv:  # verify stops at F_9 with a cap of 25
            code, out, err = run_cli(capsys, "--cap", "25", *argv)
            assert (code, out) == (2, "")
            assert err == "error: F_25 has at least 26 terms, above the cap of 25\n"

    def test_exponent_notation_for_cap(self, capsys):
        assert run_cli(capsys, "--cap", "10^2", "list", "9")[0] == 0

    @pytest.mark.parametrize("cap", ["100000001", "10^9", "10^100", f"10^{DIGIT_LIMIT - 1}"])
    @pytest.mark.parametrize("where", ["flag", "env"])
    def test_caps_above_the_ceiling_are_refused(self, capsys, monkeypatch, cap, where):
        def unreachable(*args):
            raise AssertionError("enumerated past a refused cap")

        monkeypatch.setattr(cli, "_farey_walk", unreachable)
        if where == "env":
            monkeypatch.setenv("FAREY_CAP", cap)
            argv = ("list", "10^5")
        else:
            argv = ("--cap", cap, "list", "10^5")
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "cap must be <= 100,000,000" in err
        assert len(err) < 200

    @pytest.mark.parametrize("where", ["flag", "env"])
    def test_cap_at_the_ceiling_is_accepted(self, capsys, monkeypatch, where):
        asked = []

        def stub(order, cap):
            asked.append(cap)
            return iter((Fraction(0, 1), Fraction(1, 1)))

        monkeypatch.setattr(cli, "_farey_walk", stub)
        if where == "env":
            monkeypatch.setenv("FAREY_CAP", "10^8")
            argv = ("list", "1")
        else:
            argv = ("--cap", "10^8", "list", "1")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out == "0/1 1/1\n"
        assert asked == [cli.MAX_CAP] == [10**8]

    @pytest.mark.parametrize(
        "argv", [("triple", "1", "10^5000"), ("next", "1/3", "10^5000")]
    )
    def test_integers_past_the_print_limit_are_refused(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert f"more than {DIGIT_LIMIT} digits" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("triple", "1", "1" + "0" * DIGIT_LIMIT),
            ("cf", "1/1" + "0" * DIGIT_LIMIT),
            ("triple", "1", f"10^{DIGIT_LIMIT + 700}"),
        ],
        ids=["literal", "fraction-literal", "power"],
    )
    def test_one_message_for_the_digit_limit(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert f"has more than {DIGIT_LIMIT} digits" in err
        assert "cannot parse" not in err
        # The offending token is shortened, not echoed in full.
        assert len(err) < 200

    @pytest.mark.parametrize(
        "env, argv",
        [
            (None, ("cf", _LONG)),
            (None, ("list", _LONG)),
            (None, ("next", "1/3", _LONG)),
            (None, ("bench", f"1,{_LONG}")),
            (_LONG, ("list", "3")),
            (None, ("verify", _HUGE_NEGATIVE)),
            (None, ("bench", _HUGE_NEGATIVE)),
            (None, ("verify", "5", "--jobs", _HUGE_NEGATIVE)),
            (None, ("bench", "5", "--reps", _HUGE_NEGATIVE)),
            (None, ("--cap", _HUGE_NEGATIVE, "list", "3")),
            (None, ("cf", f"{_NINES}/1")),
            (None, ("next", f"1/{_NINES}", "5")),
            (None, (_NINES,)),
            (None, ("list", "3", _NINES)),
            (None, ("next", "1/2", _HUGE_NEGATIVE)),
            (None, ("triple", _HUGE_NEGATIVE, "5")),
            (None, ("list", _HUGE_NEGATIVE)),
            (None, ("triple", "5", "39", "--method", _LONG)),
            # repr puts a token holding ' in double quotes.
            (None, ("list", "' " * 3000)),
            # argparse joins unrecognized tokens raw: no run in them is long.
            (None, ("list", "3", "a " * 5000)),
        ],
        ids=[
            "cf", "list", "next", "bench", "env-cap",
            "verify-low", "bench-low", "jobs-low", "reps-low", "cap-low",
            "cf-outside", "next-nonmember", "command", "unrecognized",
            "next-order-low", "triple-num-low", "list-order-low", "method",
            "double-quoted", "unrecognized-words",
        ],
    )
    def test_long_tokens_are_shortened_in_messages(self, capsys, monkeypatch, env, argv):
        if env is None:
            monkeypatch.delenv("FAREY_CAP", raising=False)
        else:
            monkeypatch.setenv("FAREY_CAP", env)
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert len(err.encode()) < 200
        token = max((env or "", *argv), key=len)
        assert f"{token[:16]}..." in err

    def test_a_line_still_long_after_the_run_cuts_is_cut_whole(self, capsys):
        # "unrecognized arguments: " is 24 characters: a 176-character token
        # makes a 200-character message, kept as it is; one more is cut to
        # its first 100 and last 60 characters.
        head = "usage error: unrecognized arguments: "
        token = "ab " * 58 + "ab"
        assert run_cli(capsys, "list", "3", token) == (1, "", f"{head}{token}\n")
        code, out, err = run_cli(capsys, "list", "3", token + "c")
        assert (code, out) == (1, "")
        assert err == head + "ab " * 25 + "a..." + "ab " * 19 + "abc\n"

    def test_huge_power_is_refused_before_it_is_built(self, capsys):
        start = time.perf_counter()
        code, _, err = run_cli(capsys, "triple", "1", "2^1000000000000")
        assert code == 1
        assert "digits" in err
        assert time.perf_counter() - start < 5

    def test_integers_at_the_print_limit_are_answered(self, capsys):
        order = 10 ** (DIGIT_LIMIT - 1)
        code, out, _ = run_cli(capsys, "triple", "1", f"10^{DIGIT_LIMIT - 1}")
        assert code == 0
        assert out == f"0/1 1/{order} 1/{order - 1}\n"
        code, out, _ = run_cli(capsys, "--json", "next", "1/3", str(order))
        assert code == 0
        assert json.loads(out)["order"] == order

    def test_jobs_clamped_to_cpus_and_orders(self, capsys, monkeypatch):
        workers = []

        class InlinePool:
            def __init__(self, max_workers, **options):
                workers.append(max_workers)

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

            def shutdown(self, wait, cancel_futures):
                pass

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        huge = "1000000000"
        for max_order, expected in (("2", []), ("3", [2]), ("40", [2, 4])):
            _, want, _ = run_cli(capsys, "verify", max_order)
            code, out, _ = run_cli(capsys, "verify", max_order, "--jobs", huge)
            assert (code, out) == (0, want)
            assert workers == expected

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_verify_of_a_huge_max_order_stops_at_the_cap(self, capsys, monkeypatch, jobs):
        # range(2, 10^20 + 1) has no len(), and a pool fed every order at once
        # would queue without bound; each run must end at the cap instead.
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setattr(InlinePool, "submitted", 0)
        code, out, err = run_cli(capsys, "--cap", "60", "verify", "10^20", "--jobs", jobs)
        assert code == 2
        assert out == ""
        assert "cap of 60" in err
        assert InlinePool.submitted < 20

    def test_first_order_over_the_cap_is_a_linear_scan(self):
        # The least order n >= 2 with |F_n| > cap never falls as the cap grows.
        first = 2
        for cap in range(1, 501):
            while bulk._farey_length(first) <= cap:
                first += 1
            assert bulk._first_order_over(cap) == first, cap
        assert [bulk._first_order_over(cap) for cap in (1, 2, 25, 60, 400)] == [2, 2, 9, 14, 37]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_verify_past_the_cap_refuses_before_any_order(self, capsys, monkeypatch, jobs):
        def unreachable(order, cap):
            raise AssertionError(f"walked order {order}")

        monkeypatch.setattr(bulk, "_verify_order", unreachable)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setattr(InlinePool, "submitted", 0)
        code, out, err = run_cli(capsys, "verify", "10^100", "--jobs", jobs)
        assert (code, out) == (2, "")
        assert err == "error: F_5736 exceeds the cap of 10000000 terms\n"
        assert InlinePool.submitted == 0

    @pytest.mark.parametrize("cap", [1, 2, 60, 400])
    def test_verify_refuses_past_the_cap_with_the_line_the_walk_gives(self, capsys, monkeypatch, cap):
        first = bulk._first_order_over(cap)
        code, out, refused = run_cli(capsys, "--cap", str(cap), "verify", "10^6")
        assert (code, out) == (2, "")
        assert refused.startswith(f"error: F_{first} ")
        # With the search out of reach, the walk itself gets to that order.
        monkeypatch.setattr(bulk, "_first_order_over", lambda cap: 10**7)
        code, out, walked = run_cli(capsys, "--cap", str(cap), "verify", "10^6")
        assert (code, out, walked) == (2, "", refused)

    @pytest.mark.parametrize("cap", [60, 400])
    def test_verify_refuses_from_the_first_order_over_the_cap(self, capsys, monkeypatch, cap):
        first = bulk._first_order_over(cap)
        code, out, _ = run_cli(capsys, "--cap", str(cap), "verify", str(first - 1))
        assert code == 0 and out.startswith(f"OK: {first - 2} orders")
        monkeypatch.setattr(bulk, "_verify_order", lambda order, cap: pytest.fail(f"walked {order}"))
        code, out, err = run_cli(capsys, "--cap", str(cap), "verify", str(first))
        assert (code, out, err) == (2, "", f"error: F_{first} exceeds the cap of {cap} terms\n")

    def test_verify_within_the_bound_skips_the_search(self, capsys, monkeypatch):
        # 1 + 24 * 25 / 2 terms fit in the default cap, so no order can exceed it.
        def unreachable(cap):
            raise AssertionError("searched for the first order over the cap")

        monkeypatch.setattr(bulk, "_first_order_over", unreachable)
        assert run_cli(capsys, "verify", "24")[0] == 0

    def test_a_worker_that_dies_is_one_error_line(self, capsys, monkeypatch):
        shutdowns = []

        class DyingPool(InlinePool):
            """A pool whose every worker has died: each future raises."""

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_exception(BrokenProcessPool("a worker was terminated abruptly"))
                return future

            def shutdown(self, wait, cancel_futures):
                shutdowns.append((wait, cancel_futures))

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", DyingPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        code, out, err = run_cli(capsys, "verify", "40", "--jobs", "2")
        assert (code, out) == (1, "")
        assert err == "error: a verify worker died: a worker was terminated abruptly\n"
        assert shutdowns == [(True, True)]

    def test_help_returns_zero(self, capsys):
        code, out, err = run_cli(capsys, "--help")
        assert code == 0
        assert out.startswith("usage: farey")
        assert err == ""

    # The usage line argparse builds for each command, at a width that
    # keeps it on one line.
    USAGE = {
        "list": "usage: farey list [-h] [--json] [--cap TERMS] order",
        "triple": "usage: farey triple [-h] [--method {inverse,chain,cf,oracle}] [--json]"
        " [--cap TERMS] num order",
        "next": "usage: farey next [-h] [--json] [--cap TERMS] fraction order",
        "prev": "usage: farey prev [-h] [--json] [--cap TERMS] fraction order",
        "cf": "usage: farey cf [-h] [--json] [--cap TERMS] fraction",
        "chain": "usage: farey chain [-h] [--json] [--cap TERMS] fraction",
        "verify": "usage: farey verify [-h] [--jobs JOBS] [--json] [--cap TERMS] max_order",
        "bench": "usage: farey bench [-h] [--reps REPS] [--json] [--cap TERMS] orders",
    }

    @pytest.mark.parametrize("command", USAGE)
    def test_command_table_builds_each_usage_line(self, capsys, monkeypatch, command):
        assert list(self.USAGE) == list(cli._COMMANDS)
        monkeypatch.setenv("COLUMNS", "200")
        code, out, err = run_cli(capsys, command, "--help")
        assert (code, err) == (0, "")
        assert out.splitlines()[0] == self.USAGE[command]

    def test_json_flag_before_or_after_subcommand(self, capsys):
        _, before, _ = run_cli(capsys, "--json", "triple", "5", "39")
        _, after, _ = run_cli(capsys, "triple", "5", "39", "--json")
        assert before == after
        assert before.startswith("{")


class TestJsonCanonical:
    COMMANDS = [
        ("list", "6"),
        ("triple", "5", "39"),
        ("next", "9/25", "100"),
        ("prev", "9/25", "25"),
        ("cf", "9/25"),
        ("chain", "5/39"),
        ("verify", "12"),
        ("bench", "5", "--reps", "2"),
    ]

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: argv[0])
    def test_round_trip_is_byte_identical(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--json")
        assert code == 0
        assert err == ""
        line = out.rstrip("\n")
        assert "\n" not in line
        assert canonical(line) == line


# Tokens for the exit-code fuzz below.  Every integer the CLI would accept
# is small, so no example can ask for unbounded work: the big ones are all
# past the digit limit, malformed, or refused by the --cap every argv starts
# with (10^12 and 10^100 only ever reach queries that do not enumerate).
_HUGE = (
    "10^5000",
    "1" + "0" * DIGIT_LIMIT,
    "2^10^12",
    "2^1000000000000",
    f"{'9' * DIGIT_LIMIT}^2",
    f"2^{'1' * (DIGIT_LIMIT + 1)}",
)
_MALFORMED = (
    "", " ", "x", "1.5", "^", "10^", "^3", "-2^3", "1e9", "0x10", "1__0", "½", "--", _LONG,
    _HUGE_NEGATIVE,
)
_small_ints = st.integers(min_value=-3, max_value=60).map(str)
_int_tokens = st.one_of(
    _small_ints,
    st.sampled_from(_HUGE + _MALFORMED),
    st.sampled_from(("10^12", "10^20", "10^100")),
)
_cap_tokens = st.one_of(_small_ints, st.sampled_from(_HUGE + _MALFORMED))
_fraction_tokens = st.one_of(
    st.builds("{}/{}".format, _int_tokens, _int_tokens),
    st.sampled_from(("5/39", "9/25", "0/1", "1/1", "1/0", "2/1", "1/2/3", "/", "1/" + "7" * 100)),
)
_flags = st.one_of(
    st.sampled_from((["--json"], ["--help"], ["--bogus"], ["--jobs"], ["--method"])),
    st.builds(lambda m: ["--method", m], st.sampled_from(("chain", "cf", "oracle", "scan"))),
    st.builds(lambda f, t: [f, t], st.sampled_from(("--jobs", "--reps")), _int_tokens),
    st.builds(lambda t: ["--cap", t], _cap_tokens),
)
# Positional arguments of each subcommand: i an integer, f a fraction.
_SHAPES = {
    "list": "i",
    "triple": "ii",
    "next": "fi",
    "prev": "fi",
    "cf": "f",
    "chain": "f",
    "verify": "i",
    "bench": "i",
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from((*_SHAPES, "frob", None)))
    shape = _SHAPES.get(command, "")
    if draw(st.integers(0, 4)) == 0:  # now and then the wrong arguments
        shape = draw(st.text("if", max_size=3))
    args = [draw(_int_tokens if kind == "i" else _fraction_tokens) for kind in shape]
    flags = draw(st.lists(_flags, max_size=3))
    return ["--cap", "60", *([command] if command else []), *args, *sum(flags, [])]


class _FailingStdout(io.StringIO):
    """A stdout that takes ``room`` characters, then fails every write with
    the OSError of ``code`` (EPIPE makes it a BrokenPipeError)."""

    def __init__(self, room, code):
        super().__init__()
        self.room, self.code, self.failed = room, code, False

    def write(self, text):
        if self.failed or len(text) > self.room:
            self.failed = True
            raise OSError(self.code, os.strerror(self.code))
        self.room -= len(text)
        return super().write(text)


# None for a stdout that takes everything, else (room, errno) of a failing one.
_stdouts = st.one_of(
    st.none(), st.tuples(st.integers(0, 400), st.sampled_from((errno.EPIPE, errno.ENOSPC)))
)


def test_exit_code_contract_holds_for_random_argv(monkeypatch):
    """Any argv ends in 0, 1, 2 or 3, never in an exception, and explains
    itself on stderr whenever it does not succeed, unless the reader closed
    the pipe; also when stdout fails part-way.  stderr stays short."""
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.delenv("FAREY_CAP", raising=False)

    @settings(max_examples=300, deadline=None, database=None)
    @given(_argv(), _stdouts)
    def check(argv, stdout):
        InlinePool.submitted = 0
        out = io.StringIO() if stdout is None else _FailingStdout(*stdout)
        err = io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2, 3)
        pipe_broke = stdout is not None and stdout[1] == errno.EPIPE and out.failed
        if code != 0 and not pipe_broke:
            assert err.getvalue().strip()
        assert len(err.getvalue().encode()) < 300

    try:
        check()
    finally:
        InlinePool.submitted = 0


class TestPlainParse:
    """A plain argv is parsed from the command table without argparse, into
    the namespace argparse would give; any other argv goes to argparse."""

    def test_a_plain_parse_is_the_argparse_parse(self):
        @settings(max_examples=500, deadline=None, database=None)
        @given(_argv())
        def check(argv):
            plain = cli._plain(argv)
            if plain is not None:
                assert vars(plain) == vars(cli.build_parser().parse_args(argv))

        check()

    @pytest.mark.parametrize(
        "argv",
        [
            "triple 5 39",
            "--json triple 5 39 --json",
            "--cap 5 triple 5 --method cf 39 --cap 7",
            "next 9/25 100",
            "prev 9/25 25",
            "cf 9/25",
            "chain 5/39",
            "list 10^2",
            "verify 12 --jobs 2",
            "bench 5,10^12 --reps 2",
        ],
    )
    def test_a_plain_argv_is_parsed_from_the_table(self, argv):
        plain = cli._plain(argv.split())
        assert plain is not None
        assert vars(plain) == vars(cli.build_parser().parse_args(argv.split()))

    @pytest.mark.parametrize(
        "argv",
        [
            "triple 5 39 --meth chain",
            "triple 5 39 --method=cf",
            "--js triple 5 39",
            "triple 5 -- 39",
            "triple 5",
            "triple 5 39 7",
            "list -3",
            "--help",
            "triple 5 39 -h",
            "--cap 0 triple 5 39",
            "triple 5 39 --method scan",
            "triple 5 39 --method",
            "triple 5 39 --jobs 2",
            "frob 5",
            "",
            # argparse refuses a flag value that looks like a flag but not
            # like a negative number, whatever _parse_count makes of it.
            "bench 5 --reps -1_0",
        ],
    )
    def test_anything_else_goes_to_argparse(self, argv):
        assert cli._plain(argv.split()) is None


class _Sink:
    """Stands in for stdout and keeps only a byte count and a hash of what
    it is given, so the output itself holds no memory."""

    def __init__(self):
        self.size = 0
        self.hash = hashlib.sha256()

    def write(self, text):
        data = text.encode()
        self.size += len(data)
        self.hash.update(data)
        return len(text)

    def flush(self):
        pass


def _traced_run(argv):
    """(exit code, sink, peak traced bytes) of main(argv) writing to a _Sink;
    a small run of the same command first loads what it imports."""
    with redirect_stdout(_Sink()):
        main([argv[0], "3"])
    sink = _Sink()
    with redirect_stdout(sink):
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return code, sink, peak


class TestConstantMemory:
    """list and verify hold O(1) terms, whatever the order."""

    def test_list_2000_peaks_under_2_mib(self):
        code, sink, peak = _traced_run(["list", "2000"])
        assert code == 0
        terms = iterate_farey(2000)
        first = str(next(terms)).encode()
        want, size = hashlib.sha256(first), len(first)
        for term in terms:
            piece = f" {term}".encode()
            want.update(piece)
            size += len(piece)
        want.update(b"\n")
        assert (sink.size, sink.hash.hexdigest()) == (size + 1, want.hexdigest())
        assert peak < 2 * 2**20

    def test_verify_peak_does_not_grow_with_the_order(self):
        peaks = {}
        for order in (60, 120):
            code, sink, peaks[order] = _traced_run(["verify", str(order)])
            line = f"OK: {order - 1} orders, {totient_sum(2, order):,} triples, 0 mismatches\n"
            assert code == 0
            assert sink.hash.hexdigest() == hashlib.sha256(line.encode()).hexdigest()
        assert peaks[120] <= 1.5 * peaks[60], peaks


REPO_ROOT = Path(__file__).resolve().parent.parent


def _run_or_fail(what, argv, **kwargs):
    proc = subprocess.run(argv, capture_output=True, text=True, **kwargs)
    if proc.returncode != 0:
        pytest.fail(f"{what} failed (exit {proc.returncode}):\n{proc.stderr}")


class TestInstalledEntryPoints:
    def _env(self):
        env = dict(os.environ)
        env.pop("FAREY_CAP", None)
        return env

    def _script_env(self):
        # Without PYTHONPATH, so the install alone has to resolve farey.
        env = self._env()
        env.pop("PYTHONPATH", None)
        return env

    @pytest.fixture(scope="class")
    def farey_exe(self, tmp_path_factory):
        """Build the ``farey`` console script from this checkout and return its path.

        The project files are copied to a temporary tree, so nothing is
        written into the checkout, and installed in develop mode into a venv
        that sees the system site-packages. Develop mode needs neither pip nor
        the ``wheel`` package, so this works offline with an old setuptools.
        """
        pytest.importorskip("setuptools")
        tree = tmp_path_factory.mktemp("farey-install")
        for name in ("pyproject.toml", "README.md"):
            shutil.copy2(REPO_ROOT / name, tree / name)
        shutil.copytree(
            REPO_ROOT / "src",
            tree / "src",
            ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"),
        )
        venv = tree / "venv"
        env = self._script_env()
        _run_or_fail(
            "venv creation",
            [sys.executable, "-m", "venv", "--system-site-packages", "--without-pip", venv],
            env=env,
        )
        bindir = venv / "bin"
        # An inherited PYTHONPATH pointing at src/ makes develop skip
        # easy-install.pth, and the script then cannot find the package.
        _run_or_fail(
            "develop install",
            [bindir / "python", "-c", "from setuptools import setup; setup()", "develop"],
            cwd=tree,
            env=env,
        )
        exe = shutil.which("farey", path=bindir)
        assert exe is not None, f"console script 'farey' was not generated in {bindir}"
        return exe

    def test_console_script(self, farey_exe):
        proc = subprocess.run(
            [farey_exe, "--json", "triple", "5", "39"],
            capture_output=True,
            text=True,
            env=self._script_env(),
        )
        assert proc.returncode == 0
        assert proc.stdout == '{"center":"5/39","left":"1/8","order":39,"right":"4/31"}\n'

    def test_python_dash_m(self):
        proc = subprocess.run(
            [sys.executable, "-m", "farey", "next", "9/25", "100"],
            capture_output=True,
            text=True,
            env=self._env(),
        )
        assert proc.returncode == 0
        assert proc.stdout == "31/86 (l=3)\n"

    def test_run_freezes_the_heap_and_atexit_still_runs(self):
        # run() freezes the heap so that the interpreter's exit skips its
        # collection sweep; a handler registered before the command still runs.
        probe = (
            "import atexit, gc, runpy, sys\n"
            "atexit.register(lambda: print(gc.get_freeze_count() > 0, file=sys.stderr))\n"
            "runpy.run_module('farey', run_name='__main__', alter_sys=True)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe, "triple", "5", "39"],
            capture_output=True,
            text=True,
            env=_src_env(),
            timeout=60,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1/8 5/39 4/31\n", "True\n")

    def test_a_profiler_around_python_dash_m_still_reports(self):
        # No entry point ends the process before a wrapper's own code runs:
        # cProfile prints its table after farey has answered.
        proc = subprocess.run(
            [sys.executable, "-m", "cProfile", "-m", "farey", "triple", "5", "39"],
            capture_output=True,
            text=True,
            env=_src_env(),
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("1/8 5/39 4/31\n")
        assert " function calls " in proc.stdout

    def test_main_in_process_leaves_the_collector_as_it_was(self, capsys):
        before = (gc.get_freeze_count(), gc.isenabled())
        assert main(["triple", "5", "39"]) == 0
        assert capsys.readouterr().out == "1/8 5/39 4/31\n"
        assert (gc.get_freeze_count(), gc.isenabled()) == before

    def test_the_console_script_is_the_shared_entry_point(self):
        # Read with a regex: tomllib is missing on the 3.10.7 floor.
        pyproject = (REPO_ROOT / "pyproject.toml").read_text()
        script = re.search(r'^farey = "([\w.]+):(\w+)"$', pyproject, re.MULTILINE)
        assert script.groups() == ("farey.__main__", "run")
        proc = subprocess.run(
            [sys.executable, "-c", "import farey.__main__ as m; print(callable(m.run))"],
            capture_output=True,
            text=True,
            env=_src_env(),
            timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (0, "True\n")

    def test_python_dash_m_farey_cli_ends_without_a_traceback(self):
        # Run as __main__, cli.py is a second copy beside the farey.cli that
        # farey.bulk imports, so it refuses to serve the command: the copy's
        # main would not catch an OutputError raised by bulk's real farey.cli.
        proc = subprocess.run(
            [sys.executable, "-m", "farey.cli", "triple", "5"],
            capture_output=True,
            text=True,
            env=_src_env(),
            timeout=60,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == "error: run the command line as `python -m farey` or `farey`\n"

    def test_e2e_script(self, farey_exe):
        # scripts/e2e.sh pins every command's bytes and exit code through
        # both entry points, the console script and `python3 -m farey`.
        env = self._script_env()
        env["PATH"] = os.pathsep.join([str(Path(farey_exe).parent), env.get("PATH", "")])
        proc = subprocess.run(
            ["bash", str(REPO_ROOT / "scripts" / "e2e.sh")],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stdout
        assert proc.stdout.splitlines()[-1] == "e2e: 43 passed, 0 failed"

    def test_console_script_exit_codes(self, farey_exe):
        proc = subprocess.run(
            [farey_exe, "triple", "2", "4"], capture_output=True, text=True, env=self._script_env()
        )
        assert proc.returncode == 1
        proc = subprocess.run(
            [farey_exe, "--cap", "10", "list", "5"],
            capture_output=True,
            text=True,
            env=self._script_env(),
        )
        assert proc.returncode == 2


def _src_env():
    """The environment of a child interpreter that imports farey from this
    checkout's src/, with no enumeration cap override."""
    env = dict(os.environ)
    env.pop("FAREY_CAP", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")]))
    return env


# Runs `python -m farey ARGV` through runpy, then names on stderr every
# module it loaded.
_MODULES_PROBE = (
    "import runpy, sys\n"
    "try:\n"
    "    runpy.run_module('farey', run_name='__main__', alter_sys=True)\n"
    "finally:\n"
    "    print(*sorted(sys.modules), file=sys.stderr)\n"
)
_ON_DEMAND = (
    "farey.triples",
    "farey.cf",
    "farey.oracle",
    "farey.neighbors",
    "farey.bulk",
    "concurrent.futures",
    "json",
    "argparse",
    "locale",
)


def _probe_modules(argv, *options):
    """Run _MODULES_PROBE on ``argv`` in a child interpreter started with ``options``."""
    return subprocess.run(
        [sys.executable, *options, "-c", _MODULES_PROBE, *argv],
        capture_output=True,
        text=True,
        env=_src_env(),
        timeout=60,
    )


class TestImportsOnDemand:
    """A command imports, and so compiles, only the modules it runs."""

    @pytest.mark.parametrize(
        "argv, loaded",
        [
            pytest.param(argv, loaded, id=" ".join(argv))
            for argv, loaded in (
                (["triple", "5", "39"], ("farey.triples",)),
                (["triple", "9", "25", "--method", "cf"], ("farey.triples",)),
                (["chain", "5/39"], ("farey.triples",)),
                # The neighbor queries share the inverse kernel in
                # farey.fraction, so they never compile farey.triples.
                (["next", "9/25", "100"], ("farey.neighbors",)),
                (["prev", "9/25", "25"], ("farey.neighbors",)),
                # The expansion needs only fraction._euclid.
                (["cf", "9/25"], ("farey.cf",)),
                # The walk builds no triple, so list never compiles farey.triples.
                (["list", "5"], ("farey.bulk", "farey.oracle")),
                (
                    ["verify", "12"],
                    ("farey.bulk", "farey.oracle", "farey.neighbors", "farey.triples"),
                ),
            )
        ],
    )
    def test_a_query_loads_only_its_own_modules(self, argv, loaded):
        proc = _probe_modules(argv)
        assert proc.returncode == 0, proc.stderr
        modules = set(proc.stderr.split())
        assert "farey.cli" in modules
        assert sorted(m for m in _ON_DEMAND if m in modules) == sorted(loaded)

    @pytest.mark.parametrize(
        "argv, route",
        [
            pytest.param(argv, route, id=" ".join(argv))
            for argv, route in (
                (["triple", "5", "39"], "farey.triples"),
                (["chain", "5/39"], "farey.triples"),
                (["next", "9/25", "100"], "farey.neighbors"),
                (["prev", "9/25", "25"], "farey.neighbors"),
                (["cf", "9/25"], "farey.cf"),
            )
        ],
    )
    def test_a_one_shot_loads_exactly_its_modules(self, argv, route):
        # Every one-shot loads the package, the command line, the core and
        # its own route module, and nothing else of farey.
        proc = _probe_modules(argv)
        assert proc.returncode == 0, proc.stderr
        loaded = sorted(m for m in proc.stderr.split() if m.split(".")[0] == "farey")
        assert loaded == sorted(["farey", "farey.cli", "farey.fraction", route])

    def test_the_error_type_loads_the_core_alone(self):
        probe = (
            "import sys\n"
            "from farey import DomainError\n"
            "print(sorted(m for m in sys.modules if m.startswith('farey.')))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=_src_env(), check=True
        )
        assert proc.stdout == "['farey.fraction']\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["triple", "5", "39"],
            ["chain", "5/39"],
            ["next", "9/25", "100"],
            ["prev", "9/25", "25"],
            ["cf", "9/25"],
        ],
        ids=" ".join,
    )
    def test_a_query_imports_no_future(self, argv):
        proc = _probe_modules(argv)
        assert proc.returncode == 0, proc.stderr
        assert "__future__" not in proc.stderr.split()

    @pytest.mark.parametrize(
        "argv",
        [["list", "5"], ["verify", "12"], ["triple", "9", "25", "--method", "oracle"]],
        ids=" ".join,
    )
    def test_a_walk_loads_no_collections_abc(self, argv):
        # -S: the site set-up of some installs loads collections.abc itself.
        proc = _probe_modules(argv, "-S")
        assert proc.returncode == 0, proc.stderr
        assert "farey.oracle" in proc.stderr.split()
        assert "collections.abc" not in proc.stderr.split()

    def test_each_public_name_cli_serves_is_the_packages(self):
        for name in farey.__all__:
            assert getattr(cli, name) is getattr(farey, name), name

    def test_expansions_load_no_triples(self):
        probe = (
            "import sys\n"
            "import farey.cf as cf\n"
            "from farey.fraction import Fraction\n"
            "x = cf.cf_expand(Fraction(5, 39))\n"
            "print(x, cf.cf_evaluate(x), cf.cf_canonicalize(cf.ContinuedFraction((0, 7, 1, 3, 1))))\n"
            "print('farey.triples' in sys.modules)\n"
            "import farey.triples as triples\n"
            "t = triples.triple_via_cf(Fraction(5, 39))\n"
            "print(t.left, t.center, t.right, t.order)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=_src_env(), check=True
        )
        assert proc.stdout == "[0,7,1,4] 5/39 [0,7,1,4]\nFalse\n1/8 5/39 4/31 39\n"

    def test_a_usage_error_loads_argparse_for_its_message(self):
        proc = _probe_modules(["triple", "5"])
        assert proc.returncode == 1
        message, _, modules = proc.stderr.partition("\n")
        assert message == "usage error: the following arguments are required: order"
        assert "argparse" in modules.split()

    def test_help_loads_argparse(self):
        proc = _probe_modules(["--help"])
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: farey [-h] [--json] [--cap TERMS] command ...\n")
        assert "argparse" in proc.stderr.split()

    def test_a_domain_error_reports_without_argparse(self):
        proc = _probe_modules(["triple", "6", "10"])
        assert proc.returncode == 1
        message, _, modules = proc.stderr.partition("\n")
        assert message == "error: 6/10 not irreducible"
        assert "argparse" not in modules.split()

    def test_a_report_patched_on_cli_receives_the_error(self, monkeypatch):
        lines = []

        def spy(kind, message):
            lines.append((kind, str(message)))

        monkeypatch.setattr(cli, "_report", spy)
        assert main(["triple", "6", "10"]) == 1
        assert lines == [("error", "6/10 not irreducible")]

    def test_only_bulk_and_the_main_module_import_cli(self):
        # bulk reaches back so that patching farey.cli.<name> reaches it; any
        # other importer of farey.cli would be a cycle through the command line.
        importers = set()
        for path in (REPO_ROOT / "src" / "farey").glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    package = "farey" if node.level else ""
                    base = ".".join(filter(None, (package, node.module)))
                    names = [base] + [f"{base}.{alias.name}" for alias in node.names]
                else:
                    continue
                if "farey.cli" in names:
                    importers.add(path.name)
        assert importers == {"bulk.py", "__main__.py"}

    def test_bare_package_import_loads_no_submodule(self):
        probe = "import sys, farey; print(sorted(m for m in sys.modules if m.startswith('farey.')))"
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=_src_env(), check=True
        )
        assert proc.stdout == "[]\n"


def _stdout_env(buffering):
    """_src_env with stdout block buffered, as by default, or unbuffered."""
    env = _src_env()
    env.pop("PYTHONUNBUFFERED", None)
    if buffering == "unbuffered":
        env["PYTHONUNBUFFERED"] = "1"
    return env


class TestOutputFailures:
    """Results that cannot be written end in exit code 1, never a traceback.

    With stdout block buffered a write failure surfaces at the last flush,
    unbuffered at the write itself; both are run."""

    @pytest.mark.parametrize("buffering", ["buffered", "unbuffered"])
    def test_reader_closing_the_pipe_early_exits_quietly(self, buffering):
        proc = subprocess.Popen(
            [sys.executable, "-m", "farey", "list", "500"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=_stdout_env(buffering),
        )
        head = proc.stdout.read(20)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert head == b"0/1 1/500 1/499 1/49"
        assert err == b""

    @pytest.mark.parametrize("buffering", ["buffered", "unbuffered"])
    def test_reader_gone_before_the_first_write_exits_quietly(self, buffering):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "farey", "triple", "5", "39"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=_stdout_env(buffering),
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr == b""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("buffering", ["buffered", "unbuffered"])
    def test_full_device_is_reported(self, buffering):
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "farey", "triple", "5", "39"],
                stdout=full,
                stderr=subprocess.PIPE,
                text=True,
                env=_stdout_env(buffering),
                timeout=60,
            )
        assert proc.returncode == 1
        assert proc.stderr == "error: cannot write output: [Errno 28] No space left on device\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("buffering", ["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", [["--help"], ["triple", "--help"]], ids=" ".join)
    def test_help_to_a_full_device_is_reported(self, buffering, argv):
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "farey", *argv],
                stdout=full,
                stderr=subprocess.PIPE,
                text=True,
                env=_stdout_env(buffering),
                timeout=60,
            )
        assert proc.returncode == 1
        assert proc.stderr == "error: cannot write output: [Errno 28] No space left on device\n"

    def test_closed_stdout_is_reported(self):
        proc = subprocess.run(
            ["sh", "-c", '"$0" -m farey verify 30 --json >&-', sys.executable],
            stderr=subprocess.PIPE,
            text=True,
            env=_src_env(),
            timeout=60,
        )
        assert proc.returncode == 1
        assert proc.stderr == "error: cannot write output: stdout is closed\n"

    @pytest.mark.parametrize("argv", ["--help", "triple --help"])
    def test_help_to_a_closed_stdout_is_reported(self, argv):
        proc = subprocess.run(
            ["sh", "-c", f'"$0" -m farey {argv} >&-', sys.executable],
            stderr=subprocess.PIPE,
            text=True,
            env=_src_env(),
            timeout=60,
        )
        assert proc.returncode == 1
        assert proc.stderr == "error: cannot write output: stdout is closed\n"

    @pytest.mark.parametrize("argv, code", [("--json --cap 10 list 5", 2), ("triple 2 4", 1)])
    def test_closed_stderr_keeps_diagnostics_off_stdout(self, argv, code):
        # With fd 2 closed, sys.stderr is None: the diagnostic is dropped.
        proc = subprocess.run(
            ["sh", "-c", f'"$0" -m farey {argv} 2>&-', sys.executable],
            stdout=subprocess.PIPE,
            text=True,
            env=_src_env(),
            timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (code, "")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_stderr_keeps_the_exit_code(self):
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "farey", "--cap", "10", "list", "5"],
                stdout=subprocess.PIPE,
                stderr=full,
                text=True,
                env=_src_env(),
                timeout=60,
            )
        assert (proc.returncode, proc.stdout) == (2, "")

    @pytest.mark.skipif(not hasattr(os, "killpg"), reason="needs process groups")
    @pytest.mark.parametrize(
        "redirect",
        [
            pytest.param(
                "2>/dev/full",
                marks=pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full"),
            ),
            "2>&-",
        ],
    )
    def test_interrupt_with_an_unwritable_stderr_exits_130(self, redirect):
        proc = subprocess.Popen(
            ["sh", "-c", f'exec "$0" -m farey verify 2000 {redirect}', sys.executable],
            stdout=subprocess.PIPE,
            text=True,
            env=_src_env(),
            start_new_session=True,
            # As in TestInterrupt: an inherited SIG_IGN would keep Python's
            # KeyboardInterrupt handler from being installed in the child.
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
        )
        try:
            time.sleep(1.5)
            assert proc.poll() is None
            os.killpg(proc.pid, signal.SIGINT)
            out, _ = proc.communicate(timeout=60)
            assert (proc.returncode, out) == (130, "")
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.communicate()

    @pytest.mark.parametrize(
        "error, message",
        [
            (BrokenPipeError(32, "Broken pipe"), ""),
            (OSError(28, "No space left on device"), "error: cannot write output: [Errno 28] No space left on device\n"),
        ],
        ids=["broken-pipe", "no-space"],
    )
    @pytest.mark.parametrize("argv", [("list", "5"), ("--json", "triple", "5", "39")], ids=" ".join)
    def test_in_process_write_failure(self, error, message, argv):
        class Failing(io.StringIO):
            def write(self, text):
                raise error

        err = io.StringIO()
        with redirect_stdout(Failing()), redirect_stderr(err):
            code = main(list(argv))
        assert code == 1
        assert err.getvalue() == message


@pytest.mark.skipif(not hasattr(os, "killpg"), reason="needs process groups")
class TestInterrupt:
    """SIGINT, as a terminal's Ctrl-C sends it to the whole process group,
    ends a command with 130 and a one-line note, and leaves no worker."""

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_sigint_exits_130_and_leaves_no_process(self, jobs):
        proc = subprocess.Popen(
            [sys.executable, "-m", "farey", "verify", "400", "--jobs", jobs],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=_src_env(),
            start_new_session=True,
            # An inherited SIG_IGN would keep Python's KeyboardInterrupt
            # handler from being installed in the child.
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
        )
        group = proc.pid
        try:
            # Long enough to be past start-up and, with --jobs 2, to have the
            # pool running; verify 400 takes far longer than this.
            time.sleep(1.5)
            assert proc.poll() is None
            os.killpg(group, signal.SIGINT)
            out, err = proc.communicate(timeout=60)
            assert proc.returncode == 130
            assert (out, err) == ("", "interrupted\n")
            with pytest.raises(ProcessLookupError):
                os.killpg(group, 0)
        finally:
            try:
                os.killpg(group, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.communicate()


@pytest.mark.skipif(not hasattr(os, "killpg"), reason="needs process groups")
class TestParentKilled:
    """A signal to the parent alone, as a supervisor that signals the main
    pid sends it, ends `verify --jobs` without leaving a worker behind, under
    the platform's default start method and under the two others."""

    @pytest.mark.parametrize(
        "sig, method",
        [(signal.SIGTERM, None), (signal.SIGKILL, None), (signal.SIGKILL, "spawn"),
         (signal.SIGKILL, "forkserver")],
        ids=["SIGTERM", "SIGKILL", "SIGKILL-spawn", "SIGKILL-forkserver"],
    )
    def test_workers_follow_their_parent(self, sig, method):
        run = ["-m", "farey"]
        if method is not None:
            start = f"import multiprocessing as m; m.set_start_method({method!r}); "
            run = ["-c", start + "from farey.cli import main; raise SystemExit(main())"]
        proc = subprocess.Popen(
            [sys.executable, *run, "verify", "400", "--jobs", "2"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=_src_env(),
            start_new_session=True,
        )
        group = proc.pid
        try:
            time.sleep(1.5)
            assert proc.poll() is None
            os.kill(proc.pid, sig)
            # Reaped here, the parent leaves the group to its workers alone.
            assert proc.wait(timeout=5) == -sig
            deadline = time.monotonic() + 5
            while True:
                try:
                    os.killpg(group, 0)
                except ProcessLookupError:
                    break
                assert time.monotonic() < deadline, "a worker outlived its parent"
                time.sleep(0.05)
            # No worker holds the pipes any more, so both reach EOF.
            proc.communicate(timeout=5)
        finally:
            try:
                os.killpg(group, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.communicate()

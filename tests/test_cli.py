"""End-to-end tests for the command-line surface.

Most tests drive main() in process and inspect captured stdout/stderr plus
the returned exit code. A few smoke tests run real processes: the ``farey``
console script, which setuptools builds from this checkout's
``[project.scripts]`` into a temporary venv, and ``python -m farey``, which
runs against ``src/`` on ``PYTHONPATH``.
"""

import concurrent.futures
import io
import json
import os
import shutil
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from math import gcd
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import farey.cli as cli
from farey import FareySequence, Fraction, right_neighbor
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

    def __init__(self, max_workers):
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
            assert out.startswith("FAIL:")
            assert f"{method} triple at" in out
            assert f"--method {method})" in out
            assert err == ""

    def test_detects_planted_triple_mutation_json(self, capsys, monkeypatch):
        real = cli.triple

        def mutant(n, order):
            return real(1, order) if n != 1 else real(n, order)

        monkeypatch.setattr(cli, "triple", mutant)
        code, out, _ = run_cli(capsys, "verify", "8", "--json")
        assert code == 3
        payload = json.loads(out)
        assert payload["ok"] is False
        assert payload["mismatches"] == 1
        assert "reproduce" in payload["failure"]

    def test_detects_planted_successor_mutation(self, capsys, monkeypatch):
        def mutant(x, order):
            r = right_neighbor(x, order)
            if x.num != 0 and r.neighbor != Fraction(1, 1):
                return right_neighbor(r.neighbor, order)
            return r

        monkeypatch.setattr(cli, "right_neighbor", mutant)
        code, out, _ = run_cli(capsys, "verify", "8")
        assert code == 3
        assert out.startswith("FAIL:")
        assert "successor of" in out


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

    def test_rejects_bad_orders(self, capsys):
        code, _, err = run_cli(capsys, "bench", "5,x")
        assert code == 1
        assert "cannot parse order list" in err
        code, _, err = run_cli(capsys, "bench", "1")
        assert code == 1
        assert "order must be >= 2" in err


class TestExitCodesAndCap:
    def test_usage_errors(self, capsys):
        assert run_cli(capsys)[0] == 1
        assert run_cli(capsys, "frobnicate", "1")[0] == 1
        assert run_cli(capsys, "list", "ten")[0] == 1

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

    def test_cap_reaches_oracle_method(self, capsys):
        code, _, err = run_cli(
            capsys, "--cap", "100", "triple", "9", "25", "--method", "oracle"
        )
        assert code == 2
        assert "cap" in err

    def test_exponent_notation_for_cap(self, capsys):
        assert run_cli(capsys, "--cap", "10^2", "list", "9")[0] == 0

    @pytest.mark.parametrize("cap", ["100000001", "10^9", "10^100", f"10^{DIGIT_LIMIT - 1}"])
    @pytest.mark.parametrize("where", ["flag", "env"])
    def test_caps_above_the_ceiling_are_refused(self, capsys, monkeypatch, cap, where):
        def unreachable(*args):
            raise AssertionError("enumerated past a refused cap")

        monkeypatch.setattr(cli, "enumerate_farey", unreachable)
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
            return FareySequence(order, (Fraction(0, 1), Fraction(1, 1)))

        monkeypatch.setattr(cli, "enumerate_farey", stub)
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
            def __init__(self, max_workers):
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

    def test_help_returns_zero(self, capsys):
        code, out, err = run_cli(capsys, "--help")
        assert code == 0
        assert out.startswith("usage: farey")
        assert err == ""

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
_MALFORMED = ("", " ", "x", "1.5", "^", "10^", "^3", "-2^3", "1e9", "0x10", "1__0", "½", "--")
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


def test_exit_code_contract_holds_for_random_argv(monkeypatch):
    """Any argv ends in 0, 1, 2 or 3, never in an exception, and explains
    itself on stderr whenever it does not succeed."""
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.delenv("FAREY_CAP", raising=False)

    @settings(max_examples=300, deadline=None, database=None)
    @given(_argv())
    def check(argv):
        InlinePool.submitted = 0
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2, 3)
        if code != 0:
            assert err.getvalue().strip()

    try:
        check()
    finally:
        InlinePool.submitted = 0


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

"""The benchmark's own tests: its checker catches planted wrong answers, its
inputs and counts follow the seed exactly, and its output keeps the shape
BENCHMARK.json promises.

Run from the repository root:  python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import farey  # noqa: E402
import farey.cli  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import sections  # noqa: E402
from spans import Tracer  # noqa: E402



class Planted:
    """The real package with chosen answers made wrong."""

    def __init__(self, *, swap_triple=False, rung=0):
        self.swap_triple = swap_triple
        self.rung = rung

    def __getattr__(self, name):
        return getattr(farey, name)

    def triple(self, n, order):
        t = farey.triple(n, order)
        if self.swap_triple:
            return SimpleNamespace(left=t.right, center=t.center, right=t.left)
        return t

    def right_neighbor(self, x, order):
        r = farey.right_neighbor(x, order)
        if not self.rung:
            return r
        # One rung too far up (or down) the mediant ladder.
        num = r.neighbor.num + self.rung * x.num
        den = r.neighbor.den + self.rung * x.den
        return SimpleNamespace(neighbor=SimpleNamespace(num=num, den=den), steps=r.steps + self.rung)


def _rounds(lib, queries):
    tally = sections.Tally()
    loop = sections.QueryLoop(lib, queries, tally)
    for j in range(len(queries)):
        loop.round(j)
    return tally


@pytest.mark.parametrize("workload", list(inputs.WORKLOADS))
def test_real_answers_pass(workload):
    tally = _rounds(farey, inputs.build(workload, 3).queries[:20])
    assert tally.attempted > 0 and tally.failed == 0, tally.reasons


def test_swapped_triple_sides_land_in_ops_failed():
    queries = inputs.build("query-1e12", 3).queries[:20]
    tally = _rounds(Planted(swap_triple=True), queries)
    assert tally.failed == len(queries)
    assert "not unimodular" in tally.reasons[0]


@pytest.mark.parametrize("rung", [1, -1])
def test_off_by_one_neighbor_lands_in_ops_failed(rung):
    # Every query here has l >= 1, so one rung down is still a fraction.
    queries = [q for q in inputs.build("query-1e12", 3).queries[:200]
               if inputs.ladder_steps(q.n, q.order, q.m_next) >= 1][:20]
    tally = _rounds(Planted(rung=rung), queries)
    assert tally.failed == len(queries)
    assert "not adjacent" in tally.reasons[0]


def test_wrong_cli_output_lands_in_ops_failed():
    tally = sections.Tally()
    tally.record(checks.check_command(("triple", "5", "39"), 0, "4/31 5/39 1/8\n"))
    tally.record(checks.check_command(("next", "9/25", "100"), 0, "40/111 (l=4)\n"))
    tally.record(checks.check_command(("next", "9/25", "100"), 0, "31/86 (l=2)\n"))
    tally.record(checks.check_command(("prev", "9/25", "25"), 0, "4/11\n"))
    tally.record(checks.check_command(("cf", "9/25"), 0, "[0,2,1,3,1,1]\n"))
    tally.record(checks.check_command(("chain", "5/39"), 0, "rho=[7] terminal=4 k=1\n"))
    tally.record(checks.check_command(("triple", "5", "39"), 1, ""))
    tally.record(checks.check_verify(40, 0, '{"ok":true,"orders":39,"triples":488}'))
    assert tally.failed == tally.attempted == 8


def test_goldens_and_cli_outputs_pass():
    for argv, want in inputs.GOLDENS:
        assert checks.check_command(argv, 0, want + "\n") is None
    results = checks.check_goldens(lambda argv: sections.run_main(farey.cli.main, argv)[:2])
    assert results == [None] * len(inputs.GOLDENS)


def test_verify_counts_match_the_cli():
    # The package's own `verify` output at these orders, and |F_5| = 11.
    assert inputs.verify_counts(60)["triples"] == 1101
    assert inputs.verify_counts(100)["triples"] == 3043
    assert inputs.verify_counts(5)["terms"] == 3 + 5 + 7 + 11
    code, out, _ = sections.run_main(farey.cli.main, ["--json", "verify", "30"])
    assert checks.check_verify(30, code, out) is None


def _digest_in_fresh_process(workload, seed):
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import inputs; "
        "d = inputs.build(sys.argv[2], int(sys.argv[3])); "
        "print(d.digest(), inputs.counts(d, 128))"
    )
    return subprocess.run(
        [sys.executable, "-c", code, str(BENCH), workload, str(seed)],
        capture_output=True, text=True, check=True,
    ).stdout


@pytest.mark.parametrize("workload", list(inputs.WORKLOADS))
def test_same_seed_same_inputs_and_counts(workload):
    a, b = inputs.build(workload, 11), inputs.build(workload, 11)
    assert a.canonical() == b.canonical()
    assert inputs.counts(a, 128) == inputs.counts(b, 128)
    assert _digest_in_fresh_process(workload, 11) == f"{a.digest()} {inputs.counts(a, 128)}\n"
    c = inputs.build(workload, 12)
    assert c.canonical() != a.canonical()
    assert inputs.counts(c, 128) != inputs.counts(a, 128)


def test_traced_calls_repeat_exactly():
    queries = inputs.build("query-1e12", 5).queries
    runs = []
    for _ in range(2):
        tracer, tally = Tracer(), sections.Tally()
        sections.TracedQueries(farey, queries, tally, tracer).unit()
        assert tally.failed == 0, tally.reasons
        runs.append({name: row["calls"] for name, row in tracer.summary().items()})
    assert runs[0] == runs[1]
    sample = queries[: sections.TRACE_SAMPLE]
    assert runs[0]["triples.lift_step"] == sum(inputs.chain_length(q.n, q.order) for q in sample)


def test_self_time_excludes_children():
    tracer = Tracer()
    with tracer.span("outer", 1):
        tracer.call("inner", 1, sum, range(1000))
        tracer.call("inner", 1, sum, range(1000))
    with pytest.raises(ZeroDivisionError):
        tracer.call("broken", 2, divmod, 1, 0)
    summary = tracer.summary()
    outer = tracer.durations("outer")[0]
    assert summary["outer"]["self_ns"] == outer - sum(tracer.durations("inner"))
    assert summary["inner"]["calls"] == 2
    assert summary["broken"] == {"calls": 1, "exceptions": 1, "self_ns": tracer.durations("broken")[0]}


def _result(trace: int, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli-oneshot", "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_matches_benchmark_json(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in listed] == list(
        run.PER_LAYER if trace else run.END_TO_END
    )
    proc = _result(trace)
    assert proc.returncode == 0, proc.stderr
    meta_line, last = proc.stdout.strip().splitlines()[-2:]
    result = json.loads(last)
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for metric, want in zip(result["metrics"].values(), listed):
        assert metric["unit"] == want["unit"]
    # Plain decimal literals only: integers, or digits with a point.
    assert not re.search(r'"value":[^,}]*[eE]', last)
    meta = json.loads(meta_line)
    assert len(meta["inputs_sha256"]) == 64
    assert set(meta["run"]) == {"python", "platform", "commit", "cpu_count", "loadavg"}


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _result(0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""

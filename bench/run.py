"""Seeded benchmark of the farey package, end to end and layer by layer.

Run from the repository root:

    python3 bench/run.py --workload query-1e12 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Every run measures three closed-loop sections (library queries, an
in-process `verify` sweep, one-shot CLI processes) on inputs built from the
seed, checks every answer with integer arithmetic of its own, and prints two
lines: a JSON document with the run's metadata, input digest and exact counts,
then the result, one JSON object with the keys correct, attempted, failed
and metrics.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
makes a separate traced run and reports the per-layer ones, writing every
span to .bench_trace/.  ``--workload all`` runs every workload in turn in its
own process and prints each metric by name with its unit.

The package is imported from src/ next to this directory and from nowhere
else; without it the benchmark exits 1 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from time import perf_counter_ns

import checks
import inputs
import sections
from spans import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_trace"
SETUP_SHARE = 0.08  # of an untraced run, next to the workload's shares
WARMUP_NS = 300_000_000
# String hashing is randomized per process by default, and the best time of
# the same call then differs between processes by several percent.  Every
# interpreter the benchmark measures, itself included, runs with this seed.
HASH_SEED = "0"

# (name, unit, better): the order and names BENCHMARK.json lists.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("triple_p50_ns", "ns", "lower"),
    ("triple_p90_ns", "ns", "lower"),
    ("next_p50_ns", "ns", "lower"),
    ("next_p90_ns", "ns", "lower"),
    ("prev_p50_ns", "ns", "lower"),
    ("prev_p90_ns", "ns", "lower"),
    ("verify_pairs_per_s", "1/s", "higher"),
    ("oneshot_p50_ns", "ns", "lower"),
    ("oneshot_p90_ns", "ns", "lower"),
)

# Per-layer p50 metrics read straight off one span name's durations.
P50_SPANS = (
    ("triples.lift_step.p50_ns", "triples.lift_step"),
    ("triples.FareyTriple.p50_ns", "triples.FareyTriple"),
    ("triples.lift_chain.p50_ns", "triples.lift_chain"),
    ("triples.reduction_chain.p50_ns", "triples.reduction_chain"),
    ("cf.cf_expand.p50_ns", "cf.cf_expand"),
    ("cf.cf_evaluate.p50_ns", "cf.cf_evaluate"),
    ("cf.triple_via_cf.p50_ns", "cf.triple_via_cf"),
    ("neighbors.base_right_neighbor.p50_ns", "neighbors.base_right_neighbor"),
    ("neighbors.right_neighbor.p50_ns", "neighbors.right_neighbor"),
    ("neighbors.left_neighbor.p50_ns", "neighbors.left_neighbor"),
    ("fraction.Fraction.p50_ns", "fraction.Fraction"),
    ("cli.main.p50_ns", "cli.main"),
    ("python.bare_p50_ns", "process.bare"),
)
SPAN_NAMES = sections.QUERY_SPANS + sections.VERIFY_SPANS + sections.ONESHOT_SPANS

PER_LAYER = (
    *((name, "ns", "lower") for name, _ in P50_SPANS),
    ("neighbors.ladder.self_ns", "ns", "lower"),
    ("oracle.enumerate_farey.ns_per_term", "ns", "lower"),
    ("oracle.verify_properties.ns_per_term", "ns", "lower"),
    ("cli.import_ns", "ns", "lower"),
    ("farey.import_ns", "ns", "lower"),
    ("triples.chain_len.mean", "count", "lower"),
    ("neighbors.steps.mean", "count", "lower"),
    ("oracle.terms", "count", "lower"),
    ("cli.verify.pairs", "count", "lower"),
    ("trace.untraced_ops_per_s", "1/s", "higher"),
    ("trace.ops_per_s", "1/s", "higher"),
    ("trace.delta_ops_per_s", "1/s", "higher"),
    *(
        (f"span.{name}.{field}", unit, "lower")
        for name in SPAN_NAMES
        for field, unit in (("calls", "count"), ("exceptions", "count"), ("self_ns", "ns"))
    ),
)


def load_farey():
    """Import farey and farey.cli from SRC, refusing any other copy."""
    package = SRC / "farey"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"bench: no package source at {package}")
    sys.path.insert(0, str(SRC))
    import farey
    import farey.cli

    if Path(farey.__file__).resolve().parent != package:
        raise SystemExit(f"bench: imported farey from {farey.__file__}, not {package}")
    return farey, farey.cli.main


def child_env() -> dict[str, str]:
    """Environment of every process the benchmark starts: the package on
    the path from SRC only, no enumeration cap override, and a fixed hash
    seed (see main)."""
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "FAREY_CAP")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = HASH_SEED
    return env


def pct(values: list[int], p: int) -> int:
    """Nearest-rank p-th percentile; 0 for no values."""
    if not values:
        return 0
    ordered = sorted(values)
    return ordered[max(0, (p * len(ordered) + 99) // 100 - 1)]


def commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ")[0]
    except OSError:
        pass
    return "unknown"


def run_metadata() -> dict:
    return {
        "python": platform.python_version(),
        "platform": f"{platform.system()}-{platform.release()}-{platform.machine()}",
        "commit": commit(),
        "cpu_count": os.cpu_count(),
        "loadavg": [f"{v:.2f}" for v in os.getloadavg()],
    }


def result_line(correct: bool, tally, metrics: dict[str, tuple[str, str]]) -> str:
    """The result object.  Values are written as exact decimal literals made
    from integers, so no float ever rounds a measurement."""
    body = ",".join(
        f'{json.dumps(name)}:{{"value":{value},"unit":{json.dumps(unit)}}}'
        for name, (value, unit) in metrics.items()
    )
    return (
        f'{{"correct":{json.dumps(correct)},"attempted":{tally.attempted},'
        f'"failed":{tally.failed},"metrics":{{{body}}}}}'
    )


def check_goldens(cli_main, tally) -> None:
    for reason in checks.check_goldens(lambda argv: sections.run_main(cli_main, argv)[:2]):
        tally.record(reason)


def setup_probe(workload: str, seed: int) -> int:
    """What one set-up does, in a fresh interpreter: import the package and
    CLI, build the inputs, check the goldens and warm the query path."""
    lib, cli_main = load_farey()
    data = inputs.build(workload, seed)
    tally = sections.Tally()
    check_goldens(cli_main, tally)
    loop = sections.QueryLoop(lib, data.queries, tally)
    for j in range(min(8, len(data.queries))):
        loop.round(j)
    return 0 if tally.failed == 0 else 1


class SetupLoop:
    """Fresh-interpreter set-ups (see setup_probe), one a unit, interleaved
    with the sections so that their median spans the whole run; each is
    calibrated against a bare interpreter spawned just before it."""

    def __init__(self, workload: str, seed: int, env, tally):
        self.args = (str(BENCH / "run.py"), "--setup-probe", "--workload", workload, "--seed", str(seed))
        self.env, self.tally = env, tally
        self.times: list[int] = []

    def unit(self) -> bool:
        code, _, ns, _ = sections.spawn_calibrated(self.args, self.env, ROOT)
        self.times.append(ns)
        self.tally.record(None if code == 0 else f"set-up exited {code}")
        return True


def warm_up(lib, cli_main, data, env, tally) -> None:
    """Fill caches and finish lazy set-up before any clock runs: PAPER.md's
    goldens once, query rounds for WARMUP_NS, and one CLI process (which
    also leaves compiled bytecode behind)."""
    check_goldens(cli_main, tally)
    loop = sections.QueryLoop(lib, data.queries, tally)
    end = perf_counter_ns() + WARMUP_NS
    while perf_counter_ns() < end:
        loop.unit()
    sections.OneshotLoop(data.oneshot, env, ROOT, tally).unit()


def end_to_end(lib, cli_main, data, spec, seconds: int, env, tally) -> dict:
    warm_up(lib, cli_main, data, env, tally)
    setup = SetupLoop(data.workload, data.seed, env, tally)
    queries = sections.QueryLoop(lib, data.queries, tally)
    verify = sections.VerifyLoop(cli_main, data.verify_k, tally)
    oneshot = sections.OneshotLoop(data.oneshot, env, ROOT, tally)
    sections.interleave((setup, queries, verify, oneshot), (SETUP_SHARE, *spec.shares), seconds)

    median = sections.median
    costs = {kind: [median(t) for t in times if t] for kind, times in queries.times.items()}
    ops = sum(len(v) for v in costs.values())
    pairs = inputs.verify_counts(data.verify_k)["pairs"]
    oneshot_costs = [median(t) for t in oneshot.times if t]
    metrics = {
        "setup_s": inputs.decimal(median(setup.times), 1_000_000_000, 9),
        "ops_per_s": inputs.decimal(ops * 1_000_000_000, sum(map(sum, costs.values())), 3),
    }
    for kind, times in costs.items():
        metrics[f"{kind}_p50_ns"] = str(pct(times, 50))
        metrics[f"{kind}_p90_ns"] = str(pct(times, 90))
    metrics["verify_pairs_per_s"] = inputs.decimal(pairs * 1_000_000_000, median(verify.times), 3)
    metrics["oneshot_p50_ns"] = str(pct(oneshot_costs, 50))
    metrics["oneshot_p90_ns"] = str(pct(oneshot_costs, 90))
    samples = {
        "query_rounds": queries.rounds,
        "queries_seen": len(costs["triple"]),
        "verify_calls": len(verify.times),
        "oneshot_processes": oneshot.processes,
        "setups": len(setup.times),
        # Raw speed of the machine during the run, for reading the
        # calibrated figures: the bare interpreter's median ns.
        "bare_ns_median": median(oneshot.bare),
    }
    return {"metrics": metrics, "samples": samples}


def per_layer(lib, cli_main, data, spec, seconds: int, env, tally) -> dict:
    tracer = Tracer()
    warm_up(lib, cli_main, data, env, tally)
    q = sections.TracedQueries(lib, data.queries, tally, tracer)
    v = sections.TracedVerify(lib, cli_main, data.verify_k, tally, tracer)
    o = sections.TracedOneshot(cli_main, data.oneshot, env, ROOT, tally, tracer)
    sections.interleave((q, v, o), spec.shares, seconds)

    counts = inputs.counts(data, sections.TRACE_SAMPLE)
    terms = inputs.verify_counts(data.verify_k)["terms"]
    metrics = {name: str(pct(tracer.durations(span), 50)) for name, span in P50_SPANS}
    metrics["neighbors.ladder.self_ns"] = str(
        pct(tracer.durations("neighbors.right_neighbor"), 50)
        - pct(tracer.durations("neighbors.base_right_neighbor"), 50)
    )
    for layer in ("enumerate_farey", "verify_properties"):
        total = sum(tracer.durations(f"oracle.{layer}"))
        metrics[f"oracle.{layer}.ns_per_term"] = inputs.decimal(total, v.passes * terms, 3)
    metrics["cli.import_ns"] = str(pct(o.reported["process.import_cli"], 50))
    metrics["farey.import_ns"] = str(pct(o.reported["process.import_farey"], 50))
    for name in ("triples.chain_len.mean", "neighbors.steps.mean", "oracle.terms", "cli.verify.pairs"):
        metrics[name] = str(counts[name])
    giga_ops = q.ops * 1_000_000_000
    metrics["trace.untraced_ops_per_s"] = inputs.decimal(giga_ops, q.untraced_ns, 3)
    metrics["trace.ops_per_s"] = inputs.decimal(giga_ops, q.traced_ns, 3)
    metrics["trace.delta_ops_per_s"] = inputs.decimal(
        giga_ops * (q.untraced_ns - q.traced_ns), q.traced_ns * q.untraced_ns, 3
    )

    summary = tracer.summary()
    passes = {name: q.passes for name in sections.QUERY_SPANS}
    passes.update({name: v.passes for name in sections.VERIFY_SPANS})
    passes.update({name: o.passes for name in sections.ONESHOT_SPANS})
    for name in SPAN_NAMES:
        row = summary.get(name, {"calls": 0, "exceptions": 0, "self_ns": 0})
        metrics[f"span.{name}.calls"] = str(row["calls"] // passes[name])
        metrics[f"span.{name}.exceptions"] = str(row["exceptions"])
        metrics[f"span.{name}.self_ns"] = str(row["self_ns"] // passes[name])

    TRACE_DIR.mkdir(exist_ok=True)
    trace_file = TRACE_DIR / f"{data.workload}.jsonl"
    tracer.write(trace_file)
    samples = {"query_passes": q.passes, "verify_passes": v.passes, "oneshot_passes": o.passes, "spans": len(tracer)}
    return {
        "metrics": metrics,
        "samples": samples,
        "spans": summary,
        "trace_file": str(trace_file.relative_to(ROOT)),
    }


def run_one(args) -> int:
    lib, cli_main = load_farey()
    spec = inputs.WORKLOADS[args.workload]
    data = inputs.build(args.workload, args.seed)
    env = child_env()
    tally = sections.Tally()
    measure = per_layer if args.trace else end_to_end
    out = measure(lib, cli_main, data, spec, args.seconds, env, tally)
    listed = PER_LAYER if args.trace else END_TO_END
    metrics = {name: (out["metrics"][name], unit) for name, unit, _ in listed}
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs_sha256": data.digest(),
        "counts": inputs.counts(data, sections.TRACE_SAMPLE),
        "ops": tally.attempted,
        "ops_failed": tally.failed,
        "failures": tally.reasons,
        "run": run_metadata(),
        **{k: v for k, v in out.items() if k != "metrics"},
    }
    print(json.dumps(meta, sort_keys=True, separators=(",", ":")))
    correct = tally.failed == 0
    print(result_line(correct, tally, metrics))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process, one after another; one table."""
    worst = 0
    for workload in inputs.WORKLOADS:
        proc = subprocess.run(
            [
                sys.executable, str(BENCH / "run.py"), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
            ],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if not lines:
            print(f"{workload}: exited {proc.returncode} with no result")
            worst = max(worst, proc.returncode or 1)
            continue
        result = json.loads(lines[-1])
        print(f"{workload}: correct={json.dumps(result['correct'])} ops={result['attempted']} ops_failed={result['failed']}")
        for name, metric in result["metrics"].items():
            print(f"  {name:<40} {metric['value']} {metric['unit']}")
        worst = max(worst, proc.returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*inputs.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Replace this process (no child) with one under the fixed seed.
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    sys.exit(main())

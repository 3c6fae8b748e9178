#!/usr/bin/env python3
"""Paired A/B runs of bench/run.py on two commits.

    python3 scripts/ab.py --parent HEAD~1 --change HEAD --pairs 10 \\
        --workloads all --trace 0 --claim verify-sweep:next_p50_ns --out BENCH_N.json

Both commits are extracted with `git archive` into a temporary directory, so
each side runs its own bench/ and src/ and the working tree is not touched
(commit, or pass `git stash create` as --change, to measure uncommitted
work).  Pair i runs every workload on both sides with seed SEED_BASE + i,
the two runs of one workload back to back; odd pairs run the parent first,
even pairs the change first.  Each run lasts BENCHMARK.json's run_seconds,
and every process runs with PYTHONDONTWRITEBYTECODE=1, so both sides
compile their source alike.

For each workload and metric the output records every run, each side's
median and quartiles (q1 and q3 are the medians of the lower and upper
halves of the runs), the change/parent ratio of the medians, and in how
many pairs the change read better; ties count for neither side.  A --claim
is met when the change wins at least nine tenths of the pairs and the
medians differ, in the better direction, by more than the parent's
interquartile range.  All numbers are written as exact decimal strings.

The results of one --trace value go into the section "trace_0" or
"trace_1" of --out; an existing --out for the same two commits keeps its
other section, so an untraced and a traced set can share one file.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import subprocess
import sys
import tarfile
import tempfile
from decimal import Decimal
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def _git(*args: str, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, **kwargs)


def _extract(rev: str, into: Path) -> str:
    """Write the tree of ``rev`` under ``into``; return its commit id."""
    commit = _git("rev-parse", "--verify", f"{rev}^{{commit}}", text=True).stdout.strip()
    archive = _git("archive", "--format=tar", commit).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into)
    return commit


def _spec() -> tuple[dict[str, str], int, tuple[str, ...]]:
    """BENCHMARK.json's direction for each end-to-end metric, its run length
    in seconds, and its workload names in order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {row["name"]: row["better"] for row in spec["end_to_end"]}
    return declared, spec["run_seconds"], tuple(row["name"] for row in spec["workloads"])


def _direction(name: str, unit: str, declared: dict[str, str]) -> str | None:
    # Per-layer metrics are not in BENCHMARK.json: rates are better higher,
    # times lower, and a count has no better direction.
    if name in declared:
        return declared[name]
    if unit == "count":
        return None
    return "higher" if unit.startswith("1/") else "lower"


def _run(tree: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [
        sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(argv, cwd=tree, env=env, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"ab: {' '.join(argv[1:])} in {tree} exited {proc.returncode}, no result")
    return json.loads(lines[-1], parse_float=Decimal, parse_int=Decimal)


def _text(value: Decimal) -> str:
    return str(int(value)) if value == value.to_integral_value() else str(value)


def _quartiles(runs: list[Decimal]) -> tuple[Decimal, Decimal, Decimal]:
    ordered = sorted(runs)
    half = len(ordered) // 2
    lower, upper = ordered[:half] or ordered, ordered[len(ordered) - half:] or ordered
    return median(lower), median(ordered), median(upper)


def _summary(runs: dict[str, list[Decimal]], better: str | None) -> dict:
    out: dict = {"better": better, "runs": {s: [_text(v) for v in runs[s]] for s in SIDES}}
    medians = {}
    for side in SIDES:
        q1, mid, q3 = _quartiles(runs[side])
        medians[side] = mid
        out[side] = {"median": _text(mid), "q1": _text(q1), "q3": _text(q3)}
    if medians["parent"]:
        out["change_over_parent"] = str(round(medians["change"] / medians["parent"], 3))
    if better is not None:
        sign = 1 if better == "higher" else -1
        out["change_wins"] = sum(
            sign * (c - p) > 0 for p, c in zip(runs["parent"], runs["change"])
        )
    return out


def _claim(section: dict, workload: str, metric: str) -> dict:
    rows = section["workloads"][workload]
    row = rows["metrics"].get(metric)
    if row is None or row["better"] is None:
        raise SystemExit(f"ab: {workload} reports no timing or rate named {metric!r}")
    q1, parent_median, q3 = (Decimal(row["parent"][k]) for k in ("q1", "median", "q3"))
    change_median = Decimal(row["change"]["median"])
    gap = change_median - parent_median
    if row["better"] == "lower":
        gap = -gap
    pairs = len(row["runs"]["parent"])
    failed = {side: sum(rows["failed"][side]) for side in SIDES}
    return {
        "workload": workload,
        "metric": metric,
        "parent_median": _text(parent_median),
        "change_median": _text(change_median),
        "parent_iqr": _text(q3 - q1),
        "change_wins": row["change_wins"],
        "pairs": pairs,
        "met": 10 * row["change_wins"] >= 9 * pairs
        and gap > q3 - q1
        and failed["change"] <= failed["parent"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the baseline")
    parser.add_argument("--change", required=True, help="git revision of the change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workloads", default="all", help="comma-separated, or all")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seed-base", type=int, default=900)
    parser.add_argument("--claim", metavar="WORKLOAD:METRIC", help="where a gain is claimed")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    declared, seconds, known = _spec()
    workloads = known if args.workloads == "all" else tuple(args.workloads.split(","))
    unknown = sorted(set(workloads) - set(known))
    if unknown or args.pairs < 1:
        parser.error(f"unknown workloads {unknown}" if unknown else "--pairs must be >= 1")
    if args.claim and (":" not in args.claim or args.claim.split(":")[0] not in workloads):
        parser.error("--claim must be WORKLOAD:METRIC with a workload that runs")

    seeds = [args.seed_base + i for i in range(1, args.pairs + 1)]
    results = {w: {side: [] for side in SIDES} for w in workloads}
    with tempfile.TemporaryDirectory(prefix="farey-ab-") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        revs = {"parent": args.parent, "change": args.change}
        commits = {side: _extract(revs[side], trees[side]) for side in SIDES}
        for i, seed in enumerate(seeds, 1):
            order = SIDES if i % 2 else SIDES[::-1]
            for workload in workloads:
                for side in order:
                    print(f"ab: pair {i}/{args.pairs} {workload} {side}", file=sys.stderr)
                    run = _run(trees[side], workload, seed, seconds, args.trace)
                    results[workload][side].append(run)

    section: dict = {
        "command": f"python3 bench/run.py --workload WORKLOAD --seed SEED --seconds {seconds}"
        f" --trace {args.trace}",
        "seeds": seeds,
        "workloads": {},
    }
    for workload, sides in results.items():
        names = sides["parent"][0]["metrics"]
        section["workloads"][workload] = {
            "attempted": {side: [int(r["attempted"]) for r in sides[side]] for side in SIDES},
            "failed": {side: [int(r["failed"]) for r in sides[side]] for side in SIDES},
            "metrics": {
                name: _summary(
                    {side: [r["metrics"][name]["value"] for r in sides[side]] for side in SIDES},
                    _direction(name, names[name]["unit"], declared),
                )
                for name in names
            },
        }
    if args.claim:
        section["claim"] = _claim(section, *args.claim.split(":", 1))

    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    if [doc.get(f"{side}_commit") for side in SIDES] != [commits[side] for side in SIDES]:
        doc = {}
    doc.update(
        parent_commit=commits["parent"],
        change_commit=commits["change"],
        machine={
            "python": platform.python_version(),
            "platform": f"{platform.system()} {platform.machine()}",
            "cpu_count": os.cpu_count(),
        },
        pairs="pair i runs every workload on both commits with seed SEED_BASE + i, back to back;"
        " odd pairs run the parent first; PYTHONDONTWRITEBYTECODE=1",
        statistics="median and quartiles: q1 and q3 are the medians of the lower and upper halves"
        " of the runs; change_wins: pairs in which the change read better, ties for neither",
    )
    doc[f"trace_{args.trace}"] = section
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    if "claim" in section:
        claim = section["claim"]
        print(f"ab: {claim['workload']}:{claim['metric']} met={claim['met']}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

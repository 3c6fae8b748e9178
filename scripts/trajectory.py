#!/usr/bin/env python3
"""One row per committed BENCH_*.json: the perf trajectory at a glance.

    python3 scripts/trajectory.py [DIR]

Reads every BENCH_<n>.json in DIR (the repository root by default), in the
order of n.  Both layouts are read: BENCH_3-6 keep their claim and workloads
at the top level, the files `scripts/ab.py` writes keep them under trace_0.
Each row gives the claimed workload and metric, the parent and change
medians, the change's wins over the pairs run and whether the claim was met,
then the change-side medians of five end-to-end metrics, each on the
workload it describes.  Medians print rounded to integers, in their units
(ns, or pairs per second for verify).
"""

from __future__ import annotations

import json
import sys
from decimal import Decimal
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# (heading, workload, metric) of each change-side column.
COLUMNS = (
    ("triple 1e12", "query-1e12", "triple_p50_ns"),
    ("triple 1e100", "query-1e100", "triple_p50_ns"),
    ("next 1e12", "query-1e12", "next_p50_ns"),
    ("next 1e100", "query-1e100", "next_p50_ns"),
    # The small-order successor query that `verify` spends most of its time in.
    ("next small", "verify-sweep", "next_p50_ns"),
    ("verify/s", "verify-sweep", "verify_pairs_per_s"),
    ("oneshot", "cli-oneshot", "oneshot_p50_ns"),
)
HEADINGS = ("file", "claim", "parent", "change", "wins", "met", *(c[0] for c in COLUMNS))
NOTE = (
    "Only numbers within one file compare: the machine drifts between runs of"
    " different files, so a column read down the table is not a trend."
)


def _number(text: str) -> str:
    return f"{round(Decimal(text)):,}"


def row(name: str, doc: dict) -> tuple[str, ...]:
    """The cells of one file's row; "-" where the file has no such value."""
    section = doc.get("trace_0", doc)
    workloads = section["workloads"]
    claim = section.get("claim")
    if claim is None:
        cells = ["-"] * 5
    else:
        runs = workloads[claim["workload"]]["metrics"][claim["metric"]]["runs"]["parent"]
        cells = [
            f"{claim['workload']}:{claim['metric']}",
            _number(claim["parent_median"]),
            _number(claim["change_median"]),
            f"{claim['change_wins']}/{claim.get('pairs', len(runs))}",
            "yes" if claim["met"] else "no",
        ]
    for _, workload, metric in COLUMNS:
        metrics = workloads.get(workload, {}).get("metrics", {})
        cells.append(_number(metrics[metric]["change"]["median"]) if metric in metrics else "-")
    return (name, *cells)


def table(root: Path) -> list[str]:
    paths = sorted(root.glob("BENCH_*.json"), key=lambda p: int(p.stem.split("_")[1]))
    rows = [HEADINGS] + [row(p.stem, json.loads(p.read_text())) for p in paths]
    widths = [max(len(r[i]) for r in rows) for i in range(len(HEADINGS))]
    lines = [NOTE]
    for r in rows:
        # File and claim read left-aligned, the numbers right-aligned.
        cells = [c.ljust(w) if i < 2 else c.rjust(w) for i, (c, w) in enumerate(zip(r, widths))]
        lines.append("  ".join(cells))
    return lines


def main(argv: list[str]) -> int:
    for line in table(Path(argv[0]) if argv else ROOT):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

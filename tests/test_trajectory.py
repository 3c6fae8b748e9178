"""scripts/trajectory.py over the committed BENCH_*.json files."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _rows() -> dict[str, list[str]]:
    script = ROOT / "scripts" / "trajectory.py"
    out = subprocess.run([sys.executable, script], capture_output=True, text=True, check=True).stdout
    note, heading, *lines = out.splitlines()
    assert note.startswith("Only numbers within one file compare")
    assert heading.split()[:6] == ["file", "claim", "parent", "change", "wins", "met"]
    return {cells[0]: cells[1:] for cells in map(str.split, lines)}


def test_one_row_per_committed_file_in_both_layouts():
    rows = _rows()
    assert sorted(rows) == sorted(p.stem for p in ROOT.glob("BENCH_*.json"))
    # BENCH_3 keeps its claim at the top level, BENCH_15 under trace_0.
    assert rows["BENCH_15"] == [
        "cli-oneshot:oneshot_p50_ns", "59,270,102", "54,235,974", "10/10", "yes",
        "4,368", "33,634", "4,166", "31,322", "1,824", "227,669", "54,235,974",
    ]
    # BENCH_20 claims verify_pairs_per_s; "next small" is verify-sweep's next_p50_ns.
    assert rows["BENCH_20"] == [
        "verify-sweep:verify_pairs_per_s", "248,858", "280,072", "10/10", "yes",
        "4,035", "31,707", "3,934", "30,912", "1,578", "280,072", "53,765,983",
    ]
    assert rows["BENCH_3"][:5] == ["query-1e12:triple_p50_ns", "76,729", "9,845", "10/10", "yes"]
    # BENCH_17 claims nothing and ran no query workload.
    assert rows["BENCH_17"][:9] == ["-"] * 9

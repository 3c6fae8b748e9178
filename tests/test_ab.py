"""Tests for the statistics of scripts/ab.py, the paired benchmark runner."""

import importlib.util
import json
from decimal import Decimal
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "ab.py"
_SPEC = importlib.util.spec_from_file_location("ab", _PATH)
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)


def _d(*values):
    return [Decimal(v) for v in values]


def test_quartiles_are_medians_of_the_halves():
    assert ab._quartiles(_d(5, 1, 4, 2, 3, 6)) == (2, Decimal("3.5"), 5)
    # An odd count leaves the middle run out of both halves.
    assert ab._quartiles(_d(1, 2, 3, 4, 9)) == (Decimal("1.5"), 3, Decimal("6.5"))
    assert ab._quartiles(_d(7)) == (7, 7, 7)


def test_wins_follow_the_better_direction_and_ties_count_for_neither():
    runs = {"parent": _d(10, 10, 10, 10), "change": _d(9, 10, 11, 8)}
    assert ab._summary(runs, "lower")["change_wins"] == 2
    assert ab._summary(runs, "higher")["change_wins"] == 1
    assert "change_wins" not in ab._summary(runs, None)
    assert ab._summary(runs, "lower")["change_over_parent"] == "0.950"


def _section(parent, change, better="lower", failed=(0, 0)):
    row = ab._summary({"parent": _d(*parent), "change": _d(*change)}, better)
    failed = {"parent": [failed[0]], "change": [failed[1]]}
    return {"workloads": {"w": {"failed": failed, "metrics": {"m": row}}}}


@pytest.mark.parametrize(
    "parent, change, better, failed, met",
    [
        ((100,) * 5 + (104,) * 5, (90,) * 10, "lower", (0, 0), True),
        # The medians differ by less than the parent's spread.
        ((100,) * 5 + (120,) * 5, (105,) * 10, "lower", (0, 0), False),
        # Eight wins of ten are not nine tenths.
        ((100,) * 10, (90,) * 8 + (110,) * 2, "lower", (0, 0), False),
        ((100,) * 10, (110,) * 10, "higher", (0, 0), True),
        ((100,) * 10, (110,) * 10, "lower", (0, 0), False),
        # A gain does not count when more operations fail.
        ((100,) * 10, (90,) * 10, "lower", (0, 1), False),
    ],
)
def test_claim_rule(parent, change, better, failed, met):
    assert ab._claim(_section(parent, change, better, failed), "w", "m")["met"] is met


def test_claim_on_a_count_is_refused():
    with pytest.raises(SystemExit):
        ab._claim(_section((1,) * 4, (1,) * 4, None), "w", "m")


def test_workloads_are_the_ones_benchmark_json_declares(tmp_path, monkeypatch):
    spec = json.loads((ab.ROOT / "BENCHMARK.json").read_text())
    assert ab._spec()[2] == tuple(row["name"] for row in spec["workloads"])
    # A workload added there is run by --workloads all with no edit here.
    spec["workloads"].append({"name": "new-workload", "why": "added"})
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    monkeypatch.setattr(ab, "ROOT", tmp_path)
    assert ab._spec()[2][-1] == "new-workload"

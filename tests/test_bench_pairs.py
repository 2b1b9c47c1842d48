"""The pair summary of tools/bench_pairs.py, on fixed numbers."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

PARENT = [100.0, 104.0, 98.0, 102.0, 101.0, 99.0, 103.0, 97.0, 100.0, 105.0]


def test_quartiles():
    assert bench_pairs.quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (1.5, 3.0, 4.5)


def test_a_clear_gain_wins_every_pair_and_holds():
    summary = bench_pairs.summarize(PARENT, [v + 10 for v in PARENT], "higher")
    assert summary["parent"] == {"median": 100.5, "q1": 98.75, "q3": 103.25}
    assert summary["change"]["median"] == 110.5
    assert (summary["wins"], summary["pairs"], summary["claim_holds"]) == (10, 10, True)
    assert summary["ratio"] == pytest.approx(110.5 / 100.5)


def test_eight_wins_in_ten_are_not_a_claim():
    change = [v + 10 for v in PARENT[:8]] + [v - 1 for v in PARENT[8:]]
    summary = bench_pairs.summarize(PARENT, change, "higher")
    assert (summary["wins"], summary["claim_holds"]) == (8, False)


def test_a_gap_inside_the_parent_spread_is_not_a_claim():
    summary = bench_pairs.summarize(PARENT, [v + 4 for v in PARENT], "higher")
    assert summary["wins"] == 10
    assert summary["change"]["median"] - summary["parent"]["median"] == 4
    assert summary["parent"]["q3"] - summary["parent"]["q1"] == 4.5
    assert not summary["claim_holds"]


def test_lower_is_better_counts_a_fall_as_a_win():
    summary = bench_pairs.summarize(PARENT, [v - 10 for v in PARENT], "lower")
    assert (summary["wins"], summary["claim_holds"]) == (10, True)
    assert not bench_pairs.summarize(PARENT, [v + 10 for v in PARENT], "lower")["claim_holds"]

"""The verdicts of ``scripts/bench_pairs.py`` on synthetic runs, and the
file it keeps; no benchmark is run."""

import json

import bench_pairs
import pytest

HIGHER = {"name": "rate", "better": "higher", "bound": 0.25}
LOWER = {"name": "time", "better": "lower", "bound": 0.25}
#: ten baseline runs with quartiles 0.98 and 1.02 (inclusive method)
BASE = [0.96, 0.98, 0.98, 0.99, 1.0, 1.0, 1.01, 1.02, 1.02, 1.04]


def runs_of(base, change, name="rate", base_failed=0.0, change_failed=0.0):
    """``runs`` as ``bench_pairs.main`` collects them, pair p of each side
    at index p."""
    return {"baseline": [{name: v, "failed_frac": base_failed} for v in base],
            "change": [{name: v, "failed_frac": change_failed} for v in change]}


def verdict(base, change, spec=HIGHER, **failed):
    return bench_pairs.summarize(runs_of(base, change, spec["name"], **failed), spec)


def test_gain_needs_nine_of_ten_wins_and_a_gap_above_the_spread():
    better = [v + 0.1 for v in BASE]  # wins every pair; gap 0.1 > spread 0.04
    row = verdict(BASE, better)
    assert (row["change_wins"], row["baseline_wins"]) == (10, 0)
    assert row["gain"] and row["regression"] == "no"
    # nine wins still pass; eight do not
    assert verdict(BASE, better[:9] + [BASE[9] - 0.01])["gain"]
    eight = better[:8] + [BASE[8] - 0.01, BASE[9] - 0.01]
    row = verdict(BASE, eight)
    assert (row["change_wins"], row["gain"]) == (8, False)
    # every pair won, but the medians differ by less than the quartile gap
    row = verdict(BASE, [v + 0.02 for v in BASE])
    assert row["change_wins"] == 10 and not row["gain"]


def test_gain_is_read_in_the_metric_direction():
    assert verdict(BASE, [v - 0.1 for v in BASE], LOWER)["gain"]
    assert not verdict(BASE, [v + 0.1 for v in BASE], LOWER)["gain"]


def test_gain_is_refused_when_more_replicates_fail():
    better = [v + 0.1 for v in BASE]
    assert verdict(BASE, better, base_failed=0.01, change_failed=0.01)["gain"]
    assert not verdict(BASE, better, change_failed=0.01)["gain"]


def test_regression_beyond_the_bound_reads_yes():
    row = verdict(BASE, [0.7 * v for v in BASE])  # median 30 % lower, bound 25 %
    assert row["regression"] == "YES" and not row["gain"]
    assert verdict(BASE, [1.3 * v for v in BASE], LOWER)["regression"] == "YES"
    assert verdict(BASE, [0.8 * v for v in BASE])["regression"] == "no"


def test_regression_is_unresolved_when_the_baseline_spreads_beyond_the_bound():
    wide = [0.6, 0.7, 0.7, 0.8, 1.0, 1.0, 1.2, 1.3, 1.3, 1.4]  # quartiles 0.7, 1.3
    row = verdict(wide, [v + 0.01 for v in wide])  # better median, runs overlap
    assert row["regression"] == "unresolved"
    # every change run beats every baseline run: resolved
    assert verdict(wide, [v + 1.0 for v in wide])["regression"] == "no"


def test_regression_reads_no_within_the_bound():
    row = verdict(BASE, [0.95 * v for v in BASE])
    assert row["regression"] == "no" and not row["gain"]
    assert row["rel_change"] == pytest.approx(-0.05)


def test_save_entry_replaces_only_its_workload(tmp_path):
    path = tmp_path / "BENCH_pairs.json"
    bench_pairs.save_entry(path, "typeone-mr", {"seed": 1})
    bench_pairs.save_entry(path, "fit-em", {"seed": 2})
    bench_pairs.save_entry(path, "typeone-mr", {"seed": 3})
    assert json.loads(path.read_text()) == {"fit-em": {"seed": 2}, "typeone-mr": {"seed": 3}}

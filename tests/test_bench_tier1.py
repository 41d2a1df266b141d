"""The report parser and the summary of ``scripts/bench_tier1.py`` on a
captured Tier-1 report; no suite is run."""

import bench_tier1
import pytest

#: excerpts of ``pytest -q --durations=0 --durations-min=0`` on the suite,
#: the acceptance section and every phase of two tests included
REPORT = """\
........................................................................ [ 89%]
..........................................                               [100%]
============================= acceptance criteria ==============================
criterion 3: PASS — type-I rates (500 reps, band [0.02, 0.08]): GMM score/wald 0.060/0.060, MR 0.040/0.028, 2s
criterion 8: PASS — 95% CI coverage of a nonzero coordinate: 0.925 in [0.90, 0.99]; one-step estimate mean 5.992 (target 6.0, 3se 0.024), 0s
============================== slowest durations ===============================
4.24s call     tests/test_lp.py::test_homotopy_matches_numpy_scan_reference_bit_for_bit
2.22s call     tests/test_inference.py::test_column_path_matches_full_matrix[mr-defaults]
1.62s call     tests/test_acceptance.py::test_criterion_3_typeone_calibration
0.00s setup    tests/test_inference.py::test_column_path_matches_full_matrix[mr-defaults]
0.00s teardown tests/test_inference.py::test_column_path_matches_full_matrix[mr-defaults]
0.00s call     tests/test_sparsity.py::test_top_support_full_and_empty
0.00s setup    tests/test_sparsity.py::test_top_support_full_and_empty
0.00s teardown tests/test_sparsity.py::test_top_support_full_and_empty
402 passed in 26.98s
"""


def test_parse_report_sums_the_phases_of_each_test():
    tests, seconds, outcome = bench_tier1.parse_report(REPORT)
    assert tests == {
        "tests/test_lp.py::test_homotopy_matches_numpy_scan_reference_bit_for_bit": 4.24,
        "tests/test_inference.py::test_column_path_matches_full_matrix[mr-defaults]": 2.22,
        "tests/test_acceptance.py::test_criterion_3_typeone_calibration": 1.62,
        "tests/test_sparsity.py::test_top_support_full_and_empty": 0.0,
    }
    assert (seconds, outcome) == (26.98, "402 passed")
    # a failing run's closing line, and a report that has none
    failed = REPORT.replace("402 passed in 26.98s", "1 failed, 401 passed in 75.20s (0:01:15)")
    assert bench_tier1.parse_report(failed)[1:] == (75.2, "1 failed, 401 passed")
    with pytest.raises(ValueError, match="no pytest outcome line"):
        bench_tier1.parse_report(REPORT.rsplit("402", 1)[0])


def test_summary_compares_only_tests_every_run_has():
    # five runs a side; "new" runs on the change alone, "flaky" in one baseline run
    def run(wall, **tests):
        return wall, tests, wall - 1.0, "3 passed"

    runs = {"baseline": [run(20.0 + r, slow=2.0 + r, fast=0.1, flaky=0.5) if r == 0
                         else run(20.0 + r, slow=2.0 + r, fast=0.1) for r in range(5)],
            "change": [run(21.0 + r, slow=1.0 + r, fast=0.2, new=0.3) for r in range(5)]}
    summary = bench_tier1.summarize(runs)
    assert summary["suite"]["baseline"]["wall_s"] == {"p50": 22.0, "q1": 21.0, "q3": 23.0}
    assert summary["suite"]["change"]["pytest_s"]["p50"] == 22.0
    assert summary["suite"]["change"]["tests_s"]["p50"] == pytest.approx(3.5)  # slow, fast, new
    assert summary["suite"]["change"]["outcomes"] == ["3 passed"] * 5
    tests = summary["tests"]
    assert list(tests) == ["fast", "flaky", "new", "slow"]
    assert tests["new"]["baseline"] is None and tests["flaky"]["baseline"] is None
    assert tests["slow"]["change"] == {"p50": 3.0, "q1": 2.0, "q3": 4.0}
    assert [row["test"] for row in summary["largest_differences"]] == ["slow", "fast"]
    assert summary["largest_differences"][0]["change_minus_baseline"] == -1.0

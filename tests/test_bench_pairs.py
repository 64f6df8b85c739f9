import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

# ten parent runs with quartiles 1.00 .. 1.0175 (inclusive method)
PARENT = [1.00, 1.01, 1.02, 0.99, 1.00, 1.03, 1.01, 1.00, 1.02, 1.01]


def test_nine_of_ten_pairs_is_a_gain():
    change = [p - 0.1 for p in PARENT]
    change[4] = PARENT[4] + 0.05  # the one pair lost
    row = bench_pairs.decide(PARENT, change, "lower")
    assert (row["wins"], row["losses"], row["pairs"]) == (9, 1, 10)
    assert row["parent_iqr"] == pytest.approx(0.0175)
    assert row["median_difference"] > row["parent_iqr"]
    assert row["met"]


def test_eight_of_ten_pairs_is_no_gain():
    change = [p - 0.1 for p in PARENT]
    change[2] = PARENT[2] + 0.05
    change[7] = PARENT[7] + 0.05
    row = bench_pairs.decide(PARENT, change, "lower")
    assert (row["wins"], row["losses"]) == (8, 2)
    assert row["median_difference"] > row["parent_iqr"]
    assert not row["met"]


def test_ties_count_for_neither_side():
    change = [p - 0.1 for p in PARENT]
    change[0] = PARENT[0]  # a tie: nine wins are still enough
    row = bench_pairs.decide(PARENT, change, "lower")
    assert (row["wins"], row["losses"]) == (9, 0) and row["met"]
    change[1] = PARENT[1]  # two ties leave eight wins
    row = bench_pairs.decide(PARENT, change, "lower")
    assert (row["wins"], row["losses"]) == (8, 0) and not row["met"]


def test_win_within_the_parent_spread_is_no_gain():
    # every pair won by less than the parent's IQR
    row = bench_pairs.decide(PARENT, [p - 0.01 for p in PARENT], "lower")
    assert row["wins"] == 10
    assert row["median_difference"] < row["parent_iqr"]
    assert not row["met"]


def test_higher_is_better_metric():
    up = [p + 0.1 for p in PARENT]
    row = bench_pairs.decide(PARENT, up, "higher")
    assert row["wins"] == 10 and row["met"]
    assert row["median_difference"] == pytest.approx(0.1)
    row = bench_pairs.decide(PARENT, [p - 0.1 for p in PARENT], "higher")
    assert (row["wins"], row["losses"]) == (0, 10) and not row["met"]
    assert row["median_difference"] == pytest.approx(-0.1)


def test_report_reads_bound_and_failures():
    def result(value):
        return {"failed": 0, "attempted": 4,
                "metrics": {"study_cal": {"value": value}}}

    metric = {"name": "study_cal", "unit": "cal", "better": "lower",
              "bound": 0.25}
    out = bench_pairs.report([metric], [result(1.0), result(1.0), None],
                             [result(1.3), result(1.3), result(0.5)])
    row = out["metrics"]["study_cal"]
    # the pair without a parent result is left out of the comparison
    assert row["pairs"] == 2 and row["losses"] == 2
    assert row["relative_change_of_median"] == pytest.approx(0.3)
    assert not row["within_bound"]
    assert out["studies"]["parent"] == {"failed": 0, "attempted": 8,
                                        "runs_without_result": 1}
    assert out["studies"]["change"]["attempted"] == 12

import importlib.util
import json
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


def test_nine_of_ten_lost_pairs_is_a_regression():
    # the mirror of a gain: a change that is worse in nine of ten pairs, by
    # more than the parent's IQR in the median
    change = [p + 0.1 for p in PARENT]
    change[4] = PARENT[4] - 0.05  # the one pair won
    row = bench_pairs.decide(PARENT, change, "lower")
    assert (row["wins"], row["losses"]) == (1, 9)
    assert -row["median_difference"] > row["parent_iqr"]
    assert row["worse"] and not row["met"]
    # a gain is no regression
    row = bench_pairs.decide(PARENT, [p - 0.1 for p in PARENT], "lower")
    assert row["met"] and not row["worse"]


def test_eight_lost_pairs_or_a_loss_within_the_spread_is_no_regression():
    change = [p + 0.1 for p in PARENT]
    change[2] = PARENT[2] - 0.05
    change[7] = PARENT[7] - 0.05
    row = bench_pairs.decide(PARENT, change, "lower")
    assert (row["wins"], row["losses"]) == (2, 8) and not row["worse"]
    # every pair lost, each by less than the parent's IQR
    row = bench_pairs.decide(PARENT, [p + 0.01 for p in PARENT], "lower")
    assert row["losses"] == 10
    assert -row["median_difference"] < row["parent_iqr"]
    assert not row["worse"]


def test_ties_are_no_losses():
    change = [p + 0.1 for p in PARENT]
    change[0] = PARENT[0]  # one tie leaves nine losses: still a regression
    row = bench_pairs.decide(PARENT, change, "lower")
    assert (row["wins"], row["losses"]) == (0, 9) and row["worse"]
    change[1] = PARENT[1]  # two ties leave eight
    row = bench_pairs.decide(PARENT, change, "lower")
    assert (row["wins"], row["losses"]) == (0, 8) and not row["worse"]
    # no change at all is neither a gain nor a regression
    row = bench_pairs.decide(PARENT, list(PARENT), "lower")
    assert (row["wins"], row["losses"]) == (0, 0)
    assert not row["met"] and not row["worse"]


def test_higher_is_better_regression():
    # a fall in a higher-is-better metric regresses, a rise does not
    row = bench_pairs.decide(PARENT, [p - 0.1 for p in PARENT], "higher")
    assert row["losses"] == 10 and row["worse"] and not row["met"]
    row = bench_pairs.decide(PARENT, [p + 0.1 for p in PARENT], "higher")
    assert row["wins"] == 10 and not row["worse"]


def test_report_lists_the_regressed_metrics(capsys):
    def result(cal, rss):
        return {"failed": 0, "attempted": 4, "metrics": {
            "study_cal": {"value": cal}, "peak_rss_mb": {"value": rss}}}

    metrics = [{"name": "study_cal", "unit": "cal", "better": "lower",
                "bound": 0.25},
               {"name": "peak_rss_mb", "unit": "MB", "better": "lower",
                "bound": 0.05}]
    parent = [result(p, 69.0 + 0.01 * i) for i, p in enumerate(PARENT)]
    # study_cal gains; peak_rss_mb rises by 0.2 MB in every pair, within
    # its bound but far beyond the parent's IQR
    change = [result(p - 0.1, 69.2 + 0.01 * i)
              for i, p in enumerate(PARENT)]
    out = bench_pairs.report(metrics, parent, change)
    assert out["regressed"] == ["peak_rss_mb"]
    assert out["metrics"]["peak_rss_mb"]["within_bound"]
    assert out["metrics"]["study_cal"]["met"]
    bench_pairs.print_report("w", out)
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].endswith("gain: True; worse: False")
    assert lines[2].endswith("gain: False; worse: True")
    assert lines[-1] == "regressed: peak_rss_mb"
    bench_pairs.print_report("w", bench_pairs.report(metrics, parent, parent))
    assert capsys.readouterr().out.splitlines()[-1] == "regressed: none"


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


def test_main_reports_each_workload(tmp_path, monkeypatch, capsys):
    # `all` runs every workload of BENCHMARK.json in turn, each to the end,
    # prints one block per workload and writes --out keyed by workload
    root = _PATH.parents[1]
    names = [w["name"] for w in json.loads(
        (root / "BENCHMARK.json").read_text())["workloads"]]
    runs = []

    def stub(checkout, workload, seed, seconds):
        runs.append((workload, seed, "change" if checkout == root
                     else "parent"))
        value = (1.0 + names.index(workload)) * (
            0.9 if checkout == root else 1.0)
        return {"failed": 0, "attempted": 2, "metrics": {
            m: {"value": value}
            for m in ("study_cal", "setup_s", "peak_rss_mb")}}

    monkeypatch.setattr(bench_pairs, "run_once", stub)
    out = tmp_path / "pairs.json"
    args = ["--parent", str(tmp_path), "--change", str(root), "--pairs", "3",
            "--seconds", "1", "--seed0", "5", "--out", str(out)]
    assert bench_pairs.main(args + ["--workload", "all"]) == 0
    # the parent first in even pairs, the change first in odd ones
    order = [("parent", "change"), ("change", "parent")]
    assert runs == [(w, 5 + i, side) for w in names for i in range(3)
                    for side in order[i % 2]]
    result = json.loads(out.read_text())
    assert list(result) == names
    for k, name in enumerate(names):
        row = result[name]["metrics"]["study_cal"]
        assert result[name]["seeds"] == [5, 7]
        assert row["parent"]["median"] == pytest.approx(1.0 + k)
        assert row["wins"] == 3 and row["met"] and not row["worse"]
        assert result[name]["regressed"] == []
        assert result[name]["studies"]["change"]["attempted"] == 6
    blocks = [line for line in capsys.readouterr().out.splitlines()
              if line.startswith("== ")]
    assert blocks == [f"== {name}" for name in names]

    runs.clear()
    assert bench_pairs.main(args + ["--workload", names[2], names[0]]) == 0
    assert list(json.loads(out.read_text())) == [names[2], names[0]]
    assert [w for w, _, _ in runs] == [names[2]] * 6 + [names[0]] * 6
    with pytest.raises(SystemExit):
        bench_pairs.main(args + ["--workload", "no-such-workload"])

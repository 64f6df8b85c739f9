"""Alternating paired runs of the benchmark on two checkouts.

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload W [W ...] \\
        --pairs N --seconds S --seed0 K [--out FILE]

`--workload` names one or more workloads of the change's BENCHMARK.json, or
`all` for every one; they run one after another, each to the end.  Pair i
of workload W runs
``perfbench/run.py --workload W --seed K+i --seconds S --trace 0`` in both
checkouts, one run at a time: the parent first in even pairs, the change
first in odd ones.  A run's value of a metric is the one on the last line
of its output, that run's median over its studies.  For each workload, one
block prints, for each end-to-end metric, both sides' median and quartiles
(of the run values), the pairs the change won (a tie counts for neither),
the median difference against the parent's interquartile range, the
relative change of the median against the metric's bound, and whether that
is a gain (`decide`); then the failed studies against those attempted on
each side.  A block prints as soon as its workload is done.  `--out` writes
the same as JSON, keyed by workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

# a gain is won in at least this share of the pairs
WIN_SHARE = 0.9


def quartiles(values):
    """(median, q1, q3), by the inclusive method of perfbench/run.py."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q1, q3


def decide(parent, change, better):
    """Compare paired run values of one metric; `better` is "lower" or
    "higher", as in BENCHMARK.json.

    The change wins a pair where its value is better than the parent's, and
    a tie counts for neither.  It shows a gain (`met`) when it wins at least
    WIN_SHARE of the pairs and its median is better than the parent's by
    more than the parent's interquartile range.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of runs per side")
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    med_p, q1, q3 = quartiles(parent)
    difference = sign * (med_p - statistics.median(change))
    return {"pairs": len(parent), "wins": wins, "losses": losses,
            "median_difference": difference, "parent_iqr": q3 - q1,
            "met": wins >= WIN_SHARE * len(parent)
            and difference > q3 - q1}


def run_once(checkout, workload, seed, seconds):
    """The last JSON line of one benchmark run in `checkout`, or None."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if proc.returncode == 0 else None
    except (IndexError, json.JSONDecodeError):
        return None


def report(metrics, parent_runs, change_runs):
    """Per metric of `metrics` (BENCHMARK.json's end_to_end), both sides'
    summaries over the pairs where both runs gave a result, and `decide`;
    per side, the failed studies against those attempted."""
    both = [(p, c) for p, c in zip(parent_runs, change_runs) if p and c]
    rows = {}
    for metric in metrics if both else ():
        name = metric["name"]
        sides = {side: [r[i]["metrics"][name]["value"] for r in both]
                 for i, side in enumerate(("parent", "change"))}
        row = {side: dict(zip(("median", "q1", "q3"), quartiles(values)),
                          runs=values) for side, values in sides.items()}
        row.update(decide(sides["parent"], sides["change"], metric["better"]))
        worse = -row["median_difference"] / row["parent"]["median"]
        row.update(unit=metric["unit"], bound=metric["bound"],
                   relative_change_of_median=(
                       row["change"]["median"] / row["parent"]["median"] - 1),
                   within_bound=worse <= metric["bound"])
        rows[name] = row
    studies = {side: {"failed": sum(r["failed"] for r in runs if r),
                      "attempted": sum(r["attempted"] for r in runs if r),
                      "runs_without_result": sum(r is None for r in runs)}
               for side, runs in (("parent", parent_runs),
                                  ("change", change_runs))}
    return {"metrics": rows, "studies": studies}


def run_pairs(args, workload):
    """The parent's and the change's runs of `workload`, pair by pair."""
    parent_runs, change_runs = [], []
    for i in range(args.pairs):
        seed = args.seed0 + i
        order = [(args.parent, parent_runs), (args.change, change_runs)]
        for checkout, runs in order if i % 2 == 0 else order[::-1]:
            runs.append(run_once(checkout, workload, seed, args.seconds))
        print(f"{workload} pair {i + 1}/{args.pairs} (seed {seed}): "
              + ", ".join(
                  f"{side} {r['metrics']['study_cal']['value']:.4f}" if r
                  else f"{side} no result" for side, r in
                  (("parent", parent_runs[-1]), ("change", change_runs[-1]))),
              flush=True)
    return parent_runs, change_runs


def print_report(workload, out):
    """The block of one workload's `report`."""
    print(f"== {workload}")
    for name, row in out["metrics"].items():
        p, c = row["parent"], row["change"]
        print(f"{name} ({row['unit']}): parent {p['median']:.4f} "
              f"({p['q1']:.4f} .. {p['q3']:.4f}), change {c['median']:.4f} "
              f"({c['q1']:.4f} .. {c['q3']:.4f}); change better in "
              f"{row['wins']}/{row['pairs']}, worse in {row['losses']}; "
              f"median difference {row['median_difference']:.4f} against "
              f"parent IQR {row['parent_iqr']:.4f}; median "
              f"{100 * row['relative_change_of_median']:+.1f}% (bound "
              f"{100 * row['bound']:.0f}%, within: {row['within_bound']}); "
              f"gain: {row['met']}")
    for side, st in out["studies"].items():
        print(f"{side}: failed {st['failed']}/{st['attempted']} studies, "
              f"{st['runs_without_result']} runs without a result")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--workload", required=True, nargs="+")
    parser.add_argument("--pairs", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--seed0", required=True, type=int)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    known = [w["name"] for w in bench["workloads"]]
    workloads = known if args.workload == ["all"] else args.workload
    unknown = sorted(set(workloads) - set(known))
    if unknown:
        parser.error(f"unknown workload(s) {', '.join(unknown)}; "
                     f"BENCHMARK.json has {', '.join(known)} or all")

    results = {}
    for workload in workloads:
        out = report(bench["end_to_end"], *run_pairs(args, workload))
        print_report(workload, out)
        results[workload] = {"seeds": [args.seed0,
                                       args.seed0 + args.pairs - 1],
                             "seconds": args.seconds, **out}
        if args.out:  # rewritten after each workload, so none is lost
            args.out.write_text(json.dumps(results, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

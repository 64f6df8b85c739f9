"""Run the benchmark repeatedly and summarize how steady each metric is.

Usage, from the root of the repository:

    python3 perfbench/steadiness.py --runs 10 --seconds 35 [--workload NAME ...]
        [--out perfbench/baseline.json]

Runs `run.py --trace 0` once per seed (seeds 1..runs), one run at a time,
and prints for every end-to-end metric the median, the quartiles and the
spread, (q3 - q1) / median, of its per-run values, next to a third of the
metric's bound from BENCHMARK.json.  One `--trace 1` run per workload
follows.  With `--out` the summary, the per-run values, the per-layer
metrics and the environment are written as JSON; this is how
`baseline.json` is made.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload, seed, seconds, trace=0):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n"
                           + proc.stderr)
    env = next(json.loads(line.split(" ", 1)[1]) for line in lines
               if line.startswith("environment "))
    result = json.loads(lines[-1])
    raw = [line.split()[2] for line in lines if line.startswith("study_s ")]
    result["raw_study_s"] = float(raw[0]) if raw else None
    return result, env


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float,
                        default=bench["run_seconds"])
    parser.add_argument("--workload", nargs="*",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()

    report = {"runs": args.runs, "run_seconds": args.seconds,
              "workloads": {}}
    for workload in args.workload:
        values = {name: [] for name in bounds}
        raw_study_s = []
        attempted = failed = 0
        for seed in range(1, args.runs + 1):
            result, env = one_run(workload, seed, args.seconds)
            attempted += result["attempted"]
            failed += result["failed"]
            raw_study_s.append(result["raw_study_s"])
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k} {v[-1]:.4f}" for k, v in values.items()), flush=True)
        summary = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            summary[name] = {"median": med, "q1": q1, "q3": q3,
                             "spread": spread, "values": vals}
            print(f"  {name:<12} median {med:.4f}, quartiles {q1:.4f} .. "
                  f"{q3:.4f}, spread {spread:.4f} "
                  f"(a third of the bound: {bounds[name] / 3:.4f})",
                  flush=True)
        traced, _ = one_run(workload, args.runs + 1, args.seconds, trace=1)
        print(f"  traced run: correct {traced['correct']}", flush=True)
        report["workloads"][workload] = {
            "attempted": attempted, "failed": failed,
            "failed_share": failed / attempted, "metrics": summary,
            "raw_study_s": raw_study_s,
            "per_layer": {name: m["value"]
                          for name, m in traced["metrics"].items()}}
        report["environment"] = env
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

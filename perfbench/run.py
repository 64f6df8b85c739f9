"""The cylspectra benchmark: desk-scale CLI studies, end to end and per layer.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload sweep-p2 --seed 0 --seconds 35 --trace 0

Every study runs one workload (see `workloads.py`) through the real CLI
entry point, `cylspectra.cli.main`, in a fresh child process with BLAS and
OpenMP pinned to one thread.  This is a closed loop with one client: a
study starts only after the previous child has exited.  Studies repeat
until the next one would end past `--seconds` (at least one always runs),
and every study's artifact is checked against `references.json`.

With `--trace 0` the last line of standard output reports the end-to-end
metrics, each the median over the run:

* `study_cal` - wall time inside `cli.main` divided by the time of a fixed
  numpy/scipy calibration kernel run in the same child just before and just
  after (see `child.calibrate`).  On a shared 2-core host the machine's
  speed swung by 1.6x over minutes, which spread the raw study time by
  25-33% between runs; the ratio cancels those swings.  The raw wall time,
  `study_s`, is printed above the result line.
* `setup_s` - seconds to import `cylspectra.cli` and validate the config
  with `cli.RunPlan` in a fresh child, sampled in several children per run.
  It swings with the machine's speed as well, so it is scaled to the speed
  at which the calibration kernel takes CAL_REF_S, using the median
  calibration of the run's studies.  The raw median is printed too.
* `peak_rss_mb` - the study child's peak resident memory.

With `--trace 1` the untraced studies are followed by one traced study and
the last line reports the per-layer metrics of `tracer.py` instead.  Failed studies (nonzero exit, missing artifact or a
failed correctness check) are counted in `failed` against `attempted`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracer import UNITS as LAYER_UNITS
from workloads import WORKLOADS, check_run_dir, load_references, make_config

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END = {"study_cal": "cal", "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_SAMPLES = 5       # set-up-only children per run, after one warm-up
CAL_REF_S = 0.25        # calibration time of the speed setup_s is scaled to
CHILD_TIMEOUT_S = 150
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1"}


def child_env():
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    return env


def environment(seed, threads):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unavailable"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.read_bytes())
    return {"nproc": len(os.sched_getaffinity(0)),
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "commit": commit, "src_sha256": digest.hexdigest()[:16],
            "threads": threads, "seed": seed, **PINNED}


class Bench:
    """Runs the children of one benchmark run inside a scratch directory."""

    def __init__(self, workload, config_path, scratch, threads):
        self.workload = workload
        self.config_path = config_path
        self.scratch = scratch
        self.threads = threads
        self.env = child_env()
        self.count = 0

    def child(self, mode, **extra):
        """Run one child; returns (measurements or None, output dir, error)."""
        self.count += 1
        result = self.scratch / f"result-{self.count}.json"
        outdir = self.scratch / f"out-{self.count}"
        task = {"mode": mode, "command": self.workload.command,
                "config": str(self.config_path), "output_dir": str(outdir),
                "threads": self.threads, "result": str(result), **extra}
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), json.dumps(task)],
                cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None, outdir, f"timed out after {CHILD_TIMEOUT_S} s"
        if proc.returncode != 0 or not result.is_file():
            tail = proc.stderr.strip().splitlines()[-3:]
            return None, outdir, f"exit {proc.returncode}: {' | '.join(tail)}"
        with open(result) as fh:
            return json.load(fh), outdir, None

    def study(self, reference, mode="study", **extra):
        """One checked study; returns (measurements or None, errors)."""
        out, outdir, error = self.child(mode, **extra)
        if error is None and out["exit_code"] != 0:
            error = f"cli exit code {out['exit_code']}"
        errors = [error] if error else check_run_dir(outdir, self.workload,
                                                     reference)
        shutil.rmtree(outdir, ignore_errors=True)
        return out, errors


def summary(values):
    """(median, q1, q3) of a list of samples."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q1, q3


def run(args):
    workload = WORKLOADS[args.workload]
    reference = load_references()[workload.name]
    threads = len(os.sched_getaffinity(0))
    print(f"perfbench {workload.name}: seed {args.seed}, "
          f"{args.seconds} s, trace {args.trace}")
    print("environment " + json.dumps(environment(args.seed, threads)))

    base = ROOT / ".bench_runs"
    base.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=base))
    try:
        config_path = scratch / "config.json"
        config_path.write_text(json.dumps(make_config(workload, args.seed)))
        bench = Bench(workload, config_path, scratch, threads)
        return measure(bench, reference, args)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        if not any(base.iterdir()):
            base.rmdir()


def measure(bench, reference, args):
    # The first child compiles bytecode and warms the file cache, which
    # users do not pay on every run, so its set-up time is not counted.
    bench.child("setup")
    setups = []
    for _ in range(SETUP_SAMPLES):
        out, _, error = bench.child("setup")
        if error:
            print(f"set-up failed: {error}", file=sys.stderr)
            return 1
        setups.append(out["setup_s"])

    traced_reserve = 0.0
    deadline = time.perf_counter() + args.seconds
    studies, attempted, failed = [], 0, 0
    while True:
        started = time.perf_counter()
        out, errors = bench.study(reference)
        attempted += 1
        failed += bool(errors)
        if out is not None:
            studies.append(out)
            setups.append(out["setup_s"])
        status = "ok" if not errors else "FAILED: " + "; ".join(errors[:3])
        print(f"study {attempted}: "
              + (f"study_s {out['study_s']:.4f} s, calibration "
                 f"{out['calibration_s']:.4f} s, setup_s "
                 f"{out['setup_s']:.4f} s, peak_rss_mb "
                 f"{out['peak_rss_mb']:.1f} MB, " if out else "")
              + status)
        took = time.perf_counter() - started
        if args.trace:
            traced_reserve = took
        if time.perf_counter() + took + traced_reserve > deadline:
            break
    if not studies:
        print("no study produced measurements", file=sys.stderr)
        return 1

    study_s = [s["study_s"] for s in studies]
    speed = CAL_REF_S / statistics.median(s["calibration_s"] for s in studies)
    e2e = {"study_cal": [s["study_s"] / s["calibration_s"] for s in studies],
           "setup_s": [x * speed for x in setups],
           "peak_rss_mb": [s["peak_rss_mb"] for s in studies]}
    raw = [("study_s", study_s, "s"), ("raw setup_s", setups, "s")]
    for name, values, unit in raw + [
            (name, values, END_TO_END[name]) for name, values in e2e.items()]:
        med, q1, q3 = summary(values)
        print(f"{name:<12} median {med:.4f} {unit}, quartiles "
              f"{q1:.4f} .. {q3:.4f} (n={len(values)})")

    if args.trace:
        out, errors = bench.study(reference, mode="traced",
                                  untraced_study_s=summary(study_s)[0])
        attempted += 1
        failed += bool(errors)
        if out is None:
            print("traced study failed: " + "; ".join(errors),
                  file=sys.stderr)
            return 1
        if errors:
            print("traced study FAILED: " + "; ".join(errors[:3]))
        print_trace(out)
        metrics = {name: {"value": value, "unit": LAYER_UNITS[name]}
                   for name, value in out["layers"].items()}
    else:
        metrics = {name: {"value": summary(values)[0],
                          "unit": END_TO_END[name]}
                   for name, values in e2e.items()}

    print(f"failed_share {failed}/{attempted} = {failed / attempted:.4f}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def print_trace(out):
    spans = out["spans"]
    total = spans["cli.main"]["seconds"] if "cli.main" in spans else 0.0
    print(f"{'span':<34} {'calls':>7} {'total s':>10} {'self s':>10} "
          f"{'self %':>7}")
    for name, st in sorted(spans.items(), key=lambda kv: -kv[1]["self_s"]):
        share = 100.0 * st["self_s"] / total if total else 0.0
        print(f"{name:<34} {st['calls']:>7} {st['seconds']:>10.4f} "
              f"{st['self_s']:>10.4f} {share:>6.1f}%")
    self_sum = sum(st["self_s"] for st in spans.values())
    print(f"sum of self times {self_sum:.4f} s, traced study_s {total:.4f} s")
    if out["absent"]:
        print("absent boundaries: " + ", ".join(out["absent"]))
    for name, value in out["layers"].items():
        print(f"{name:<42} {value:.6g} {LAYER_UNITS[name]}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cylspectra" / "cli.py").is_file():
        print(f"error: no cylspectra sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    # subprocess.run kills and waits for its child on any exception, so a
    # terminated run leaves no child behind.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    return run(args)


if __name__ == "__main__":
    sys.exit(main())

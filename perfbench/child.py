"""One benchmark child process: a set-up sample, a study or a traced study.

Usage: python3 perfbench/child.py '<task JSON>'

The task names the mode (`setup`, `study` or `traced`), the CLI command,
its config file and output directory, and the file the child writes its
measurements to.  Set-up time runs from just before `import cylspectra.cli`
to just after the config is validated with `cli.RunPlan`; study time is the
wall time inside `cli.main`, bracketed by two timings of a calibration
kernel.  A traced study also needs the untraced median study time, to
report the tracing overhead.
"""

import json
import resource
import sys
import time


def calibrate():
    """Seconds a fixed numpy/scipy kernel takes, independent of the program.

    Sparse LU solves, sparse products and elementwise powers: the kinds of
    work the studies spend their time on.  Timed in the study's own process
    just before and just after the study, it measures how fast the shared
    machine is running at that moment, which on a shared host swings by
    more than half over minutes.
    """
    import numpy as np
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla
    n = 48
    lap = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    K = (sp.kron(lap, sp.eye(n)) + sp.kron(sp.eye(n), lap)).tocsc()
    lu = spla.splu(K)
    x = np.ones(n * n)
    a = np.linspace(0.1, 1.0, 100_000)
    start = time.perf_counter()
    for _ in range(200):
        x = lu.solve(K @ x)
        x /= np.linalg.norm(x)
        np.sum(np.abs(a) ** 1.5 * a)
    return time.perf_counter() - start


def main():
    task = json.loads(sys.argv[1])
    start = time.perf_counter()
    from cylspectra import cli
    with open(task["config"]) as fh:
        cfg = json.load(fh)
    cli.RunPlan(cfg, task["command"].replace("-", "_"),
                cli_output_dir=task["output_dir"])
    out = {"setup_s": time.perf_counter() - start, "module": cli.__file__}

    if task["mode"] != "setup":
        argv = [task["command"], "--config", task["config"],
                "--output-dir", task["output_dir"],
                "--threads", str(task["threads"])]
        if task["mode"] == "traced":
            from tracer import Tracer, layer_metrics
            with Tracer() as tracer:
                out["exit_code"] = cli.main(argv)
            out["layers"] = layer_metrics(tracer, task["untraced_study_s"])
            out["spans"] = {k: vars(v) for k, v in tracer.stats.items()}
            out["absent"] = tracer.absent
        else:
            before = calibrate()
            start = time.perf_counter()
            out["exit_code"] = cli.main(argv)
            out["study_s"] = time.perf_counter() - start
            out["calibration_s"] = (before + calibrate()) / 2.0
        out["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)

    with open(task["result"], "w") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main()

"""Generate `references.json`: each workload's eigenvalues, checked by oracles.

Usage, from the root of the repository:

    python3 perfbench/references.py

Runs every workload once through the CLI and stores its eigenvalue columns.
Before anything is written, each stored value is checked against an oracle
that does not share the solver under test:

* p = 2: the assembled pencil is solved by dense `scipy.linalg.eigh`, never
  by `linear_spectrum` (at most about 2,000 free DOFs per mesh here).
* p = 3: every cylinder eigenvalue is recomputed from a second start vector
  (`ones` instead of the default `lifted_w`); the two must agree.

`mu1` comes from the library's own dense 1D eigensolve at p = 2 and is not
checked again.  The script refuses to write if any oracle disagrees.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import tempfile
from pathlib import Path

from workloads import (REFERENCES, REL_TOL, WORKLOADS, make_config,
                       read_columns, reference_columns, rel_close)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

def run_cli(workload, cfg, workdir):
    """Run a workload config through `cli.main`; returns its CSV columns."""
    from cylspectra import cli
    workdir = Path(workdir)
    config_path = workdir / "config.json"
    config_path.write_text(json.dumps(cfg))
    outdir = workdir / "out"
    code = cli.main([workload.command, "--config", str(config_path),
                     "--output-dir", str(outdir)])
    if code != 0:
        raise RuntimeError(f"{workload.name}: cli exit code {code}")
    (run_dir,) = [d for d in outdir.iterdir() if d.is_dir()]
    return read_columns(run_dir / workload.artifact)


def _p2_eigenvalues(mesh, family, k):
    import scipy.linalg
    from cylspectra.discretization import assemble_p2
    pair = assemble_p2(mesh, family)
    return scipy.linalg.eigh(pair.stiffness.toarray(), pair.mass.toarray(),
                             eigvals_only=True, subset_by_index=[0, k - 1])


def _p3_second_start(mesh, family, p, opts):
    from cylspectra.eigensolve import Init, minimize_rayleigh
    return minimize_rayleigh(mesh, family, p,
                             dataclasses.replace(opts, init=Init.ONES)).lam


# (column, shape, boundary condition) of the four cylinder problems of a sweep
_SWEEP_PROBLEMS = (("lambda_mixed", "FULL_CYLINDER", "MIXED"),
                   ("lambda_dirichlet", "FULL_CYLINDER", "DIRICHLET_ALL"),
                   ("lambda_half_plus", "HALF_PLUS", "HALF_CYLINDER"),
                   ("lambda_half_minus", "HALF_MINUS", "HALF_CYLINDER"))


def oracle_errors(workload, cfg, columns):
    """Disagreements between a workload's eigenvalues and their oracles."""
    from cylspectra import cli
    from cylspectra.mesh import BC, DomainSpec, Shape, build_mesh
    plan = cli.RunPlan(cfg, workload.command)

    def mesh(shape, bc, ell):
        return build_mesh(DomainSpec(Shape[shape], ell, BC[bc],
                                     plan.cells_per_unit, plan.nx2))

    checks = []   # (label, stored value, oracle value)
    if workload.command == "spectrum":
        oracle = _p2_eigenvalues(mesh("FULL_CYLINDER", "MIXED", plan.ell),
                                 plan.family, plan.k)
        checks += [(f"lambda[k={i + 1}]", value, oracle[i])
                   for i, value in enumerate(columns["lambda"])]
    else:
        for i, ell in enumerate(columns["ell"]):
            for column, shape, bc in _SWEEP_PROBLEMS:
                m = mesh(shape, bc, ell)
                if plan.p == 2:
                    oracle = _p2_eigenvalues(m, plan.family, 1)[0]
                else:
                    oracle = _p3_second_start(m, plan.family, plan.p,
                                              plan.opts)
                checks.append((f"{column}[ell={ell:g}]", columns[column][i],
                               oracle))
    for label, value, oracle in checks:
        print(f"  {label}: {value!r} vs oracle {float(oracle)!r}")
    return [f"{workload.name} {label}: {value!r} vs oracle {float(oracle)!r}"
            for label, value, oracle in checks
            if not rel_close(value, float(oracle))]


def build_reference(workload, cfg, workdir):
    """(reference columns, oracle errors) of one workload config."""
    columns = run_cli(workload, cfg, workdir)
    return (reference_columns(columns, workload.artifact),
            oracle_errors(workload, cfg, columns))


def main():
    out = {"rel_tol": REL_TOL, "workloads": {}}
    errors = []
    scratch = ROOT / ".bench_runs"
    scratch.mkdir(exist_ok=True)
    for workload in WORKLOADS.values():
        print(workload.name)
        with tempfile.TemporaryDirectory(dir=scratch) as workdir:
            reference, bad = build_reference(
                workload, make_config(workload, seed=0), workdir)
        out["workloads"][workload.name] = reference
        errors += bad
    if not any(scratch.iterdir()):
        scratch.rmdir()
    if errors:
        print("oracle disagreements:\n  " + "\n  ".join(errors),
              file=sys.stderr)
        return 1
    REFERENCES.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {REFERENCES}")
    return 0


if __name__ == "__main__":
    # numpy and the library are imported inside the functions above, so
    # that BLAS is pinned to one thread before it loads.
    os.environ.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                      MKL_NUM_THREADS="1")
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())

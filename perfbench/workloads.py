"""Benchmark workloads, their configs and the per-run correctness check.

Every workload runs one `cylspectra` CLI command on the acceptance suite's
gap family (constant off-diagonal, c = 0.3) with default solver options, at
nx2 = 32, cells_per_unit = 4.  That is half the desk-scale resolution
(64 x 8) in each direction: the lengths, the spectral collapse and the
iteration counts stay alike, but a study takes 3-5 s instead of 11-21 s,
so five to seven of them fit in one run and their median is robust to the
short slowdowns of a shared machine.  The three workloads are chosen so that
each performance layer has one workload it dominates and one it never
touches:

* sweep-p2    - the p = 2 inverse iteration (`linear_spectrum`) is the whole
                run; quadrature evaluation is never called.
* sweep-p3    - Rayleigh descent (`_eval_value`/`_eval_full`, Armijo trials,
                preconditioner solves) is the whole run; `linear_spectrum`
                is never called.
* spectrum-p2 - one large mesh, three deflated modes inside the collapsing
                cluster: the linear layer again, but a single row and a
                single length, so row parallelism and warm starts cannot help.

Eigenvalue columns are compared with stored reference values at a relative
tolerance; the eigenvector-derived columns (end-mass split, half-cylinder
symmetry) are checked by identities instead, because a better-converged
eigenvector legitimately moves them.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

RESOLUTION = {"nx2": 32, "cells_per_unit": 4}
FAMILY = {"kind": "constant_offdiag", "c": 0.3}

# At the reference commit, p = 3 at ell = 4 reproduces its eigenvalue to
# 2e-12 across three start vectors and two tolerances; 1e-8 admits any
# correct solver at the default tolerances.
REL_TOL = 1e-8
IDENTITY_TOL = 1e-8

REFERENCES = Path(__file__).resolve().parent / "references.json"


@dataclass(frozen=True)
class Workload:
    name: str
    command: str     # CLI subcommand
    params: dict     # experiment keys besides resolution, family and seed
    artifact: str    # the CSV the correctness check reads
    why: str


WORKLOADS = {w.name: w for w in (
    Workload("sweep-p2", "sweep", {"p": 2, "ells": [2, 4, 8]}, "sweep.csv",
             "p=2 sweep, ells 2,4,8: linear_spectrum inverse iteration and "
             "its LU solves are the whole run; no quadrature evaluation. The "
             "seed only sets the config key; lifted_w ignores it"),
    Workload("sweep-p3", "sweep", {"p": 3, "ells": [2, 4, 8]}, "sweep.csv",
             "p=3 sweep, ells 2,4,8: Rayleigh descent (quadrature evaluation, "
             "Armijo trials, preconditioner solves) is the whole run; no "
             "linear_spectrum. The seed is unused by lifted_w"),
    Workload("spectrum-p2", "spectrum", {"p": 2, "ell": 8, "k": 3},
             "spectrum.csv",
             "p=2, ell=8, k=3: three deflated modes of one large mesh in the "
             "collapsing cluster; one row, one length, so row parallelism and "
             "warm starts cannot help. Seed unused by lifted_w"),
)}

# Columns holding eigenvalues, compared with the references, and the column
# that identifies a row.
EIGEN_COLUMNS = {
    "sweep.csv": ("lambda_mixed", "lambda_dirichlet", "lambda_half_plus",
                  "lambda_half_minus", "mu1"),
    "spectrum.csv": ("lambda",),
}
KEY_COLUMN = {"sweep.csv": "ell", "spectrum.csv": "k"}


def make_config(workload, seed, resolution=None):
    """The CLI config of a workload; tests pass a smaller `resolution`.

    The seed goes into the config's `seed` key.  Under the default
    `lifted_w` start it does not change what is computed.
    """
    cfg = {"resolution": dict(resolution or RESOLUTION),
           "family": dict(FAMILY)}
    cfg.update(workload.params)
    cfg["seed"] = int(seed)
    return cfg


def read_columns(path):
    """A CSV file as {column: [float, ...]}, skipping non-numeric columns."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    columns = {}
    for key in (rows[0] if rows else {}):
        try:
            columns[key] = [float(row[key]) for row in rows]
        except ValueError:
            continue
    return columns


def reference_columns(columns, artifact):
    """The part of an artifact's columns that is stored as the reference."""
    keep = (KEY_COLUMN[artifact],) + EIGEN_COLUMNS[artifact]
    return {key: columns[key] for key in keep}


def load_references():
    with open(REFERENCES) as fh:
        return json.load(fh)["workloads"]


def rel_close(a, b, tol=REL_TOL):
    return math.isfinite(a) and abs(a - b) <= tol * max(abs(a), abs(b))


def check_artifact(path, artifact, reference):
    """Correctness errors of one run's artifact; an empty list means correct."""
    try:
        columns = read_columns(path)
    except (OSError, csv.Error) as exc:
        return [f"cannot read {artifact}: {exc}"]
    errors = []
    key = KEY_COLUMN[artifact]
    if columns.get(key) != reference[key]:
        return [f"{artifact}: rows {columns.get(key)} != {reference[key]}"]
    for name in EIGEN_COLUMNS[artifact]:
        for i, (got, want) in enumerate(zip(columns.get(name, []),
                                            reference[name])):
            if not rel_close(got, want):
                errors.append(f"{name}[{key}={reference[key][i]:g}] = "
                              f"{got!r}, reference {want!r}")
        if len(columns.get(name, [])) != len(reference[name]):
            errors.append(f"{artifact}: column {name} missing or short")
    if artifact == "sweep.csv" and not errors:
        for i, ell in enumerate(columns["ell"]):
            mass = columns["d_plus"][i] + columns["d_minus"][i]
            if not abs(mass - 1.0) <= IDENTITY_TOL:
                errors.append(f"d_plus + d_minus = {mass!r} at ell={ell:g}")
            plus = columns["lambda_half_plus"][i]
            minus = columns["lambda_half_minus"][i]
            if not rel_close(plus, minus):
                errors.append(f"lambda_half_plus {plus!r} != "
                              f"lambda_half_minus {minus!r} at ell={ell:g}")
    return errors


def check_run_dir(output_dir, workload, reference):
    """Correctness errors of the single run directory a CLI call created."""
    run_dirs = [d for d in Path(output_dir).iterdir() if d.is_dir()]
    if len(run_dirs) != 1:
        return [f"expected one run directory, found {len(run_dirs)}"]
    run_dir = run_dirs[0]
    if not (run_dir / "manifest.json").is_file():
        return ["manifest.json missing"]
    return check_artifact(run_dir / workload.artifact, workload.artifact,
                          reference)

"""Configuration-driven experiment runner.

One JSON config per run; every experiment writes into a fresh timestamped
subdirectory of the output directory: the data files listed below plus a
`manifest.json` echoing the config and recording outputs and convergence.
Numeric output is serialized with 17 significant digits, so repeated runs
of the same config produce byte-identical CSV files.  An uncertified solve
is recorded, not raised: `converged` is false in the manifest (and in
`solve.json`), also where the uncertified solve is the cross section's,
that of the `grad_aligned` family included, and the run exits 0.

Commands and their artifacts:
  solve      solve.json   {lambda, iterations, residual, converged}
  sweep      sweep.csv    one row per length, fixed 17-column schema
  ladder     ladder.csv   {ell, lambda_tilde, monotone_ok} + nu_estimate.json
  spectrum   spectrum.csv {k, lambda, iterations, residual, converged}
  gap-check  gapcheck.json  cross-section gap diagnostics
  decay      decay.csv (slab profile) + decay.json (fitted ratio)
  beta2      beta2.csv    {ell, beta2_upper, lambda_half_plus, lambda_half_minus}
  report     report.txt / report.csv from previous run manifests

A config is checked in full before its run directory is made, by the
checks the library itself runs before any solve: `check_resolution` and
`DomainSpec` (mesh), `check_exponent` (discretization), and
`check_lengths`, `check_window` and `check_eps` (asymptotics).  Only a
`k` above the free DOFs of the mesh is found once the run has begun.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import datetime
import json
import os
import sys

import numpy as np

from . import __version__
from . import asymptotics as asy
from .coeffs import (CoefficientFamily, FamilyKind, load_tabulated_csv,
                     make_coefficients, satisfies_symmetry_S)
from .discretization import check_exponent
from .eigensolve import (Side, SolveOptions, cross_section_ground_state,
                         linear_spectrum)
from .errors import ConfigurationError, SolverError
from .mesh import (BC, DomainSpec, Shape, build_mesh, check_resolution,
                   slab_count, slab_integrals)

SWEEP_HEADER = ("ell,p,family,lambda_mixed,lambda_dirichlet,lambda_half_plus,"
                "lambda_half_minus,mu1,gap,alpha_hat,d_plus,d_minus,n_plus,"
                "n_minus,iterations,residual,converged")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_SOLVER = 4


def _g17(x):
    return format(float(x), ".17g")


def _csv_cell(x):
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, str)):
        return str(x)
    return _g17(x)


def _write_csv(outdir, name, header, rows):
    lines = [header] + [",".join(map(_csv_cell, row)) for row in rows]
    _atomic_write(os.path.join(outdir, name), "\n".join(lines) + "\n")


def _json_value(obj):
    if isinstance(obj, dict):
        return "{" + ", ".join(
            f"{json.dumps(str(k))}: {_json_value(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_json_value(v) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        return "null" if not np.isfinite(x) else _g17(x)
    return json.dumps(obj)


def _dump_json(obj):
    return _json_value(obj) + "\n"


def _atomic_write(path, text):
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _is_json(val, kind):
    """isinstance for JSON values: true and false are not numbers, though
    bool is a subclass of int."""
    return isinstance(val, kind) and not isinstance(val, bool)


class _Schema:
    """Strict key/type checking; unknown keys are rejected."""

    def __init__(self, cfg, context="config"):
        if not isinstance(cfg, dict):
            raise ConfigurationError(f"{context} must be a JSON object")
        self.cfg = dict(cfg)
        self.context = context
        self.seen = set()

    def get(self, key, kind, default=None, required=False, choices=None):
        self.seen.add(key)
        if key not in self.cfg:
            if required:
                raise ConfigurationError(f"{self.context}: missing key {key!r}")
            return default
        val = self.cfg[key]
        if kind is float and _is_json(val, int):
            val = float(val)
        if not _is_json(val, kind):
            raise ConfigurationError(
                f"{self.context}: key {key!r} must be {kind}, got {type(val)}")
        if choices is not None and val not in choices:
            raise ConfigurationError(
                f"{self.context}: key {key!r} must be one of {sorted(choices)}")
        return val

    def finish(self):
        unknown = set(self.cfg) - self.seen
        if unknown:
            raise ConfigurationError(
                f"{self.context}: unknown keys {sorted(unknown)}")


_FAMILY_KINDS = {k.value: k for k in FamilyKind}
_SHAPES = {"full": Shape.FULL_CYLINDER, "half_plus": Shape.HALF_PLUS,
           "half_minus": Shape.HALF_MINUS, "cross_section": Shape.CROSS_SECTION}
_BCS = {"mixed": BC.MIXED, "dirichlet": BC.DIRICHLET_ALL, "half": BC.HALF_CYLINDER}


def _parse_family(raw, p, nx2, opts):
    """The coefficient field, and whether the section solve it is built
    from (`grad_aligned`'s identity section, run with `opts`) is certified."""
    sch = _Schema(raw, "family")
    kind = sch.get("kind", str, required=True, choices=set(_FAMILY_KINDS))
    c = sch.get("c", float, default=0.0)
    csv_path = sch.get("csv", str, default=None)
    sch.finish()
    kind = _FAMILY_KINDS[kind]
    if kind is FamilyKind.TABULATED:
        if csv_path is None:
            raise ConfigurationError("tabulated family needs a 'csv' path")
        return load_tabulated_csv(csv_path), True
    if kind is FamilyKind.GRAD_ALIGNED:
        ident = make_coefficients(CoefficientFamily(FamilyKind.IDENTITY))
        cross = cross_section_ground_state(nx2, ident, p, opts)
        return (make_coefficients(CoefficientFamily(kind, c), cross=cross),
                cross.converged)
    return make_coefficients(CoefficientFamily(kind, c)), True


def _parse_solver(raw):
    sch = _Schema(raw or {}, "solver")
    opts = SolveOptions(
        tol_residual=sch.get("tol_residual", float, default=1e-8),
        max_iters=sch.get("max_iters", int, default=50000),
    )
    sch.finish()
    return opts


class RunPlan:
    """Validated experiment configuration: all that the config alone can
    tell is checked up front, before any run directory exists.  The plan
    parses the JSON types and keeps the rules of the command line alone
    (experiment names, `spectrum` at p = 2, report manifests); every other
    rule is the library's one check of it, which the solves call too.  A
    solve, spectrum or decay run keeps its one domain as `spec`."""

    def __init__(self, cfg, experiment, cli_output_dir=None):
        sch = _Schema(cfg)
        declared = sch.get("experiment", str, default=None, choices=set(_RUNNERS))
        if declared is not None and declared != experiment:
            raise ConfigurationError(
                f"config declares experiment {declared!r}, command is {experiment!r}")
        self.experiment = experiment
        self.config_echo = cfg
        self.family_converged = True  # a report reads no family
        self.output_dir = cli_output_dir or sch.get("output_dir", str, default="runs")
        sch.get("seed", int)  # accepted and unused: no start is random

        if experiment == "report":
            self.manifests = sch.get("manifests", list, required=True)
            for m in self.manifests:
                if not isinstance(m, str):
                    raise ConfigurationError("manifests must be a list of paths")
            sch.finish()
            return

        resolution = _Schema(sch.get("resolution", dict, required=True), "resolution")
        self.nx2 = resolution.get("nx2", int, required=True)
        self.cells_per_unit = resolution.get("cells_per_unit", int, required=True)
        resolution.finish()
        check_resolution(self.nx2, self.cells_per_unit)

        self.p = sch.get("p", float, required=True)
        check_exponent(self.p)
        self.opts = _parse_solver(sch.get("solver", dict, default=None))
        family = sch.get("family", dict, required=True)

        if experiment == "solve":
            shape = _SHAPES[sch.get("shape", str, default="full",
                                    choices=set(_SHAPES))]
            default_bc = {"full": "mixed", "half_plus": "half",
                          "half_minus": "half", "cross_section": "dirichlet"}
            bc = _BCS[sch.get("bc", str, default=default_bc[shape.value],
                              choices=set(_BCS))]
            self.spec = DomainSpec(shape, sch.get("ell", float, default=1.0),
                                   bc, self.cells_per_unit, self.nx2)
        elif experiment in ("sweep", "beta2", "ladder"):
            ells = sch.get("ells", list, required=True)
            if not all(_is_json(e, (int, float)) for e in ells):
                raise ConfigurationError("ells must be a numeric list")
            rungs = asy.LADDER_RUNGS if experiment == "ladder" else 1
            self.ells = asy.check_lengths([float(e) for e in ells],
                                          self.resolution, rungs)
            if experiment == "ladder":
                self.side = Side(sch.get("side", str, default="plus",
                                         choices={"plus", "minus"}))
        elif experiment in ("spectrum", "decay"):
            self.ell = sch.get("ell", float, required=True)
            self.spec = DomainSpec(Shape.FULL_CYLINDER, self.ell, BC.MIXED,
                                   self.cells_per_unit, self.nx2)
            if experiment == "spectrum":
                self.k = sch.get("k", int, default=3)
                if self.k < 1:
                    raise ConfigurationError("k must be >= 1")
                if self.p != 2:
                    raise ConfigurationError("spectrum requires p = 2")
            else:
                window = sch.get("window", list, default=None)
                if window is None:
                    window = asy.default_window(self.ell)
                elif (len(window) != 2
                      or not all(_is_json(w, int) for w in window)):
                    raise ConfigurationError("window must be [first, last]")
                self.window = tuple(window)
                asy.check_window(self.window, slab_count(self.spec.length))
        elif experiment == "gap_check":
            eps = sch.get("eps", list, default=[0.1, 0.01])
            if not all(_is_json(e, (int, float)) for e in eps):
                raise ConfigurationError("eps must be a list of positive reals")
            self.eps_list = [float(e) for e in eps]
            for e in self.eps_list:
                asy.check_eps(e)
        sch.finish()
        # last: a grad_aligned family solves its identity section
        self.family, self.family_converged = _parse_family(
            family, self.p, self.nx2, self.opts)

    @property
    def resolution(self):
        return (self.nx2, self.cells_per_unit)


def _utc_now():
    return datetime.datetime.now(datetime.timezone.utc).strftime(
        "%Y%m%dT%H%M%S.%fZ")


def _make_run_dir(base, experiment):
    os.makedirs(base, exist_ok=True)
    stamp = _utc_now()
    for suffix in [""] + [f"-{i}" for i in range(1, 1000)]:
        path = os.path.join(base, f"{stamp}-{experiment}{suffix}")
        try:
            os.mkdir(path)
            return path
        except FileExistsError:
            continue
    raise OSError(f"could not create a fresh run directory under {base}")


def _first_pair(plan):
    """The first eigenpair on the plan's cylinder."""
    return asy.first_eigen(build_mesh(plan.spec), plan.family, plan.p,
                           plan.opts)


def _run_solve(plan, outdir):
    if plan.spec.shape is Shape.CROSS_SECTION:
        cross = cross_section_ground_state(plan.nx2, plan.family, plan.p,
                                           plan.opts)
        payload = {"lambda": cross.mu1, "iterations": cross.iterations,
                   "residual": cross.residual, "converged": cross.converged}
    else:
        r = _first_pair(plan)
        payload = {"lambda": r.lam, "iterations": r.iterations,
                   "residual": r.final_residual, "converged": r.converged}
    _atomic_write(os.path.join(outdir, "solve.json"), _dump_json(payload))
    return ["solve.json"], payload["converged"], payload


def _run_sweep(plan, outdir):
    rows = asy.sweep_lambda(plan.ells, plan.family, plan.p,
                            plan.resolution, plan.opts)
    _write_csv(outdir, "sweep.csv", SWEEP_HEADER, map(dataclasses.astuple, rows))
    converged = all(r.converged for r in rows)
    summary = {
        "rows": len(rows),
        "mu1": rows[-1].mu1,
        "gap_last": rows[-1].gap,
        "lambda_mixed_last": rows[-1].lambda_mixed,
        "symmetry_S": satisfies_symmetry_S(plan.family),
    }
    return ["sweep.csv"], converged, summary


def _run_ladder(plan, outdir):
    est = asy.nu_infinity_estimate(plan.side, plan.family, plan.p,
                                   plan.ells, plan.resolution, plan.opts)
    _write_csv(outdir, "ladder.csv", "ell,lambda_tilde,monotone_ok",
               [(ell, lam, est.monotone_ok) for ell, lam in est.ladder])
    payload = {"side": est.side.value, "last_value": est.last_value,
               "extrapolated": est.extrapolated, "monotone_ok": est.monotone_ok}
    _atomic_write(os.path.join(outdir, "nu_estimate.json"), _dump_json(payload))
    return ["ladder.csv", "nu_estimate.json"], est.converged, payload


def _run_spectrum(plan, outdir):
    results = linear_spectrum(build_mesh(plan.spec), plan.family, plan.k,
                              plan.opts)
    _write_csv(outdir, "spectrum.csv", "k,lambda,iterations,residual,converged",
               [(i, r.lam, r.iterations, r.final_residual, r.converged)
                for i, r in enumerate(results, start=1)])
    converged = all(r.converged for r in results)
    return ["spectrum.csv"], converged, {"eigenvalues": [r.lam for r in results]}


def _run_gap_check(plan, outdir):
    cross = cross_section_ground_state(plan.nx2, plan.family, plan.p,
                                       plan.opts)
    gi = asy.gap_integral_I2(cross, plan.family, plan.p)
    printed, printed_clamps = asy.slab_bound(cross, plan.family, plan.p, "as_printed")
    squared, squared_clamps = asy.slab_bound(cross, plan.family, plan.p, "squared")
    exp_tests = [{"eps": e,
                  "value": asy.exp_test_upper_bound(e, cross, plan.family,
                                                    plan.p)}
                 for e in plan.eps_list]
    payload = {
        "mu1": cross.mu1,
        "poincare_cp": cross.poincare_cp,
        "ellipticity_margin": plan.family.lambda_margin,
        "symmetry_S": satisfies_symmetry_S(plan.family),
        "gap_integral": gi.value,
        "a12_gradw_vanishes": gi.a12_gradw_vanishes,
        "slab_bound_as_printed": printed,
        "slab_bound_as_printed_clamped_points": printed_clamps,
        "slab_bound_squared": squared,
        "slab_bound_squared_clamped_points": squared_clamps,
        "exp_test": exp_tests,
    }
    _atomic_write(os.path.join(outdir, "gapcheck.json"), _dump_json(payload))
    return ["gapcheck.json"], cross.converged, payload


def _run_decay(plan, outdir):
    r = _first_pair(plan)
    profile = slab_integrals(r.field.mesh, plan.family, r.field, plan.p)
    oriented = asy.orient_profile(profile)
    _write_csv(outdir, "decay.csv", "slab,grad_energy,p_mass,a_energy",
               zip(range(len(oriented)), oriented.grad_energy,
                   oriented.p_mass, oriented.a_energy))
    fit = asy.fit_decay(oriented, plan.window)
    payload = {"lambda": r.lam, "alpha_hat": fit.alpha_hat,
               "r_squared": fit.r_squared,
               "window": list(fit.window), "no_decay": fit.no_decay,
               "converged": r.converged}
    _atomic_write(os.path.join(outdir, "decay.json"), _dump_json(payload))
    return ["decay.csv", "decay.json"], r.converged, payload


def _run_beta2(plan, outdir):
    cross = cross_section_ground_state(plan.nx2, plan.family, plan.p,
                                       plan.opts)
    bounds = [asy.beta2_upper_bound(ell, plan.resolution, plan.family,
                                    plan.p, plan.opts, cross=cross)
              for ell in plan.ells]
    _write_csv(outdir, "beta2.csv",
               "ell,beta2_upper,lambda_half_plus,lambda_half_minus",
               [(ell, b.value, b.plus.lam, b.minus.lam)
                for ell, b in zip(plan.ells, bounds)])
    converged = all(b.converged for b in bounds)
    return ["beta2.csv"], converged, {"beta2_upper_last": bounds[-1].value}


def _run_report(plan, outdir):
    txt = [f"cylspectra report ({__version__})", ""]
    csv_rows = []  # (section, key, value)
    n_section = 0
    for path in plan.manifests:
        mpath = path
        if os.path.isdir(path):
            mpath = os.path.join(path, "manifest.json")
        if not os.path.exists(mpath):
            txt.append(f"[absent] {path}")
            csv_rows.append((path, "status", "absent"))
            continue
        manifest = _read_manifest(mpath)
        n_section += 1
        exp = manifest.get("experiment", "?")
        section = f"{exp}#{n_section}"
        txt.append(f"== {section}: {mpath}")
        csv_rows.append((section, "manifest", mpath))
        rundir = os.path.dirname(mpath)
        if exp == "sweep" and os.path.exists(os.path.join(rundir, "sweep.csv")):
            rows = _read_sweep_csv(os.path.join(rundir, "sweep.csv"))
            mu1 = rows[-1]["mu1"]
            gaps = [r["gap"] for r in rows]
            txt.append(f"  family {rows[-1]['family']}, p={rows[-1]['p']:g}, "
                       f"mu1={mu1:.10g}")
            txt.append(f"  gap by ell: " + ", ".join(
                f"{r['ell']:g}:{r['gap']:.6g}" for r in rows))
            if len(gaps) >= 2 and abs(gaps[-1]) > 0:
                plateau = abs(gaps[-1] - gaps[-2]) / max(abs(gaps[-1]), 1e-300)
                txt.append(f"  gap plateau (last step rel change): {plateau:.3g}")
                csv_rows.append((section, "gap_plateau_rel_change", plateau))
            if abs(gaps[-1]) <= 1e-6 * mu1:
                txt.append("  no gap detected "
                           f"(max |gap| = {max(abs(g) for g in gaps):.3g})")
                csv_rows.append((section, "no_gap", True))
            sandwich = [(r["ell"], (r["lambda_dirichlet"] - r["mu1"]) * r["ell"])
                        for r in rows]
            csv_rows += [(section, f"sandwich_c_ell_{ell:g}", c_ell)
                         for ell, c_ell in sandwich]
            txt.append("  dirichlet sandwich (lamD-mu1)*ell: " + ", ".join(
                f"{ell:g}:{c_ell:.4g}" for ell, c_ell in sandwich))
            alpha = rows[-1]["alpha_hat"]
            txt.append(f"  decay alpha_hat (last row): {alpha:.6g}")
            csv_rows.append((section, "alpha_hat_last", alpha))
            ok = all(abs(r["d_plus"] + r["d_minus"] - 1) < 1e-8 for r in rows)
            txt.append(f"  mass-split identity: {'pass' if ok else 'FAIL'}")
            csv_rows.append((section, "mass_split_identity",
                             "pass" if ok else "fail"))
        elif exp == "ladder":
            results = manifest.get("results", {})
            txt.append(f"  side {results.get('side')}: last "
                       f"{results.get('last_value')}, extrapolated "
                       f"{results.get('extrapolated')}, monotone "
                       f"{results.get('monotone_ok')}")
            # as nu_estimate.json writes it: null where it is not finite
            csv_rows.append((section, "nu_extrapolated",
                             _json_value(results.get("extrapolated"))))
        else:
            for key, val in sorted(manifest.get("results", {}).items()):
                if isinstance(val, (int, float, bool, str)):
                    txt.append(f"  {key}: {val}")
                    csv_rows.append((section, key, val))
    if n_section == 0:
        txt.append("(no sections)")
    _atomic_write(os.path.join(outdir, "report.txt"), "\n".join(txt) + "\n")
    _write_csv(outdir, "report.csv", "section,key,value", csv_rows)
    return ["report.txt", "report.csv"], True, {"sections": n_section}


_SWEEP_CELLS = {"family": str, "iterations": int,
                "converged": lambda v: v == "true"}


def _read_manifest(path):
    """A run manifest as a dict; `ConfigurationError` naming `path` where it
    is not a JSON object whose `results`, if any, are one too."""
    with open(path) as fh:
        try:
            manifest = json.load(fh)
        except ValueError as exc:
            raise ConfigurationError(f"manifest {path}: {exc}") from exc
    if not (isinstance(manifest, dict)
            and isinstance(manifest.get("results", {}), dict)):
        raise ConfigurationError(f"manifest {path} is not a run manifest")
    return manifest


def _read_sweep_csv(path):
    """The rows of a `sweep.csv`; `ConfigurationError` naming `path` where
    it has no rows or they do not fit the sweep schema."""
    with open(path, newline="") as fh:
        lines = [line for line in csv.reader(fh) if line]
    header = SWEEP_HEADER.split(",")
    if (len(lines) < 2 or lines[0] != header
            or any(len(line) != len(header) for line in lines[1:])):
        raise ConfigurationError(f"{path} is not a sweep table with rows")
    try:
        return [{key: _SWEEP_CELLS.get(key, float)(val)
                 for key, val in zip(header, line)} for line in lines[1:]]
    except ValueError as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc


# the one list of commands: `RunPlan` checks a declared experiment against
# it and `_parser` takes a command named after each key, "_" written as "-"
_RUNNERS = {
    "solve": _run_solve, "sweep": _run_sweep, "ladder": _run_ladder,
    "spectrum": _run_spectrum, "gap_check": _run_gap_check,
    "decay": _run_decay, "beta2": _run_beta2, "report": _run_report,
}


def run_config(path, experiment, output_dir=None, threads=1):
    """Validate and execute one experiment config; returns (manifest, exit code)."""
    # the config and the CSV it may name are read before any run directory
    try:
        with open(path) as fh:
            cfg = json.load(fh)
        plan = RunPlan(cfg, experiment, cli_output_dir=output_dir)
    except (OSError, ValueError) as exc:
        print(f"error: invalid config {path}: {exc}", file=sys.stderr)
        return None, EXIT_CONFIG

    started = _utc_now()
    try:
        outdir = _make_run_dir(plan.output_dir, experiment)
    except OSError as exc:
        print(f"error: cannot create output directory: {exc}", file=sys.stderr)
        return None, EXIT_IO

    # a run that fails once its directory exists still gets a manifest,
    # recording the error
    error, code = None, EXIT_OK
    try:
        outputs, converged, results = _RUNNERS[experiment](plan, outdir)
        converged = converged and plan.family_converged
    except OSError as exc:
        error, code = f"I/O failure during run: {exc}", EXIT_IO
    except ConfigurationError as exc:
        # configuration problems only detectable against the mesh or
        # computed data
        error, code = f"invalid config: {exc}", EXIT_CONFIG
    except SolverError as exc:
        error, code = f"solver failure: {exc}", EXIT_SOLVER
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        outputs, converged, results = [], False, {}

    manifest = {
        "tool": "cylspectra",
        "version": __version__,
        "experiment": experiment,
        "config": plan.config_echo,
        "threads": threads,
        "started_utc": started,
        "finished_utc": _utc_now(),
        "outputs": outputs,
        "converged": converged,
        "results": results,
        "run_dir": outdir,
    }
    if error is not None:
        manifest["error"] = error
    try:
        _atomic_write(os.path.join(outdir, "manifest.json"), _dump_json(manifest))
    except OSError as exc:
        print(f"error: cannot write manifest: {exc}", file=sys.stderr)
        return None, EXIT_IO
    print(outdir)
    return manifest, code


def _parser():
    """One parser for every command: the command is a positional choice,
    and all commands take the same options."""
    parser = argparse.ArgumentParser(
        prog="cylspectra",
        description="Eigenvalue experiments on long cylinders")
    parser.add_argument("command",
                        choices=[name.replace("_", "-") for name in _RUNNERS])
    parser.add_argument("--config", required=True)
    parser.add_argument("--output-dir", default=None)
    parser.add_argument("--threads", type=int, default=1)
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    if args.threads < 1:
        print("error: threads must be >= 1", file=sys.stderr)
        return EXIT_CONFIG
    _, code = run_config(args.config, args.command.replace("-", "_"),
                         output_dir=args.output_dir, threads=args.threads)
    return code


if __name__ == "__main__":
    sys.exit(main())

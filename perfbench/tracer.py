"""Per-layer tracing of one CLI run, from outside the library.

`Tracer` replaces each boundary function, in every `cylspectra` module that
holds it, with a wrapper that counts calls and records total and self time.
Wrapping every holder matters: `asymptotics` and `cli` import the solvers
with `from .eigensolve import ...`, and only then do their nested calls
become child spans.  A span's self time is its duration minus the time
covered by the spans it called, so the self times of all spans add up to
the duration of the root span (`cli.main`).  Leaving the `with` block puts
every replaced attribute back.

A boundary that a later commit removes is reported in `Tracer.absent`, and
the metrics that depend on it are left out rather than read as zero.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class SpanStats:
    calls: int = 0
    seconds: float = 0.0
    self_s: float = 0.0


@dataclass(frozen=True)
class Boundary:
    span: str
    module: str
    attr: str
    hook: object = None   # hook(tracer, arguments, result) -> result


def _solver_hook(span):
    """Iterations, unconverged solves and residual over tolerance."""
    def hook(tracer, arguments, result):
        from cylspectra.eigensolve import SolveOptions
        tol = (arguments.get("opts") or SolveOptions()).tol_residual
        for r in result if isinstance(result, list) else [result]:
            tracer.counters[span + "_iterations"] += r.iterations
            tracer.counters["eigensolve.unconverged"] += not r.converged
            ratio = r.final_residual / (tol * max(1.0, abs(r.lam)))
            tracer.counters["eigensolve.residual_over_tol_max"] = max(
                tracer.counters["eigensolve.residual_over_tol_max"], ratio)
        return result
    return hook


def _quadrature_hook(span):
    """Quadrature points evaluated, to normalize time per point."""
    def hook(tracer, arguments, result):
        mesh, quad = arguments["mesh"], arguments["quad"]
        tracer.counters[span + "_qp"] += (
            mesh.n_cells1 * mesh.n_cells2 * quad.points_per_dir ** 2)
        return result
    return hook


def _cross_section_hook(tracer, arguments, result):
    coeffs = arguments["coeffs"]
    label = getattr(coeffs, "label", type(coeffs).__name__)
    tracer.distinct["eigensolve.cross_section"].add(
        (arguments["nx2"], label, float(arguments["p"])))
    return result


class _TracedFactor:
    """An LU factor whose `solve` is a traced span."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, name):
        return getattr(self._lu, name)


def _splu_hook(tracer, arguments, lu):
    return _TracedFactor(lu, tracer.wrap("eigensolve.lu_solve", lu.solve))


BOUNDARIES = (
    Boundary("cli.main", "cylspectra.cli", "main"),
    Boundary("coeffs.make_coefficients", "cylspectra.coeffs",
             "make_coefficients"),
    Boundary("asymptotics.sweep_lambda", "cylspectra.asymptotics",
             "sweep_lambda"),
    Boundary("asymptotics.end_mass_split", "cylspectra.asymptotics",
             "end_mass_split"),
    Boundary("asymptotics.fit_decay", "cylspectra.asymptotics", "fit_decay"),
    Boundary("mesh.build_mesh", "cylspectra.mesh", "build_mesh"),
    Boundary("mesh.slab_integrals", "cylspectra.mesh", "slab_integrals"),
    Boundary("eigensolve.half_cylinder_eigen", "cylspectra.eigensolve",
             "half_cylinder_eigen"),
    Boundary("eigensolve.linear_spectrum", "cylspectra.eigensolve",
             "linear_spectrum", _solver_hook("eigensolve.linear_spectrum")),
    Boundary("eigensolve.minimize_rayleigh", "cylspectra.eigensolve",
             "minimize_rayleigh", _solver_hook("eigensolve.minimize_rayleigh")),
    Boundary("eigensolve.cross_section", "cylspectra.eigensolve",
             "cross_section_ground_state", _cross_section_hook),
    Boundary("eigensolve.splu", "scipy.sparse.linalg", "splu", _splu_hook),
    Boundary("discretization.assemble_p2", "cylspectra.discretization",
             "assemble_p2"),
    Boundary("discretization.eval_value", "cylspectra.discretization",
             "_eval_value", _quadrature_hook("discretization.eval_value")),
    Boundary("discretization.eval_full", "cylspectra.discretization",
             "_eval_full", _quadrature_hook("discretization.eval_full")),
)

# Spans opened by a hook rather than by a boundary of their own.
_SPAWNED = {"eigensolve.lu_solve": "eigensolve.splu"}


class Tracer:
    package = "cylspectra"

    def __init__(self):
        self.stats = {}
        self.counters = defaultdict(float)
        self.distinct = defaultdict(set)
        self.absent = []
        self._stack = []
        self._patched = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    def install(self):
        for b in BOUNDARIES:
            try:
                module = importlib.import_module(b.module)
            except ImportError:
                module = None
            original = getattr(module, b.attr, None)
            if original is None:
                self.absent.append(b.span)
                continue
            wrapper = self.wrap(b.span, original, b.hook)
            holders = {id(module): module}
            for name, mod in list(sys.modules.items()):
                if mod is not None and (name == self.package or
                                        name.startswith(self.package + ".")):
                    holders[id(mod)] = mod
            for holder in holders.values():
                for name, value in list(vars(holder).items()):
                    if value is original:
                        self._patched.append((holder, name, original))
                        setattr(holder, name, wrapper)
        for span, parent in _SPAWNED.items():
            if parent in self.absent:
                self.absent.append(span)
            else:
                self.stats.setdefault(span, SpanStats())

    def restore(self):
        while self._patched:
            holder, name, original = self._patched.pop()
            setattr(holder, name, original)

    def wrap(self, span, fn, hook=None):
        """`fn` as a traced span; `hook` sees its arguments and result."""
        stats = self.stats.setdefault(span, SpanStats())
        signature = inspect.signature(fn) if hook is not None else None
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]   # time covered by child spans
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                stats.calls += 1
                stats.seconds += duration
                stats.self_s += duration - frame[0]
            if hook is not None:
                result = hook(self, signature.bind(*args, **kwargs).arguments,
                              result)
            return result
        return wrapper


def _ratio(num, den):
    """num / den, and 0 when there is nothing to divide by."""
    return num / den if den else 0.0


# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    ("eigensolve.linear_spectrum_calls", "count", "lower"),
    ("eigensolve.linear_spectrum_s", "s", "lower"),
    ("eigensolve.linear_spectrum_iterations", "count", "lower"),
    ("eigensolve.lu_solve_calls", "count", "lower"),
    ("eigensolve.lu_solve_s", "s", "lower"),
    ("eigensolve.lu_solve_ms_per_call", "ms", "lower"),
    ("eigensolve.splu_calls", "count", "lower"),
    ("eigensolve.splu_s", "s", "lower"),
    ("discretization.assemble_p2_calls", "count", "lower"),
    ("discretization.assemble_p2_s", "s", "lower"),
    ("eigensolve.minimize_rayleigh_calls", "count", "lower"),
    ("eigensolve.minimize_rayleigh_s", "s", "lower"),
    ("eigensolve.minimize_rayleigh_iterations", "count", "lower"),
    ("discretization.eval_value_calls", "count", "lower"),
    ("discretization.eval_value_s", "s", "lower"),
    ("discretization.eval_value_ns_per_qp", "ns", "lower"),
    ("discretization.eval_full_calls", "count", "lower"),
    ("discretization.eval_full_s", "s", "lower"),
    ("discretization.eval_full_ns_per_qp", "ns", "lower"),
    ("eigensolve.armijo_trials_per_iteration", "ratio", "lower"),
    ("eigensolve.cross_section_calls", "count", "lower"),
    ("eigensolve.cross_section_s", "s", "lower"),
    ("eigensolve.cross_section_useful_ratio", "ratio", "higher"),
    ("eigensolve.half_cylinder_eigen_calls", "count", "lower"),
    ("eigensolve.half_cylinder_eigen_s", "s", "lower"),
    ("eigensolve.unconverged", "count", "lower"),
    ("eigensolve.residual_over_tol_max", "ratio", "lower"),
    ("mesh.build_mesh_s", "s", "lower"),
    ("mesh.slab_integrals_s", "s", "lower"),
    ("asymptotics.end_mass_split_s", "s", "lower"),
    ("asymptotics.fit_decay_s", "s", "lower"),
    ("asymptotics.sweep_lambda_self_s", "s", "lower"),
    ("cli.main_self_s", "s", "lower"),
    ("coeffs.make_coefficients_s", "s", "lower"),
    ("trace.study_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)
UNITS = {name: unit for name, unit, _ in PER_LAYER}


def layer_metrics(tracer, untraced_study_s):
    """Per-layer metrics of a finished traced run, by PER_LAYER name.

    Seconds are self times.  Metrics whose boundary is absent are omitted.
    """
    stats, counters = tracer.stats, tracer.counters
    values = {}
    for span, st in stats.items():
        values[f"{span}_calls"] = st.calls
        values[f"{span}_s"] = st.self_s
    values["asymptotics.sweep_lambda_self_s"] = values.pop(
        "asymptotics.sweep_lambda_s", None)
    values["cli.main_self_s"] = values.pop("cli.main_s", None)
    for span in ("eigensolve.linear_spectrum", "eigensolve.minimize_rayleigh"):
        if span in stats:
            values[span + "_iterations"] = int(counters[span + "_iterations"])
    if not {"eigensolve.linear_spectrum",
            "eigensolve.minimize_rayleigh"} <= set(tracer.absent):
        values["eigensolve.unconverged"] = int(
            counters["eigensolve.unconverged"])
        values["eigensolve.residual_over_tol_max"] = counters[
            "eigensolve.residual_over_tol_max"]
    if "eigensolve.lu_solve" in stats:
        lu = stats["eigensolve.lu_solve"]
        values["eigensolve.lu_solve_ms_per_call"] = _ratio(
            lu.self_s * 1e3, lu.calls)
    for span in ("discretization.eval_value", "discretization.eval_full"):
        if span in stats:
            values[span + "_ns_per_qp"] = _ratio(
                stats[span].self_s * 1e9, counters[span + "_qp"])
    if {"discretization.eval_value", "discretization.eval_full"} <= set(stats):
        values["eigensolve.armijo_trials_per_iteration"] = _ratio(
            stats["discretization.eval_value"].calls,
            stats["discretization.eval_full"].calls)
    if "eigensolve.cross_section" in stats:
        values["eigensolve.cross_section_useful_ratio"] = _ratio(
            len(tracer.distinct["eigensolve.cross_section"]),
            stats["eigensolve.cross_section"].calls)
    if "cli.main" in stats:
        values["trace.study_s"] = stats["cli.main"].seconds
        values["trace.overhead_s"] = (stats["cli.main"].seconds
                                      - untraced_study_s)
    return {name: values[name] for name, _, _ in PER_LAYER
            if values.get(name) is not None}

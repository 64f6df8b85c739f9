import inspect
import json
import os
import re
import runpy
import subprocess
import sys

import numpy as np
import pytest

import cylspectra as cs
from cylspectra import cli
from conftest import count_section_solves

BASE = {
    "family": {"kind": "identity"},
    "p": 2.0,
    "resolution": {"nx2": 16, "cells_per_unit": 4},
}


def write_config(tmp_path, name="cfg.json", **extra):
    cfg = dict(BASE)
    cfg.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.fixture
def section_solves(monkeypatch):
    """Records the cross-section solves made through every module."""
    from cylspectra import eigensolve
    solve, calls = eigensolve.cross_section_ground_state, []

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    for module in (eigensolve, cli, cli.asy):
        monkeypatch.setattr(module, "cross_section_ground_state", counted)
    return calls


def run_cli(*args):
    # the child imports the same package as the tests, installed or not
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "cylspectra.cli", *args],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))


def test_missing_config_exits_2(tmp_path):
    r = run_cli("solve", "--config", str(tmp_path / "nope.json"))
    assert r.returncode == 2
    assert not list(tmp_path.iterdir())


def test_unknown_key_exits_2(tmp_path):
    path = write_config(tmp_path, ell=2.0, bogus=1,
                        output_dir=str(tmp_path / "runs"))
    r = run_cli("solve", "--config", path)
    assert r.returncode == 2
    assert "bogus" in r.stderr
    assert not (tmp_path / "runs").exists()  # validated before any output


def test_wrong_experiment_name_rejected(tmp_path):
    path = write_config(tmp_path, experiment="sweep", ell=2.0,
                        output_dir=str(tmp_path / "runs"))
    r = run_cli("solve", "--config", path)
    assert r.returncode == 2


def test_solve_writes_artifacts(tmp_path):
    path = write_config(tmp_path, experiment="solve", ell=2.0,
                        shape="full", bc="mixed",
                        output_dir=str(tmp_path / "runs"))
    code = cli.main(["solve", "--config", path])
    assert code == 0
    runs = list((tmp_path / "runs").iterdir())
    assert len(runs) == 1
    payload = json.loads((runs[0] / "solve.json").read_text())
    assert payload["converged"] is True
    assert payload["residual"] < 1e-6
    assert payload["lambda"] == pytest.approx(np.pi ** 2, rel=5e-3)
    manifest = json.loads((runs[0] / "manifest.json").read_text())
    for name in manifest["outputs"]:
        assert (runs[0] / name).exists()


def test_cross_section_solve(tmp_path):
    path = write_config(tmp_path, experiment="solve", shape="cross_section",
                        bc="dirichlet", output_dir=str(tmp_path / "runs"))
    assert cli.main(["solve", "--config", path]) == 0
    runs = list((tmp_path / "runs").iterdir())
    payload = json.loads((runs[0] / "solve.json").read_text())
    assert payload["lambda"] == pytest.approx(np.pi ** 2, rel=5e-3)


def test_sweep_schema_and_determinism(tmp_path):
    path = write_config(
        tmp_path, experiment="sweep",
        family={"kind": "constant_offdiag", "c": 0.3},
        ells=[2, 3], output_dir=str(tmp_path / "runs"))
    assert cli.main(["sweep", "--config", path]) == 0
    assert cli.main(["sweep", "--config", path]) == 0
    runs = sorted((tmp_path / "runs").iterdir())
    assert len(runs) == 2
    first = (runs[0] / "sweep.csv").read_bytes()
    second = (runs[1] / "sweep.csv").read_bytes()
    assert first == second
    header = first.decode().splitlines()[0]
    assert header == cli.SWEEP_HEADER
    # 17-significant-digit round trip
    row = first.decode().splitlines()[1].split(",")
    lam = float(row[3])
    assert format(lam, ".17g") == row[3]


def test_sweep_header_follows_sweep_row():
    # sweep.csv rows are the SweepRow fields in order, under this header
    from dataclasses import fields
    from cylspectra.asymptotics import SweepRow
    assert cli.SWEEP_HEADER.split(",") == [f.name for f in fields(SweepRow)]


def test_threads_flag_and_env(tmp_path, monkeypatch):
    path = write_config(tmp_path, experiment="solve", ell=1.0,
                        output_dir=str(tmp_path / "runs"))
    assert cli.main(["solve", "--config", path, "--threads", "2"]) == 0
    # the environment sets no thread count: without the flag it is 1
    monkeypatch.setenv("CYLSPECTRA_THREADS", "4")
    assert cli.main(["solve", "--config", path]) == 0
    assert cli.main(["solve", "--config", path, "--threads", "0"]) == 2
    runs = sorted((tmp_path / "runs").iterdir())
    assert len(runs) == 2  # threads 0 exits before a run directory exists
    manifests = [json.loads((r / "manifest.json").read_text()) for r in runs]
    assert manifests[0]["threads"] == 2
    assert manifests[1]["threads"] == 1
    a = json.loads((runs[0] / "solve.json").read_text())
    b = json.loads((runs[1] / "solve.json").read_text())
    assert a["lambda"] == b["lambda"]  # thread count never changes values


@pytest.mark.parametrize("name", sorted(cli._RUNNERS))
def test_every_command_parses(name):
    # one parser: each command of the table, named with "-" for "_", takes
    # the same options
    args = cli._parser().parse_args(
        [name.replace("_", "-"), "--config", "x", "--threads", "2"])
    assert (args.command, args.config, args.threads) == (
        name.replace("_", "-"), "x", 2)
    assert args.output_dir is None


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["bogus", "--config", "x"])
    assert exc.value.code == 2


def test_ladder_outputs(tmp_path):
    path = write_config(
        tmp_path, experiment="ladder",
        family={"kind": "constant_offdiag", "c": 0.3},
        ells=[2, 3, 4], side="plus", output_dir=str(tmp_path / "runs"))
    assert cli.main(["ladder", "--config", path]) == 0
    run = next((tmp_path / "runs").iterdir())
    lines = (run / "ladder.csv").read_text().splitlines()
    assert lines[0] == "ell,lambda_tilde,monotone_ok"
    assert len(lines) == 4
    vals = [float(l.split(",")[1]) for l in lines[1:]]
    assert vals == sorted(vals, reverse=True)
    est = json.loads((run / "nu_estimate.json").read_text())
    assert est["monotone_ok"] is True
    assert est["extrapolated"] <= est["last_value"] + 1e-12


def test_spectrum_outputs(tmp_path):
    # a collapsing cluster (COD 0.3, ell 8) on the shifted Lanczos path;
    # a rerun writes the same bytes
    import scipy.linalg
    family = {"kind": "constant_offdiag", "c": 0.3}
    path = write_config(tmp_path, experiment="spectrum", family=family,
                        ell=8.0, k=3, output_dir=str(tmp_path / "runs"))
    assert cli.main(["spectrum", "--config", path]) == 0
    assert cli.main(["spectrum", "--config", path]) == 0
    runs = sorted((tmp_path / "runs").iterdir())
    assert len(runs) == 2
    first = (runs[0] / "spectrum.csv").read_bytes()
    assert first == (runs[1] / "spectrum.csv").read_bytes()
    lines = first.decode().splitlines()
    assert lines[0] == "k,lambda,iterations,residual,converged"
    assert len(lines) == 4 and all(l.endswith(",true") for l in lines[1:])
    lams = [float(l.split(",")[1]) for l in lines[1:]]
    mesh = cs.build_mesh(
        cs.DomainSpec(cs.Shape.FULL_CYLINDER, 8, cs.BC.MIXED, 4, 16))
    pair = cs.assemble_p2(mesh, cs.make_coefficients(
        cs.CoefficientFamily(cs.FamilyKind.CONSTANT_OFFDIAG, 0.3)))
    oracle = scipy.linalg.eigh(pair.stiffness.toarray(), pair.mass.toarray(),
                               eigvals_only=True)[:3]
    assert np.allclose(lams, oracle, rtol=1e-10, atol=0.0)


def test_gap_check_outputs(tmp_path):
    path = write_config(
        tmp_path, experiment="gap_check",
        family={"kind": "linear_offdiag", "c": 0.8},
        eps=[0.1], output_dir=str(tmp_path / "runs"))
    assert cli.main(["gap-check", "--config", path]) == 0
    run = next((tmp_path / "runs").iterdir())
    payload = json.loads((run / "gapcheck.json").read_text())
    assert payload["a12_gradw_vanishes"] is False
    assert payload["gap_integral"] == pytest.approx(-0.4, rel=1e-6)
    assert payload["symmetry_S"] is False
    assert payload["exp_test"][0]["value"] > payload["mu1"]


def test_decay_outputs(tmp_path):
    path = write_config(
        tmp_path, experiment="decay",
        family={"kind": "linear_offdiag", "c": 0.8},
        ell=6.0, window=[1, 4], output_dir=str(tmp_path / "runs"))
    assert cli.main(["decay", "--config", path]) == 0
    run = next((tmp_path / "runs").iterdir())
    fit = json.loads((run / "decay.json").read_text())
    assert 0.0 < fit["alpha_hat"] < 1.0
    lines = (run / "decay.csv").read_text().splitlines()
    assert lines[0] == "slab,grad_energy,p_mass,a_energy"
    assert len(lines) == 13  # 12 slabs


def test_beta2_outputs(tmp_path):
    path = write_config(
        tmp_path, experiment="beta2",
        family={"kind": "constant_offdiag", "c": 0.3},
        ells=[2, 3], output_dir=str(tmp_path / "runs"))
    assert cli.main(["beta2", "--config", path]) == 0
    run = next((tmp_path / "runs").iterdir())
    lines = (run / "beta2.csv").read_text().splitlines()
    assert lines[0] == "ell,beta2_upper,lambda_half_plus,lambda_half_minus"
    assert len(lines) == 3


def test_beta2_p3_solves_cross_section_once(tmp_path, monkeypatch):
    # each run builds its own field and solves its section once, for the
    # half-cylinder solves of both lengths
    solves = count_section_solves(monkeypatch)
    for p in (2.0, 3.0):
        solves.clear()
        path = write_config(
            tmp_path, experiment="beta2", p=p,
            family={"kind": "constant_offdiag", "c": 0.3},
            ells=[2, 3], output_dir=str(tmp_path / "runs"))
        assert cli.main(["beta2", "--config", path]) == 0
        assert solves == [(16, p)]


@pytest.mark.parametrize("command, extra", [
    ("beta2", {"ells": [2, 3]}),
    ("ladder", {"ells": [2, 3, 4], "side": "plus"}),
    ("solve", {"shape": "cross_section"}),
    ("gap-check", {}),
])
def test_uncertified_solves_not_reported_converged(tmp_path, command, extra):
    # one descent step certifies neither the half-cylinder solves nor the
    # cross section: the run records that and exits 0
    path = write_config(
        tmp_path, experiment=command.replace("-", "_"), p=3.0,
        family={"kind": "constant_offdiag", "c": 0.3},
        solver={"max_iters": 1}, output_dir=str(tmp_path / "runs"), **extra)
    assert cli.main([command, "--config", path]) == 0
    run = next((tmp_path / "runs").iterdir())
    manifest = json.loads((run / "manifest.json").read_text())
    assert manifest["converged"] is False
    assert all((run / name).exists() for name in manifest["outputs"])
    if command == "solve":
        solve = json.loads((run / "solve.json").read_text())
        assert solve["converged"] is False


def test_report_empty_and_full(tmp_path):
    # empty manifest list
    cfg = {"experiment": "report", "manifests": [],
           "output_dir": str(tmp_path / "runs")}
    path = tmp_path / "report.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["report", "--config", str(path)]) == 0
    run = next((tmp_path / "runs").iterdir())
    assert "(no sections)" in (run / "report.txt").read_text()

    # sweep + report, with one absent manifest listed
    sweep_cfg = write_config(
        tmp_path, "sweep.json", experiment="sweep",
        family={"kind": "identity"}, ells=[2, 3],
        output_dir=str(tmp_path / "sweeps"))
    assert cli.main(["sweep", "--config", sweep_cfg]) == 0
    sweep_run = next((tmp_path / "sweeps").iterdir())
    cfg2 = {"experiment": "report",
            "manifests": [str(sweep_run), str(tmp_path / "missing")],
            "output_dir": str(tmp_path / "runs2")}
    path2 = tmp_path / "report2.json"
    path2.write_text(json.dumps(cfg2))
    assert cli.main(["report", "--config", str(path2)]) == 0
    run2 = next((tmp_path / "runs2").iterdir())
    text = (run2 / "report.txt").read_text()
    assert "no gap detected" in text
    assert "[absent]" in text
    # the Dirichlet sandwich level (lamD - mu1) ell^2 of each sweep row
    rows = cli._read_sweep_csv(sweep_run / "sweep.csv")
    levels = {key: float(value) for _, key, value in (
        line.split(",") for line in
        (run2 / "report.csv").read_text().splitlines()[1:])
        if key.startswith("sandwich")}
    assert levels == {
        f"sandwich_c_ell2_{r['ell']:g}":
            (r["lambda_dirichlet"] - r["mu1"]) * r["ell"] ** 2 for r in rows}
    assert "dirichlet sandwich (lamD-mu1)*ell^2: 2:" in text


def test_report_generic_and_ladder_rows(tmp_path):
    # every manifest value is written as the manifest's own JSON text
    def json_text(path):
        return json.loads(path.read_text(), parse_float=str, parse_int=str)

    runs = []
    for command, extra in [
            ("solve", {"family": {"kind": "constant_offdiag", "c": 0.3},
                       "ell": 2.0}),
            ("gap-check", {"family": {"kind": "linear_offdiag", "c": 0.8},
                           "eps": [0.1]}),
            ("decay", {"family": {"kind": "linear_offdiag", "c": 0.8},
                       "ell": 3.0, "window": [0, 3]}),
            ("ladder", {"family": {"kind": "constant_offdiag", "c": 0.3},
                        "ells": [2, 3, 4], "side": "plus"})]:
        out = tmp_path / command
        path = write_config(tmp_path, f"{command}.json",
                            experiment=command.replace("-", "_"),
                            output_dir=str(out), **extra)
        assert cli.main([command, "--config", path]) == 0
        runs.append((command.replace("-", "_"), next(out.iterdir())))
    cfg = tmp_path / "report.json"
    cfg.write_text(json.dumps({"manifests": [str(r) for _, r in runs],
                               "output_dir": str(tmp_path / "report")}))
    assert cli.main(["report", "--config", str(cfg)]) == 0
    out = next((tmp_path / "report").iterdir())
    lines = (out / "report.csv").read_text().splitlines()
    assert lines[0] == "section,key,value"
    rows = [line.split(",", 2) for line in lines[1:]]

    for n, (experiment, run) in enumerate(runs, start=1):
        got = [(key, val) for sec, key, val in rows
               if sec == f"{experiment}#{n}"]
        assert got[0] == ("manifest", str(run / "manifest.json"))
        if experiment == "ladder":
            est = json_text(run / "nu_estimate.json")
            assert got[1:] == [("nu_extrapolated", est["extrapolated"])]
            continue
        results = json_text(run / "manifest.json")["results"]
        want = [(key, ("true" if val else "false")
                 if isinstance(val, bool) else val)
                for key, val in sorted(results.items())
                if isinstance(val, (bool, str))]
        assert got[1:] == want
        assert {"true", "false"} & {val for _, val in want}  # booleans seen


def test_grad_aligned_family_through_cli(tmp_path):
    # the CLI builds grad_aligned from the identity section at the run's p
    from cylspectra import asymptotics as asy
    path = write_config(
        tmp_path, experiment="gap_check", p=3.0,
        family={"kind": "grad_aligned", "c": 0.05},
        output_dir=str(tmp_path / "runs"))
    assert cli.main(["gap-check", "--config", path]) == 0
    run = next((tmp_path / "runs").iterdir())
    payload = json.loads((run / "gapcheck.json").read_text())
    assert payload["a12_gradw_vanishes"] is False
    ident = cs.make_coefficients(cs.CoefficientFamily(cs.FamilyKind.IDENTITY))
    field = cs.make_coefficients(
        cs.CoefficientFamily(cs.FamilyKind.GRAD_ALIGNED, 0.05),
        cross=cs.cross_section_ground_state(16, ident, 3))
    cross = cs.cross_section_ground_state(16, field, 3)
    assert payload["gap_integral"] == asy.gap_integral_I2(cross, field).value


def test_grad_aligned_section_runs_with_the_solver_options(tmp_path,
                                                          monkeypatch):
    # the family's identity section is capped by max_iters like every other
    # solve, and a section left uncertified flags the run even where the
    # command's own solves are certified
    solve, seen = cli.cross_section_ground_state, []

    def recorded(*args, **kwargs):
        seen.append(solve(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(cli, "cross_section_ground_state", recorded)
    monkeypatch.setitem(cli._RUNNERS, "solve", lambda plan, outdir: (
        [], True, {}))
    path = write_config(
        tmp_path, experiment="solve", p=3.0,
        family={"kind": "grad_aligned", "c": 0.05},
        solver={"max_iters": 1}, output_dir=str(tmp_path / "runs"))
    assert cli.main(["solve", "--config", path]) == 0
    assert [(r.iterations, r.converged) for r in seen] == [(1, False)]
    run = next((tmp_path / "runs").iterdir())
    assert json.loads((run / "manifest.json").read_text())[
        "converged"] is False


# lengths no solve can mesh at 16 x 4: ell 0 and -1, and 2.1 and 4.1,
# which cut a half cylinder into 8.4 and 16.4 cells (2.1 a full one into 16.8)
UNMESHABLE = "whole number of cells|must be positive"


@pytest.mark.parametrize("command, extra, message", [
    ("spectrum", {"ell": 2.0, "k": 0}, "k must be >= 1"),
] + [(command, {"ells": ells}, UNMESHABLE)
     for command in ("sweep", "ladder", "beta2")
     for ells in ([0, 2, 3], [-1, 2, 3], [2.1, 3, 4], [2, 3, 4.1])
] + [(command, {"ell": 2.1}, UNMESHABLE)
     for command in ("solve", "spectrum", "decay")])
def test_rejected_config_solves_no_section(tmp_path, capsys, section_solves,
                                           command, extra, message):
    # every rule is checked before a grad_aligned family solves its
    # identity section, and before any solve of the run
    path = write_config(tmp_path, experiment=command,
                        family={"kind": "grad_aligned", "c": 0.05},
                        output_dir=str(tmp_path / "runs"), **extra)
    assert cli.main([command, "--config", path]) == cli.EXIT_CONFIG
    assert re.search(message, capsys.readouterr().err)
    assert section_solves == []
    assert not (tmp_path / "runs").exists()


def test_solver_options_passthrough(tmp_path):
    path = write_config(
        tmp_path, experiment="solve", ell=2.0, p=3.0,
        solver={"tol_residual": 1e-6, "max_iters": 500},
        output_dir=str(tmp_path / "runs"))
    assert cli.main(["solve", "--config", path]) == 0


def test_solver_options_reach_the_lifted_start(tmp_path, monkeypatch):
    # a p = 3 solve lifts its start from a section solve, which runs with
    # the options of the config
    from cylspectra import eigensolve
    solve = eigensolve.cross_section_ground_state
    seen = []

    def recorded(*args, **kwargs):
        bound = inspect.signature(solve).bind(*args, **kwargs)
        seen.append(bound.arguments.get("opts"))
        return solve(*args, **kwargs)

    monkeypatch.setattr(eigensolve, "cross_section_ground_state", recorded)
    path = write_config(
        tmp_path, experiment="solve", ell=2.0, p=3.0,
        solver={"tol_residual": 1e-4}, output_dir=str(tmp_path / "runs"))
    assert cli.main(["solve", "--config", path]) == 0
    assert [getattr(o, "tol_residual", None) for o in seen] == [1e-4]


def test_invalid_solver_key_rejected(tmp_path):
    # a misspelling, and the descent knobs that became constants
    for key, value in (("tol_residua", 1e-6), ("tol_stagnation", 1e-12),
                       ("armijo_c", 1e-4), ("armijo_shrink", 0.5),
                       ("positivity_projection", True),
                       ("precondition", True), ("init", "lifted_w")):
        path = write_config(tmp_path, experiment="solve", ell=2.0,
                            solver={key: value},
                            output_dir=str(tmp_path / "runs"))
        assert cli.main(["solve", "--config", path]) == 2


def test_max_iters_validated_upfront(tmp_path):
    for value in (0, -1):
        path = write_config(tmp_path, experiment="spectrum", ell=2.0, k=2,
                            solver={"max_iters": value},
                            output_dir=str(tmp_path / "runs"))
        assert cli.main(["spectrum", "--config", path]) == 2
        assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("command, extra", [
    ("spectrum", {"ell": True, "k": 3}),
    ("spectrum", {"ell": 2.0, "k": True}),
    ("spectrum", {"ell": 2.0, "solver": {"tol_residual": True}}),
    ("spectrum", {"ell": 2.0, "solver": {"max_iters": True}}),
    ("sweep", {"ells": [True, 2, 3]}),
    ("decay", {"ell": 6.0, "window": [True, 4]}),
    ("gap_check", {"eps": [True]}),
])
def test_json_booleans_are_not_numbers(tmp_path, command, extra):
    path = write_config(tmp_path, experiment=command,
                        output_dir=str(tmp_path / "runs"), **extra)
    assert cli.main([command.replace("_", "-"), "--config", path]) == 2
    assert not (tmp_path / "runs").exists()


def test_decay_window_validated_upfront(tmp_path):
    path = write_config(tmp_path, experiment="decay", ell=2.0,
                        window=[2, 10], output_dir=str(tmp_path / "runs"))
    assert cli.main(["decay", "--config", path]) == 2
    assert not (tmp_path / "runs").exists()
    # at ell 2.125 the profile has a fifth, partial slab, as the mesh cuts it
    path = write_config(tmp_path, experiment="decay", ell=2.125,
                        window=[3, 4], output_dir=str(tmp_path / "runs"))
    assert cli.main(["decay", "--config", path]) == 2
    assert not (tmp_path / "runs").exists()
    path = write_config(tmp_path, experiment="decay", ell=2.125,
                        window=[2, 4], output_dir=str(tmp_path / "runs"))
    assert cli.main(["decay", "--config", path]) == 0
    run = next((tmp_path / "runs").iterdir())
    assert json.loads((run / "decay.json").read_text())["window"] == [2, 4]


def test_tabulated_family_through_cli(tmp_path):
    csv_path = tmp_path / "aniso.csv"
    rows = ["x2,a11,a12,a22"] + [
        f"{x2},2.0,0.0,1.0" for x2 in (-0.5, 0.0, 0.5)]
    csv_path.write_text("\n".join(rows) + "\n")
    path = write_config(
        tmp_path, experiment="solve", shape="cross_section", bc="dirichlet",
        family={"kind": "tabulated", "csv": str(csv_path)},
        output_dir=str(tmp_path / "runs"))
    assert cli.main(["solve", "--config", path]) == 0
    run = next((tmp_path / "runs").iterdir())
    payload = json.loads((run / "solve.json").read_text())
    assert payload["lambda"] == pytest.approx(np.pi ** 2, rel=5e-3)  # a22 = 1


@pytest.mark.parametrize("text", [
    None, "", "x2,a11,a12,a22\n-0.5,1,0,1\n0.5,one,0,1\n",
    "x2,a11,a12,a22\n-0.5,1,0,1\n0.5,1,0\n",
], ids=["missing", "empty", "non_numeric", "ragged"])
def test_bad_tabulated_csv_exits_2(tmp_path, capsys, text):
    csv_path = tmp_path / "aniso.csv"
    if text is not None:
        csv_path.write_text(text)
    path = write_config(
        tmp_path, experiment="solve", shape="cross_section", bc="dirichlet",
        family={"kind": "tabulated", "csv": str(csv_path)},
        output_dir=str(tmp_path / "runs"))
    assert cli.main(["solve", "--config", path]) == cli.EXIT_CONFIG
    assert "aniso.csv" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("command, cfg, message", [
    ("solve", [BASE], "must be a JSON object"),
    ("solve", {"family": BASE["family"], "p": 2.0},
     "missing key 'resolution'"),
    ("ladder", dict(BASE, ells=[2, 3, 4], side="left"),
     "'side' must be one of"),
    ("solve", dict(BASE, p=1.5), "p must be >= 2"),
    ("sweep", dict(BASE, ells=[2, 4, 4]), "strictly increasing"),
    ("ladder", dict(BASE, ells=[2, 4]), "at least 3 lengths"),
    ("spectrum", dict(BASE, ell=2.0, k=0), "k must be >= 1"),
    ("spectrum", dict(BASE, ell=2.0, p=3.0), "requires p = 2"),
    ("report", {"manifests": ["runs/a", 7]}, "list of paths"),
    ("solve", dict(BASE, family={"kind": "tabulated"}), "'csv' path"),
    ("solve", dict(BASE, solver={"tol_residual": 0}),
     "tol_residual must be positive"),
    ("solve", dict(BASE, shape="half_minus", bc="mixed"),
     "half cylinders require the half-cylinder bc"),
    ("solve", dict(BASE, ell=1.3, resolution={"nx2": 8, "cells_per_unit": 2}),
     "whole number of cells"),
    ("gap-check", dict(BASE, eps=[0.1, 0.0]), "eps must be positive"),
    ("decay", dict(BASE, ell=4.0, window=[-1, 5]), "below slab 0"),
    # k above the 35 free nodes of the 6 x 6 mixed mesh
    ("spectrum", dict(BASE, ell=1.0, k=100,
                      resolution={"nx2": 6, "cells_per_unit": 3}),
     "<= the 35 free nodes"),
    # a full Dirichlet cylinder one cell long has no unknown
    ("solve", dict(BASE, ell=0.25, bc="dirichlet",
                   resolution={"nx2": 8, "cells_per_unit": 2}),
     "no free node"),
    ("solve", dict(BASE, ell=0.25, bc="dirichlet", p=3.0,
                   resolution={"nx2": 8, "cells_per_unit": 2}),
     "no free node"),
    # JSON reads Infinity and NaN as numbers
    ("solve", dict(BASE, solver={"tol_residual": float("inf")}),
     "tol_residual must be positive and finite"),
    ("solve", dict(BASE, solver={"tol_residual": float("nan")}),
     "tol_residual must be positive and finite"),
    ("solve", dict(BASE, p=float("inf")), "p must be >= 2 and finite"),
    ("solve", dict(BASE, ell=float("inf")), "ell must be positive and finite"),
    ("sweep", dict(BASE, ells=[2, float("inf")]),
     "ell must be positive and finite"),
    ("gap-check", dict(BASE, eps=[float("inf")]),
     "eps must be positive and finite"),
    ("solve", dict(BASE, experiment="sweep"), "config declares experiment"),
    # no window: the default [2, ell - 2] holds no 3 slabs at ell 2
    ("decay", dict(BASE, ell=2.0), "needs >= 3 slabs"),
])
def test_config_rejected_upfront(tmp_path, monkeypatch, capsys,
                                 section_solves, command, cfg, message):
    # the default output directory "runs" lands in the working directory
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert cli.main([command, "--config", "cfg.json"]) == cli.EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert section_solves == []
    assert not (tmp_path / "runs").exists()


def test_report_flags_broken_mass_split(tmp_path):
    # d_plus + d_minus = 0.6: the identity |d_plus + d_minus - 1| < 1e-8 fails
    run = tmp_path / "fake_sweep"
    run.mkdir()
    (run / "manifest.json").write_text(json.dumps({"experiment": "sweep"}))
    row = {name: "1" for name in cli.SWEEP_HEADER.split(",")}
    row.update(family="identity", iterations="3", converged="true",
               d_plus="0.3", d_minus="0.3")
    (run / "sweep.csv").write_text(
        cli.SWEEP_HEADER + "\n"
        + ",".join(row[k] for k in cli.SWEEP_HEADER.split(",")) + "\n")
    cfg = tmp_path / "report.json"
    cfg.write_text(json.dumps({"experiment": "report", "manifests": [str(run)],
                               "output_dir": str(tmp_path / "runs")}))
    assert cli.main(["report", "--config", str(cfg)]) == 0
    out = next((tmp_path / "runs").iterdir())
    assert "mass-split identity: FAIL" in (out / "report.txt").read_text()
    assert "mass_split_identity,fail" in (out / "report.csv").read_text()


def _sweep_table(**cells):
    row = {name: "1" for name in cli.SWEEP_HEADER.split(",")}
    row.update(family="identity", iterations="3", converged="true", **cells)
    return (cli.SWEEP_HEADER + "\n"
            + ",".join(row[k] for k in cli.SWEEP_HEADER.split(",")) + "\n")


@pytest.mark.parametrize("manifest, table, bad", [
    ("{not json", None, "manifest.json"),
    ("[1, 2]", None, "manifest.json"),
    ('{"experiment": "solve", "results": [1]}', None, "manifest.json"),
    ('{"experiment": "sweep"}', "", "sweep.csv"),
    ('{"experiment": "sweep"}', "ell,p\n2,3\n", "sweep.csv"),
    ('{"experiment": "sweep"}', cli.SWEEP_HEADER + "\n", "sweep.csv"),
    ('{"experiment": "sweep"}', _sweep_table(mu1="x"), "sweep.csv"),
    ('{"experiment": "sweep"}', _sweep_table().rsplit(",", 1)[0] + "\n",
     "sweep.csv"),
], ids=["not-json", "array", "results-array", "empty-table", "other-header",
        "no-rows", "non-numeric", "short-row"])
def test_report_on_bad_manifest_exits_2_with_manifest(tmp_path, manifest,
                                                      table, bad):
    # a malformed input of the report is a config error naming the file,
    # recorded in the report's own manifest; a good run listed first
    # changes nothing
    good = tmp_path / "good"
    good.mkdir()
    (good / "manifest.json").write_text(json.dumps({"experiment": "sweep"}))
    (good / "sweep.csv").write_text(_sweep_table(d_plus="0.5", d_minus="0.5"))
    run = tmp_path / "broken"
    run.mkdir()
    (run / "manifest.json").write_text(manifest)
    if table is not None:
        (run / "sweep.csv").write_text(table)
    cfg = tmp_path / "report.json"
    cfg.write_text(json.dumps({"experiment": "report",
                               "manifests": [str(good), str(run)],
                               "output_dir": str(tmp_path / "runs")}))
    assert cli.main(["report", "--config", str(cfg)]) == cli.EXIT_CONFIG
    out = next((tmp_path / "runs").iterdir())
    record = json.loads((out / "manifest.json").read_text())
    assert record["converged"] is False and record["outputs"] == []
    assert str(run / bad) in record["error"]


def test_solver_failure_exits_4_with_manifest(tmp_path, monkeypatch):
    from cylspectra.errors import SolverError

    def failing(*args, **kwargs):
        raise SolverError("section solve broke down")

    monkeypatch.setattr(cli, "cross_section_ground_state", failing)
    path = write_config(tmp_path, experiment="solve", p=3.0,
                        shape="cross_section",
                        output_dir=str(tmp_path / "runs"))
    assert cli.main(["solve", "--config", path]) == cli.EXIT_SOLVER == 4
    run = next((tmp_path / "runs").iterdir())
    manifest = json.loads((run / "manifest.json").read_text())
    assert manifest["converged"] is False
    assert "section solve broke down" in manifest["error"]
    assert manifest["outputs"] == []


@pytest.mark.parametrize("extra", [
    {"bc": "mixed", "ell": -3.0}, {"bc": "mixed"}, {"ell": -3.0}])
def test_cross_section_config_validated_upfront(tmp_path, extra):
    # the cross section goes through the same DomainSpec as the cylinders
    path = write_config(tmp_path, experiment="solve", shape="cross_section",
                        output_dir=str(tmp_path / "runs"), **extra)
    assert cli.main(["solve", "--config", path]) == cli.EXIT_CONFIG == 2
    assert not (tmp_path / "runs").exists()


def test_io_failure_exits_3_with_manifest(tmp_path, monkeypatch):
    def broken(plan, outdir):
        raise OSError("disk gone")

    monkeypatch.setitem(cli._RUNNERS, "solve", broken)
    path = write_config(tmp_path, experiment="solve", ell=2.0,
                        output_dir=str(tmp_path / "runs"))
    assert cli.main(["solve", "--config", path]) == cli.EXIT_IO == 3
    run = next((tmp_path / "runs").iterdir())
    manifest = json.loads((run / "manifest.json").read_text())
    assert "disk gone" in manifest["error"]


def test_unmakeable_run_directory_exits_3(tmp_path, monkeypatch, capsys):
    # the output directory lies under a file, and every run-directory name
    # of one timestamp is taken
    (tmp_path / "file").write_text("")
    path = write_config(tmp_path, experiment="solve", ell=2.0,
                        output_dir=str(tmp_path / "file" / "runs"))
    assert cli.run_config(path, "solve") == (None, cli.EXIT_IO)
    monkeypatch.setattr(cli, "_utc_now", lambda: "stamp")
    for suffix in [""] + [f"-{i}" for i in range(1, 1000)]:
        (tmp_path / "runs" / f"stamp-solve{suffix}").mkdir(parents=True)
    path = write_config(tmp_path, experiment="solve", ell=2.0,
                        output_dir=str(tmp_path / "runs"))
    assert cli.run_config(path, "solve") == (None, cli.EXIT_IO)
    err = capsys.readouterr().err
    assert err.count("cannot create output directory") == 2
    assert "could not create a fresh run directory" in err


def test_unwritable_manifest_exits_3(tmp_path, monkeypatch, capsys):
    write = cli._atomic_write

    def no_manifest(path, text):
        if path.endswith("manifest.json"):
            raise OSError("read-only")
        write(path, text)

    monkeypatch.setattr(cli, "_atomic_write", no_manifest)
    monkeypatch.setitem(cli._RUNNERS, "solve", lambda plan, outdir: (
        [], True, {}))
    path = write_config(tmp_path, experiment="solve", ell=2.0,
                        output_dir=str(tmp_path / "runs"))
    assert cli.run_config(path, "solve") == (None, cli.EXIT_IO)
    assert "cannot write manifest: read-only" in capsys.readouterr().err


def test_module_run_exits_with_main_code(tmp_path, monkeypatch):
    # `python -m cylspectra.cli` exits with the code of `main`; taken out of
    # sys.modules, the module runs afresh without runpy's warning
    monkeypatch.delitem(sys.modules, "cylspectra.cli")
    monkeypatch.setattr(sys, "argv", [
        "cylspectra", "solve", "--config", str(tmp_path / "nope.json")])
    with pytest.raises(SystemExit) as exit_:
        runpy.run_module("cylspectra.cli", run_name="__main__")
    assert exit_.value.code == cli.EXIT_CONFIG


@pytest.mark.parametrize("command, extra", [
    ("solve", {"ell": 2.0}),
    ("sweep", {"ells": [2, 3]}),
    ("ladder", {"ells": [2, 3, 4]}),
    ("decay", {"ell": 3.0, "window": [0, 3]}),
    ("beta2", {"ells": [2]}),
    ("spectrum", {"ell": 2.0, "k": 3}),
])
def test_coarse_sections_run(tmp_path, command, extra):
    # every nx2 from the floor up gets the lifted start
    for nx2 in (4, 5, 6, 7):
        path = write_config(
            tmp_path, experiment=command,
            family={"kind": "constant_offdiag", "c": 0.3},
            resolution={"nx2": nx2, "cells_per_unit": 2},
            output_dir=str(tmp_path / f"runs{nx2}"), **extra)
        assert cli.main([command, "--config", path]) == 0
        run = next((tmp_path / f"runs{nx2}").iterdir())
        assert json.loads((run / "manifest.json").read_text())["converged"]


def test_spectrum_first_pair_at_nx2_6(tmp_path):
    import scipy.linalg
    family = {"kind": "constant_offdiag", "c": 0.3}
    path = write_config(tmp_path, experiment="spectrum", family=family,
                        ell=2.0, k=1,
                        resolution={"nx2": 6, "cells_per_unit": 4},
                        output_dir=str(tmp_path / "runs"))
    assert cli.main(["spectrum", "--config", path]) == 0
    run = next((tmp_path / "runs").iterdir())
    lines = (run / "spectrum.csv").read_text().splitlines()
    assert len(lines) == 2 and lines[1].endswith(",true")
    mesh = cs.build_mesh(
        cs.DomainSpec(cs.Shape.FULL_CYLINDER, 2, cs.BC.MIXED, 4, 6))
    pair = cs.assemble_p2(mesh, cs.make_coefficients(
        cs.CoefficientFamily(cs.FamilyKind.CONSTANT_OFFDIAG, 0.3)))
    oracle = scipy.linalg.eigh(pair.stiffness.toarray(), pair.mass.toarray(),
                               eigvals_only=True, subset_by_index=[0, 0])[0]
    assert float(lines[1].split(",")[1]) == pytest.approx(oracle, rel=1e-10)


def test_sweep_p3_at_nx2_4(tmp_path):
    path = write_config(tmp_path, experiment="sweep", p=3.0,
                        family={"kind": "constant_offdiag", "c": 0.3},
                        ells=[2, 4], resolution={"nx2": 4, "cells_per_unit": 4},
                        output_dir=str(tmp_path / "runs"))
    assert cli.main(["sweep", "--config", path]) == 0
    run = next((tmp_path / "runs").iterdir())
    rows = cli._read_sweep_csv(run / "sweep.csv")
    assert len(rows) == 2 and all(r["converged"] for r in rows)
    assert all(r["lambda_mixed"] <= r["lambda_dirichlet"] for r in rows)

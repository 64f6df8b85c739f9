"""Tests of the benchmark itself, on tiny resolutions.

Run from the root of the repository:

    python3 -m pytest perfbench/tests
"""

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import references  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS, make_config  # noqa: E402

TINY = {"nx2": 8, "cells_per_unit": 2}
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def tiny_references(tmp_path_factory):
    """Oracle-checked references of every workload at the tiny resolution."""
    refs = {}
    for workload in WORKLOADS.values():
        cfg = make_config(workload, seed=0, resolution=TINY)
        workdir = tmp_path_factory.mktemp(workload.name)
        refs[workload.name], errors = references.build_reference(
            workload, cfg, workdir)
        assert errors == []
    return refs


def measure(workload, reference, tmp_path, trace=0):
    """One benchmark run at the tiny resolution; returns (result, stdout)."""
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(
        make_config(workload, seed=1, resolution=TINY)))
    bench = run.Bench(workload, config_path, tmp_path, threads=1)
    args = argparse.Namespace(seconds=0.0, trace=trace)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert run.measure(bench, reference, args) == 0
    return json.loads(stdout.getvalue().strip().splitlines()[-1]), stdout


def traced_cli(workload, tmp_path):
    """Run the CLI in this process under the tracer; returns the tracer."""
    from cylspectra import cli
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(
        make_config(workload, seed=0, resolution=TINY)))
    with tracing.Tracer() as tracer:
        assert cli.main([workload.command, "--config", str(config_path),
                         "--output-dir", str(tmp_path / "out")]) == 0
    return tracer


def _attributes():
    import scipy.sparse.linalg
    mods = [m for name, m in sys.modules.items()
            if name == "cylspectra" or name.startswith("cylspectra.")]
    return {(m.__name__, k): v for m in mods + [scipy.sparse.linalg]
            for k, v in vars(m).items()}


def test_tracer_restores_every_patched_attribute():
    from cylspectra import asymptotics, cli, eigensolve
    before = _attributes()
    with tracing.Tracer() as tracer:
        assert tracer.absent == []
        for module in (eigensolve, asymptotics, cli):
            assert module.linear_spectrum is not before[
                (eigensolve.__name__, "linear_spectrum")]
        changed = {k for k, v in _attributes().items() if before[k] is not v}
        assert len(changed) >= len(tracing.BOUNDARIES)
    after = _attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_self_times_sum_to_traced_total(tmp_path):
    tracer = traced_cli(WORKLOADS["sweep-p3"], tmp_path)
    total = tracer.stats["cli.main"].seconds
    self_sum = sum(st.self_s for st in tracer.stats.values())
    assert self_sum == pytest.approx(total, rel=1e-9)
    # Nested calls through names imported into asymptotics became child spans.
    assert tracer.stats["eigensolve.minimize_rayleigh"].calls == 12
    assert tracer.stats["asymptotics.sweep_lambda"].self_s < total / 2


@pytest.mark.parametrize("name, zero, nonzero", [
    ("sweep-p2", "discretization.eval_value_calls",
     "eigensolve.linear_spectrum_calls"),
    ("sweep-p3", "eigensolve.linear_spectrum_calls",
     "discretization.eval_full_calls"),
])
def test_layers_untouched_by_a_workload_stay_zero(name, zero, nonzero,
                                                  tmp_path):
    metrics = tracing.layer_metrics(traced_cli(WORKLOADS[name], tmp_path), 0.0)
    assert metrics[zero] == 0
    assert metrics[nonzero] > 0


def test_metric_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in BENCHMARK["workloads"]] == [
        w.why for w in WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == \
        run.END_TO_END
    assert [(m["name"], m["unit"], m["better"])
            for m in BENCHMARK["per_layer"]] == list(tracing.PER_LAYER)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_smoke_run_passes(name, tiny_references, tmp_path):
    result, _ = measure(WORKLOADS[name], tiny_references[name], tmp_path)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"]
                                      for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_smoke_run_prints_every_per_layer_metric(tiny_references,
                                                        tmp_path):
    result, stdout = measure(WORKLOADS["sweep-p3"],
                             tiny_references["sweep-p3"], tmp_path, trace=1)
    assert result["correct"]
    assert list(result["metrics"]) == [m["name"]
                                       for m in BENCHMARK["per_layer"]]
    assert "sum of self times" in stdout.getvalue()


def test_wrong_reference_makes_failed_share_nonzero(tiny_references,
                                                    tmp_path):
    wrong = json.loads(json.dumps(tiny_references["spectrum-p2"]))
    wrong["lambda"][1] *= 1.0 + 1e-6
    result, stdout = measure(WORKLOADS["spectrum-p2"], wrong, tmp_path)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert "failed_share 0/" not in stdout.getvalue()


def test_run_refuses_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "sweep-p2", "--seed", "1",
                     "--seconds", "1", "--trace", "0"]) == 2
    assert capsys.readouterr().out == ""

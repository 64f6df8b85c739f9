"""Smoke test: every script under demos/ runs to completion.

Each demo runs in a fresh interpreter with BLAS pinned to one thread and its
temporary files under the test's own directory.
"""

import os
import pathlib
import subprocess
import sys

import pytest

from cylspectra import cli

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent
                / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # the child imports the same package as the tests, installed or not
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, TMPDIR=str(tmp_path),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    r = subprocess.run([sys.executable, str(demo)], capture_output=True,
                       text=True, cwd=tmp_path, env=env, timeout=300)
    assert r.returncode == 0, r.stderr[-2000:]

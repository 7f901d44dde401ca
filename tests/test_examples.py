"""Smoke tests for the examples that reuse one search across a
probability change: override -> refresh -> re-search on the same
substrate, the path the shared kernel and the symmetry screen must
follow. Each runs in about a second; the other examples take 10-21 s
and run in their own CI job."""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script,expected",
    [
        ("adaptive_redeployment.py", "Final deployment:"),
        ("multizone_redeployment.py", "recovered incumbent == live incumbent: True"),
    ],
)
def test_example_runs(script, expected, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    done = subprocess.run(
        [sys.executable, str(ROOT / "examples" / script)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert expected in done.stdout

"""Demos: each script in demos/ runs to completion as documented."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ecopool

DEMOS = Path(__file__).resolve().parents[1] / "demos"
SLOW = {"05_compare_strategies.py"}


@pytest.mark.parametrize(
    "name",
    [
        pytest.param(p.name, marks=[pytest.mark.slow] if p.name in SLOW else [])
        for p in sorted(DEMOS.glob("*.py"))
    ],
)
def test_demo_runs(name, tmp_path):
    # A demo writes under ./runs, so each runs in its own directory.
    src = str(Path(ecopool.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, str(DEMOS / name)],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr

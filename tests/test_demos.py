"""Demos: each script in demos/ runs to completion as documented."""

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import ecopool

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"
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


def test_readme_quick_start_runs_and_leaves_no_process(tmp_path):
    # The README's first Python block, run in its own session: once it
    # exits, no process it started (a critic helper) may be left.
    code = (ROOT / "README.md").read_text().split("```python\n", 1)[1].split("```", 1)[0]
    src = str(Path(ecopool.__file__).resolve().parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-c", code],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": src},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=600)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
            left = True
        except ProcessLookupError:
            left = False
    assert proc.returncode == 0, stderr
    assert len(stdout.splitlines()) == 10
    assert not left, "a process of the Quick start outlived it"

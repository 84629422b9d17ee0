"""The benchmark's traced run (`perfbench/run.py --trace 1`) wraps package
functions by name; this checks that every name it wraps still exists,
that greedy tests agree with the benchmark's reference evaluator, and
that one short round of two workloads runs and checks out."""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

from ecopool import ppo
from ecopool.gridworld import GridConfig, generate_level
from ecopool.policy import init_params

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def test_layer_probe_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    tracer = importlib.import_module("spans").Tracer()
    try:
        layers.LayerProbe(tracer).install()
        installed = list(tracer._installed)
        assert set(tracer.names) == set(layers.SPANS)
        for owner, attr, original in installed:
            assert owner.__dict__[attr] is not original
    finally:
        tracer.uninstall()
    for owner, attr, original in installed:
        assert owner.__dict__[attr] is original


def test_test_agent_agrees_with_the_reference_evaluator(monkeypatch):
    # The benchmark checks each scanned level against its own evaluator;
    # this makes the test suite fail wherever those checks would.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    reference = importlib.import_module("reference")
    compared = 0
    for size, max_steps, n_levels in ((9, 100, 30), (19, 300, 10)):
        grid = GridConfig(width=size, height=size, max_steps=max_steps)
        levels = [generate_level(seed, grid) for seed in range(n_levels)]
        for seed in range(4):
            params = init_params(seed)
            for level in levels:
                episode = reference.greedy_episode(params.actor, level)
                if not episode.tied:
                    reward = ppo.test_agent(params, level)
                    assert abs(reward - episode.reward) <= reference.REWARD_TOL
                    compared += 1
    assert compared >= 100


def test_benchmark_smoke(tmp_path):
    # The benchmark reads package names this suite does not otherwise pin
    # (a config key, a keyword, a result field); one round of a training
    # workload traced and of a scan untraced exercises them.  It runs on a
    # copy, as it writes its outputs beside perfbench/.
    for name in ("src", "perfbench", "configs"):
        ignore = shutil.ignore_patterns("__pycache__")
        shutil.copytree(ROOT / name, tmp_path / name, ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    declared = json.loads((tmp_path / "BENCHMARK.json").read_text())
    for workload, trace, kind in (("desk-stream", 1, "per_layer"), ("scan-9x9", 0, "end_to_end")):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
             "--seconds", "0.001", "--trace", str(trace)],
            cwd=tmp_path, capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"] is True, proc.stderr[-2000:]
        assert result["failed"] == 0
        assert set(result["metrics"]) == {m["name"] for m in declared[kind]}

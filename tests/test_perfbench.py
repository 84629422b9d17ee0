"""The benchmark's traced run (`perfbench/run.py --trace 1`) wraps package
functions by name; this checks that every name it wraps still exists."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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

"""The benchmark's harness imports cachelab's public names when it loads, so a
name it uses that a change moves or drops fails here, not only when the
benchmark runs."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_layers_import(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # as tests/hashes.py does
    layers = importlib.import_module("layers")
    assert callable(layers.timed_pass) and callable(layers.preevict_probes)

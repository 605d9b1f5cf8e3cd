"""The benchmark tracer's call sites still exist in the package.

`benchmark/spans.py` patches attributes by name, so a renamed call site would
only show when a traced benchmark run fails; this checks the names here.
"""

import functools
import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "benchmark" / "spans.py"


def load_spans(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # write nothing under benchmark/
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves(monkeypatch):
    targets = load_spans(monkeypatch).TARGETS
    assert targets
    for module, dotted, _, _ in targets:
        owner = importlib.import_module(module)
        assert callable(functools.reduce(getattr, dotted.split("."), owner)), (module, dotted)

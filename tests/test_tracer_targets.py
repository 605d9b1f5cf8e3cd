"""The benchmark tracer's call sites still exist in the package, and the
solver still calls through each of them.

`benchmark/spans.py` patches attributes by name, so a renamed call site, or
one the solver stopped calling, would only show when a traced benchmark run
reads a layer as empty; this checks the names and the calls here.
"""

import functools
import importlib
import importlib.util
import sys
from pathlib import Path

from qcbp.bnp import solve_qcbp
from qcbp.graphs import random_ud_graph
from qcbp.pricing import PricingEngine

from builders import exact_engine, myciel

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


def test_every_target_fires(monkeypatch):
    # An emulated solve reaches the sampler's layers; an exact solve of
    # myciel4, whose root LP (3.245) is below its chromatic number 5, reaches
    # branching.
    spans = load_spans(monkeypatch)
    tracer = spans.Tracer()
    with tracer:
        solve_qcbp(random_ud_graph(8, 3)[0], engine=PricingEngine())
        assert solve_qcbp(myciel(4), engine=exact_engine()).stats.nodes_explored == 17
    fired = {span.name for span in tracer.spans}
    assert fired >= {name for _, _, name, _ in spans.TARGETS}

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

import numpy as np

from qcbp.bnp import solve_qcbp
from qcbp.graphs import Graph, random_ud_graph
from qcbp.pricing import PricingEngine

from builders import exact_engine

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
    # An emulated solve reaches the sampler's layers; an exact solve of a
    # G(20, 0.3) that explores 5 nodes reaches branching.
    spans = load_spans(monkeypatch)
    rng = np.random.default_rng([1, 20, 31])
    gnp = Graph.from_edges(20, [(i, j) for i in range(20) for j in range(i + 1, 20) if rng.random() < 0.3])
    tracer = spans.Tracer()
    with tracer:
        solve_qcbp(random_ud_graph(8, 3)[0], engine=PricingEngine())
        assert solve_qcbp(gnp, engine=exact_engine()).stats.nodes_explored == 5
    fired = {span.name for span in tracer.spans}
    assert fired >= {name for _, _, name, _ in spans.TARGETS}

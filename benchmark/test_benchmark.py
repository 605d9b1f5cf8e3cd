"""Tests of the benchmark's own logic: tracing, self time, failure counting.

    python3 -m pytest benchmark
"""

import functools
import importlib
import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import harness
import qcbp.pricing
from harness import check, end_to_end, failure_counts, solve
from qcbp.bench import RunConfig
from qcbp.bnp import Coloring, SearchStats, SolveResult
from qcbp.chromatic import exact_coloring
from qcbp.graphs import Graph
from qcbp.rmp import ColumnPool
from spans import TARGETS, Tracer, layer_metrics, self_times
from workloads import WORKLOADS, make_gnp

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
PATH3 = Graph.from_edges(3, [(0, 1), (1, 2)])  # chi = 2


def _attributes():
    return {(module, dotted): functools.reduce(getattr, dotted.split("."), importlib.import_module(module))
            for module, dotted, _, _ in TARGETS}


def _traced_solve(sampler: str, g: Graph) -> Tracer:
    config = RunConfig(sampler=sampler)
    tracer = Tracer()
    with tracer:
        tracer.solve = 0
        out = solve("g", g, exact_coloring(g)[0], 0, config, tracer.span)
    assert out.failure is None
    return tracer


def test_tracer_restores_every_wrapped_attribute():
    before = _attributes()
    with Tracer() as tracer:
        during = _attributes()
        assert all(during[k] is not before[k] for k in before)
    assert _attributes() == before
    assert qcbp.pricing.PricingEngine.sample_columns is before[("qcbp.pricing", "PricingEngine.sample_columns")]
    assert tracer.spans == []


def test_tracer_restores_after_an_error():
    before = _attributes()
    with pytest.raises(RuntimeError):
        with Tracer():
            raise RuntimeError("boom")
    assert _attributes() == before


def test_tracer_records_the_call_sites_the_solver_resolves():
    tracer = _traced_solve("exact_pricer", Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)]))
    names = {s.name for s in tracer.spans}
    assert {"bnp.solve_qcbp", "hcg.run_hcg", "pricing.exact_mwis", "rmp.solve_rmp",
            "bounds.spectral_lb", "bnp.primal_heuristic"} <= names
    assert all(s.solve == 0 for s in tracer.spans)


@pytest.mark.parametrize("sampler", ["exact_pricer", "emulated_qaa"])
def test_self_time_non_negative_and_children_within_parent(sampler):
    g = PATH3 if sampler == "emulated_qaa" else Graph.from_edges(6, list(itertools.combinations(range(4), 2)))
    spans = _traced_solve(sampler, g).spans
    selfs = self_times(spans)
    assert all(t >= 0.0 for t in selfs)
    for i, s in enumerate(spans):
        children = [c for c in spans if c.parent == i]
        assert sum(c.seconds for c in children) <= s.seconds
        for c in children:
            assert s.start <= c.start <= c.end <= s.end
    if sampler == "emulated_qaa":
        m = layer_metrics(spans, [], 1)
        assert m["embedding.embed.calls"] == m["pricing.sample_columns.calls"] >= 1
        # RunConfig defaults: 3 us at dt = 1e-3 us is 3000 steps
        assert m["emulator.evolve.amp_steps"] == sum(
            (1 << s.info["n"]) * 3000 for s in spans if s.name == "emulator.evolve")
        assert 0.0 < m["trace.layer_share"] <= 1.0


def test_self_time_with_a_stepping_clock():
    ticks = itertools.count()
    tracer = Tracer(targets=(), clock=lambda: float(next(ticks)))
    with tracer.span("outer"):          # 0 .. 7
        with tracer.span("a"):          # 1 .. 2
            pass
        with tracer.span("b"):          # 3 .. 6
            with tracer.span("c"):      # 4 .. 5
                pass
    assert [s.seconds for s in tracer.spans] == [7.0, 1.0, 3.0, 1.0]
    assert self_times(tracer.spans) == [3.0, 1.0, 2.0, 1.0]
    assert [s.parent for s in tracer.spans] == [None, 0, 0, 2]


def _result(classes, chi_hat, proven) -> SolveResult:
    return SolveResult(coloring=Coloring(classes=tuple(classes)), chi_hat=chi_hat,
                       proven_optimal=proven, lp_root=0.0, root_lb=1,
                       stats=SearchStats(), pool=ColumnPool())


@pytest.mark.parametrize("result, chi, expected", [
    (_result([0b101, 0b010], 2, True), 2, None),
    (_result([0b101, 0b010], 2, False), 2, None),
    (_result([0b001, 0b010, 0b100], 3, False), 2, None),         # not optimal, not claimed
    (_result([0b011, 0b100], 2, True), 2, "invalid_coloring"),    # 0-1 is an edge
    (_result([0b101, 0b011], 2, True), 2, "invalid_coloring"),    # overlap
    (_result([0b001, 0b010], 2, True), 2, "invalid_coloring"),    # vertex 2 uncovered
    (_result([0b101, 0b010], 3, False), 2, "invalid_coloring"),   # chi_hat != colors used
    (_result([0b101, 0b010], 2, False), 3, "below_chi"),
    (_result([0b101, 0b010], 2, True), 3, "below_chi"),           # also unsound: counted once
    (_result([0b001, 0b010, 0b100], 3, True), 2, "unsound_proof"),
])
def test_check_classifies_planted_results(result, chi, expected):
    assert check(PATH3, chi, result) == expected


def test_each_failure_counted_once(monkeypatch):
    planted = {
        "ok": (_result([0b101, 0b010], 2, True), 2),
        "invalid_coloring": (_result([0b011, 0b100], 2, True), 2),
        "below_chi": (_result([0b101, 0b010], 2, True), 3),
        "unsound_proof": (_result([0b001, 0b010, 0b100], 3, True), 2),
    }

    def fake_solve(g, config, engine=None):
        if name == "raised":
            raise RuntimeError("planted")
        return planted[name][0]

    monkeypatch.setattr(harness, "solve_qcbp", fake_solve)
    config = RunConfig(sampler="exact_pricer")
    outcomes = []
    for name in ["ok", "raised", *planted]:
        chi = planted[name][1] if name in planted else 2
        outcomes.append(solve(name, PATH3, chi, 0, config))
    assert [o.failure for o in outcomes] == [None, "raised", None, "invalid_coloring",
                                             "below_chi", "unsound_proof"]
    assert failure_counts(outcomes) == {c: 1 for c in harness.FAILURE_CLASSES}
    m = end_to_end([outcomes], setup_s=1.0, peak_rss_mb=1.0)
    assert m["pass_rate"] == 2 / 6
    assert m["optimal_rate"] == 2 / 6
    assert m["proven_rate"] == 5 / 6


def test_documented_unsound_proof_is_in_the_gnp_workload_and_counted():
    rng = np.random.default_rng([11, 20, 4])
    edges = [(i, j) for i in range(20) for j in range(i + 1, 20) if rng.random() < 0.3]
    inst = make_gnp(11, Path("."))[4]
    assert inst.graph == Graph.from_edges(20, edges)
    out = solve(inst.name, inst.graph, exact_coloring(inst.graph)[0], 4, RunConfig(sampler="exact_pricer"))
    assert (out.chi, out.result.chi_hat, out.result.proven_optimal) == (4, 5, True)
    assert out.failure == "unsound_proof"


def test_workloads_are_deterministic_per_seed(tmp_path):
    for w in WORKLOADS.values():
        a = w.make(3, tmp_path / "a")
        assert a == w.make(3, tmp_path / "b")
        assert a != w.make(4, tmp_path / "c")


def test_benchmark_json_matches_the_metrics_computed():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    e2e = end_to_end([[harness.Outcome("x", 2, 1.0, _result([0b101, 0b010], 2, True), None)]], 1.0, 1.0)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(e2e)
    assert [m["name"] for m in SPEC["per_layer"]] == list(layer_metrics([], [], 1))


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmark", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "benchmark/run.py", "--workload", "ud_qaa", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_speed_meter_runs_reference_work_in_proportion():
    meter = harness.SpeedMeter()
    meter.follow(0.0)
    assert meter.calls == 1
    meter.follow(1.0)
    assert meter.seconds >= harness.REFERENCE_SHARE * 1.0
    assert meter.scale == pytest.approx(harness.REFERENCE_WORK_S * meter.calls / meter.seconds)

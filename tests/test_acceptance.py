"""Acceptance gate: one test per criterion, each printing a PASS line on success.

Run with `pytest tests/test_acceptance.py -v -s`. The benchmark sweep
(criteria 1-3) solves 60 generated instances with the emulated sampler and is
shared across those tests via a session fixture.
"""

import math
import statistics
import time

import numpy as np
import pytest

from qcbp.bench import BenchRecord, PricingRow, RunConfig, generate_dataset, records_to_csv, run_benchmark
from qcbp.bnp import solve_qcbp
from qcbp.bounds import CEIL_TOL, spectral_lb
from qcbp.chromatic import exact_chromatic_number
from qcbp.embedding import Register, audit
from qcbp.emulator import build_adiabatic_pulse, evolve
from qcbp.graphs import Graph, iter_bits, random_ud_graph
from qcbp.pricing import IMPROVE_EPS, PricingEngine, exact_mwis, reduced_cost
from qcbp.rmp import ColumnPool, RmpModel, solve_rmp

from builders import random_graph
from oracles import all_independent_sets, brute_mwis, fidelity, lp_oracle, random_register, rk4_final_states

SWEEP_SEED = 11

pytestmark = pytest.mark.slow


def report(line: str) -> None:
    print(f"\n{line}")


@pytest.fixture(scope="session")
def sweep(tmp_path_factory):
    """Criteria 1-3: the 60-instance emulated-QAA benchmark sweep."""
    dataset = tmp_path_factory.mktemp("dataset")
    generate_dataset(dataset, ns=(8, 9, 10, 11, 12), per_n=12, ud_fraction=0.5, seed=SWEEP_SEED)
    config = RunConfig(sampler="emulated_qaa", shots=200, seed=SWEEP_SEED)
    t0 = time.perf_counter()
    records, pricing_rows = run_benchmark(dataset, config)
    wall = time.perf_counter() - t0
    return records, pricing_rows, wall


def test_criterion_1_optimality_rate(sweep):
    records, _, wall = sweep
    assert len(records) >= 60
    assert {r.n for r in records} == {8, 9, 10, 11, 12}
    assert any(r.is_ud for r in records) and any(not r.is_ud for r in records)
    rate = sum(r.chi_hat == r.chi_exact for r in records) / len(records)
    assert rate >= 0.90, f"optimality rate {rate:.3f} below 0.90"
    assert wall <= 1800, f"sweep took {wall:.0f}s, budget is 30 min"
    report(f"ACCEPTANCE 1 PASS: optimality rate {rate:.3f} over {len(records)} "
           f"instances in {wall:.0f}s (emulated-QAA pricer + exact safeguard)")


def test_criterion_2_gaps(sweep):
    records, _, _ = sweep
    worst_mean = 0.0
    for n in sorted({r.n for r in records}):
        gaps = [r.gap for r in records if r.n == n]
        worst_mean = max(worst_mean, statistics.mean(gaps))
    assert worst_mean <= 0.10, f"worst per-n mean gap {worst_mean:.3f} above 0.10"
    assert all(r.chi_hat <= r.chi_exact + 1 for r in records), "an instance exceeded chi+1"
    report(f"ACCEPTANCE 2 PASS: worst per-n mean gap {worst_mean:.3f}, no instance above chi+1")


def test_criterion_3_explored_nodes(sweep):
    records, _, _ = sweep
    median_explored = statistics.median(r.nodes_explored for r in records)
    assert median_explored <= 3, f"median explored nodes {median_explored} above 3"
    report(f"ACCEPTANCE 3 PASS: median explored nodes {median_explored}")


def test_criterion_4_exact_pricing_proves_everything():
    rng = np.random.default_rng(400)
    solves = 0
    for n in (8, 9, 10):
        for i in range(7):
            g, _ = random_ud_graph(n, seed=int(rng.integers(1 << 30)), radius=10, box=40)
            engine = PricingEngine(RunConfig(sampler="exact_pricer"))
            t0 = time.perf_counter()
            res = solve_qcbp(g, engine=engine)
            wall = time.perf_counter() - t0
            assert wall <= 10, f"n={n} solve took {wall:.1f}s"
            assert res.proven_optimal, f"n={n} instance not proven with exact pricing"
            assert res.chi_hat == exact_chromatic_number(g)
            solves += 1
    report(f"ACCEPTANCE 4 PASS: exact pricing proved {solves}/{solves} instances, all <= 10s")


def test_criterion_5_emulator_fidelity():
    rng = np.random.default_rng(500)
    cfg = RunConfig()
    by_size: dict[int, list] = {}  # n -> (case, register, pulse) per case
    for case in range(50):
        n = int(rng.integers(1, 5))
        reg = random_register(rng, n, spread=float(rng.uniform(6, 12)))
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        g = Graph.from_edges(n, edges)
        if n == 1:
            pulse = build_adiabatic_pulse(
                audit(Graph.from_edges(2, [(0, 1)]), Register(positions=((0.0, 0.0), (6.0, 0.0))), 10.0))
        else:
            pulse = build_adiabatic_pulse(audit(g, reg, 10.0))
        by_size.setdefault(n, []).append((case, reg, pulse))
    worst = 1.0
    for batch in by_size.values():
        cases, regs, pulses = zip(*batch)
        refs = rk4_final_states(list(regs), list(pulses), step=1e-4)
        for case, reg, pulse, ref in zip(cases, regs, pulses, refs):
            f = fidelity(evolve(reg, pulse, cfg), ref)
            worst = min(worst, f)
            assert f >= 1 - 1e-4, f"case {case}: fidelity {f}"
    drift_rng = np.random.default_rng(501)
    reg12 = random_register(drift_rng, 12, spread=18.0)
    pulse12 = build_adiabatic_pulse(audit(Graph.from_edges(12, []), reg12, 10.0))
    drift = abs(np.linalg.norm(evolve(reg12, pulse12, cfg)) - 1.0)
    assert drift < 1e-6, f"norm drift {drift}"
    report(f"ACCEPTANCE 5 PASS: 50 registers, worst fidelity {worst:.8f}; n=12 norm drift {drift:.1e}")


def test_criterion_6_blockade():
    cfg = RunConfig()
    g = Graph.from_edges(3, [(0, 1)])
    y = math.sqrt(8.7**2 - 2.5**2)
    rep = audit(g, Register(positions=((0.0, 0.0), (5.0, 0.0), (2.5, y))), 10.0)
    pulse = build_adiabatic_pulse(rep)
    r_b = math.sqrt(rep.r_min_gap * rep.r_max)
    worst = 0.0
    for frac in (0.61, 0.65, 0.7):
        pair = Register(positions=((0.0, 0.0), (frac * r_b, 0.0)))
        p11 = abs(evolve(pair, pulse, cfg)[0b11]) ** 2
        worst = max(worst, p11)
        assert p11 < 0.05, f"P(|11>) = {p11} at {frac} r_b"
    report(f"ACCEPTANCE 6 PASS: P(|11>) <= {worst:.2e} for pairs within 0.7 r_b")


def test_criterion_7_lp_correctness():
    rng = np.random.default_rng(700)
    for _ in range(100):
        g = random_graph(int(rng.integers(2, 10)), rng.uniform(0.1, 0.8), rng)
        model = RmpModel(g, g.full_mask)
        extra = [s for s in all_independent_sets(g) if s.bit_count() > 1 and rng.random() < 0.35]
        model.add(extra)
        sol = solve_rmp(model)
        assert abs(sol.objective - sol.duals.sum()) < 1e-7
        residual = np.zeros(g.n)
        for j, mask in enumerate(model.masks):
            for v in iter_bits(mask):
                residual[v] += sol.lam[j]
        assert np.abs(residual - 1.0).max() < 1e-9
    for _ in range(15):
        n = int(rng.integers(4, 13))
        g = random_graph(n, rng.uniform(0.2, 0.7), rng)
        masks = all_independent_sets(g)
        model = RmpModel(g, g.full_mask)
        model.add([s for s in masks if s.bit_count() > 1])
        sol = solve_rmp(model)
        assert abs(sol.objective - lp_oracle(g, model.masks)) < 1e-6
    report("ACCEPTANCE 7 PASS: 100 RMPs at 1e-7 duality / 1e-9 feasibility; "
           "15 full-pool LPs match HiGHS within 1e-6")


def test_criterion_8_pricing_soundness():
    rng = np.random.default_rng(800)
    cases = 0
    emitted = 0
    cfg = RunConfig(sampler="classical_stochastic", shots=12, seed=0)
    while cases < 10_000:
        n = int(rng.integers(2, 11))
        g = random_graph(n, rng.uniform(0.1, 0.8), rng)
        duals = rng.uniform(0.0, 1.4, size=n)
        pool = ColumnPool()
        engine = PricingEngine(cfg)
        cols, _ = engine.sample_columns(g, g.full_mask, duals, pool.samples)
        for mask in cols:
            assert g.is_independent(mask)
            assert reduced_cost(mask, duals) < -IMPROVE_EPS
            assert mask not in pool.columns
        emitted += len(cols)
        cases += 1
    # the same filter path through the emulated sampler
    em_cfg = RunConfig(sampler="emulated_qaa", shots=60, seed=1)
    for i in range(40):
        g, _ = random_ud_graph(int(rng.integers(3, 7)), seed=int(rng.integers(1 << 30)), radius=10, box=22)
        duals = rng.uniform(0.2, 1.2, size=g.n)
        pool = ColumnPool()
        engine = PricingEngine(em_cfg)
        cols, _ = engine.sample_columns(g, g.full_mask, duals, pool.samples)
        for mask in cols:
            assert g.is_independent(mask)
            assert reduced_cost(mask, duals) < -IMPROVE_EPS
            assert mask not in pool.columns
        emitted += len(cols)
    mismatches = 0
    for _ in range(200):
        n = int(rng.integers(2, 17))
        g = random_graph(n, rng.uniform(0.1, 0.9), rng)
        w = rng.uniform(-0.3, 1.3, size=n)
        got = exact_mwis(g, w)
        value = sum(float(w[v]) for v in iter_bits(got))
        if abs(value - brute_mwis(g, w)[0]) > 1e-9 or not g.is_independent(got):
            mismatches += 1
    assert mismatches == 0
    report(f"ACCEPTANCE 8 PASS: 10040 pricing calls sound ({emitted} columns emitted); "
           "exact MWIS matches enumeration on 200 weight vectors up to n=16")


def test_criterion_9_bound_soundness():
    rng = np.random.default_rng(900)
    for _ in range(200):
        n = int(rng.integers(1, 11))
        g = random_graph(n, rng.uniform(0.0, 1.0), rng)
        assert math.ceil(spectral_lb(g) - CEIL_TOL) <= exact_chromatic_number(g)
    for n in range(2, 9):
        g = Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
        assert abs(spectral_lb(g) - n) < 1e-8
    report("ACCEPTANCE 9 PASS: spectral bound sound on 200 graphs; Hoffman exact on K2..K8")


def test_criterion_10_determinism(tmp_path):
    import itertools

    dataset = tmp_path / "det"
    generate_dataset(dataset, ns=(5, 6), per_n=3, ud_fraction=0.5, seed=77)
    outputs = []
    for _ in range(2):
        ticker = itertools.count()
        clock = lambda: float(next(ticker))  # noqa: E731
        config = RunConfig(sampler="emulated_qaa", shots=60, seed=77, dt=2e-3)
        records, pricing_rows = run_benchmark(dataset, config, clock=clock)
        outputs.append((records_to_csv(records, BenchRecord), records_to_csv(pricing_rows, PricingRow)))
    assert outputs[0] == outputs[1], "benchmark CSV not byte-identical across runs"
    report("ACCEPTANCE 10 PASS: fixed seeds reproduce byte-identical benchmark CSV")
